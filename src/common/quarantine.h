#ifndef POL_COMMON_QUARANTINE_H_
#define POL_COMMON_QUARANTINE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

// A dead-letter store: the landing zone for inputs a fault-tolerant
// consumer refuses to process but must not silently drop. A producer
// (today ais::NmeaDecoder, for every sentence it rejects) records the
// failing payload together with the error that condemned it. Failed
// pipeline chunks do not land here: flow::StageRunner reports them as
// ChunkFailure entries in its RunSummary. The store keeps
// per-(source, reason) counters for coverage reporting plus a bounded
// sample of raw payloads for postmortems. Thread-safe; counting never
// saturates, only the retained samples are capped.

namespace pol {

// One condemned input.
struct DeadLetter {
  std::string source;   // Producer site, e.g. "ingest.nmea".
  Status status;        // Why it was condemned.
  std::string payload;  // The offending raw input (possibly truncated).
  uint64_t sequence = 0;  // Producer-assigned position (0 when unknown).
};

class QuarantineStore {
 public:
  // `max_retained` bounds the dead-letter samples kept in memory;
  // counters keep counting past the cap.
  explicit QuarantineStore(size_t max_retained = 128)
      : max_retained_(max_retained) {}

  // Records one condemned input. `payload` is stored (truncated to 256
  // bytes) only while the retention cap has room.
  void Record(std::string_view source, const Status& status,
              std::string_view payload = {}, uint64_t sequence = 0);

  // Total condemned inputs across all sources.
  uint64_t total() const;

  // Condemned inputs for one source.
  uint64_t CountForSource(std::string_view source) const;

  // Per-(source, reason) counters: ("ingest.nmea", kCorruption) -> n.
  std::map<std::pair<std::string, StatusCode>, uint64_t> Counters() const;

  // The retained dead letters, oldest first (at most `max_retained`).
  std::vector<DeadLetter> Letters() const;

  // Renders the counters as "source/CodeName: n" lines (reports, logs).
  std::string CountersToString() const;

 private:
  const size_t max_retained_;
  mutable Mutex mutex_;
  std::map<std::pair<std::string, StatusCode>, uint64_t> counters_
      POL_GUARDED_BY(mutex_);
  std::vector<DeadLetter> letters_ POL_GUARDED_BY(mutex_);
};

}  // namespace pol

#endif  // POL_COMMON_QUARANTINE_H_
