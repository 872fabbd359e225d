#ifndef POL_OBS_QUERYLOG_H_
#define POL_OBS_QUERYLOG_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/json.h"
#include "obs/stripe.h"

// The slow-query log of the serving path (DESIGN.md §3.8): one wide
// event per admitted query — id, class, operation, status, queue wait,
// scan time, deadline budget left, snapshot id, summaries visited —
// kept in two fixed-capacity rings. Notable queries (any non-OK
// status, or a scan at or over the slow threshold) are retained
// preferentially in their own ring; the healthy rest flow through a
// reservoir sample, so the log always answers both "what went wrong
// lately" and "what does normal look like" in bounded memory.
//
// Ids are process-unique and also stamped into the query's trace span
// ("serving.query.<op>#<id>"), so a trace and its query-log row join
// on id.
//
// The string fields (class, op, status) must point at static-storage
// strings (string literals, StatusCodeName results): events are POD-ish
// copies and recording must not allocate. Totals are always-on relaxed
// atomics so counter reconciliation (admitted == logged OK + logged
// errors) holds exactly even when rings wrap.
//
// Recording threads share as little as possible (obs/stripe.h): the
// ok/errors/slow totals are striped per thread, and the notable ring is
// one ring per stripe, each under its own mutex that only threads
// sharing the stripe (and readers) ever contend. Two shared words stay:
// the id counter, because ids are process-unique and increasing, and
// the reservoir's seen-counter (healthy events only), because the
// sample must stay uniform over all of them.

namespace pol::obs {

// One wide event. Defaults describe "no value": a negative
// deadline_remaining_seconds means the query ran without a deadline.
struct QueryEvent {
  uint64_t id = 0;
  std::string_view query_class;  // "interactive" / "batch".
  std::string_view op;           // "query", "visit", "route", ...
  std::string_view status;       // StatusCodeName(), e.g. "Ok".
  bool ok = true;
  double queue_wait_seconds = 0.0;
  double scan_seconds = 0.0;
  double deadline_remaining_seconds = -1.0;
  uint64_t snapshot_id = 0;
  uint64_t summaries_visited = 0;
};

// One event as a JSON object (the JSONL export row). Non-finite
// doubles are sanitized to -1.0 — obs::Json has no NaN/Infinity, and
// the export must always parse back.
Json QueryEventToJson(const QueryEvent& event);

struct QueryLogOptions {
  size_t notable_capacity = 128;  // Slow / non-OK ring.
  size_t sampled_capacity = 128;  // Reservoir over the healthy rest.
  double slow_seconds = 0.100;    // Scan time that makes a query "slow".
};

class QueryLog {
 public:
  explicit QueryLog(QueryLogOptions options = QueryLogOptions());

  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  // The next process-unique query id (starting at 1; 0 means "no id",
  // which is what disabled builds hand out).
  uint64_t NextId();

  void Record(const QueryEvent& event);

  // Always-on accounting over every Record, independent of ring
  // retention. events == ok + errors; slow counts scans at or over the
  // threshold whatever their status.
  struct Totals {
    uint64_t events = 0;
    uint64_t ok = 0;
    uint64_t errors = 0;
    uint64_t slow = 0;
  };
  Totals totals() const;

  // Retained events, sorted by id. NotableEvents merges the per-stripe
  // rings and keeps the newest notable_capacity of them.
  std::vector<QueryEvent> NotableEvents() const;
  std::vector<QueryEvent> SampledEvents() const;

  // Every retained event as JSONL: one compact JSON object per line,
  // sorted by id across both rings.
  std::string ExportJsonl() const;

  const QueryLogOptions& options() const { return options_; }

 private:
  // splitmix64 finalizer: the reservoir draw for healthy event number
  // `seen` is Mix(seen) mapped into [0, seen] — stateless, so the hot
  // path pays no extra atomic for randomness (rand() is banned in
  // library code and obs sits below common/rng).
  static uint64_t Mix(uint64_t value);

  // One stripe's notable ring: overwrites its oldest once full.
  struct alignas(kCacheLineBytes) NotableRing {
    mutable Mutex mutex;
    std::vector<QueryEvent> events POL_GUARDED_BY(mutex);
    size_t next POL_GUARDED_BY(mutex) = 0;
  };

  const QueryLogOptions options_;
  alignas(kCacheLineBytes) std::atomic<uint64_t> next_id_{0};
  alignas(kCacheLineBytes) std::atomic<uint64_t> sampled_seen_{0};
  // events == ok + errors by construction; totals() derives it.
  Counter ok_;
  Counter errors_;
  Counter slow_;

  std::array<NotableRing, kStripeCount> notable_;
  mutable Mutex mutex_;
  std::vector<QueryEvent> sampled_ POL_GUARDED_BY(mutex_);
};

}  // namespace pol::obs

#endif  // POL_OBS_QUERYLOG_H_
