#include "core/port_calls.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/mutex.h"

namespace pol::core {
namespace {

// Two stationary periods in the same port merge into one call when the
// gap between them is at most this (reception gaps, brief shifts along
// the quay).
constexpr int64_t kMergeGapSeconds = 12 * 3600;
// Calls shorter than this are discarded as geofence noise.
constexpr int64_t kMinDurationSeconds = 15 * 60;

}  // namespace

std::vector<PortCall> ExtractPortCalls(
    const flow::Dataset<PipelineRecord>& records, const Geofencer& geofencer) {
  Mutex mutex;
  std::vector<PortCall> calls;

  records.pool()->ParallelFor(
      static_cast<size_t>(records.num_partitions()), [&](size_t p) {
        std::vector<PortCall> local;
        PortCall open;  // open.port == kNoPort means no call in progress.
        auto close_call = [&local](PortCall* call) {
          if (call->port != sim::kNoPort &&
              call->DurationSeconds() >= kMinDurationSeconds) {
            local.push_back(*call);
          }
          call->port = sim::kNoPort;
        };
        for (const PipelineRecord& record :
             records.partition(static_cast<int>(p))) {
          if (open.port != sim::kNoPort && record.mmsi != open.mmsi) {
            close_call(&open);
          }
          const sim::PortId port =
              geofencer.PortAt({record.lat_deg, record.lng_deg});
          if (port == sim::kNoPort || !IsStationary(record)) {
            // A call stays open across non-stop records until the merge
            // gap expires (a vessel shifting berth keeps its call).
            if (open.port != sim::kNoPort &&
                record.timestamp - open.departure > kMergeGapSeconds) {
              close_call(&open);
            }
            continue;
          }
          if (open.port == port && open.mmsi == record.mmsi &&
              record.timestamp - open.departure <= kMergeGapSeconds) {
            open.departure = record.timestamp;
            ++open.records;
            continue;
          }
          close_call(&open);
          open.mmsi = record.mmsi;
          open.port = port;
          open.arrival = record.timestamp;
          open.departure = record.timestamp;
          open.records = 1;
        }
        close_call(&open);
        const MutexLock lock(mutex);
        calls.insert(calls.end(), local.begin(), local.end());
      });

  std::sort(calls.begin(), calls.end(),
            [](const PortCall& a, const PortCall& b) {
              if (a.mmsi != b.mmsi) return a.mmsi < b.mmsi;
              return a.arrival < b.arrival;
            });
  return calls;
}

}  // namespace pol::core
