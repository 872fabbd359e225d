#ifndef POL_USECASES_CONGESTION_H_
#define POL_USECASES_CONGESTION_H_

#include <vector>

#include "core/port_calls.h"
#include "sim/ports.h"

// Port congestion monitoring — the visibility the paper's introduction
// motivates (COVID-era port disruptions, queue build-ups). Derived from
// the reconstructed port-call table plus anchorage dwell detection: for
// each port, how many calls, how long alongside, and how long vessels
// waited at anchor in the approaches before berthing.

namespace pol::uc {

struct PortActivity {
  sim::PortId port = sim::kNoPort;
  uint64_t calls = 0;
  double mean_stay_hours = 0.0;
  double p90_stay_hours = 0.0;
  // Pre-berth anchorage waits (0 when vessels berth directly).
  uint64_t waits = 0;
  double mean_wait_hours = 0.0;
};

// Aggregates port activity from the call table and (for waits) the
// cleaned record stream. An anchorage wait is a stationary period
// (below core::kStopSpeedKnots or at anchor) of at least two hours,
// outside the port's fence but within 40 km of it, that a berth call of
// the same vessel in that port follows within 24 hours. `records` must
// be vessel-partitioned and time-sorted; `calls` sorted by (mmsi,
// arrival) as ExtractPortCalls returns them. Results are sorted by call
// count, busiest first.
std::vector<PortActivity> AnalyzePortActivity(
    const std::vector<core::PortCall>& calls,
    const flow::Dataset<core::PipelineRecord>& records,
    const sim::PortDatabase& ports);

}  // namespace pol::uc

#endif  // POL_USECASES_CONGESTION_H_
