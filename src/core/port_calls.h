#ifndef POL_CORE_PORT_CALLS_H_
#define POL_CORE_PORT_CALLS_H_

#include <vector>

#include "core/geofence.h"
#include "core/records.h"
#include "core/trips.h"
#include "flow/dataset.h"

// Port-call reconstruction (paper section 3.3.2: "the geofencing
// technique for reconstruction of port calls"): the table of discrete
// visits — which vessel was alongside in which port, from when to when.
// This is the event log port authorities and terminal operators consume,
// and the skeleton the trip extraction hangs its origin/destination
// semantics on.

namespace pol::core {

struct PortCall {
  ais::Mmsi mmsi = 0;
  sim::PortId port = sim::kNoPort;
  UnixSeconds arrival = 0;    // First stationary in-fence record.
  UnixSeconds departure = 0;  // Last stationary in-fence record.
  uint64_t records = 0;       // Records attributed to the call.

  int64_t DurationSeconds() const { return departure - arrival; }
};

// Reconstructs port calls: a call is a run of stationary in-fence
// records (IsStationary, the trip extractor's stop rule) in one port;
// runs at most 12 h apart merge, and calls shorter than 15 min are
// dropped. `records` must be vessel-partitioned and time-sorted
// (CleanReports output). Calls are returned sorted by (mmsi, arrival).
std::vector<PortCall> ExtractPortCalls(
    const flow::Dataset<PipelineRecord>& records, const Geofencer& geofencer);

}  // namespace pol::core

#endif  // POL_CORE_PORT_CALLS_H_
