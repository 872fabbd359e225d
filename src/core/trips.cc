#include "core/trips.h"

#include <atomic>
#include <vector>

#include "common/rng.h"

namespace pol::core {

uint64_t MakeTripId(ais::Mmsi mmsi, UnixSeconds departure) {
  // SplitMix of the packed pair: cheap, stable, collision-negligible.
  uint64_t state = (static_cast<uint64_t>(mmsi) << 32) ^
                   static_cast<uint64_t>(departure);
  const uint64_t id = SplitMix64(state);
  return id == 0 ? 1 : id;  // 0 is reserved for "no trip".
}

bool IsStationary(const PipelineRecord& record) {
  if (record.nav_status == ais::NavStatus::kMoored ||
      record.nav_status == ais::NavStatus::kAtAnchor ||
      record.nav_status == ais::NavStatus::kAground) {
    return true;
  }
  return record.sog_knots < kStopSpeedKnots;
}

namespace {

// Scans one vessel's contiguous, time-sorted run [begin, end) and
// appends annotated in-trip records to `out`.
void AnnotateVessel(const std::vector<PipelineRecord>& part, size_t begin,
                    size_t end, const Geofencer& geofencer,
                    std::vector<PipelineRecord>* out, uint64_t* trips) {
  // Segment the run into port visits and sea legs. A sea leg between two
  // port visits is a trip.
  sim::PortId last_port = sim::kNoPort;  // Last port visit seen.
  size_t leg_start = end;                // First at-sea index of the leg.
  for (size_t i = begin; i < end; ++i) {
    sim::PortId port = geofencer.PortAt({part[i].lat_deg, part[i].lng_deg});
    if (port != sim::kNoPort && !IsStationary(part[i])) {
      port = sim::kNoPort;  // Transit through a fence, not a call.
    }
    if (port == sim::kNoPort) {
      if (leg_start == end) leg_start = i;
      continue;
    }
    // Inside a port: close any open sea leg.
    if (leg_start != end && last_port != sim::kNoPort) {
      const UnixSeconds departure = part[leg_start].timestamp;
      const UnixSeconds arrival = part[i].timestamp;
      const uint64_t trip_id = MakeTripId(part[leg_start].mmsi, departure);
      ++*trips;
      for (size_t j = leg_start; j < i; ++j) {
        PipelineRecord record = part[j];
        record.trip_id = trip_id;
        record.origin = last_port;
        record.destination = port;
        record.eto_s = record.timestamp - departure;
        record.ata_s = arrival - record.timestamp;
        out->push_back(record);
      }
    }
    last_port = port;
    leg_start = end;
  }
  // A trailing open leg has no known destination: excluded.
}

}  // namespace

flow::Dataset<PipelineRecord> ExtractTrips(
    const flow::Dataset<PipelineRecord>& records, const Geofencer& geofencer,
    TripStats* stats) {
  std::atomic<uint64_t> trips{0};
  flow::Dataset<PipelineRecord> annotated = records.MapPartitions(
      [&geofencer, &trips](const std::vector<PipelineRecord>& part) {
        std::vector<PipelineRecord> out;
        uint64_t local_trips = 0;
        size_t run_start = 0;
        for (size_t i = 1; i <= part.size(); ++i) {
          if (i == part.size() || part[i].mmsi != part[run_start].mmsi) {
            AnnotateVessel(part, run_start, i, geofencer, &out, &local_trips);
            run_start = i;
          }
        }
        trips.fetch_add(local_trips, std::memory_order_relaxed);
        return out;
      });
  if (stats != nullptr) {
    const uint64_t input = records.Count();
    const uint64_t kept = annotated.Count();
    stats->input += input;
    stats->trips += trips.load();
    stats->annotated += kept;
    stats->excluded += input - kept;
  }
  return annotated;
}

}  // namespace pol::core
