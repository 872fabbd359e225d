#ifndef POL_CORE_TRIPS_H_
#define POL_CORE_TRIPS_H_

#include <cstdint>

#include "core/geofence.h"
#include "core/records.h"
#include "flow/dataset.h"

// Trip semantics extraction (paper section 3.3.2). All messages of a
// vessel captured between two consecutive port stops form a trip; the
// first and last records outside the port geometries carry the origin
// and destination timestamps. Records that cannot be attributed to a
// trip — inside a port, before the first observed call, after the last —
// are excluded from further analysis, exactly as in the paper.
//
// A port *stop* requires more than geofence presence: several strait and
// fairway chokepoints lie inside port approach areas (the Singapore
// Strait crosses Singapore's, Gibraltar passes Tanger Med's), and a
// vessel transiting at sea speed is not calling. A fence record counts
// as a stop only when the vessel is actually stationary there — SOG
// below `stop_speed_knots` or a moored/anchored navigational status.
// Transit records inside a fence remain part of the running trip.
//
// Each annotated record carries:
//   * the trip identifier (a hash of vessel and departure time);
//   * origin / destination port ids;
//   * ETO, the elapsed time from the origin;
//   * ATA, the actual (remaining) time to arrival.

namespace pol::core {

// Stats ACCUMULATE across ExtractTrips calls (the pipeline extracts
// chunk by chunk); pass a fresh struct for single-call totals.
struct TripStats {
  uint64_t input = 0;
  uint64_t trips = 0;
  uint64_t annotated = 0;
  uint64_t excluded = 0;

  bool operator==(const TripStats&) const = default;

  void Accumulate(const TripStats& other) {
    input += other.input;
    trips += other.trips;
    annotated += other.annotated;
    excluded += other.excluded;
  }
};

// Stable trip identifier.
uint64_t MakeTripId(ais::Mmsi mmsi, UnixSeconds departure);

struct TripConfig {
  // Fence records at or above this speed are transits, not stops.
  double stop_speed_knots = 1.5;
};

// Extracts trips. `records` must be vessel-partitioned and time-sorted
// (the output of CleanReports). The result keeps only trip-annotated
// records and preserves per-vessel ordering.
flow::Dataset<PipelineRecord> ExtractTrips(
    const flow::Dataset<PipelineRecord>& records, const Geofencer& geofencer,
    TripStats* stats, const TripConfig& config = TripConfig());

}  // namespace pol::core

#endif  // POL_CORE_TRIPS_H_
