#include "usecases/congestion.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "common/mutex.h"
#include "core/trips.h"
#include "geo/geodesic.h"

namespace pol::uc {
namespace {

// The anchorage-wait rule (see AnalyzePortActivity). Unlike the stop
// rule of trips and port calls, moored or aground does not count as
// waiting: only the speed and an at-anchor status do.
constexpr double kAnchorageReachKm = 40.0;
constexpr int64_t kMinWaitSeconds = 2 * 3600;
constexpr int64_t kWaitToCallGapSeconds = 24 * 3600;

struct Wait {
  ais::Mmsi mmsi;
  sim::PortId port;
  UnixSeconds start;
  UnixSeconds end;
};

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[static_cast<size_t>(q * static_cast<double>(values.size() - 1))];
}

}  // namespace

std::vector<PortActivity> AnalyzePortActivity(
    const std::vector<core::PortCall>& calls,
    const flow::Dataset<core::PipelineRecord>& records,
    const sim::PortDatabase& ports) {
  // Detect anchorage waits: stationary runs near (but not in) a port.
  Mutex mutex;
  std::vector<Wait> waits;
  records.pool()->ParallelFor(
      static_cast<size_t>(records.num_partitions()), [&](size_t p) {
        std::vector<Wait> local;
        Wait open{0, sim::kNoPort, 0, 0};
        auto close = [&local](Wait* w) {
          if (w->port != sim::kNoPort &&
              w->end - w->start >= kMinWaitSeconds) {
            local.push_back(*w);
          }
          w->port = sim::kNoPort;
        };
        for (const core::PipelineRecord& record :
             records.partition(static_cast<int>(p))) {
          if (open.port != sim::kNoPort && record.mmsi != open.mmsi) {
            close(&open);
          }
          const bool stationary =
              record.sog_knots < core::kStopSpeedKnots ||
              record.nav_status == ais::NavStatus::kAtAnchor;
          sim::PortId near_port = sim::kNoPort;
          if (stationary) {
            const sim::Port* nearest =
                ports.Nearest({record.lat_deg, record.lng_deg});
            if (nearest != nullptr) {
              const double km = geo::HaversineKm(
                  {record.lat_deg, record.lng_deg}, nearest->position);
              // Outside the fence but within anchorage reach.
              if (km > nearest->geofence_radius_km &&
                  km <= kAnchorageReachKm) {
                near_port = nearest->id;
              }
            }
          }
          if (near_port == sim::kNoPort) {
            close(&open);
            continue;
          }
          if (open.port == near_port && open.mmsi == record.mmsi) {
            open.end = record.timestamp;
          } else {
            close(&open);
            open = {record.mmsi, near_port, record.timestamp,
                    record.timestamp};
          }
        }
        close(&open);
        const MutexLock lock(mutex);
        waits.insert(waits.end(), local.begin(), local.end());
      });

  // Link waits to the following berth call of the same vessel and port.
  std::map<sim::PortId, std::vector<double>> wait_hours;
  for (const Wait& wait : waits) {
    for (const core::PortCall& call : calls) {
      if (call.mmsi != wait.mmsi || call.port != wait.port) continue;
      if (call.arrival >= wait.end &&
          call.arrival - wait.end <= kWaitToCallGapSeconds) {
        wait_hours[wait.port].push_back(
            static_cast<double>(wait.end - wait.start) / 3600.0);
        break;
      }
    }
  }

  // Per-port aggregates.
  std::map<sim::PortId, std::vector<double>> stay_hours;
  for (const core::PortCall& call : calls) {
    stay_hours[call.port].push_back(
        static_cast<double>(call.DurationSeconds()) / 3600.0);
  }
  std::vector<PortActivity> activity;
  for (const auto& [port, stays] : stay_hours) {
    PortActivity entry;
    entry.port = port;
    entry.calls = stays.size();
    double sum = 0;
    for (const double h : stays) sum += h;
    entry.mean_stay_hours = sum / static_cast<double>(stays.size());
    entry.p90_stay_hours = Percentile(stays, 0.9);
    const auto it = wait_hours.find(port);
    if (it != wait_hours.end()) {
      entry.waits = it->second.size();
      double wait_sum = 0;
      for (const double h : it->second) wait_sum += h;
      entry.mean_wait_hours =
          wait_sum / static_cast<double>(it->second.size());
    }
    activity.push_back(entry);
  }
  std::sort(activity.begin(), activity.end(),
            [](const PortActivity& a, const PortActivity& b) {
              if (a.calls != b.calls) return a.calls > b.calls;
              return a.port < b.port;
            });
  return activity;
}

}  // namespace pol::uc
