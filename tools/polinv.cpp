// polinv — command-line inspector for Patterns-of-Life inventories. An
// <inv> is a snapshot-store directory (its newest readable generation,
// falling back past torn or corrupt ones, as a cold start does) or one
// POLSNAP1 file (a generation, or Inventory::SerializeTo bytes).
//
//   polinv stats <inv>                     source, per-grouping-set counts,
//                                          snapshot index sizes
//   polinv query <inv> <lat> <lng>         Table-3 summary of the cell
//   polinv route <inv> <o> <d> <segment>   corridor cells of a route key
//                                          (seal-time route sections)
//   polinv top <inv> <n>                   n busiest cells
//   polinv export <inv>                    CSV of the (cell) grouping set
//   polinv geojson <inv> [min_records]     cell polygons as GeoJSON
//   polinv snapshots <store-dir>           list a snapshot store's
//                                          generations: size, CRC status,
//                                          seal stats, cold-start pick
//   polinv report <file.json>              pretty-print a run report
//   polinv watch <metrics.txt> [opts]      tail an OpenMetrics export
//                                          (ServingGuard telemetry
//                                          exporter output) as a live
//                                          one-screen serving table
//
// Every inventory command queries through core::InventoryQuery against
// the mapped InventorySnapshot — the same read path a serving process
// uses — never the raw summary map.
//
// Exit code 0 on success, 1 on usage errors, 2 on IO/corruption.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/inventory_snapshot.h"
#include "core/snapshot_codec.h"
#include "flow/stage.h"
#include "hexgrid/hexgrid.h"
#include "obs/json.h"
#include "obs/openmetrics.h"
#include "sim/ports.h"
#include "store/atomic_file.h"
#include "store/snapshot_format.h"
#include "store/snapshot_store.h"

namespace pol {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage (<inv>: a snapshot-store directory or snapshot file):\n"
               "  polinv stats   <inv>\n"
               "  polinv query   <inv> <lat> <lng>\n"
               "  polinv route   <inv> <origin> <dest> <segment>\n"
               "  polinv top     <inv> <n>\n"
               "  polinv export  <inv>\n"
               "  polinv geojson <inv> [min_records]\n"
               "  polinv snapshots <store-dir>\n"
               "  polinv report  <report.json>\n"
               "  polinv watch   <metrics.txt> [--interval=SECONDS] "
               "[--iterations=N] [--once] [--no-clear]\n");
  return 1;
}

// Maps the inventory at `path`; `*source` names the file served.
Result<std::shared_ptr<const core::InventorySnapshot>> Open(
    const std::string& path, std::string* source) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    const store::SnapshotStore snapshot_store(
        store::SnapshotStoreOptions{path, /*keep=*/3});
    uint64_t generation = 0;
    auto snapshot = core::OpenLatestSnapshot(snapshot_store, &generation);
    *source = snapshot_store.GenerationPath(generation);
    return snapshot;
  }
  *source = path;
  POL_ASSIGN_OR_RETURN(store::SnapshotStore::Opened opened,
                       store::OpenSnapshotFile(path));
  return core::SnapshotFromOpened(std::move(opened));
}

int CmdStats(const core::InventorySnapshot& inv, const std::string& source) {
  std::printf("source:            %s\n", source.c_str());
  std::printf("resolution:        %d (mean cell ~%.1f km^2)\n",
              inv.resolution(), hex::MeanCellAreaKm2(inv.resolution()));
  std::printf("summaries:         %zu\n", inv.size());
  uint64_t records = 0;
  inv.VisitGroupingSet(core::GroupingSet::kCell,
                       [&records](const core::GroupKey&,
                                  const core::CellSummary& summary) {
                         records += summary.record_count();
                       });
  static const char* kNames[] = {"(cell)", "(cell,type)",
                                 "(cell,origin,destination,type)"};
  const core::InventorySnapshotStats& stats = inv.stats();
  for (int gs = 0; gs < core::kNumGroupingSets; ++gs) {
    std::printf("  grouping set %d %-32s %llu\n", gs, kNames[gs],
                static_cast<unsigned long long>(
                    stats.summaries_per_set[static_cast<size_t>(gs)]));
  }
  std::printf("records aggregated: %llu\n",
              static_cast<unsigned long long>(records));
  std::printf("distinct cells:     %llu\n",
              static_cast<unsigned long long>(inv.DistinctCells()));
  std::printf("snapshot indexes:   %llu route keys over %llu cells, "
              "%llu cells with per-type summaries (sealed in %.3f ms)\n",
              static_cast<unsigned long long>(stats.route_index_routes),
              static_cast<unsigned long long>(stats.route_index_cells),
              static_cast<unsigned long long>(stats.segment_index_cells),
              stats.seal_seconds * 1e3);
  return 0;
}

void PrintSummary(const core::CellSummary& s) {
  std::printf("  records:            %llu\n",
              static_cast<unsigned long long>(s.record_count()));
  std::printf("  ships / trips:      %.0f / %.0f\n", s.ships().Estimate(),
              s.trips().Estimate());
  if (s.speed().count() > 0) {
    std::printf("  speed kn:           mean %.1f std %.1f p10/p50/p90 "
                "%.1f/%.1f/%.1f\n",
                s.speed().Mean(), s.speed().StdDev(),
                s.speed_percentiles().Quantile(0.1),
                s.speed_percentiles().Quantile(0.5),
                s.speed_percentiles().Quantile(0.9));
  }
  if (s.course_mean().count() > 0) {
    std::printf("  course deg:         mean* %.0f (R %.2f), mode bin "
                "[%g,%g)\n",
                s.course_mean().MeanDeg(),
                s.course_mean().ResultantLength(),
                s.course_bins().bin_lo(s.course_bins().ModeBin()),
                s.course_bins().bin_hi(s.course_bins().ModeBin()));
  }
  if (s.eto().count() > 0) {
    std::printf("  ETO h:              mean %.1f p50 %.1f\n",
                s.eto().Mean() / 3600,
                s.eto_percentiles().Quantile(0.5) / 3600);
    std::printf("  ATA h:              mean %.1f p50 %.1f\n",
                s.ata().Mean() / 3600,
                s.ata_percentiles().Quantile(0.5) / 3600);
  }
  const auto& ports = sim::PortDatabase::Global();
  for (const auto& dest : s.destinations().TopN(3)) {
    const auto port = ports.Find(static_cast<sim::PortId>(dest.key));
    std::printf("  top destination:    %s (%llu)\n",
                port.ok() ? (*port)->name.c_str() : "?",
                static_cast<unsigned long long>(dest.count));
  }
  for (const auto& origin : s.origins().TopN(3)) {
    const auto port = ports.Find(static_cast<sim::PortId>(origin.key));
    std::printf("  top origin:         %s (%llu)\n",
                port.ok() ? (*port)->name.c_str() : "?",
                static_cast<unsigned long long>(origin.count));
  }
}

int CmdQuery(const core::InventoryQuery& inv, double lat, double lng) {
  const geo::LatLng p{lat, lng};
  if (!p.IsValid()) {
    std::fprintf(stderr, "invalid coordinates\n");
    return 1;
  }
  const hex::CellIndex cell = hex::LatLngToCell(p, inv.resolution());
  std::printf("cell %s at %s\n", hex::CellToString(cell).c_str(),
              hex::CellToLatLng(cell).ToString().c_str());
  const core::CellSummary* summary = inv.Cell(cell);
  if (summary == nullptr) {
    std::printf("  (no recorded traffic)\n");
    return 0;
  }
  PrintSummary(*summary);
  return 0;
}

int CmdTop(const core::InventoryQuery& inv, int n) {
  std::vector<std::pair<uint64_t, hex::CellIndex>> ranked;
  inv.VisitGroupingSet(core::GroupingSet::kCell,
                       [&ranked](const core::GroupKey& key,
                                 const core::CellSummary& summary) {
                         ranked.push_back({summary.record_count(), key.cell});
                       });
  std::sort(ranked.rbegin(), ranked.rend());
  std::printf("%-6s %-22s %-26s %s\n", "rank", "cell", "centre", "records");
  for (int i = 0; i < n && i < static_cast<int>(ranked.size()); ++i) {
    std::printf("%-6d %-22s %-26s %llu\n", i + 1,
                hex::CellToString(ranked[static_cast<size_t>(i)].second).c_str(),
                hex::CellToLatLng(ranked[static_cast<size_t>(i)].second)
                    .ToString()
                    .c_str(),
                static_cast<unsigned long long>(
                    ranked[static_cast<size_t>(i)].first));
  }
  return 0;
}

// Accepts a segment name ("container", case-sensitive as printed by
// ais::MarketSegmentName) or its numeric value.
bool ParseSegment(const char* arg, ais::MarketSegment* out) {
  for (int i = 0; i < ais::kNumMarketSegments; ++i) {
    const auto segment = static_cast<ais::MarketSegment>(i);
    if (ais::MarketSegmentName(segment) == arg) {
      *out = segment;
      return true;
    }
  }
  char* end = nullptr;
  const long value = std::strtol(arg, &end, 10);
  if (end == arg || *end != '\0' || value < 0 ||
      value >= ais::kNumMarketSegments) {
    return false;
  }
  *out = static_cast<ais::MarketSegment>(value);
  return true;
}

int CmdRoute(const core::InventoryQuery& inv, const char* origin_arg,
             const char* dest_arg, const char* segment_arg) {
  const auto origin = static_cast<sim::PortId>(std::atoi(origin_arg));
  const auto destination = static_cast<sim::PortId>(std::atoi(dest_arg));
  ais::MarketSegment segment;
  if (!ParseSegment(segment_arg, &segment)) {
    std::fprintf(stderr, "unknown segment '%s' (name or 0..%d)\n", segment_arg,
                 ais::kNumMarketSegments - 1);
    return 1;
  }
  const core::InventoryQuery::RouteCorridor corridor =
      inv.CorridorForRoute(origin, destination, segment);
  std::printf("route %u -> %u [%.*s]: %zu corridor cells\n",
              static_cast<unsigned>(origin), static_cast<unsigned>(destination),
              static_cast<int>(ais::MarketSegmentName(segment).size()),
              ais::MarketSegmentName(segment).data(), corridor.cells.size());
  std::printf("%-22s %-26s %-10s %s\n", "cell", "centre", "records",
              "speed_mean");
  for (const hex::CellIndex cell : corridor.cells) {
    // The summaries live under the orientation that answered.
    const core::CellSummary* s = inv.CellRouteType(
        cell, corridor.origin, corridor.destination, segment);
    std::printf("%-22s %-26s %-10llu %.2f\n", hex::CellToString(cell).c_str(),
                hex::CellToLatLng(cell).ToString().c_str(),
                static_cast<unsigned long long>(s ? s->record_count() : 0),
                s ? s->speed().Mean() : 0.0);
  }
  return 0;
}

int CmdExport(const core::InventoryQuery& inv) {
  std::printf(
      "cell,lat,lng,records,ships,trips,speed_mean,speed_p50,course_mean,"
      "course_concentration,eto_mean_s,ata_mean_s\n");
  inv.VisitGroupingSet(
      core::GroupingSet::kCell,
      [](const core::GroupKey& key, const core::CellSummary& s) {
        const geo::LatLng c = hex::CellToLatLng(key.cell);
        std::printf(
            "%llu,%.6f,%.6f,%llu,%.0f,%.0f,%.2f,%.2f,%.1f,%.3f,%.0f,%.0f\n",
            static_cast<unsigned long long>(key.cell), c.lat_deg, c.lng_deg,
            static_cast<unsigned long long>(s.record_count()),
            s.ships().Estimate(), s.trips().Estimate(), s.speed().Mean(),
            s.speed_percentiles().Quantile(0.5), s.course_mean().MeanDeg(),
            s.course_mean().ResultantLength(), s.eto().Mean(), s.ata().Mean());
      });
  return 0;
}

// GeoJSON FeatureCollection of the (cell) grouping set: one hexagon
// polygon per cell with the headline statistics as properties. Feed it
// straight into QGIS / kepler.gl / geojson.io for the Figure 1 style
// visualisation.
int CmdGeoJson(const core::InventoryQuery& inv, uint64_t min_records) {
  std::printf("{\"type\":\"FeatureCollection\",\"features\":[");
  bool first = true;
  inv.VisitGroupingSet(
      core::GroupingSet::kCell,
      [min_records, &first](const core::GroupKey& key,
                            const core::CellSummary& s) {
        if (s.record_count() < min_records) return;
        if (!first) std::printf(",");
        first = false;
        std::printf(
            "{\"type\":\"Feature\",\"geometry\":{\"type\":\"Polygon\","
            "\"coordinates\":[[");
        const auto boundary = hex::CellToBoundary(key.cell);
        for (size_t i = 0; i <= boundary.size(); ++i) {
          const geo::LatLng& v = boundary[i % boundary.size()];
          std::printf("%s[%.6f,%.6f]", i == 0 ? "" : ",", v.lng_deg,
                      v.lat_deg);
        }
        std::printf(
            "]]},\"properties\":{\"records\":%llu,\"ships\":%.0f,"
            "\"speed_mean\":%.2f,\"course_mean\":%.1f,"
            "\"course_concentration\":%.3f}}",
            static_cast<unsigned long long>(s.record_count()),
            s.ships().Estimate(), s.speed().Mean(),
            s.course_mean().MeanDeg(), s.course_mean().ResultantLength());
      });
  std::printf("]}\n");
  return 0;
}

// --- polinv watch -----------------------------------------------------------
// Tails the OpenMetrics file the ServingGuard telemetry exporter
// atomically rewrites and renders the serving_* samples as one screen:
// QPS / error / shed rates, per-class latency quantiles, SLO burn
// rates, breaker and snapshot state, query-log totals.

double WatchValue(const std::vector<obs::OpenMetricsSample>& samples,
                  std::string_view name, double fallback = 0.0) {
  const obs::OpenMetricsSample* sample = obs::FindSample(samples, name);
  return sample != nullptr ? sample->value : fallback;
}

// Humanizes a latency gauge carried in microseconds.
std::string FormatMicros(double micros) {
  char buffer[32];
  if (micros < 1000.0) {
    std::snprintf(buffer, sizeof(buffer), "%.0fus", micros);
  } else if (micros < 1e6) {
    std::snprintf(buffer, sizeof(buffer), "%.2fms", micros / 1e3);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.3fs", micros / 1e6);
  }
  return buffer;
}

void RenderWatchFrame(const std::vector<obs::OpenMetricsSample>& samples,
                      const char* path, uint64_t tick) {
  std::printf("serving telemetry  %s  (tick %llu)\n", path,
              static_cast<unsigned long long>(tick));
  std::printf("qps %.1f   error %.1f%%   shed %.1f%%\n",
              WatchValue(samples, "serving_query_qps_milli") / 1e3,
              WatchValue(samples, "serving_query_error_rate_milli") / 10.0,
              WatchValue(samples, "serving_query_shed_rate_milli") / 10.0);

  std::printf("\n%-14s %10s %10s %10s\n", "latency", "p50", "p95", "p99");
  static const char* kClasses[] = {"interactive", "batch"};
  for (const char* cls : kClasses) {
    const std::string base = std::string("serving_query_") + cls;
    std::printf("%-14s %10s %10s %10s\n", cls,
                FormatMicros(WatchValue(samples, base + "_p50_us")).c_str(),
                FormatMicros(WatchValue(samples, base + "_p95_us")).c_str(),
                FormatMicros(WatchValue(samples, base + "_p99_us")).c_str());
  }

  // SLOs are discovered from the *_burning gauges so custom objectives
  // show up without polinv knowing their names.
  std::printf("\n%-18s %8s %10s %10s %9s\n", "slo", "burning", "burn_fast",
              "burn_slow", "breaches");
  for (const obs::OpenMetricsSample& sample : samples) {
    const std::string_view name = sample.name;
    const std::string_view prefix = "serving_slo_";
    const std::string_view suffix = "_burning";
    if (name.size() <= prefix.size() + suffix.size() ||
        name.substr(0, prefix.size()) != prefix ||
        name.substr(name.size() - suffix.size()) != suffix) {
      continue;
    }
    const std::string slo(
        name.substr(prefix.size(),
                    name.size() - prefix.size() - suffix.size()));
    const std::string base = std::string(prefix) + slo;
    std::printf("%-18s %8s %10.2f %10.2f %9.0f\n", slo.c_str(),
                static_cast<long long>(sample.value) != 0 ? "YES" : "no",
                WatchValue(samples, base + "_burn_fast_milli") / 1e3,
                WatchValue(samples, base + "_burn_slow_milli") / 1e3,
                WatchValue(samples, base + "_breaches_total"));
  }

  static const char* kBreakerNames[] = {"closed", "open", "half-open"};
  const int breaker = static_cast<int>(
      WatchValue(samples, "serving_breaker_state"));
  std::printf(
      "\nbreaker %s   degraded %s   snapshot id %.0f age %.0fms\n",
      breaker >= 0 && breaker <= 2 ? kBreakerNames[breaker] : "?",
      static_cast<long long>(WatchValue(samples, "serving_degraded")) != 0
          ? "YES"
          : "no",
      WatchValue(samples, "serving_snapshot_active_id"),
      WatchValue(samples, "serving_snapshot_age_ms"));
  std::printf(
      "admitted %.0f   queued %.0f   shed %.0f   deadline_exceeded %.0f\n",
      WatchValue(samples, "serving_admitted_total"),
      WatchValue(samples, "serving_queued_total"),
      WatchValue(samples, "serving_shed_total"),
      WatchValue(samples, "serving_deadline_exceeded_total"));
  std::printf("querylog %.0f events: %.0f ok, %.0f errors, %.0f slow\n",
              WatchValue(samples, "serving_querylog_events"),
              WatchValue(samples, "serving_querylog_ok"),
              WatchValue(samples, "serving_querylog_errors"),
              WatchValue(samples, "serving_querylog_slow"));
}

int CmdWatch(int argc, char** argv) {
  const char* path = nullptr;
  double interval_seconds = 1.0;
  uint64_t iterations = 0;  // 0 = until interrupted.
  bool clear_screen = true;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--interval=", 11) == 0) {
      interval_seconds = std::atof(arg + 11);
    } else if (std::strncmp(arg, "--iterations=", 13) == 0) {
      iterations = static_cast<uint64_t>(std::atoll(arg + 13));
    } else if (std::strcmp(arg, "--once") == 0) {
      iterations = 1;
    } else if (std::strcmp(arg, "--no-clear") == 0) {
      clear_screen = false;
    } else if (path == nullptr) {
      path = arg;
    } else {
      return Usage();
    }
  }
  if (path == nullptr) return Usage();
  if (!(interval_seconds > 0.0)) interval_seconds = 1.0;

  int exit_code = 0;
  for (uint64_t tick = 1; iterations == 0 || tick <= iterations; ++tick) {
    std::string text;
    if (clear_screen) std::printf("\033[H\033[2J");
    const Status read = store::ReadFileToString(path, &text);
    if (read.ok()) {
      RenderWatchFrame(obs::ParseOpenMetrics(text), path, tick);
      exit_code = 0;
    } else {
      // The exporter may not have written its first file yet; keep
      // polling. Exit 2 only if a bounded run never saw one.
      std::printf("waiting for %s (%s)\n", path, read.message().c_str());
      exit_code = 2;
    }
    std::fflush(stdout);
    if (iterations != 0 && tick == iterations) break;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(interval_seconds));
  }
  return exit_code;
}

// --- polinv snapshots -------------------------------------------------------
// Lists a snapshot-store directory (store::SnapshotStore): one line per
// generation with its size, validation status and seal-time stats, and
// — the line operators actually want — which generation a cold start
// (OpenLatest with corrupt-generation fallback) would serve.
int CmdSnapshots(const char* dir) {
  const store::SnapshotStore snapshot_store(
      store::SnapshotStoreOptions{dir, /*keep=*/3});
  const std::vector<uint64_t> generations = snapshot_store.ListGenerations();
  std::printf("snapshot store %s: %llu generation(s)\n", dir,
              static_cast<unsigned long long>(generations.size()));
  if (generations.empty()) return 2;
  uint64_t pick = 0;
  const auto latest = core::OpenLatestSnapshot(snapshot_store, &pick);
  if (latest.ok()) {
    std::printf("cold start serves: %llu\n",
                static_cast<unsigned long long>(pick));
  } else {
    std::printf("cold start serves: NONE (%s)\n",
                latest.status().ToString().c_str());
  }
  for (const uint64_t generation : generations) {
    const std::string path = snapshot_store.GenerationPath(generation);
    std::error_code ec;
    const uint64_t bytes = std::filesystem::file_size(path, ec);
    std::printf("gen %llu: %llu bytes",
                static_cast<unsigned long long>(generation),
                static_cast<unsigned long long>(ec ? 0 : bytes));
    const auto opened = store::OpenSnapshotFile(path);
    if (!opened.ok()) {
      std::printf(", %s\n", opened.status().ToString().c_str());
      continue;
    }
    const auto meta = core::DecodeSnapshotMeta(opened->view);
    if (!meta.ok()) {
      std::printf(", valid container, %s\n",
                  meta.status().ToString().c_str());
      continue;
    }
    uint64_t summaries = 0;
    for (const uint64_t count : meta->stats.summaries_per_set) {
      summaries += count;
    }
    std::printf(
        ", ok, resolution %d, %llu summaries, %llu routes, seal seq %llu, "
        "sealed in %.3fs%s\n",
        meta->resolution, static_cast<unsigned long long>(summaries),
        static_cast<unsigned long long>(meta->stats.route_index_routes),
        static_cast<unsigned long long>(meta->stats.seal_sequence),
        meta->stats.seal_seconds,
        latest.ok() && generation == pick ? "  [cold-start pick]" : "");
  }
  return latest.ok() ? 0 : 2;
}

// Pretty-prints a pol.run_report/1 document (see core/run_report.h):
// status and wall clock, the per-stage table, coverage, checkpoint,
// serving health, SLO burn rates, quarantine activity, and a metrics
// digest.
int CmdReport(const char* path) {
  std::string text;
  const Status read = store::ReadFileToString(path, &text);
  if (!read.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", path,
                 read.message().c_str());
    return 2;
  }
  std::string error;
  obs::Json report;
  if (!obs::Json::Parse(text, &report, &error)) {
    std::fprintf(stderr, "cannot parse %s: %s\n", path, error.c_str());
    return 2;
  }
  const std::string schema = report.GetString("schema");
  if (schema != "pol.run_report/1") {
    std::fprintf(stderr, "unrecognized report schema '%s'\n", schema.c_str());
    return 2;
  }

  if (const obs::Json* status = report.Find("status")) {
    const bool ok = status->Find("ok") != nullptr &&
                    status->Find("ok")->AsBool();
    std::printf("status:             %s", status->GetString("code").c_str());
    const std::string message = status->GetString("message");
    if (!ok && !message.empty()) std::printf(" (%s)", message.c_str());
    std::printf("\n");
  }
  std::printf("wall seconds:       %.3f\n", report.GetDouble("wall_seconds"));
  std::printf("records aggregated: %llu\n",
              static_cast<unsigned long long>(
                  report.GetUint64("aggregated_records")));

  if (const obs::Json* coverage = report.Find("coverage")) {
    std::printf(
        "coverage:           %llu/%llu chunks folded, %llu quarantined "
        "(%llu records), %llu retries\n",
        static_cast<unsigned long long>(coverage->GetUint64("chunks_folded")),
        static_cast<unsigned long long>(coverage->GetUint64("chunks_total")),
        static_cast<unsigned long long>(
            coverage->GetUint64("chunks_quarantined")),
        static_cast<unsigned long long>(
            coverage->GetUint64("records_quarantined")),
        static_cast<unsigned long long>(coverage->GetUint64("retries")));
  }
  if (const obs::Json* ckpt = report.Find("checkpoint")) {
    if (ckpt->Find("enabled") != nullptr && ckpt->Find("enabled")->AsBool()) {
      std::printf(
          "checkpoint:         %s%llu written, %llu failed, dir %s\n",
          ckpt->Find("resumed") != nullptr && ckpt->Find("resumed")->AsBool()
              ? "resumed, "
              : "",
          static_cast<unsigned long long>(ckpt->GetUint64("written")),
          static_cast<unsigned long long>(ckpt->GetUint64("failures")),
          ckpt->GetString("directory").c_str());
    } else {
      std::printf("checkpoint:         disabled\n");
    }
  }
  if (const obs::Json* serving = report.Find("serving")) {
    const bool degraded = serving->Find("degraded") != nullptr &&
                          serving->Find("degraded")->AsBool();
    std::printf(
        "serving:            %s, breaker %s, snapshot age %llu refreshes\n",
        degraded ? "DEGRADED" : "healthy",
        serving->GetString("breaker_state").c_str(),
        static_cast<unsigned long long>(
            serving->GetUint64("snapshot_age_refreshes")));
  }
  if (const obs::Json* slos = report.Find("serving_slo")) {
    for (const auto& [name, slo] : slos->members()) {
      const bool burning = slo.Find("burning") != nullptr &&
                           slo.Find("burning")->AsBool();
      std::printf(
          "  slo %-16s %s  burn fast %.2f / slow %.2f  breaches %llu\n",
          name.c_str(), burning ? "BURNING" : "ok",
          slo.GetDouble("burn_fast_milli") / 1e3,
          slo.GetDouble("burn_slow_milli") / 1e3,
          static_cast<unsigned long long>(slo.GetUint64("breaches")));
    }
  }

  if (const obs::Json* store_block = report.Find("store")) {
    const uint64_t touched = store_block->GetUint64("publishes") +
                             store_block->GetUint64("publish_failures") +
                             store_block->GetUint64("opens") +
                             store_block->GetUint64("open_failures");
    if (touched > 0) {
      std::printf(
          "store:              %llu publishes (%llu failed), %llu opens, "
          "%llu fallbacks, %llu generations, latest %llu\n",
          static_cast<unsigned long long>(
              store_block->GetUint64("publishes")),
          static_cast<unsigned long long>(
              store_block->GetUint64("publish_failures")),
          static_cast<unsigned long long>(store_block->GetUint64("opens")),
          static_cast<unsigned long long>(
              store_block->GetUint64("fallbacks")),
          static_cast<unsigned long long>(
              store_block->GetUint64("generations")),
          static_cast<unsigned long long>(
              store_block->GetUint64("latest_generation")));
    }
  }

  // Rebuild flow::StageMetrics from the report so the exact table the
  // pipeline prints is reproduced from the file.
  if (const obs::Json* stages = report.Find("stages")) {
    std::vector<flow::StageMetrics> metrics;
    for (const obs::Json& stage : stages->items()) {
      flow::StageMetrics m;
      m.name = stage.GetString("name");
      m.chunks = stage.GetUint64("chunks");
      m.records_in = stage.GetUint64("records_in");
      m.records_out = stage.GetUint64("records_out");
      m.dropped = stage.GetUint64("dropped");
      m.peak_partition = static_cast<size_t>(
          stage.GetUint64("peak_partition"));
      m.wall_seconds = stage.GetDouble("wall_seconds");
      m.failures = stage.GetUint64("failures");
      if (const obs::Json* by_reason = stage.Find("failures_by_reason")) {
        for (const auto& [reason, count] : by_reason->members()) {
          m.failures_by_reason[reason] = count.AsUint64();
        }
      }
      metrics.push_back(std::move(m));
    }
    std::printf("\n%s", flow::StageMetricsTable(metrics).c_str());
  }

  if (const obs::Json* quarantined = report.Find("quarantined")) {
    if (quarantined->size() > 0) {
      std::printf("\nquarantined chunks:\n");
      for (const obs::Json& entry : quarantined->items()) {
        std::printf("  chunk %llu: %llu records, %llu attempts, %s: %s\n",
                    static_cast<unsigned long long>(
                        entry.GetUint64("chunk_index")),
                    static_cast<unsigned long long>(
                        entry.GetUint64("records")),
                    static_cast<unsigned long long>(
                        entry.GetUint64("attempts")),
                    entry.GetString("code").c_str(),
                    entry.GetString("message").c_str());
      }
    }
  }

  if (const obs::Json* metrics = report.Find("metrics")) {
    const obs::Json* counters = metrics->Find("counters");
    if (counters != nullptr && counters->size() > 0) {
      std::printf("\ncounters:\n");
      for (const auto& [name, value] : counters->members()) {
        std::printf("  %-40s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(value.AsUint64()));
      }
    }
    const obs::Json* histograms = metrics->Find("histograms");
    if (histograms != nullptr && histograms->size() > 0) {
      std::printf("\nhistograms:\n");
      for (const auto& [name, h] : histograms->members()) {
        const uint64_t count = h.GetUint64("count");
        std::printf("  %-40s n=%llu mean=%.6fs min=%.6fs max=%.6fs",
                    name.c_str(), static_cast<unsigned long long>(count),
                    count > 0 ? h.GetDouble("sum_seconds") /
                                    static_cast<double>(count)
                              : 0.0,
                    h.GetDouble("min_seconds"), h.GetDouble("max_seconds"));
        // Samples past the top bucket boundary: the bucket array
        // saturated, so the quantile math is bounded by observed max.
        const uint64_t overflow = h.GetUint64("overflow_count");
        if (overflow > 0) {
          std::printf(" overflow=%llu",
                      static_cast<unsigned long long>(overflow));
        }
        std::printf("\n");
      }
    }
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 3) return Usage();
  // `report` reads a JSON run report and `watch` an OpenMetrics
  // export, not an inventory file.
  if (std::strcmp(argv[1], "report") == 0) return CmdReport(argv[2]);
  if (std::strcmp(argv[1], "watch") == 0) return CmdWatch(argc, argv);
  // `snapshots` inspects a snapshot-store directory, not an inventory.
  if (std::strcmp(argv[1], "snapshots") == 0) return CmdSnapshots(argv[2]);
  std::string source;
  const auto opened = Open(argv[2], &source);
  if (!opened.ok()) {
    std::fprintf(stderr, "cannot open %s: %s\n", argv[2],
                 opened.status().ToString().c_str());
    return 2;
  }
  const core::InventorySnapshot& snapshot = **opened;
  if (std::strcmp(argv[1], "stats") == 0) return CmdStats(snapshot, source);
  if (std::strcmp(argv[1], "query") == 0 && argc == 5) {
    return CmdQuery(snapshot, std::atof(argv[3]), std::atof(argv[4]));
  }
  if (std::strcmp(argv[1], "route") == 0 && argc == 6) {
    return CmdRoute(snapshot, argv[3], argv[4], argv[5]);
  }
  if (std::strcmp(argv[1], "top") == 0 && argc == 4) {
    return CmdTop(snapshot, std::atoi(argv[3]));
  }
  if (std::strcmp(argv[1], "export") == 0) return CmdExport(snapshot);
  if (std::strcmp(argv[1], "geojson") == 0) {
    const uint64_t min_records =
        argc >= 4 ? static_cast<uint64_t>(std::atoll(argv[3])) : 1;
    return CmdGeoJson(snapshot, min_records);
  }
  return Usage();
}

}  // namespace
}  // namespace pol

int main(int argc, char** argv) { return pol::Main(argc, argv); }
