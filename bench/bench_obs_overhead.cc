// Observability overhead: what the metrics/trace instrumentation adds
// to an end-to-end chunked pipeline run. Two configurations share one
// simulated archive:
//
//   idle    - recorder stopped, no outputs (the default production
//             shape)
//   traced  - trace recording on plus run-report emission
//
// The acceptance bar is `traced` within 2% of `idle`, read by
// bench::CompareInterleaved as the median paired slice ratio. The
// archive is cut into vessel-disjoint sub-archives and a slice is one
// pipeline run over one of them, so a round (the whole archive once
// per shape) yields one pair per sub-archive: the two shapes run the
// same sub-archive back to back and take turns going first, so adjacent
// runs share the machine's state and ambient load cancels inside a
// pair. A block that misses the bar runs another into the same
// estimate. A slice times the pipeline only: it returns a cheap
// fingerprint of the built inventory (summary count, records folded),
// and the byte identity of the two shapes' inventories is checked once
// per sub-archive before timing starts, outside every slice. The bench
// exits non-zero past the threshold so tools/run_tier1.sh --obs gates
// on it.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ais/messages.h"
#include "ais/types.h"
#include "bench/bench_util.h"
#include "core/pipeline.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/querylog.h"
#include "obs/window.h"
#include "sim/fleet.h"

namespace pol {
namespace {

// Each round is cut into kSlicesPerRound slices of ~0.1 s, so a block
// holds kRounds x kSlicesPerRound = 216 pairs: on a shared 4-vCPU host
// one pair's ratio spreads about +-6% (a bare CPU loop spreads +-4%
// there), and 216 pairs pin the median to about +-0.5%. The count is
// odd so that each sub-archive's pair alternates which shape opens it
// from round to round: the second run of a pair finds the sub-archive
// warm, and with an even count every sub-archive would favour the same
// shape in every round.
constexpr int kRounds = 24;
constexpr int kSlicesPerRound = 9;
constexpr double kMaxOverhead = 0.02;

struct SubArchive {
  std::vector<ais::PositionReport> reports;
  std::vector<ais::VesselInfo> fleet;
};

// Deals the fleet round-robin into `parts` sub-archives, each report
// following its vessel (reports from MMSIs outside the fleet by MMSI).
std::vector<SubArchive> SplitByVessel(const sim::SimulationOutput& archive,
                                      int parts) {
  std::vector<SubArchive> out(static_cast<size_t>(parts));
  std::unordered_map<ais::Mmsi, size_t> part_of;
  for (size_t i = 0; i < archive.fleet.size(); ++i) {
    part_of[archive.fleet[i].mmsi] = i % out.size();
    out[i % out.size()].fleet.push_back(archive.fleet[i]);
  }
  for (const ais::PositionReport& report : archive.reports) {
    const auto it = part_of.find(report.mmsi);
    out[it == part_of.end() ? report.mmsi % out.size() : it->second]
        .reports.push_back(report);
  }
  return out;
}

// Windowed-telemetry micro-timings: ns per record for the serving-path
// primitives (cumulative Histogram as the baseline, then the windowed
// ring variants and the query log). Informational — the end-to-end bar
// for the serving path lives in bench_serving_telemetry — but recorded
// into the summary so regressions in the record fast path are visible
// across runs.
struct WindowedMicros {
  double histogram_ns = 0.0;
  double windowed_histogram_ns = 0.0;
  double windowed_rate_ns = 0.0;
  double query_log_ns = 0.0;
};

WindowedMicros MeasureWindowedMicros() {
  constexpr int kOps = 2'000'000;
  constexpr int kMicroRounds = 5;
  WindowedMicros out;
  obs::Histogram histogram;
  obs::WindowedHistogram windowed(1.0, 60);
  obs::WindowedRate rate(1.0, 60);
  obs::QueryLog log;
  obs::QueryEvent event;
  event.query_class = "interactive";
  event.op = "bench";
  event.status = "Ok";
  event.scan_seconds = 0.0001;
  const auto per_op_ns = [&](auto&& body) {
    double best = 1e300;
    for (int round = 0; round < kMicroRounds; ++round) {
      best = std::min(best, bench::TimeSeconds([&] {
        for (int i = 0; i < kOps; ++i) body(i);
      }));
    }
    return best / kOps * 1e9;
  };
  out.histogram_ns =
      per_op_ns([&](int i) { histogram.Record(1e-6 * (i & 1023)); });
  out.windowed_histogram_ns =
      per_op_ns([&](int i) { windowed.Record(1e-6 * (i & 1023)); });
  out.windowed_rate_ns = per_op_ns([&](int i) {
    (void)i;
    rate.Increment();
  });
  out.query_log_ns = per_op_ns([&](int i) {
    event.id = static_cast<uint64_t>(i);
    log.Record(event);
  });
  return out;
}

// Where the traced runs write their trace and report: tmpfs when the
// host has one. Each artifact is a durable write, and on a virtual disk
// the two fsyncs cost ~1.8 ms a run; that is storage latency, not
// instrumentation, and would be ~2% of a 0.1 s slice by itself.
std::filesystem::path ArtifactRoot() {
  std::error_code error;
  if (std::filesystem::is_directory("/dev/shm", error)) return "/dev/shm";
  return std::filesystem::temp_directory_path();
}

sim::SimulationOutput BenchArchive() {
  sim::FleetConfig config;
  config.seed = 20240606;
  config.commercial_vessels = 50;
  config.noncommercial_vessels = 8;
  config.start_time = 1640995200;
  config.end_time = config.start_time + 45 * kSecondsPerDay;
  return sim::FleetSimulator(config).Run();
}

int Run(int argc, char** argv) {
  bench::Summary summary("obs_overhead", argc, argv);
  bench::PrintHeader("Observability overhead (chunked pipeline)");
  const sim::SimulationOutput archive = BenchArchive();
  const std::vector<SubArchive> parts =
      SplitByVessel(archive, kSlicesPerRound);
  std::printf("archive: %s records in %d vessel-disjoint sub-archives\n\n",
              bench::FormatCount(archive.reports.size()).c_str(),
              kSlicesPerRound);

  const std::string out_dir = (ArtifactRoot() / "pol_bench_obs").string();
  std::filesystem::create_directories(out_dir);

  core::PipelineConfig idle_config;
  idle_config.partitions = 16;
  idle_config.chunks = 8;

  core::PipelineConfig traced_config = idle_config;
  traced_config.obs.trace_path = out_dir + "/trace.json";
  traced_config.obs.report_path = out_dir + "/report.json";

  // Untimed: on every sub-archive the traced run must build the idle
  // run's inventory byte for byte.
  for (const SubArchive& part : parts) {
    std::string idle_bytes;
    std::string traced_bytes;
    core::RunPipeline(part.reports, part.fleet, idle_config)
        .inventory->SerializeTo(&idle_bytes);
    core::RunPipeline(part.reports, part.fleet, traced_config)
        .inventory->SerializeTo(&traced_bytes);
    if (idle_bytes != traced_bytes) {
      std::filesystem::remove_all(out_dir);
      std::fprintf(stderr, "FAIL: idle and traced runs built different "
                           "inventories\n");
      return 1;
    }
  }

  // One pipeline run over the shape's next sub-archive; returns a
  // fingerprint of the inventory (summaries, records folded), which
  // costs nothing next to the run.
  enum : size_t { kIdle, kTraced };
  size_t next[2] = {0, 0};
  const auto build = [&](size_t shape) -> uint64_t {
    const SubArchive& part = parts[next[shape]++ % parts.size()];
    const core::PipelineResult result = core::RunPipeline(
        part.reports, part.fleet,
        shape == kIdle ? idle_config : traced_config);
    return (static_cast<uint64_t>(result.inventory->size()) << 32) ^
           result.aggregated_records;
  };
  const bench::Comparison result = bench::CompareInterleaved(
      {{"idle", [&] { return build(kIdle); }},
       {"traced", [&] { return build(kTraced); }}},
      {{kTraced, kIdle, 1.0 + kMaxOverhead, bench::Estimator::kMedianPaired}},
      kRounds, kSlicesPerRound);
  std::filesystem::remove_all(out_dir);
  if (result.diverged) {
    std::fprintf(stderr, "FAIL: idle and traced runs built inventories "
                         "of different sizes\n");
    return 1;
  }

  const double idle_s = result.min_s[kIdle];
  const double traced_s = result.min_s[kTraced];
  const double overhead = result.ratios[0] - 1.0;
  std::printf("idle   (no outputs):      %.4f s (min of %d rounds x %d "
              "block(s))\n",
              idle_s, kRounds, result.blocks);
  std::printf("traced (trace + report):  %.4f s (same)\n", traced_s);
  std::printf("overhead:                 %s (median paired ratio of %d "
              "slices a round, bar: %s)\n",
              bench::FormatPercent(overhead).c_str(), kSlicesPerRound,
              bench::FormatPercent(kMaxOverhead).c_str());

  const WindowedMicros micros = MeasureWindowedMicros();
  std::printf("\nwindowed-telemetry record path (best of 5 x 2M ops):\n");
  std::printf("  Histogram::Record          %6.1f ns/op\n",
              micros.histogram_ns);
  std::printf("  WindowedHistogram::Record  %6.1f ns/op\n",
              micros.windowed_histogram_ns);
  std::printf("  WindowedRate::Increment    %6.1f ns/op\n",
              micros.windowed_rate_ns);
  std::printf("  QueryLog::Record           %6.1f ns/op\n",
              micros.query_log_ns);

  summary.Set("records", static_cast<uint64_t>(archive.reports.size()));
  summary.Set("rounds", kRounds);
  summary.Set("blocks", result.blocks);
  summary.Set("slices_per_round", kSlicesPerRound);
  summary.Set("idle_s", idle_s);
  summary.Set("traced_s", traced_s);
  summary.Set("overhead_frac", overhead);
  summary.Set("max_overhead_frac", kMaxOverhead);
  obs::Json windowed = obs::Json::Object();
  windowed.Set("histogram_ns", micros.histogram_ns);
  windowed.Set("windowed_histogram_ns", micros.windowed_histogram_ns);
  windowed.Set("windowed_rate_ns", micros.windowed_rate_ns);
  windowed.Set("query_log_ns", micros.query_log_ns);
  summary.Set("windowed_record_ns", std::move(windowed));
  const int written = summary.Write();

  if (!result.met) {
    std::fprintf(stderr, "FAIL: observability overhead %.2f%% exceeds %.2f%%\n",
                 overhead * 100.0, kMaxOverhead * 100.0);
    return 1;
  }
  return written;
}

}  // namespace
}  // namespace pol

int main(int argc, char** argv) { return pol::Run(argc, argv); }
