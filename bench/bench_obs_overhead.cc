// Observability overhead: what the metrics/trace instrumentation adds
// to an end-to-end chunked pipeline run. Three configurations share one
// simulated archive:
//
//   idle    - instrumentation compiled in, recorder stopped, no outputs
//             (the default production shape; under POL_OBS=OFF this is
//             the layer compiled to no-ops)
//   traced  - trace recording on plus run-report emission
//
// The acceptance bar is `traced` within 2% of `idle`, estimated as the
// median of per-round paired wall-clock ratios (adjacent runs share
// machine state, so ambient load cancels inside a pair); the bench
// exits non-zero past the threshold so tools/run_tier1.sh --obs gates
// on it.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/pipeline.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/querylog.h"
#include "obs/window.h"
#include "sim/fleet.h"

namespace pol {
namespace {

constexpr int kRounds = 9;
constexpr double kMaxOverhead = 0.02;

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
  std::printf("archive: %s records, obs compiled %s\n\n",
              bench::FormatCount(archive.reports.size()).c_str(),
              obs::kEnabled ? "ON" : "OFF (no-op layer)");

  const std::string out_dir =
      (std::filesystem::temp_directory_path() / "pol_bench_obs").string();
  std::filesystem::create_directories(out_dir);

  core::PipelineConfig idle_config;
  idle_config.partitions = 16;
  idle_config.chunks = 8;

  core::PipelineConfig traced_config = idle_config;
  traced_config.obs.trace_path = out_dir + "/trace.json";
  traced_config.obs.report_path = out_dir + "/report.json";

  // One untimed warmup per shape first (page cache, allocator pools,
  // lazy singletons). Then paired rounds: each round times the two
  // shapes back to back and keeps their ratio — adjacent runs share
  // machine state (load bursts, turbo level), so the noise that
  // dominates absolute wall clock cancels inside a pair. The estimate
  // is the median ratio, which discards rounds where a burst hit only
  // one half of the pair.
  core::RunPipeline(archive.reports, archive.fleet, idle_config);
  core::RunPipeline(archive.reports, archive.fleet, traced_config);
  double idle_s = 1e300;
  double traced_s = 1e300;
  std::vector<double> ratios;
  ratios.reserve(kRounds);
  for (int round = 0; round < kRounds; ++round) {
    const double idle_round = bench::TimeSeconds([&] {
      core::RunPipeline(archive.reports, archive.fleet, idle_config);
    });
    const double traced_round = bench::TimeSeconds([&] {
      core::RunPipeline(archive.reports, archive.fleet, traced_config);
    });
    idle_s = std::min(idle_s, idle_round);
    traced_s = std::min(traced_s, traced_round);
    ratios.push_back(traced_round / idle_round);
  }
  std::sort(ratios.begin(), ratios.end());
  const double median_ratio = ratios[ratios.size() / 2];

  const double overhead = median_ratio - 1.0;
  std::printf("idle   (no outputs):      %.4f s (min of %d)\n", idle_s,
              kRounds);
  std::printf("traced (trace + report):  %.4f s (min of %d)\n", traced_s,
              kRounds);
  std::printf("overhead:                 %s (median paired ratio, bar: %s)\n",
              bench::FormatPercent(overhead).c_str(),
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
  summary.Set("obs_enabled", obs::kEnabled);
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

  std::filesystem::remove_all(out_dir);
  if (overhead > kMaxOverhead) {
    std::fprintf(stderr, "FAIL: observability overhead %.2f%% exceeds %.2f%%\n",
                 overhead * 100.0, kMaxOverhead * 100.0);
    return 1;
  }
  return written;
}

}  // namespace
}  // namespace pol

int main(int argc, char** argv) { return pol::Run(argc, argv); }
