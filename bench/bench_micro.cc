// Engineering microbenchmarks (google-benchmark): the per-operation
// costs behind the pipeline's throughput — grid indexing, sketch
// updates, geofence probes, NMEA codec, and end-to-end stage rates.
//
// Next to the console table the bench writes its bench::Summary
// (BENCH_micro.json by default) so per-operation costs can be tracked
// across commits the same way the macro benches' summaries are.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "ais/nmea.h"
#include "bench/bench_util.h"
#include "obs/json.h"
#include "common/rng.h"
#include "geo/geodesic.h"
#include "core/geofence.h"
#include "core/pipeline.h"
#include "hexgrid/hexgrid.h"
#include "sim/fleet.h"
#include "stats/hyperloglog.h"
#include "stats/spacesaving.h"
#include "stats/p2_quantile.h"
#include "stats/tdigest.h"

namespace pol {
namespace {

geo::LatLng RandomPoint(Rng& rng) {
  return {geo::RadToDeg(std::asin(rng.Uniform(-1, 1))),
          rng.Uniform(-180, 180)};
}

void BM_LatLngToCell(benchmark::State& state) {
  Rng rng(1);
  std::vector<geo::LatLng> points;
  for (int i = 0; i < 1024; ++i) points.push_back(RandomPoint(rng));
  size_t i = 0;
  const int res = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hex::LatLngToCell(points[i++ & 1023], res));
  }
}
BENCHMARK(BM_LatLngToCell)->Arg(6)->Arg(7)->Arg(9);

void BM_CellToLatLng(benchmark::State& state) {
  Rng rng(2);
  std::vector<hex::CellIndex> cells;
  for (int i = 0; i < 1024; ++i) {
    cells.push_back(hex::LatLngToCell(RandomPoint(rng), 6));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hex::CellToLatLng(cells[i++ & 1023]));
  }
}
BENCHMARK(BM_CellToLatLng);

void BM_Neighbors(benchmark::State& state) {
  Rng rng(3);
  std::vector<hex::CellIndex> cells;
  for (int i = 0; i < 256; ++i) {
    cells.push_back(hex::LatLngToCell(RandomPoint(rng), 6));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hex::Neighbors(cells[i++ & 255]));
  }
}
BENCHMARK(BM_Neighbors);

void BM_GridDisk(benchmark::State& state) {
  const hex::CellIndex center = hex::LatLngToCell({30, 120}, 6);
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hex::GridDisk(center, k));
  }
}
BENCHMARK(BM_GridDisk)->Arg(1)->Arg(3)->Arg(8);

void BM_TDigestAdd(benchmark::State& state) {
  Rng rng(4);
  stats::TDigest digest(100);
  for (auto _ : state) {
    digest.Add(rng.NextGaussian());
  }
  benchmark::DoNotOptimize(digest.Quantile(0.5));
}
BENCHMARK(BM_TDigestAdd);

void BM_P2QuantileAdd(benchmark::State& state) {
  // Ablation partner of BM_TDigestAdd: the P2 estimator is the cheaper
  // non-mergeable alternative the inventory deliberately does not use
  // (the reduce phase requires mergeable sketches).
  Rng rng(41);
  stats::P2Quantile median(0.5);
  for (auto _ : state) {
    median.Add(rng.NextGaussian());
  }
  benchmark::DoNotOptimize(median.Value());
}
BENCHMARK(BM_P2QuantileAdd);

void BM_HyperLogLogAdd(benchmark::State& state) {
  Rng rng(5);
  stats::HyperLogLog hll(12);
  for (auto _ : state) {
    hll.Add(rng.NextUint64());
  }
  benchmark::DoNotOptimize(hll.Estimate());
}
BENCHMARK(BM_HyperLogLogAdd);

void BM_SpaceSavingAdd(benchmark::State& state) {
  Rng rng(6);
  stats::SpaceSaving top(16);
  for (auto _ : state) {
    top.Add(rng.NextBelow(1000));
  }
  benchmark::DoNotOptimize(top.TopN(3));
}
BENCHMARK(BM_SpaceSavingAdd);

void BM_GeofenceProbe(benchmark::State& state) {
  static const core::Geofencer* geofencer =
      new core::Geofencer(&sim::PortDatabase::Global(), 6);
  Rng rng(7);
  std::vector<geo::LatLng> points;
  // Half near ports, half open ocean.
  const auto& ports = sim::PortDatabase::Global().ports();
  for (int i = 0; i < 512; ++i) {
    if (i % 2 == 0) {
      const auto& port = ports[rng.NextBelow(ports.size())];
      points.push_back(geo::DestinationPoint(port.position,
                                             rng.Uniform(0, 360),
                                             rng.Uniform(0, 30)));
    } else {
      points.push_back(RandomPoint(rng));
    }
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(geofencer->PortAt(points[i++ & 511]));
  }
}
BENCHMARK(BM_GeofenceProbe);

void BM_GeofenceExhaustive(benchmark::State& state) {
  static const core::Geofencer* geofencer =
      new core::Geofencer(&sim::PortDatabase::Global(), 6);
  Rng rng(8);
  std::vector<geo::LatLng> points;
  for (int i = 0; i < 512; ++i) points.push_back(RandomPoint(rng));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(geofencer->PortAtExhaustive(points[i++ & 511]));
  }
}
BENCHMARK(BM_GeofenceExhaustive);

void BM_NmeaEncodeDecode(benchmark::State& state) {
  ais::PositionReport report;
  report.mmsi = 244123456;
  report.timestamp = 1651234567;
  report.lat_deg = 51.92;
  report.lng_deg = 4.12;
  report.sog_knots = 13.7;
  report.cog_deg = 211.3;
  report.heading_deg = 212;
  report.message_type = 1;
  ais::NmeaDecoder decoder;
  for (auto _ : state) {
    const auto sentence = ais::EncodePositionNmea(report);
    benchmark::DoNotOptimize(decoder.Feed(*sentence));
  }
}
BENCHMARK(BM_NmeaEncodeDecode);

void BM_PipelineEndToEnd(benchmark::State& state) {
  // One small simulated month through the whole pipeline; reports/s is
  // the figure of merit.
  sim::FleetConfig config;
  config.seed = 11;
  config.commercial_vessels = 10;
  config.noncommercial_vessels = 5;
  config.start_time = 1640995200;
  config.end_time = config.start_time + 30 * 86400;
  static const sim::SimulationOutput* sim_output =
      new sim::SimulationOutput(sim::FleetSimulator(config).Run());
  core::PipelineConfig pipeline_config;
  pipeline_config.partitions = 4;
  pipeline_config.threads = 1;
  for (auto _ : state) {
    auto result = core::RunPipeline(sim_output->reports, sim_output->fleet,
                                    pipeline_config);
    benchmark::DoNotOptimize(result.inventory->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(sim_output->reports.size()));
}
BENCHMARK(BM_PipelineEndToEnd)->Unit(benchmark::kMillisecond);

// Console reporter that additionally collects every finished run for
// the JSON summary.
class JsonCollector : public benchmark::ConsoleReporter {
 public:
  JsonCollector() { results_ = obs::Json::Array(); }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      obs::Json entry = obs::Json::Object();
      entry.Set("name", run.benchmark_name());
      entry.Set("iterations", static_cast<int64_t>(run.iterations));
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      entry.Set("real_s_per_iter", run.real_accumulated_time / iters);
      entry.Set("cpu_s_per_iter", run.cpu_accumulated_time / iters);
      if (!run.counters.empty()) {
        obs::Json counters = obs::Json::Object();
        for (const auto& [name, counter] : run.counters) {
          counters.Set(name, static_cast<double>(counter));
        }
        entry.Set("counters", std::move(counters));
      }
      results_.Append(std::move(entry));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const obs::Json& results() const { return results_; }

 private:
  obs::Json results_;
};

int RunMicro(int argc, char** argv) {
  // The summary takes its own flag out before argv reaches
  // google-benchmark.
  bench::Summary summary("micro", argc, argv);
  std::vector<char*>& args = summary.args();
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  JsonCollector reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  summary.Set("results", reporter.results());
  return summary.Write();
}

}  // namespace
}  // namespace pol

int main(int argc, char** argv) { return pol::RunMicro(argc, argv); }
