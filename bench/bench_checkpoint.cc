// Checkpoint cost: what snapshotting the incremental InventoryBuilder
// every K chunks adds to a chunked pipeline run, and what a resume
// costs (the fastest of three restores, with their spread in the
// summary). Reported per interval K as human-readable rows, and the same
// rows land in the bench summary (bench::Summary: BENCH_checkpoint.json
// by default), so the perf trajectory of the failure-containment layer
// can be tracked across commits.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/checkpoint.h"
#include "core/inventory_builder.h"
#include "core/pipeline.h"
#include "obs/json.h"
#include "sim/fleet.h"

namespace pol {
namespace {

constexpr int kChunks = 32;
constexpr int kRestoreRuns = 3;

sim::SimulationOutput BenchArchive() {
  sim::FleetConfig config;
  config.seed = 20240315;
  config.commercial_vessels = 60;
  config.noncommercial_vessels = 10;
  config.start_time = 1640995200;
  config.end_time = config.start_time + 60 * kSecondsPerDay;
  return sim::FleetSimulator(config).Run();
}

core::PipelineConfig BaseConfig() {
  core::PipelineConfig config;
  config.partitions = kChunks;
  config.chunks = kChunks;
  config.resolution = 6;
  return config;
}

uint64_t NewestSnapshotBytes(const core::CheckpointConfig& checkpoint) {
  const auto snapshots = core::CheckpointManager(checkpoint).ListSnapshots();
  if (snapshots.empty()) return 0;
  std::error_code ec;
  const uint64_t size = std::filesystem::file_size(snapshots.back(), ec);
  return ec ? 0 : size;
}

int Run(int argc, char** argv) {
  bench::Summary summary("checkpoint", argc, argv);
  bench::PrintHeader("Checkpoint cost vs interval K (chunked pipeline)");
  const sim::SimulationOutput archive = BenchArchive();
  std::printf("archive: %s records, %d chunks\n\n",
              bench::FormatCount(archive.reports.size()).c_str(), kChunks);

  // Baseline: same chunked run, checkpointing disabled.
  double baseline_s = 0.0;
  {
    const core::PipelineConfig config = BaseConfig();
    baseline_s = bench::TimeSeconds([&] {
      core::RunPipeline(archive.reports, archive.fleet, config);
    });
  }
  std::printf("baseline (no checkpointing): %.3f s\n\n", baseline_s);

  bench::PrintRow({"K", "snapshots", "snapshot size", "wall", "overhead",
                   "restore"},
                  {4, 10, 14, 9, 9, 9});
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pol_bench_checkpoint")
          .string();
  obs::Json results = obs::Json::Array();
  for (const int interval : {1, 2, 4, 8, 16}) {
    std::filesystem::remove_all(dir);
    core::PipelineConfig config = BaseConfig();
    config.checkpoint.directory = dir;
    config.checkpoint.interval_chunks = interval;
    config.checkpoint.keep = 2;

    core::PipelineResult result;
    const double wall_s = bench::TimeSeconds([&] {
      result = core::RunPipeline(archive.reports, archive.fleet, config);
    });
    const uint64_t snapshot_bytes = NewestSnapshotBytes(config.checkpoint);

    // Resume cost: detect the newest snapshot and restore the builder.
    // One restore swings with the machine's load, so the figure is the
    // fastest of kRestoreRuns and the spread goes in the summary.
    core::ExtractorConfig extractor_config = config.extractor;
    extractor_config.resolution = config.resolution;
    std::vector<double> restores;
    for (int run = 0; run < kRestoreRuns; ++run) {
      restores.push_back(bench::TimeSeconds([&] {
        const core::CheckpointManager manager(config.checkpoint);
        const Result<core::LoadedCheckpoint> state = manager.LoadLatest();
        if (state.ok()) {
          core::InventoryBuilder builder(extractor_config);
          (void)builder.RestoreState(state->builder_state, state->folding);
        }
      }));
    }
    const auto [fastest, slowest] =
        std::minmax_element(restores.begin(), restores.end());
    const double restore_s = *fastest;

    const double overhead = wall_s / baseline_s - 1.0;
    bench::PrintRow(
        {std::to_string(interval),
         std::to_string(result.coverage.checkpoints_written),
         bench::FormatBytes(snapshot_bytes),
         std::to_string(wall_s).substr(0, 5) + " s",
         bench::FormatPercent(overhead),
         std::to_string(restore_s).substr(0, 5) + " s"},
        {4, 10, 14, 9, 9, 9});

    obs::Json entry = obs::Json::Object();
    entry.Set("interval_chunks", interval);
    entry.Set("snapshots", result.coverage.checkpoints_written);
    entry.Set("snapshot_bytes", snapshot_bytes);
    entry.Set("wall_s", wall_s);
    entry.Set("overhead_frac", overhead);
    entry.Set("restore_s", restore_s);
    entry.Set("restore_runs", kRestoreRuns);
    entry.Set("restore_spread_s", *slowest - *fastest);
    results.Append(std::move(entry));
  }
  std::filesystem::remove_all(dir);

  summary.Set("records", static_cast<uint64_t>(archive.reports.size()));
  summary.Set("chunks", kChunks);
  summary.Set("baseline_wall_s", baseline_s);
  summary.Set("results", std::move(results));
  return summary.Write();
}

}  // namespace
}  // namespace pol

int main(int argc, char** argv) { return pol::Run(argc, argv); }
