// Chunked-vs-monolithic equivalence: running the pipeline over any
// number of vessel-coherent chunks must produce a byte-identical
// serialized inventory, identical compression report, and identical
// stage statistics to the single-shot run. This is the contract that
// makes the chunk count a pure peak-memory/overlap knob.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/cleaning.h"
#include "core/inventory_builder.h"
#include "core/pipeline.h"
#include "flow/stage.h"
#include "flow/threadpool.h"
#include "sim/fleet.h"

namespace pol::core {
namespace {

sim::SimulationOutput SmallArchive() {
  sim::FleetConfig config;
  config.seed = 4321;
  config.commercial_vessels = 10;
  config.noncommercial_vessels = 3;
  config.start_time = 1640995200;
  config.end_time = config.start_time + 21 * kSecondsPerDay;
  return sim::FleetSimulator(config).Run();
}

std::string SerializedBytes(const Inventory& inv) {
  std::string bytes;
  inv.SerializeTo(&bytes);
  return bytes;
}

TEST(PipelineChunkedTest, ChunkedRunsAreByteIdenticalToSingleShot) {
  const sim::SimulationOutput archive = SmallArchive();
  PipelineConfig config;
  config.partitions = 8;
  config.threads = 2;
  config.resolution = 6;

  config.chunks = 1;
  const PipelineResult reference =
      RunPipeline(archive.reports, archive.fleet, config);
  const std::string reference_bytes = SerializedBytes(*reference.inventory);
  ASSERT_FALSE(reference_bytes.empty());
  const CompressionReport reference_report = reference.Compression();

  for (const int chunks : {3, 7}) {
    PipelineConfig chunked_config = config;
    chunked_config.chunks = chunks;
    const PipelineResult chunked =
        RunPipeline(archive.reports, archive.fleet, chunked_config);

    EXPECT_EQ(SerializedBytes(*chunked.inventory), reference_bytes)
        << chunks << " chunks";

    const CompressionReport report = chunked.Compression();
    EXPECT_EQ(report.resolution, reference_report.resolution) << chunks;
    EXPECT_EQ(report.records, reference_report.records) << chunks;
    EXPECT_EQ(report.cells, reference_report.cells) << chunks;
    EXPECT_EQ(report.summaries, reference_report.summaries) << chunks;
    EXPECT_DOUBLE_EQ(report.compression, reference_report.compression)
        << chunks;
    EXPECT_DOUBLE_EQ(report.utilization, reference_report.utilization)
        << chunks;

    // Stage statistics are totals over chunks, so they must match the
    // single-shot run exactly.
    EXPECT_EQ(chunked.cleaning.input, reference.cleaning.input) << chunks;
    EXPECT_EQ(chunked.cleaning.kept, reference.cleaning.kept) << chunks;
    EXPECT_EQ(chunked.enrichment.kept, reference.enrichment.kept) << chunks;
    EXPECT_EQ(chunked.trips.trips, reference.trips.trips) << chunks;
    EXPECT_EQ(chunked.aggregated_records, reference.aggregated_records)
        << chunks;
  }
}

TEST(PipelineChunkedTest, StageMetricsCoverAllFiveStages) {
  const sim::SimulationOutput archive = SmallArchive();
  PipelineConfig config;
  config.partitions = 4;
  config.threads = 2;
  config.chunks = 3;
  const PipelineResult result =
      RunPipeline(archive.reports, archive.fleet, config);

  const std::vector<std::string> expected = {"cleaning", "enrichment",
                                             "trips", "projection",
                                             "extraction"};
  ASSERT_EQ(result.stage_metrics.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    const flow::StageMetrics& m = result.stage_metrics[i];
    EXPECT_EQ(m.name, expected[i]) << i;
    EXPECT_EQ(m.chunks, 3u) << m.name;
    EXPECT_GT(m.records_in, 0u) << m.name;
    EXPECT_GT(m.records_out, 0u) << m.name;
    EXPECT_GT(m.peak_partition, 0u) << m.name;
    EXPECT_GE(m.wall_seconds, 0.0) << m.name;
  }
  // The chain conserves records between adjacent stages.
  EXPECT_EQ(result.stage_metrics[0].records_in, archive.reports.size());
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(result.stage_metrics[i].records_in,
              result.stage_metrics[i - 1].records_out);
  }
  // The metrics table renderer mentions every stage.
  const std::string table = flow::StageMetricsTable(result.stage_metrics);
  for (const auto& name : expected) {
    EXPECT_NE(table.find(name), std::string::npos) << name;
  }
}

TEST(PipelineChunkedTest, ManualStageGraphMatchesRunPipeline) {
  // Assemble the pipeline by hand — SplitReportsByVessel + the chunk
  // processor + InventoryBuilder::Fold — and check it reproduces
  // RunPipeline byte for byte. This is the path external callers take
  // to fold fresh batches into an existing builder.
  const sim::SimulationOutput archive = SmallArchive();
  PipelineConfig config;
  config.partitions = 6;
  config.threads = 2;
  const PipelineResult reference =
      RunPipeline(archive.reports, archive.fleet, config);

  flow::ThreadPool pool(2);
  CleaningConfig cleaning_config;
  cleaning_config.partitions = config.partitions;
  const ChunkProcessor processor(
      cleaning_config, archive.fleet, /*commercial_only=*/true,
      &sim::PortDatabase::Global(), config.geofence_resolution,
      config.resolution);

  ExtractorConfig extractor_config = config.extractor;
  extractor_config.resolution = config.resolution;
  InventoryBuilder builder(extractor_config);

  auto chunks =
      SplitReportsByVessel(archive.reports, config.partitions, 4, &pool);
  ASSERT_EQ(chunks.size(), 4u);
  CleaningStats cleaning;
  TripStats trips;
  for (auto& chunk : chunks) {
    Result<ProcessedChunk> processed = processor.Run(std::move(chunk));
    ASSERT_TRUE(processed.ok());
    cleaning.Accumulate(processed->cleaning);
    trips.Accumulate(processed->trips);
    builder.Fold(processed->records);
  }
  EXPECT_EQ(builder.records_folded(), reference.aggregated_records);
  const Inventory inventory = std::move(builder).Finish();
  EXPECT_EQ(SerializedBytes(inventory),
            SerializedBytes(*reference.inventory));
  EXPECT_EQ(cleaning.kept, reference.cleaning.kept);
  EXPECT_EQ(trips.trips, reference.trips.trips);
}

TEST(PipelineChunkedTest, MoreChunksThanPartitionsStillExact) {
  const sim::SimulationOutput archive = SmallArchive();
  PipelineConfig config;
  config.partitions = 2;
  config.threads = 2;
  const PipelineResult reference =
      RunPipeline(archive.reports, archive.fleet, config);

  PipelineConfig oversplit = config;
  oversplit.chunks = 5;  // More chunks than partitions.
  const PipelineResult result =
      RunPipeline(archive.reports, archive.fleet, oversplit);
  EXPECT_EQ(SerializedBytes(*result.inventory),
            SerializedBytes(*reference.inventory));
}

}  // namespace
}  // namespace pol::core
