// Integration test of the run report and trace export: a small
// simulated archive through RunPipeline with both output paths set,
// then the artifacts parsed back and checked against the in-memory
// PipelineResult.

#include "core/run_report.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/pipeline.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "sim/fleet.h"
#include "store/atomic_file.h"

namespace pol::core {
namespace {

sim::SimulationOutput SmallArchive() {
  sim::FleetConfig config;
  config.seed = 77;
  config.commercial_vessels = 6;
  config.noncommercial_vessels = 2;
  config.start_time = 1640995200;
  config.end_time = config.start_time + 10 * kSecondsPerDay;
  return sim::FleetSimulator(config).Run();
}

obs::Json MustParseFile(const std::string& path) {
  std::string text;
  const Status read = store::ReadFileToString(path, &text);
  EXPECT_TRUE(read.ok()) << read.ToString();
  std::string error;
  obs::Json document;
  EXPECT_TRUE(obs::Json::Parse(text, &document, &error)) << error;
  return document;
}

class RunReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() / "pol_run_report_test")
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(RunReportTest, ReportMatchesPipelineResult) {
  const sim::SimulationOutput archive = SmallArchive();
  PipelineConfig config;
  config.partitions = 4;
  config.chunks = 3;
  config.obs.report_path = dir_ + "/report.json";
  config.obs.trace_path = dir_ + "/trace.json";
  const PipelineResult result =
      RunPipeline(archive.reports, archive.fleet, config);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_GT(result.wall_seconds, 0.0);

  const obs::Json report = MustParseFile(config.obs.report_path);
  EXPECT_EQ(report.GetString("schema"), "pol.run_report/1");
  EXPECT_TRUE(report.Find("status")->Find("ok")->AsBool());
  EXPECT_EQ(report.Find("status")->GetString("code"), "OK");
  EXPECT_GT(report.GetDouble("wall_seconds"), 0.0);
  EXPECT_EQ(report.GetUint64("aggregated_records"), result.aggregated_records);

  const obs::Json* report_config = report.Find("config");
  ASSERT_NE(report_config, nullptr);
  EXPECT_EQ(report_config->GetUint64("partitions"), 4u);
  EXPECT_EQ(report_config->GetUint64("chunks"), 3u);
  EXPECT_EQ(report_config->GetUint64("resolution"),
            static_cast<uint64_t>(config.resolution));

  const obs::Json* coverage = report.Find("coverage");
  ASSERT_NE(coverage, nullptr);
  EXPECT_EQ(coverage->GetUint64("chunks_total"),
            static_cast<uint64_t>(result.coverage.chunks_total));
  EXPECT_EQ(coverage->GetUint64("chunks_folded"),
            static_cast<uint64_t>(result.coverage.chunks_folded));
  EXPECT_EQ(coverage->GetUint64("chunks_quarantined"), 0u);

  const obs::Json* stages = report.Find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_EQ(stages->size(), result.stage_metrics.size());
  for (size_t i = 0; i < result.stage_metrics.size(); ++i) {
    const obs::Json& stage = stages->at(i);
    EXPECT_EQ(stage.GetString("name"), result.stage_metrics[i].name);
    EXPECT_EQ(stage.GetUint64("chunks"), result.stage_metrics[i].chunks);
    EXPECT_EQ(stage.GetUint64("records_in"),
              result.stage_metrics[i].records_in);
    EXPECT_EQ(stage.GetUint64("records_out"),
              result.stage_metrics[i].records_out);
    EXPECT_EQ(stage.GetUint64("failures"), 0u);
  }

  const obs::Json* checkpoint = report.Find("checkpoint");
  ASSERT_NE(checkpoint, nullptr);
  EXPECT_FALSE(checkpoint->Find("enabled")->AsBool());
  EXPECT_EQ(report.Find("quarantined")->size(), 0u);

  // The metrics section is present in both builds; it only has content
  // when the layer records.
  const obs::Json* metrics = report.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_NE(metrics->Find("counters"), nullptr);
  EXPECT_GE(metrics->Find("counters")->GetUint64("pipeline.chunks_folded"),
            static_cast<uint64_t>(result.coverage.chunks_folded));
}

TEST_F(RunReportTest, TraceExportIsLoadable) {
  const sim::SimulationOutput archive = SmallArchive();
  PipelineConfig config;
  config.partitions = 2;
  config.chunks = 2;
  config.obs.trace_path = dir_ + "/trace.json";
  const PipelineResult result =
      RunPipeline(archive.reports, archive.fleet, config);
  ASSERT_TRUE(result.status.ok());

  const obs::Json trace = MustParseFile(config.obs.trace_path);
  const obs::Json* events = trace.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_GT(events->size(), 0u);
  bool saw_run = false;
  bool saw_stage = false;
  for (const obs::Json& event : events->items()) {
    EXPECT_EQ(event.GetString("ph"), "X");
    EXPECT_FALSE(event.GetString("name").empty());
    if (event.GetString("name") == "pipeline.run") saw_run = true;
    if (event.GetString("name") == "stage.cleaning") saw_stage = true;
  }
  EXPECT_TRUE(saw_run);
  EXPECT_TRUE(saw_stage);
}

TEST_F(RunReportTest, NoPathsMeansNoFiles) {
  const sim::SimulationOutput archive = SmallArchive();
  PipelineConfig config;
  config.partitions = 2;
  const PipelineResult result =
      RunPipeline(archive.reports, archive.fleet, config);
  ASSERT_TRUE(result.status.ok());
  EXPECT_GT(result.wall_seconds, 0.0);  // Set even without outputs.
  EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

TEST_F(RunReportTest, BuildRunReportRoundTripsThroughDump) {
  const sim::SimulationOutput archive = SmallArchive();
  PipelineConfig config;
  config.partitions = 2;
  const PipelineResult result =
      RunPipeline(archive.reports, archive.fleet, config);
  const obs::Json report = BuildRunReport(config, result);
  obs::Json reparsed;
  std::string error;
  ASSERT_TRUE(obs::Json::Parse(report.Dump(2), &reparsed, &error)) << error;
  EXPECT_EQ(reparsed.Dump(), report.Dump());
}

TEST_F(RunReportTest, CheckpointsAreStorePublishes) {
  // Every checkpoint is one SnapshotStore generation, so the report's
  // store block counts exactly the checkpoints the run wrote.
  const sim::SimulationOutput archive = SmallArchive();
  PipelineConfig config;
  config.partitions = 4;
  config.chunks = 4;
  config.checkpoint.directory = dir_ + "/checkpoints";
  config.checkpoint.interval_chunks = 1;
  config.obs.report_path = dir_ + "/report.json";
  obs::Registry::Global().Reset();
  const PipelineResult result =
      RunPipeline(archive.reports, archive.fleet, config);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_EQ(result.coverage.checkpoints_written, 4u);

  const obs::Json report = MustParseFile(config.obs.report_path);
  EXPECT_EQ(report.Find("checkpoint")->GetUint64("written"),
            result.coverage.checkpoints_written);
  EXPECT_EQ(report.Find("store")->GetUint64("publishes"),
            result.coverage.checkpoints_written);
}

TEST_F(RunReportTest, ResumePastDamagedCheckpointCountsOneFallback) {
  const sim::SimulationOutput archive = SmallArchive();
  PipelineConfig config;
  config.partitions = 4;
  config.chunks = 4;
  config.checkpoint.directory = dir_ + "/checkpoints";
  config.checkpoint.interval_chunks = 2;
  ASSERT_TRUE(RunPipeline(archive.reports, archive.fleet, config).status.ok());

  // Damage the newest checkpoint (cursor 4); the resume falls back to
  // cursor 2 through the store's one walk, which counts the skip.
  const std::vector<std::string> snapshots =
      CheckpointManager(config.checkpoint).ListSnapshots();
  ASSERT_EQ(snapshots.size(), 2u);
  {
    std::ofstream file(snapshots.back(), std::ios::binary | std::ios::trunc);
    file << "scribbled over by a disk fault";
  }
  config.obs.report_path = dir_ + "/report.json";
  obs::Registry::Global().Reset();
  const PipelineResult resumed =
      RunPipeline(archive.reports, archive.fleet, config);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_EQ(resumed.coverage.resume_cursor, 2u);

  const obs::Json report = MustParseFile(config.obs.report_path);
  EXPECT_TRUE(report.Find("checkpoint")->Find("resumed")->AsBool());
  EXPECT_EQ(report.Find("checkpoint")->GetUint64("resume_cursor"), 2u);
  EXPECT_EQ(report.Find("store")->GetUint64("fallbacks"), 1u);
}

TEST_F(RunReportTest, WriteRunReportFailsOnUnwritablePath) {
  // Missing parent directories are created by the atomic writer; a
  // regular file in the directory position is genuinely unwritable.
  {
    std::ofstream blocker(dir_ + "/blocker");
    blocker << "not a directory";
  }
  const PipelineConfig config;
  const PipelineResult result;
  const Status status =
      WriteRunReport(dir_ + "/blocker/report.json", config, result);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace pol::core
