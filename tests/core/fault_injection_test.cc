// Fault-injection suite for the failure-containment layer: a run killed
// at any fail point — stage boundaries, checkpoint I/O — and then
// resumed from its snapshots must produce a byte-identical inventory to
// an uninterrupted run. Tests that arm fail points skip unless the
// build compiles them in (faults preset / tools/run_tier1.sh --faults);
// the resume and corrupt-fallback paths are exercised unconditionally.
//
// Determinism notes baked into the config below:
//  - max_in_flight_chunks = 1 makes fail-point hit indices line up with
//    chunk indices (concurrent chunks would interleave evaluations).
//  - Every byte-compared run checkpoints on the same interval, because
//    snapshot serialization flushes t-digest buffers (see
//    InventoryBuilder::SerializeState).

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ais/nmea.h"
#include "common/failpoint.h"
#include "common/quarantine.h"
#include "common/status.h"
#include "common/time_util.h"
#include "core/checkpoint.h"
#include "core/pipeline.h"
#include "sim/fleet.h"

namespace pol::core {
namespace {

#if defined(POL_FAILPOINTS)
constexpr bool kFailPointsEnabled = true;
#else
constexpr bool kFailPointsEnabled = false;
#endif

constexpr int kChunks = 6;
constexpr int kCheckpointInterval = 2;

const sim::SimulationOutput& Archive() {
  static const sim::SimulationOutput* archive = [] {
    sim::FleetConfig config;
    config.seed = 97531;
    config.commercial_vessels = 10;
    config.noncommercial_vessels = 3;
    config.start_time = 1640995200;
    config.end_time = config.start_time + 12 * kSecondsPerDay;
    return new sim::SimulationOutput(sim::FleetSimulator(config).Run());
  }();
  return *archive;
}

PipelineConfig BaseConfig(const std::string& checkpoint_dir) {
  PipelineConfig config;
  config.partitions = kChunks;
  config.threads = 2;
  config.chunks = kChunks;
  config.max_in_flight_chunks = 1;
  config.resolution = 6;
  config.checkpoint.directory = checkpoint_dir;
  config.checkpoint.interval_chunks = kCheckpointInterval;
  config.checkpoint.keep = 2;
  return config;
}

std::string InventoryBytes(const PipelineResult& result) {
  std::string bytes;
  result.inventory->SerializeTo(&bytes);
  return bytes;
}

// Serialized inventory of an uninterrupted checkpointed run — the
// baseline every killed-and-resumed run must reproduce exactly.
const std::string& ReferenceBytes() {
  static const std::string* bytes = [] {
    const std::string dir =
        (std::filesystem::path(::testing::TempDir()) / "pol_fault_reference")
            .string();
    std::filesystem::remove_all(dir);
    const PipelineResult result =
        RunPipeline(Archive().reports, Archive().fleet, BaseConfig(dir));
    auto* out = new std::string(InventoryBytes(result));
    std::filesystem::remove_all(dir);
    return out;
  }();
  return *bytes;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPointRegistry::Global().Reset();
    directory_ = (std::filesystem::path(::testing::TempDir()) /
                  ("pol_fault_" +
                   std::string(::testing::UnitTest::GetInstance()
                                   ->current_test_info()
                                   ->name())))
                     .string();
    std::filesystem::remove_all(directory_);
  }

  void TearDown() override {
    FailPointRegistry::Global().Reset();
    std::filesystem::remove_all(directory_);
  }

  PipelineResult Run(const PipelineConfig& config) {
    return RunPipeline(Archive().reports, Archive().fleet, config);
  }

  std::string directory_;
};

TEST_F(FaultInjectionTest, RerunAfterCompleteRunResumesAtFinalCursor) {
  const PipelineConfig config = BaseConfig(directory_);
  const PipelineResult first = Run(config);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_FALSE(first.coverage.resumed);
  // Snapshots at cursors 2, 4 and 6.
  EXPECT_EQ(first.coverage.checkpoints_written, 3u);
  EXPECT_EQ(InventoryBytes(first), ReferenceBytes());

  const PipelineResult rerun = Run(config);
  ASSERT_TRUE(rerun.status.ok()) << rerun.status.ToString();
  EXPECT_TRUE(rerun.coverage.resumed);
  EXPECT_EQ(rerun.coverage.resume_cursor, static_cast<uint64_t>(kChunks));
  EXPECT_EQ(rerun.coverage.chunks_folded, static_cast<size_t>(kChunks));
  EXPECT_EQ(rerun.coverage.checkpoints_written, 0u);
  EXPECT_EQ(rerun.aggregated_records, first.aggregated_records);
  EXPECT_EQ(InventoryBytes(rerun), ReferenceBytes());
}

TEST_F(FaultInjectionTest, CorruptNewestSnapshotFallsBackToOlder) {
  const PipelineConfig config = BaseConfig(directory_);
  const PipelineResult first = Run(config);
  ASSERT_TRUE(first.status.ok());

  // keep=2 leaves the cursor-4 and cursor-6 snapshots; corrupt the
  // newest so resume must fall back to cursor 4 and refold the tail.
  const std::vector<std::string> snapshots =
      CheckpointManager(config.checkpoint).ListSnapshots();
  ASSERT_EQ(snapshots.size(), 2u);
  {
    std::ofstream file(snapshots.back(), std::ios::binary | std::ios::trunc);
    file << "scribbled over by a disk fault";
  }

  const PipelineResult resumed = Run(config);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_TRUE(resumed.coverage.resumed);
  EXPECT_EQ(resumed.coverage.resume_cursor, 4u);
  EXPECT_EQ(resumed.coverage.chunks_folded, static_cast<size_t>(kChunks));
  EXPECT_EQ(InventoryBytes(resumed), ReferenceBytes());
}

TEST_F(FaultInjectionTest, ResumeRefusesMismatchedChunkCount) {
  const PipelineConfig config = BaseConfig(directory_);
  ASSERT_TRUE(Run(config).status.ok());

  PipelineConfig mismatched = config;
  mismatched.chunks = 3;
  const PipelineResult refused = Run(mismatched);
  EXPECT_EQ(refused.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(refused.coverage.resumed);
  ASSERT_NE(refused.inventory, nullptr);  // Empty, but never null.
  EXPECT_EQ(refused.aggregated_records, 0u);
}

// --- Armed fail points below; skipped unless compiled in. ---

// Kills a fail_fast run by arming `point` with `spec`, then disarms and
// reruns over the same snapshot directory: only the cursor-2 checkpoint
// survives the kill, and the run resumed from it must succeed and
// reproduce the uninterrupted inventory byte for byte.
void KillAndResume(const std::string& directory, const std::string& point,
                   const FailPointSpec& spec) {
  SCOPED_TRACE(point);
  FailPointRegistry& registry = FailPointRegistry::Global();
  registry.Reset();

  PipelineConfig killed_config = BaseConfig(directory);
  killed_config.fail_fast = true;
  registry.Arm(point, spec);
  const PipelineResult killed =
      RunPipeline(Archive().reports, Archive().fleet, killed_config);
  registry.Reset();
  ASSERT_FALSE(killed.status.ok()) << "fail point never fired";
  const CheckpointManager survivors(killed_config.checkpoint);
  ASSERT_EQ(survivors.ListSnapshots().size(), 1u)
      << "exactly the cursor-2 snapshot must survive the kill";
  const Result<CheckpointState> survivor = survivors.LoadLatest();
  ASSERT_TRUE(survivor.ok()) << survivor.status().ToString();
  EXPECT_EQ(survivor->cursor, 2u);

  const PipelineResult resumed = RunPipeline(
      Archive().reports, Archive().fleet, BaseConfig(directory));
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_TRUE(resumed.coverage.resumed);
  EXPECT_EQ(resumed.coverage.resume_cursor, 2u);
  EXPECT_EQ(resumed.coverage.chunks_folded, static_cast<size_t>(kChunks));
  EXPECT_EQ(resumed.coverage.chunks_quarantined, 0u);
  EXPECT_EQ(InventoryBytes(resumed), ReferenceBytes());
}

TEST_F(FaultInjectionTest, KilledAndResumedRunIsByteIdenticalAtEveryStage) {
  if (!kFailPointsEnabled) {
    GTEST_SKIP() << "fail points compiled out; use the faults preset";
  }
  // Hit index == chunk index (max_in_flight = 1, no retries): firing
  // from hit 3 kills chunk 3, after the cursor-2 snapshot was written.
  FailPointSpec spec;
  spec.fire_from = 3;
  int scenario = 0;
  for (const char* point :
       {"stage.cleaning", "stage.enrichment", "stage.trips",
        "stage.projection"}) {
    const std::string dir =
        directory_ + "_" + std::to_string(scenario++);
    std::filesystem::remove_all(dir);
    KillAndResume(dir, point, spec);
    std::filesystem::remove_all(dir);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_F(FaultInjectionTest, KilledAndResumedRunSurvivesCheckpointWriteFault) {
  if (!kFailPointsEnabled) {
    GTEST_SKIP() << "fail points compiled out; use the faults preset";
  }
  // The second snapshot write (cursor 4) fails; the cursor-2 snapshot
  // already on disk carries the resume.
  FailPointSpec spec;
  spec.fire_from = 1;
  spec.code = StatusCode::kIoError;
  KillAndResume(directory_, "checkpoint.write", spec);
}

TEST_F(FaultInjectionTest, KilledAndResumedRunSurvivesDurableWriteFault) {
  if (!kFailPointsEnabled) {
    GTEST_SKIP() << "fail points compiled out; use the faults preset";
  }
  // Checkpoints publish through the store's durable writer, and each
  // Publish writes twice: the generation, then the MANIFEST. Hits 0 and
  // 1 are the cursor-2 pair, so hit 2 fails the cursor-4 generation and
  // the cursor-2 one resumes.
  FailPointSpec spec;
  spec.fire_from = 2;
  spec.code = StatusCode::kIoError;
  KillAndResume(directory_, "store.write", spec);
}

TEST_F(FaultInjectionTest, ManifestFaultAfterDurableGenerationResumesFromIt) {
  if (!kFailPointsEnabled) {
    GTEST_SKIP() << "fail points compiled out; use the faults preset";
  }
  // Hit 0 is the cursor-2 publish's MANIFEST rewrite; hit 1 lands after
  // the cursor-4 generation is durable and before its MANIFEST rewrite.
  // The killed run fails, but the generation it wrote is on disk and is
  // the one the restart resumes from.
  FailPointSpec spec;
  spec.fire_from = 1;
  spec.code = StatusCode::kIoError;
  PipelineConfig killed_config = BaseConfig(directory_);
  killed_config.fail_fast = true;
  FailPointRegistry::Global().Arm("store.manifest", spec);
  const PipelineResult killed = Run(killed_config);
  FailPointRegistry::Global().Reset();
  ASSERT_FALSE(killed.status.ok()) << "fail point never fired";

  const CheckpointManager survivors(killed_config.checkpoint);
  EXPECT_EQ(survivors.ListSnapshots().size(), 2u);
  const Result<CheckpointState> survivor = survivors.LoadLatest();
  ASSERT_TRUE(survivor.ok()) << survivor.status().ToString();
  EXPECT_EQ(survivor->cursor, 4u);

  const PipelineResult resumed = Run(BaseConfig(directory_));
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_TRUE(resumed.coverage.resumed);
  EXPECT_EQ(resumed.coverage.resume_cursor, 4u);
  EXPECT_EQ(resumed.coverage.chunks_folded, static_cast<size_t>(kChunks));
  EXPECT_EQ(InventoryBytes(resumed), ReferenceBytes());
}

TEST_F(FaultInjectionTest, ReadFaultFallsBackAcrossSnapshots) {
  if (!kFailPointsEnabled) {
    GTEST_SKIP() << "fail points compiled out; use the faults preset";
  }
  const PipelineConfig config = BaseConfig(directory_);
  ASSERT_TRUE(Run(config).status.ok());

  // The newest snapshot (cursor 6) becomes unreadable; LoadLatest must
  // fall back to the cursor-4 one instead of starting fresh.
  FailPointSpec spec;
  spec.fire_from = 0;
  spec.fire_count = 1;
  spec.code = StatusCode::kIoError;
  FailPointRegistry::Global().Arm("checkpoint.read", spec);
  const PipelineResult resumed = Run(config);
  FailPointRegistry::Global().Reset();
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_TRUE(resumed.coverage.resumed);
  EXPECT_EQ(resumed.coverage.resume_cursor, 4u);
  EXPECT_EQ(InventoryBytes(resumed), ReferenceBytes());
}

TEST_F(FaultInjectionTest, TransientStageFaultIsRetriedNotQuarantined) {
  if (!kFailPointsEnabled) {
    GTEST_SKIP() << "fail points compiled out; use the faults preset";
  }
  // Chunk 1's first chain attempt fails (hit 1); the retry succeeds and
  // the run stays byte-identical to the no-fault baseline.
  PipelineConfig config = BaseConfig(directory_);
  config.max_attempts = 2;
  FailPointSpec spec;
  spec.fire_from = 1;
  spec.fire_count = 1;
  FailPointRegistry::Global().Arm("stage.enrichment", spec);
  const PipelineResult result = Run(config);
  FailPointRegistry::Global().Reset();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.coverage.retries, 1u);
  EXPECT_EQ(result.coverage.chunks_quarantined, 0u);
  EXPECT_EQ(result.coverage.chunks_folded, static_cast<size_t>(kChunks));
  EXPECT_EQ(InventoryBytes(result), ReferenceBytes());
}

TEST_F(FaultInjectionTest, ExhaustedChunkIsQuarantinedAndRunContinues) {
  if (!kFailPointsEnabled) {
    GTEST_SKIP() << "fail points compiled out; use the faults preset";
  }
  // Both attempts of chunk 1 fail (hits 1 and 2): the chunk is
  // quarantined with the stage-annotated error and the rest still folds.
  PipelineConfig config = BaseConfig(/*checkpoint_dir=*/"");
  config.max_attempts = 2;
  FailPointSpec spec;
  spec.fire_from = 1;
  spec.fire_count = 2;
  spec.code = StatusCode::kCorruption;
  FailPointRegistry::Global().Arm("stage.trips", spec);
  const PipelineResult result = Run(config);
  FailPointRegistry::Global().Reset();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.coverage.retries, 1u);
  EXPECT_EQ(result.coverage.chunks_quarantined, 1u);
  EXPECT_EQ(result.coverage.chunks_folded, static_cast<size_t>(kChunks - 1));
  ASSERT_EQ(result.quarantined.size(), 1u);
  EXPECT_EQ(result.quarantined[0].chunk_index, 1u);
  EXPECT_EQ(result.quarantined[0].attempts, 2);
  EXPECT_EQ(result.quarantined[0].status.code(), StatusCode::kCorruption);
  EXPECT_NE(result.quarantined[0].status.message().find("trips"),
            std::string::npos);
  EXPECT_EQ(result.coverage.records_quarantined,
            result.quarantined[0].records);
}

TEST_F(FaultInjectionTest, RetriedChunkCountsOnceInStageStats) {
  if (!kFailPointsEnabled) {
    GTEST_SKIP() << "fail points compiled out; use the faults preset";
  }
  // Chunk 1's first attempt fails at enrichment after cleaning has
  // counted it; the stage stats must count the chunk once, from the
  // attempt that folded.
  PipelineConfig config = BaseConfig(/*checkpoint_dir=*/"");
  config.max_attempts = 2;
  const PipelineResult no_fault = Run(config);
  ASSERT_TRUE(no_fault.status.ok()) << no_fault.status.ToString();
  EXPECT_EQ(no_fault.cleaning.input, Archive().reports.size());

  FailPointRegistry::Global().Reset();  // Hit counts restart at 0.
  FailPointSpec spec;
  spec.fire_from = 1;
  spec.fire_count = 1;
  FailPointRegistry::Global().Arm("stage.enrichment", spec);
  const PipelineResult retried = Run(config);
  FailPointRegistry::Global().Reset();
  ASSERT_TRUE(retried.status.ok()) << retried.status.ToString();
  EXPECT_EQ(retried.coverage.retries, 1u);
  EXPECT_EQ(retried.coverage.chunks_folded, static_cast<size_t>(kChunks));
  EXPECT_EQ(retried.cleaning, no_fault.cleaning);
  EXPECT_EQ(retried.enrichment, no_fault.enrichment);
  EXPECT_EQ(retried.trips, no_fault.trips);
}

TEST_F(FaultInjectionTest, QuarantinedChunkIsNotCountedInStageStats) {
  if (!kFailPointsEnabled) {
    GTEST_SKIP() << "fail points compiled out; use the faults preset";
  }
  // Both attempts of chunk 1 fail at trips after cleaning and
  // enrichment have counted it: every raw report is counted once,
  // either by cleaning (a folded chunk) or as quarantined.
  PipelineConfig config = BaseConfig(/*checkpoint_dir=*/"");
  config.max_attempts = 2;
  FailPointSpec spec;
  spec.fire_from = 1;
  spec.fire_count = 2;
  spec.code = StatusCode::kCorruption;
  FailPointRegistry::Global().Arm("stage.trips", spec);
  const PipelineResult result = Run(config);
  FailPointRegistry::Global().Reset();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_EQ(result.coverage.chunks_quarantined, 1u);
  EXPECT_GT(result.coverage.records_quarantined, 0u);
  EXPECT_EQ(result.cleaning.input + result.coverage.records_quarantined,
            Archive().reports.size());
  EXPECT_EQ(result.enrichment.input, result.cleaning.kept);
  EXPECT_EQ(result.trips.input, result.enrichment.kept);
}

TEST_F(FaultInjectionTest, IngestFailPointDeadLettersTheSentence) {
  if (!kFailPointsEnabled) {
    GTEST_SKIP() << "fail points compiled out; use the faults preset";
  }
  ais::PositionReport report;
  report.mmsi = 244123456;
  report.timestamp = 1651234567;
  report.lat_deg = 51.9;
  report.lng_deg = 4.1;
  report.sog_knots = 12.0;
  report.cog_deg = 180.0;
  report.heading_deg = 181.0;
  report.nav_status = ais::NavStatus::kUnderWayUsingEngine;
  report.message_type = 1;
  const auto sentence = ais::EncodePositionNmea(report);
  ASSERT_TRUE(sentence.ok());

  QuarantineStore store;
  ais::NmeaDecoder decoder;
  decoder.set_quarantine(&store);

  // A healthy sentence decodes while the point is quiet...
  ASSERT_TRUE(decoder.Feed(*sentence).ok());

  // ...and dead-letters once it is armed, even though the sentence
  // itself is fine.
  FailPointSpec spec;
  spec.code = StatusCode::kIoError;
  spec.message = "injected ingest fault";
  FailPointRegistry::Global().Arm("ingest.nmea", spec);
  const Result<ais::Decoded> decoded = decoder.Feed(*sentence);
  FailPointRegistry::Global().Reset();
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kIoError);
  EXPECT_EQ(store.total(), 1u);
  const std::vector<DeadLetter> letters = store.Letters();
  ASSERT_EQ(letters.size(), 1u);
  EXPECT_EQ(letters[0].source, "ingest.nmea");
  EXPECT_EQ(letters[0].payload, *sentence);
}

}  // namespace
}  // namespace pol::core
