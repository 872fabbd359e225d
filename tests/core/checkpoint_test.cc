// CheckpointManager: snapshot framing (magic/varint/CRC), atomic write
// + rotation, newest-valid-wins loading with corrupt fallback, and the
// InventoryBuilder state round-trip the snapshots carry.

#include "core/checkpoint.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/status.h"
#include "common/time_util.h"
#include "core/cleaning.h"
#include "core/inventory_builder.h"
#include "core/stages.h"
#include "flow/stage.h"
#include "flow/threadpool.h"
#include "sim/fleet.h"

namespace pol::core {
namespace {

#if defined(POL_FAILPOINTS)
constexpr bool kFailPointsEnabled = true;
#else
constexpr bool kFailPointsEnabled = false;
#endif

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    directory_ = (std::filesystem::path(::testing::TempDir()) /
                  ("pol_ckpt_" +
                   std::string(::testing::UnitTest::GetInstance()
                                   ->current_test_info()
                                   ->name())))
                     .string();
    std::filesystem::remove_all(directory_);
  }

  void TearDown() override { std::filesystem::remove_all(directory_); }

  CheckpointConfig Config(int interval = 2, int keep = 2) const {
    CheckpointConfig config;
    config.directory = directory_;
    config.interval_chunks = interval;
    config.keep = keep;
    return config;
  }

  std::string directory_;
};

CheckpointState SampleState() {
  CheckpointState state;
  state.cursor = 7;
  state.total_chunks = 12;
  CheckpointQuarantineEntry entry;
  entry.chunk_index = 3;
  entry.records = 41;
  entry.attempts = 2;
  entry.code = StatusCode::kCorruption;
  entry.message = "cleaning: poisoned chunk";
  state.quarantined.push_back(entry);
  state.builder_state = "opaque builder bytes";
  return state;
}

void ExpectStatesEqual(const CheckpointState& a, const CheckpointState& b) {
  EXPECT_EQ(a.cursor, b.cursor);
  EXPECT_EQ(a.total_chunks, b.total_chunks);
  ASSERT_EQ(a.quarantined.size(), b.quarantined.size());
  for (size_t i = 0; i < a.quarantined.size(); ++i) {
    EXPECT_EQ(a.quarantined[i].chunk_index, b.quarantined[i].chunk_index);
    EXPECT_EQ(a.quarantined[i].records, b.quarantined[i].records);
    EXPECT_EQ(a.quarantined[i].attempts, b.quarantined[i].attempts);
    EXPECT_EQ(a.quarantined[i].code, b.quarantined[i].code);
    EXPECT_EQ(a.quarantined[i].message, b.quarantined[i].message);
  }
  EXPECT_EQ(a.builder_state, b.builder_state);
}

TEST_F(CheckpointTest, EncodeDecodeRoundTrip) {
  const CheckpointState state = SampleState();
  std::string bytes;
  CheckpointManager::Encode(state, &bytes);
  const Result<CheckpointState> decoded = CheckpointManager::Decode(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectStatesEqual(*decoded, state);
}

TEST_F(CheckpointTest, DecodeRejectsCorruptInput) {
  std::string bytes;
  CheckpointManager::Encode(SampleState(), &bytes);

  EXPECT_EQ(CheckpointManager::Decode("short").status().code(),
            StatusCode::kCorruption);

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_EQ(CheckpointManager::Decode(bad_magic).status().code(),
            StatusCode::kCorruption);

  std::string truncated = bytes.substr(0, bytes.size() - 5);
  EXPECT_EQ(CheckpointManager::Decode(truncated).status().code(),
            StatusCode::kCorruption);

  std::string flipped = bytes;
  flipped[bytes.size() / 2] =
      static_cast<char>(flipped[bytes.size() / 2] ^ 0x40);
  EXPECT_FALSE(CheckpointManager::Decode(flipped).ok());
}

TEST_F(CheckpointTest, WriteLoadRoundTripAndSequenceNumbers) {
  CheckpointManager manager(Config());
  ASSERT_TRUE(manager.enabled());
  EXPECT_EQ(manager.LoadLatest().status().code(), StatusCode::kNotFound);

  CheckpointState state = SampleState();
  state.cursor = 2;
  ASSERT_TRUE(manager.Write(state).ok());
  state.cursor = 4;
  ASSERT_TRUE(manager.Write(state).ok());

  const Result<CheckpointState> loaded = manager.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->cursor, 4u);

  // A fresh manager over the same directory continues the numbering
  // instead of overwriting.
  CheckpointManager resumed(Config());
  state.cursor = 6;
  ASSERT_TRUE(resumed.Write(state).ok());
  const Result<CheckpointState> newest = resumed.LoadLatest();
  ASSERT_TRUE(newest.ok());
  EXPECT_EQ(newest->cursor, 6u);
}

TEST_F(CheckpointTest, RotationKeepsNewestSnapshots) {
  CheckpointManager manager(Config(/*interval=*/1, /*keep=*/2));
  CheckpointState state = SampleState();
  for (uint64_t cursor = 1; cursor <= 5; ++cursor) {
    state.cursor = cursor;
    ASSERT_TRUE(manager.Write(state).ok());
  }
  const std::vector<std::string> snapshots = manager.ListSnapshots();
  EXPECT_EQ(snapshots.size(), 2u);
  const Result<CheckpointState> loaded = manager.LoadLatest();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->cursor, 5u);
}

TEST_F(CheckpointTest, CorruptNewestFallsBackToPrevious) {
  CheckpointManager manager(Config());
  CheckpointState state = SampleState();
  state.cursor = 2;
  ASSERT_TRUE(manager.Write(state).ok());
  state.cursor = 4;
  ASSERT_TRUE(manager.Write(state).ok());

  // Scribble over the newest snapshot.
  const std::vector<std::string> snapshots = manager.ListSnapshots();
  ASSERT_EQ(snapshots.size(), 2u);
  {
    std::ofstream file(snapshots.back(),
                       std::ios::binary | std::ios::trunc);
    file << "not a snapshot";
  }
  const Result<CheckpointState> loaded = manager.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->cursor, 2u);

  // Scribble over the older one too: nothing loadable remains.
  {
    std::ofstream file(snapshots.front(),
                       std::ios::binary | std::ios::trunc);
    file << "also not a snapshot";
  }
  EXPECT_EQ(manager.LoadLatest().status().code(), StatusCode::kNotFound);
}

TEST_F(CheckpointTest, DurableWriteFaultKeepsPreviousCheckpoint) {
  if (!kFailPointsEnabled) {
    GTEST_SKIP() << "fail points compiled out; use the faults preset";
  }
  CheckpointManager manager(Config());
  CheckpointState state = SampleState();
  state.cursor = 2;
  ASSERT_TRUE(manager.Write(state).ok());
  std::string previous;
  CheckpointManager::Encode(state, &previous);

  FailPointSpec spec;
  spec.code = StatusCode::kIoError;
  FailPointRegistry::Global().Arm("store.write", spec);
  state.cursor = 4;
  const Status failed = manager.Write(state);
  FailPointRegistry::Global().Disarm("store.write");
  EXPECT_EQ(failed.code(), StatusCode::kIoError);

  // No torn file or stray temp; the previous checkpoint loads to the
  // same bytes it was written from.
  EXPECT_EQ(manager.ListSnapshots().size(), 1u);
  for (const auto& entry : std::filesystem::directory_iterator(directory_)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
  const Result<CheckpointState> loaded = manager.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::string reloaded;
  CheckpointManager::Encode(*loaded, &reloaded);
  EXPECT_EQ(reloaded, previous);
}

TEST_F(CheckpointTest, DisabledManagerRefusesIo) {
  CheckpointManager manager(CheckpointConfig{});
  EXPECT_FALSE(manager.enabled());
  EXPECT_EQ(manager.Write(SampleState()).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(manager.LoadLatest().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(CheckpointTest, BuilderStateRoundTripsByteIdentically) {
  // Fold a real archive chunk-by-chunk, snapshot mid-build, restore
  // into a fresh builder, and check both serialized state and the final
  // inventory come out byte-identical.
  sim::FleetConfig fleet_config;
  fleet_config.seed = 777;
  fleet_config.commercial_vessels = 6;
  fleet_config.noncommercial_vessels = 2;
  fleet_config.start_time = 1640995200;
  fleet_config.end_time = fleet_config.start_time + 10 * kSecondsPerDay;
  const sim::SimulationOutput archive =
      sim::FleetSimulator(fleet_config).Run();

  flow::ThreadPool pool(2);
  CleaningConfig cleaning_config;
  cleaning_config.partitions = 4;
  CleaningStage cleaning(cleaning_config);
  EnrichmentStage enrichment(archive.fleet, /*commercial_only=*/true);
  TripStage trips(&sim::PortDatabase::Global(), 6);
  ProjectionStage projection(6);

  ExtractorConfig extractor_config;
  extractor_config.resolution = 6;

  auto run_chain = [&](flow::Dataset<ais::PositionReport> chunk) {
    auto cleaned = cleaning.RunChunk(std::move(chunk));
    auto enriched = enrichment.RunChunk(std::move(cleaned).value());
    auto tripped = trips.RunChunk(std::move(enriched).value());
    return projection.RunChunk(std::move(tripped).value());
  };

  auto chunks = SplitReportsByVessel(archive.reports, 4, 4, &pool);
  ASSERT_EQ(chunks.size(), 4u);

  InventoryBuilder original(extractor_config);
  original.Fold(*run_chain(std::move(chunks[0])));
  original.Fold(*run_chain(std::move(chunks[1])));

  std::string mid_state;
  original.SerializeState(&mid_state);

  InventoryBuilder restored(extractor_config);
  ASSERT_TRUE(restored.RestoreState(mid_state).ok());
  EXPECT_EQ(restored.records_folded(), original.records_folded());
  EXPECT_EQ(restored.size(), original.size());
  EXPECT_EQ(restored.metrics().chunks, original.metrics().chunks);

  // Restored state re-serializes to the same bytes.
  std::string restored_state;
  restored.SerializeState(&restored_state);
  EXPECT_EQ(restored_state, mid_state);

  // Both builders finish the remaining chunks identically.
  auto chunk2 = *run_chain(std::move(chunks[2]));
  auto chunk3 = *run_chain(std::move(chunks[3]));
  original.Fold(chunk2);
  original.Fold(chunk3);
  restored.Fold(chunk2);
  restored.Fold(chunk3);

  std::string original_bytes;
  std::string restored_bytes;
  std::move(original).Finish().SerializeTo(&original_bytes);
  std::move(restored).Finish().SerializeTo(&restored_bytes);
  EXPECT_EQ(restored_bytes, original_bytes);
}

TEST_F(CheckpointTest, RestoreRejectsResolutionMismatch) {
  ExtractorConfig config6;
  config6.resolution = 6;
  InventoryBuilder source(config6);
  std::string state;
  source.SerializeState(&state);

  ExtractorConfig config5;
  config5.resolution = 5;
  InventoryBuilder target(config5);
  EXPECT_EQ(target.RestoreState(state).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(CheckpointTest, RestoreRejectsGarbage) {
  ExtractorConfig config;
  InventoryBuilder builder(config);
  EXPECT_FALSE(builder.RestoreState("definitely not builder state").ok());
}

}  // namespace
}  // namespace pol::core
