// CheckpointManager: checkpoints as SnapshotStore generations — publish
// + rotation, newest-valid-wins loading through OpenLatest's one
// fallback walk, format hostility (every truncation, every bit flip,
// container-valid but inconsistent meta), and the InventoryBuilder
// state round-trip the snapshots carry.

#include "core/checkpoint.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/status.h"
#include "common/time_util.h"
#include "common/varint.h"
#include "core/cleaning.h"
#include "core/inventory.h"
#include "core/inventory_builder.h"
#include "core/pipeline.h"
#include "core/snapshot_codec.h"
#include "flow/dataset.h"
#include "flow/stage.h"
#include "flow/threadpool.h"
#include "hexgrid/hexgrid.h"
#include "obs/metrics.h"
#include "sim/fleet.h"
#include "store/snapshot_format.h"
#include "store/snapshot_store.h"
#include "store/store_metric_names.h"

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
  entry.chunk_index = 0;
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
  ExpectStatesEqual(*loaded, state);

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

  // Scribble over the older one too: generations exist but none is
  // readable, which the store reports as data loss (an empty directory
  // stays NotFound). The pipeline starts fresh on either.
  {
    std::ofstream file(snapshots.front(),
                       std::ios::binary | std::ios::trunc);
    file << "also not a snapshot";
  }
  EXPECT_EQ(manager.LoadLatest().status().code(), StatusCode::kDataLoss);
}

TEST_F(CheckpointTest, DurableWriteFaultKeepsPreviousCheckpoint) {
  if (!kFailPointsEnabled) {
    GTEST_SKIP() << "fail points compiled out; use the faults preset";
  }
  CheckpointManager manager(Config());
  CheckpointState state = SampleState();
  state.cursor = 2;
  ASSERT_TRUE(manager.Write(state).ok());
  const CheckpointState previous = state;

  FailPointSpec spec;
  spec.code = StatusCode::kIoError;
  FailPointRegistry::Global().Arm("store.write", spec);
  state.cursor = 4;
  const Status failed = manager.Write(state);
  FailPointRegistry::Global().Disarm("store.write");
  EXPECT_EQ(failed.code(), StatusCode::kIoError);

  // No torn file or stray temp; the previous checkpoint loads to the
  // state it was written from.
  EXPECT_EQ(manager.ListSnapshots().size(), 1u);
  for (const auto& entry : std::filesystem::directory_iterator(directory_)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
  const Result<CheckpointState> loaded = manager.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectStatesEqual(*loaded, previous);
}

uint64_t Fallbacks() {
  return obs::Registry::Global().counter(store::kMetricStoreFallbacks)->value();
}

// Serialized state of a builder that folded a few real records, so a
// generation built from it carries a genuine builder section.
std::string RealBuilderState() {
  flow::ThreadPool pool(1);
  std::vector<PipelineRecord> records;
  for (int i = 0; i < 6; ++i) {
    PipelineRecord r;
    r.mmsi = 215000001;
    r.timestamp = 1640995200 + 600 * i;
    r.lat_deg = 10.0 + 0.5 * i;
    r.lng_deg = 20.0 + 0.5 * i;
    r.sog_knots = 12.0 + i;
    r.cog_deg = 45.0;
    r.heading_deg = 45.0;
    r.segment = ais::MarketSegment::kContainer;
    r.trip_id = 1;
    r.origin = 3;
    r.destination = 21;
    r.eto_s = 600 * i;
    r.ata_s = 7200 - 600 * i;
    r.cell = hex::LatLngToCell({r.lat_deg, r.lng_deg}, 6);
    records.push_back(r);
  }
  ExtractorConfig config;
  config.resolution = 6;
  InventoryBuilder builder(config);
  builder.Fold(flow::Dataset<PipelineRecord>::FromVector(std::move(records),
                                                         1, &pool));
  std::string state;
  builder.SerializeState(&state);
  return state;
}

// Meta section bytes laid out as checkpoint.h documents them, with
// every field under the test's control — including values a run could
// never have written.
struct MetaFields {
  uint64_t version = kCheckpointVersion;
  uint64_t cursor = 4;
  uint64_t total_chunks = 8;
  // {chunk_index, status code} per ledger entry.
  std::vector<std::pair<uint64_t, uint64_t>> ledger = {{1, 5}};
  std::string trailing;

  std::string Encode() const {
    std::string out;
    PutVarint64(&out, version);
    PutVarint64(&out, cursor);
    PutVarint64(&out, total_chunks);
    PutVarint64(&out, ledger.size());
    for (const auto& [chunk_index, code] : ledger) {
      PutVarint64(&out, chunk_index);
      PutVarint64(&out, /*records=*/10);
      PutVarint64(&out, /*attempts=*/1);
      PutVarint64(&out, code);
      PutLengthPrefixed(&out, "quarantined");
    }
    out += trailing;
    return out;
  }
};

std::string CheckpointImage(const MetaFields& meta, bool with_builder = true) {
  store::SnapshotFileBuilder builder;
  builder.AddSection(kCheckpointSectionMeta, meta.Encode());
  if (with_builder) {
    builder.AddSection(kCheckpointSectionBuilderState, "builder bytes");
  }
  return builder.Finish();
}

// Damages `path` in place by overwriting it with `bytes`.
void Overwrite(const std::string& path, std::string_view bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(CheckpointTest, HandBuiltImageLoads) {
  // The hostile cases below differ from this one in one field each, so
  // each rejection is that field's.
  store::SnapshotStore store(store::SnapshotStoreOptions{directory_, 8});
  ASSERT_TRUE(store.Publish(CheckpointImage(MetaFields{})).ok());
  const Result<CheckpointState> loaded = CheckpointManager(Config()).LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->cursor, 4u);
  EXPECT_EQ(loaded->total_chunks, 8u);
  ASSERT_EQ(loaded->quarantined.size(), 1u);
  EXPECT_EQ(loaded->quarantined[0].chunk_index, 1u);
  EXPECT_EQ(loaded->quarantined[0].code, StatusCode::kCorruption);
  EXPECT_EQ(loaded->builder_state, "builder bytes");
}

TEST_F(CheckpointTest, InconsistentMetaIsDataLossAndFallsBack) {
  // One case per consistency rule; `why` is the rejection each must
  // report, so no case passes on another rule's account.
  struct Case {
    std::string why;
    MetaFields meta;
    bool with_builder = true;
  };
  std::vector<Case> cases;
  {
    Case c{"cursor past the chunk count", {}};
    c.meta.cursor = 9;
    cases.push_back(c);
  }
  {
    Case c{"more quarantined chunks than accounted ones", {}};
    c.meta.cursor = 2;
    c.meta.ledger = {{0, 5}, {1, 5}, {2, 5}};
    cases.push_back(c);
  }
  {
    Case c{"quarantined chunk at or past the cursor", {}};
    c.meta.ledger = {{4, 5}};
    cases.push_back(c);
  }
  {
    Case c{"quarantined chunk indices not increasing", {}};
    c.meta.ledger = {{2, 5}, {2, 5}};
    cases.push_back(c);
  }
  {
    Case c{"bad status code", {}};
    c.meta.ledger = {{1, static_cast<uint64_t>(kMaxStatusCode) + 1}};
    cases.push_back(c);
  }
  {
    Case c{"unsupported version", {}};
    c.meta.version = kCheckpointVersion + 1;
    cases.push_back(c);
  }
  {
    Case c{"trailing bytes", {}};
    c.meta.trailing = "x";
    cases.push_back(c);
  }
  {
    Case c{"missing section id 129", {}};
    c.with_builder = false;
    cases.push_back(c);
  }

  CheckpointManager manager(Config(/*interval=*/1, /*keep=*/8));
  CheckpointState good = SampleState();
  good.cursor = 2;
  ASSERT_TRUE(manager.Write(good).ok());
  store::SnapshotStore store(store::SnapshotStoreOptions{directory_, 8});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.why);
    // The newest generation is the hostile one; the good one sits
    // below it.
    ASSERT_TRUE(store.Publish(CheckpointImage(c.meta, c.with_builder)).ok());
    const uint64_t fallbacks_before = Fallbacks();
    const Result<CheckpointState> loaded = manager.LoadLatest();
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectStatesEqual(*loaded, good);
    if (obs::kEnabled) {
      EXPECT_EQ(Fallbacks(), fallbacks_before + 1);
    }

    // Alone in a directory, it is data loss rather than a resume, and
    // the store's failure list names the rule.
    const std::string alone = directory_ + "_alone";
    std::filesystem::remove_all(alone);
    store::SnapshotStore lone(store::SnapshotStoreOptions{alone, 1});
    ASSERT_TRUE(lone.Publish(CheckpointImage(c.meta, c.with_builder)).ok());
    CheckpointConfig lone_config = Config();
    lone_config.directory = alone;
    const Status status = CheckpointManager(lone_config).LoadLatest().status();
    EXPECT_EQ(status.code(), StatusCode::kDataLoss);
    EXPECT_NE(status.message().find(c.why), std::string::npos)
        << status.ToString();
    std::filesystem::remove_all(alone);

    // Retire the hostile generation before the next case.
    std::filesystem::remove(store.GenerationPath(store.ListGenerations().back()));
  }
}

// Every-truncation and every-bit-flip fuzz over one real checkpoint
// generation, with an older good generation beneath it. Together these
// cover what the old framing tests checked: a short input, bad magic,
// a truncated body and a flipped bit each leave the older state loaded.
class CheckpointFuzzTest : public CheckpointTest {
 protected:
  void SetUp() override {
    CheckpointTest::SetUp();
    CheckpointManager manager(Config());
    older_ = SampleState();
    older_.cursor = 2;
    older_.builder_state = RealBuilderState();
    ASSERT_TRUE(manager.Write(older_).ok());
    CheckpointState newest = older_;
    newest.cursor = 4;
    ASSERT_TRUE(manager.Write(newest).ok());
    newest_path_ = manager.ListSnapshots().back();
    std::ifstream file(newest_path_, std::ios::binary);
    image_.assign(std::istreambuf_iterator<char>(file),
                  std::istreambuf_iterator<char>());
    ASSERT_TRUE(store::SnapshotFileView::Validate(image_).ok());
  }

  // Overwrites the newest generation with `bytes`; LoadLatest must
  // return the older state with exactly one fallback.
  void ExpectFallsBack(std::string_view bytes, const std::string& what) {
    Overwrite(newest_path_, bytes);
    const uint64_t fallbacks_before = Fallbacks();
    const Result<CheckpointState> loaded =
        CheckpointManager(Config()).LoadLatest();
    ASSERT_TRUE(loaded.ok()) << what << ": " << loaded.status().ToString();
    ASSERT_EQ(loaded->cursor, older_.cursor) << what;
    ASSERT_EQ(loaded->builder_state, older_.builder_state) << what;
    if (obs::kEnabled) {
      ASSERT_EQ(Fallbacks(), fallbacks_before + 1) << what;
    }
  }

  CheckpointState older_;
  std::string newest_path_;
  std::string image_;
};

TEST_F(CheckpointFuzzTest, UntamperedNewestLoads) {
  Overwrite(newest_path_, image_);
  const Result<CheckpointState> loaded =
      CheckpointManager(Config()).LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  CheckpointState newest = older_;
  newest.cursor = 4;
  ExpectStatesEqual(*loaded, newest);
}

TEST_F(CheckpointFuzzTest, EveryTruncationFallsBackToOlder) {
  // Every length through the header, table and meta section, then a
  // dense sample of the builder section.
  for (size_t keep = 0; keep < image_.size();
       keep += (keep < 320 ? 1 : 13)) {
    ExpectFallsBack(std::string_view(image_).substr(0, keep),
                    std::to_string(keep) + " bytes kept");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_F(CheckpointFuzzTest, EveryBitFlipFallsBackToOlder) {
  // One flipped bit per probed byte, rotating which bit; the magic,
  // header fields, table, meta payload and padding are all hit.
  for (size_t i = 0; i < image_.size(); i += (i < 320 ? 1 : 7)) {
    std::string corrupt = image_;
    corrupt[i] = static_cast<char>(corrupt[i] ^ (1u << (i % 8)));
    ExpectFallsBack(corrupt, "byte " + std::to_string(i));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_F(CheckpointTest, SchemasDoNotCrossOpen) {
  // A checkpoint directory is not an inventory store...
  CheckpointManager manager(Config());
  ASSERT_TRUE(manager.Write(SampleState()).ok());
  const store::SnapshotStore checkpoints(
      store::SnapshotStoreOptions{directory_, 2});
  EXPECT_EQ(OpenLatestSnapshot(checkpoints).status().code(),
            StatusCode::kDataLoss);

  // ...and an inventory store is not a checkpoint directory.
  const std::string inventories = directory_ + "_inventory";
  std::filesystem::remove_all(inventories);
  store::SnapshotStore store(store::SnapshotStoreOptions{inventories, 2});
  std::string image;
  Inventory(6, SummaryMap{}).Seal()->EncodeTo(&image);
  ASSERT_TRUE(store.Publish(image).ok());
  CheckpointConfig config = Config();
  config.directory = inventories;
  EXPECT_EQ(CheckpointManager(config).LoadLatest().status().code(),
            StatusCode::kDataLoss);
  std::filesystem::remove_all(inventories);
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
  const ChunkProcessor processor(cleaning_config, archive.fleet,
                                 /*commercial_only=*/true,
                                 &sim::PortDatabase::Global(), 6, 6);

  ExtractorConfig extractor_config;
  extractor_config.resolution = 6;

  auto run_chain = [&](flow::Dataset<ais::PositionReport> chunk) {
    return processor.Run(std::move(chunk)).value().records;
  };

  auto chunks = SplitReportsByVessel(archive.reports, 4, 4, &pool);
  ASSERT_EQ(chunks.size(), 4u);

  InventoryBuilder original(extractor_config);
  original.Fold(run_chain(std::move(chunks[0])));
  original.Fold(run_chain(std::move(chunks[1])));

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
  auto chunk2 = run_chain(std::move(chunks[2]));
  auto chunk3 = run_chain(std::move(chunks[3]));
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

TEST_F(CheckpointTest, RestoreRejectsRepeatedSummaryKey) {
  // Builder state whose summary records repeat one key: the shared
  // record decoder refuses it instead of keeping the first summary.
  const GroupKey key = KeyCell(hex::LatLngToCell({1.3, 103.8}, 6));
  std::string summary_bytes;
  CellSummary().Serialize(&summary_bytes);
  std::string state;
  PutVarint64(&state, 6);  // Resolution.
  PutVarint64(&state, 0);  // Records folded.
  PutVarint64(&state, 0);  // Chunks.
  PutVarint64(&state, 0);  // Records in.
  PutVarint64(&state, 0);  // Peak partition.
  PutDouble(&state, 0.0);  // Wall seconds.
  PutVarint64(&state, 2);  // Summary count.
  for (int copy = 0; copy < 2; ++copy) {
    PutVarint64(&state, key.cell);
    PutVarint64(&state, GroupKeyDimsPacked(key));
    PutLengthPrefixed(&state, summary_bytes);
  }
  ExtractorConfig config;
  config.resolution = 6;
  InventoryBuilder builder(config);
  EXPECT_EQ(builder.RestoreState(state).code(), StatusCode::kCorruption);
}

TEST_F(CheckpointTest, RestoreRejectsGarbage) {
  ExtractorConfig config;
  InventoryBuilder builder(config);
  EXPECT_FALSE(builder.RestoreState("definitely not builder state").ok());
}

}  // namespace
}  // namespace pol::core
