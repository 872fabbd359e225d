// Format hostility: a snapshot generation damaged in any way —
// truncated at any length, any bit flipped, or rewritten as a
// container-valid file whose payload sections lie about each other —
// must come back from the open path as a clean kDataLoss. Never a
// crash, never a silently wrong snapshot. Runs in the --faults pass of
// tools/run_tier1.sh (no fail points needed; the damage is literal).

#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/status.h"
#include "common/varint.h"
#include "core/cell_summary.h"
#include "core/group_key.h"
#include "core/inventory.h"
#include "core/inventory_snapshot.h"
#include "core/snapshot_codec.h"
#include "hexgrid/hexgrid.h"
#include "store/snapshot_format.h"
#include "store/snapshot_store.h"

namespace pol::core {
namespace {

// A small but fully populated inventory: all three grouping sets, a
// route corridor, a segment mask — so every payload section is
// non-empty and every truncation/flip lands somewhere that matters.
Inventory SmallInventory() {
  Rng rng(42);
  SummaryMap summaries;
  for (int i = 0; i < 6; ++i) {
    const hex::CellIndex cell =
        hex::LatLngToCell({10.0 + 0.5 * i, 20.0 + 0.5 * i}, 6);
    PipelineRecord r;
    r.mmsi = 215000001;
    r.trip_id = static_cast<uint64_t>(i + 1);
    r.origin = 3;
    r.destination = 21;
    r.segment = ais::MarketSegment::kContainer;
    r.sog_knots = rng.Uniform(5, 20);
    r.cog_deg = rng.Uniform(0, 360);
    r.heading_deg = r.cog_deg;
    r.eto_s = 3600;
    r.ata_s = 7200;
    for (const GroupKey& key :
         {KeyCell(cell), KeyCellType(cell, r.segment),
          KeyCellRouteType(cell, r.origin, r.destination, r.segment)}) {
      summaries.try_emplace(key).first->second.Add(r);
    }
  }
  return Inventory(6, std::move(summaries));
}

// The full open path on one file: store::OpenSnapshotFile validates the
// container, then the payload opens as a serving snapshot.
Status OpenFile(const std::string& path) {
  Result<store::SnapshotStore::Opened> opened = store::OpenSnapshotFile(path);
  if (!opened.ok()) return opened.status();
  return SnapshotFromOpened(std::move(*opened)).status();
}

class SnapshotFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    directory_ = (std::filesystem::path(::testing::TempDir()) /
                  ("pol_fuzz_" +
                   std::string(::testing::UnitTest::GetInstance()
                                   ->current_test_info()
                                   ->name())))
                     .string();
    std::filesystem::remove_all(directory_);
    std::filesystem::create_directories(directory_);
  }

  void TearDown() override { std::filesystem::remove_all(directory_); }

  store::SnapshotStore Store() const {
    store::SnapshotStoreOptions options;
    options.directory = directory_;
    // Hostile images are published as successive generations; keep
    // them all so each one can be opened by number.
    options.keep = 1000;
    return store::SnapshotStore(options);
  }

  // Overwrites generation 1 with raw bytes (simulating disk damage
  // after a valid publish) and runs the full open path on it.
  Status OpenDamaged(const store::SnapshotStore& store,
                     std::string_view bytes) const {
    const std::string path = store.GenerationPath(1);
    {
      std::ofstream file(path, std::ios::binary | std::ios::trunc);
      file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    return OpenFile(path);
  }

  std::string directory_;
};

std::string EncodedImage() {
  std::string image;
  SmallInventory().Seal()->EncodeTo(&image);
  return image;
}

TEST_F(SnapshotFuzzTest, UntamperedImageOpens) {
  const store::SnapshotStore store = Store();
  const Status status = OpenDamaged(store, EncodedImage());
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST_F(SnapshotFuzzTest, EveryTruncationIsCleanDataLoss) {
  const std::string image = EncodedImage();
  const store::SnapshotStore store = Store();
  // Every length through the header and table, then a dense sample of
  // the section region (the stride is far below any section size, so
  // every section gets cut mid-record many times).
  std::vector<size_t> lengths;
  for (size_t keep = 0; keep < image.size() && keep < 320; ++keep) {
    lengths.push_back(keep);
  }
  for (size_t keep = 320; keep < image.size(); keep += 13) {
    lengths.push_back(keep);
  }
  for (const size_t keep : lengths) {
    const Status status = OpenDamaged(store, image.substr(0, keep));
    ASSERT_FALSE(status.ok()) << keep << " bytes kept";
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << keep << " bytes kept";
  }
}

TEST_F(SnapshotFuzzTest, EveryBitFlipIsCleanDataLoss) {
  const std::string image = EncodedImage();
  const store::SnapshotStore store = Store();
  // One flipped bit per probed byte, rotating which bit, with a stride
  // small enough to land inside every header field, table entry and
  // payload section. The padding-byte flips matter too: the container
  // validates padding is zero, so no byte in the file is a blind spot.
  for (size_t i = 0; i < image.size(); i += (i < 320 ? 1 : 7)) {
    std::string corrupt = image;
    corrupt[i] = static_cast<char>(corrupt[i] ^ (1u << (i % 8)));
    const Status status = OpenDamaged(store, corrupt);
    ASSERT_FALSE(status.ok()) << "byte " << i;
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << "byte " << i;
  }
}

// --- Container-valid, payload-hostile images. -------------------------
// The container CRCs pass (the writer recomputes them), so only the
// codec's cross-section validation stands between these and a crash.

struct Payloads {
  std::string meta;
  std::array<std::string, kNumGroupingSets> keys;
  std::array<std::string, kNumGroupingSets> offsets;
  std::array<std::string, kNumGroupingSets> blobs;
  std::string spans;
  std::string route_cells;
  std::string segments;
  bool omit_set2_keys = false;

  std::string Finish() const {
    store::SnapshotFileWriter writer(1 + 3 * kNumGroupingSets + 3 -
                                     (omit_set2_keys ? 1 : 0));
    writer.BeginSection(kSnapSectionMeta)->append(meta);
    for (uint32_t s = 0; s < kNumGroupingSets; ++s) {
      if (!(s == 2 && omit_set2_keys)) {
        writer.BeginSection(kSnapSectionKeysBase + s)->append(keys[s]);
      }
      writer.BeginSection(kSnapSectionSummaryOffsetsBase + s)
          ->append(offsets[s]);
      writer.BeginSection(kSnapSectionSummaryBlobBase + s)->append(blobs[s]);
    }
    writer.BeginSection(kSnapSectionRouteSpans)->append(spans);
    writer.BeginSection(kSnapSectionRouteCells)->append(route_cells);
    writer.BeginSection(kSnapSectionSegmentIndex)->append(segments);
    return writer.Finish();
  }
};

std::string MetaBytes(uint64_t version, uint64_t resolution,
                      const std::array<uint64_t, kNumGroupingSets>& counts,
                      uint64_t routes, uint64_t route_cells,
                      uint64_t segment_cells, int64_t total_skew = 0) {
  std::string meta;
  PutVarint64(&meta, version);
  PutVarint64(&meta, resolution);
  uint64_t total = static_cast<uint64_t>(total_skew);
  for (const uint64_t count : counts) total += count;
  PutVarint64(&meta, total);
  for (const uint64_t count : counts) PutVarint64(&meta, count);
  PutVarint64(&meta, routes);
  PutVarint64(&meta, route_cells);
  PutVarint64(&meta, segment_cells);
  PutDouble(&meta, 0.25);       // seal_seconds
  PutVarint64(&meta, 1);        // seal_sequence
  return meta;
}

// A hand-built two-summary snapshot: grouping set 0 holds cells {100,
// 200}, a one-route index, and a one-cell segment mask — the smallest
// payload where ordering and bounds can all be violated.
Payloads ValidPayloads() {
  Payloads p;
  std::string blob;
  const CellSummary summary;
  std::string offsets;
  store::AppendU64(&offsets, blob.size());
  summary.Serialize(&blob);
  store::AppendU64(&offsets, blob.size());
  summary.Serialize(&blob);
  store::AppendU64(&offsets, blob.size());

  std::string keys;
  store::AppendU64(&keys, 100);
  store::AppendU64(&keys, GroupKeyDimsPacked(KeyCell(100)));
  store::AppendU64(&keys, 200);
  store::AppendU64(&keys, GroupKeyDimsPacked(KeyCell(200)));

  p.meta = MetaBytes(kSnapPayloadVersion, 6, {2, 0, 0}, 1, 1, 1);
  p.keys[0] = keys;
  p.offsets[0] = offsets;
  p.blobs[0] = blob;
  for (int s = 1; s < kNumGroupingSets; ++s) {
    store::AppendU64(&p.offsets[static_cast<size_t>(s)], 0);
  }
  store::AppendU64(
      &p.spans, PackRouteKey(3, 21, ais::MarketSegment::kContainer));
  store::AppendU64(&p.spans, 0);  // begin
  store::AppendU64(&p.spans, 1);  // end
  store::AppendU64(&p.route_cells, 100);
  store::AppendU64(&p.segments, 100);
  store::AppendU64(&p.segments, 1);  // segment mask
  return p;
}

class SnapshotHostileTest : public SnapshotFuzzTest {
 protected:
  // Publishes a container-valid image and opens it through the codec.
  Status OpenHostile(const Payloads& payloads) {
    store::SnapshotStore store = Store();
    const Result<uint64_t> generation = store.Publish(payloads.Finish());
    EXPECT_TRUE(generation.ok()) << generation.status().ToString();
    if (!generation.ok()) return generation.status();
    return OpenFile(store.GenerationPath(*generation));
  }
};

TEST_F(SnapshotHostileTest, BaselineOpens) {
  const Status status = OpenHostile(ValidPayloads());
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST_F(SnapshotHostileTest, UnsupportedPayloadVersion) {
  Payloads p = ValidPayloads();
  p.meta = MetaBytes(kSnapPayloadVersion + 1, 6, {2, 0, 0}, 1, 1, 1);
  EXPECT_EQ(OpenHostile(p).code(), StatusCode::kDataLoss);
}

TEST_F(SnapshotHostileTest, AbsurdResolution) {
  Payloads p = ValidPayloads();
  p.meta = MetaBytes(kSnapPayloadVersion, 99, {2, 0, 0}, 1, 1, 1);
  EXPECT_EQ(OpenHostile(p).code(), StatusCode::kDataLoss);
}

TEST_F(SnapshotHostileTest, MetaTotalDisagreesWithPerSetCounts) {
  // The total becomes size() and the active-summaries gauge; one more
  // or one fewer than the key sections hold is damage, not a count.
  for (const int64_t skew : {int64_t{-1}, int64_t{1}}) {
    Payloads p = ValidPayloads();
    p.meta = MetaBytes(kSnapPayloadVersion, 6, {2, 0, 0}, 1, 1, 1, skew);
    EXPECT_EQ(OpenHostile(p).code(), StatusCode::kDataLoss) << skew;
  }
}

TEST_F(SnapshotHostileTest, TruncatedMeta) {
  Payloads p = ValidPayloads();
  p.meta = p.meta.substr(0, 3);
  EXPECT_EQ(OpenHostile(p).code(), StatusCode::kDataLoss);
}

TEST_F(SnapshotHostileTest, MissingKeySection) {
  Payloads p = ValidPayloads();
  p.omit_set2_keys = true;
  EXPECT_EQ(OpenHostile(p).code(), StatusCode::kDataLoss);
}

TEST_F(SnapshotHostileTest, KeySectionSizeDisagreesWithMeta) {
  Payloads p = ValidPayloads();
  p.keys[0].resize(p.keys[0].size() - 8);
  EXPECT_EQ(OpenHostile(p).code(), StatusCode::kDataLoss);
}

TEST_F(SnapshotHostileTest, CountsWrapToSectionSizes) {
  // 2^63 + 2 keys of 16 B and 2^63 + 3 offsets of 8 B wrap to the 32
  // and 24 bytes two summaries really take. With empty summaries every
  // byte after the offsets is zero, so an open that trusted the product
  // would scan "monotone" zero offsets off the end of the image.
  constexpr uint64_t kHuge = uint64_t{1} << 63;
  Payloads keys = ValidPayloads();
  keys.meta = MetaBytes(kSnapPayloadVersion, 6, {kHuge + 2, 0, 0}, 0, 0, 0);
  keys.offsets[0] = std::string(3 * sizeof(uint64_t), '\0');
  keys.blobs[0].clear();
  keys.spans.clear();
  keys.route_cells.clear();
  keys.segments.clear();
  EXPECT_EQ(OpenHostile(keys).code(), StatusCode::kDataLoss);
  // 2^61 + 1 spans of 24 B wrap to the one span really present.
  Payloads spans = ValidPayloads();
  spans.meta = MetaBytes(kSnapPayloadVersion, 6, {2, 0, 0},
                         (uint64_t{1} << 61) + 1, 1, 1);
  EXPECT_EQ(OpenHostile(spans).code(), StatusCode::kDataLoss);
}

TEST_F(SnapshotHostileTest, KeysOutOfOrder) {
  Payloads p = ValidPayloads();
  std::string swapped = p.keys[0].substr(16, 16) + p.keys[0].substr(0, 16);
  p.keys[0] = swapped;
  EXPECT_EQ(OpenHostile(p).code(), StatusCode::kDataLoss);
}

TEST_F(SnapshotHostileTest, DuplicateKeys) {
  Payloads p = ValidPayloads();
  p.keys[0] = p.keys[0].substr(0, 16) + p.keys[0].substr(0, 16);
  EXPECT_EQ(OpenHostile(p).code(), StatusCode::kDataLoss);
}

TEST_F(SnapshotHostileTest, OffsetsNotMonotone) {
  Payloads p = ValidPayloads();
  // Swap the first two offsets: [0, a, b] -> [a, 0, b].
  std::string swapped = p.offsets[0].substr(8, 8) + p.offsets[0].substr(0, 8) +
                        p.offsets[0].substr(16, 8);
  p.offsets[0] = swapped;
  EXPECT_EQ(OpenHostile(p).code(), StatusCode::kDataLoss);
}

TEST_F(SnapshotHostileTest, OffsetBeyondBlob) {
  Payloads p = ValidPayloads();
  std::string overrun = p.offsets[0].substr(0, 16);
  store::AppendU64(&overrun, p.blobs[0].size() + 1000);
  p.offsets[0] = overrun;
  EXPECT_EQ(OpenHostile(p).code(), StatusCode::kDataLoss);
}

TEST_F(SnapshotHostileTest, BlobTrailingBytes) {
  Payloads p = ValidPayloads();
  p.blobs[0] += "stowaway";
  EXPECT_EQ(OpenHostile(p).code(), StatusCode::kDataLoss);
}

TEST_F(SnapshotHostileTest, RouteSpanOutOfBounds) {
  Payloads p = ValidPayloads();
  p.spans.clear();
  store::AppendU64(
      &p.spans, PackRouteKey(3, 21, ais::MarketSegment::kContainer));
  store::AppendU64(&p.spans, 0);
  store::AppendU64(&p.spans, 7);  // end > route cell count (1)
  EXPECT_EQ(OpenHostile(p).code(), StatusCode::kDataLoss);
}

TEST_F(SnapshotHostileTest, RouteSpansOutOfOrder) {
  Payloads p = ValidPayloads();
  std::string second;
  store::AppendU64(&second, 1);  // Route key below the first span's.
  store::AppendU64(&second, 0);
  store::AppendU64(&second, 0);
  p.spans += second;
  p.meta = MetaBytes(kSnapPayloadVersion, 6, {2, 0, 0}, 2, 1, 1);
  EXPECT_EQ(OpenHostile(p).code(), StatusCode::kDataLoss);
}

TEST_F(SnapshotHostileTest, SegmentIndexOutOfOrder) {
  Payloads p = ValidPayloads();
  std::string duplicate;
  store::AppendU64(&duplicate, 100);  // Same cell again: not ascending.
  store::AppendU64(&duplicate, 2);
  p.segments += duplicate;
  p.meta = MetaBytes(kSnapPayloadVersion, 6, {2, 0, 0}, 1, 1, 2);
  EXPECT_EQ(OpenHostile(p).code(), StatusCode::kDataLoss);
}

TEST_F(SnapshotHostileTest, SegmentSectionSizeDisagreesWithMeta) {
  Payloads p = ValidPayloads();
  p.segments += "xtra";
  EXPECT_EQ(OpenHostile(p).code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace pol::core
