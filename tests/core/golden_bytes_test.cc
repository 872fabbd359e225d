// Golden bytes: pins the on-disk encodings of one small, fixed, seeded
// inventory — its whole canonical image (Inventory::SerializeTo: length
// + CRC32, meta included, since that meta carries no seal time or
// ordinal) and every POLSNAP1 payload section of its sealed image (id,
// size, CRC32) — so a change to summary storage,
// folding or encoding that alters a single byte fails here, not only
// in comparisons between two builds of the same binary.
//
// The inventory is shaped to reach the sketch boundaries: one busy cell
// whose t-digests flush past 4x compression, whose ship and trip
// HyperLogLogs go dense past 256 hashes, and whose SpaceSaving sketches
// run at capacity with evictions; it is built by chunked Folds over two
// partitions and a MergeFrom of a second batch.
//
// When an encoding change is intended, regenerate the constants from
// the failure messages and say so in the change description.

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/rng.h"
#include "core/inventory.h"
#include "core/inventory_builder.h"
#include "core/inventory_snapshot.h"
#include "core/snapshot_codec.h"
#include "flow/dataset.h"
#include "flow/threadpool.h"
#include "hexgrid/hexgrid.h"
#include "store/snapshot_format.h"

namespace pol::core {
namespace {

constexpr int kResolution = 6;

std::vector<hex::CellIndex> Cells() {
  std::vector<hex::CellIndex> cells;
  for (int i = 0; i < 8; ++i) {
    cells.push_back(hex::LatLngToCell({1.0 + 0.3 * i, 103.5 + 0.25 * i},
                                      kResolution));
  }
  return cells;
}

PipelineRecord RandomRecord(Rng& rng, hex::CellIndex cell,
                            const std::vector<hex::CellIndex>& cells,
                            int vessels) {
  PipelineRecord r;
  r.mmsi = static_cast<ais::Mmsi>(
      200000000 + rng.NextBelow(static_cast<uint64_t>(vessels)));
  r.segment = static_cast<ais::MarketSegment>(rng.NextBelow(3));
  r.trip_id = 1 + rng.NextBelow(static_cast<uint64_t>(vessels));
  // Skewed port draws: a few heavy hitters over a long tail, so the
  // SpaceSaving sketches (capacity 12) fill up and evict.
  r.origin = static_cast<sim::PortId>(
      1 + (rng.NextBelow(2) == 0 ? rng.NextBelow(3) : rng.NextBelow(40)));
  r.destination = static_cast<sim::PortId>(
      1 + (rng.NextBelow(2) == 0 ? rng.NextBelow(2) : rng.NextBelow(30)));
  r.sog_knots = 8.0 + 3.0 * rng.NextGaussian();
  r.cog_deg = rng.Uniform(0, 360);
  r.heading_deg = rng.NextBelow(5) == 0 ? ais::kHeadingUnavailable
                                        : rng.Uniform(0, 360);
  r.eto_s = rng.UniformInt(60, 900000);
  r.ata_s = rng.UniformInt(60, 900000);
  r.cell = cell;
  r.next_cell = rng.NextBelow(4) == 0
                    ? hex::kInvalidCell
                    : cells[rng.NextBelow(cells.size())] + rng.NextBelow(20);
  return r;
}

// One batch: `busy` records in the first cell, a handful in the others.
std::vector<PipelineRecord> Batch(uint64_t seed, int busy, int quiet) {
  Rng rng(seed);
  const std::vector<hex::CellIndex> cells = Cells();
  std::vector<PipelineRecord> records;
  for (int i = 0; i < busy; ++i) {
    records.push_back(RandomRecord(rng, cells[0], cells, 400));
  }
  for (size_t c = 1; c < cells.size(); ++c) {
    for (int i = 0; i < quiet; ++i) {
      records.push_back(RandomRecord(rng, cells[c], cells, 6));
    }
  }
  return records;
}

Inventory Build(const std::vector<PipelineRecord>& records,
                flow::ThreadPool* pool) {
  ExtractorConfig config;
  config.resolution = kResolution;
  InventoryBuilder builder(config);
  // Two chunks of two partitions each: map-phase locals, reduce-phase
  // merges and chunk-to-chunk folds all run.
  const size_t half = records.size() / 2;
  builder.Fold(flow::Dataset<PipelineRecord>::FromVector(
      std::vector<PipelineRecord>(records.begin(), records.begin() + half), 2,
      pool));
  builder.Fold(flow::Dataset<PipelineRecord>::FromVector(
      std::vector<PipelineRecord>(records.begin() + half, records.end()), 2,
      pool));
  return std::move(builder).Finish();
}

Inventory GoldenInventory() {
  flow::ThreadPool pool(2);
  Inventory inventory = Build(Batch(0x5eed01, 1200, 9), &pool);
  EXPECT_TRUE(inventory.MergeFrom(Build(Batch(0x5eed02, 300, 4), &pool)).ok());
  return inventory;
}

struct SectionPin {
  uint32_t id;
  uint64_t size;
  uint32_t crc32;
};

// Every POLSNAP1 section but meta, in layout order.
const std::vector<SectionPin> kPolsnap1Sections = {
    {0x10, 128, 0x376dbcaf},
    {0x20, 72, 0x6dda0d97},
    {0x30, 9057, 0x5690ed2d},
    {0x11, 384, 0x9cfb2087},
    {0x21, 200, 0x45daa8b7},
    {0x31, 19584, 0x15e27b18},
    {0x12, 12224, 0xe221c89f},
    {0x22, 6120, 0x2c8b9926},
    {0x32, 298821, 0x4d7d10dd},
    {0x40, 16968, 0xa417158a},
    {0x41, 6112, 0x2e67e9d1},
    {0x42, 128, 0x716ffdf1},
};

// One pin per line, in the initializer syntax above, so a mismatch
// prints the replacement table.
std::string Render(const std::vector<SectionPin>& pins) {
  std::string out;
  for (const SectionPin& pin : pins) {
    char line[64];
    std::snprintf(line, sizeof(line), "    {0x%02x, %llu, 0x%08x},\n",
                  static_cast<unsigned>(pin.id),
                  static_cast<unsigned long long>(pin.size),
                  static_cast<unsigned>(pin.crc32));
    out += line;
  }
  return out;
}

TEST(GoldenBytesTest, InventoryReachesSketchBoundaries) {
  const Inventory inventory = GoldenInventory();
  const CellSummary* busy = inventory.Cell(Cells()[0]);
  ASSERT_NE(busy, nullptr);
  EXPECT_FALSE(busy->ships().IsSparse());
  EXPECT_FALSE(busy->trips().IsSparse());
  EXPECT_GT(busy->speed_percentiles().count(), 400u);
  EXPECT_LT(busy->speed_percentiles().CentroidCount(),
            busy->speed_percentiles().count());
  for (const stats::SpaceSaving* sketch :
       {&busy->origins(), &busy->destinations(), &busy->transitions()}) {
    EXPECT_EQ(sketch->size(), sketch->capacity());
    bool evicted = false;
    for (const stats::SpaceSaving::Entry& e : sketch->Entries()) {
      evicted = evicted || e.error > 0;
    }
    EXPECT_TRUE(evicted);
  }
}

TEST(GoldenBytesTest, CanonicalImageBytes) {
  std::string bytes;
  GoldenInventory().SerializeTo(&bytes);
  EXPECT_EQ(bytes.size(), 370688u);
  EXPECT_EQ(Crc32(bytes), 2479526910u);
}

TEST(GoldenBytesTest, Polsnap1Bytes) {
  std::string image;
  GoldenInventory().Seal()->EncodeTo(&image);
  const Result<store::SnapshotFileView> view =
      store::SnapshotFileView::Validate(image);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(image.size(), 370688u);

  // The meta section carries the seal time and ordinal, which differ
  // run to run; its stable fields are checked decoded instead.
  const Result<SnapshotMeta> meta = DecodeSnapshotMeta(*view);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  EXPECT_EQ(meta->resolution, kResolution);
  EXPECT_EQ(meta->total, 796u);

  std::vector<SectionPin> actual;
  for (const store::SnapshotFileView::SectionInfo& info : view->Sections()) {
    if (info.id == kSnapSectionMeta) continue;
    actual.push_back({info.id, info.size, info.crc32});
  }
  EXPECT_EQ(Render(actual), Render(kPolsnap1Sections));
}

}  // namespace
}  // namespace pol::core
