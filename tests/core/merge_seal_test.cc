// The merge-seal (InventorySnapshot::MergeSeal) against its reference:
// over random built inventories and random deltas, folding a delta
// straight into a sealed image must equal sealing the decoded image
// merged with the delta — and equal the warm build-side path, a sealed
// Inventory that MergeFroms the delta and seals again — byte for byte
// in every section but the meta, whose counts must agree too. Deltas
// touch every grouping set, none, only shared keys, or add route-set
// and (cell, type) keys, so both the verbatim and the rebuilt route
// and segment sections are covered. Also pins the failure contract (a
// shared summary that does not decode is kDataLoss and nothing is
// published) and the serving.refresh.keys_* counters.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/status.h"
#include "core/inventory.h"
#include "core/inventory_builder.h"
#include "core/inventory_snapshot.h"
#include "core/serving_inventory.h"
#include "core/serving_metric_names.h"
#include "core/snapshot_codec.h"
#include "flow/dataset.h"
#include "flow/threadpool.h"
#include "hexgrid/hexgrid.h"
#include "obs/metrics.h"
#include "store/mapped_file.h"
#include "store/snapshot_format.h"
#include "store/snapshot_store.h"

namespace pol::core {
namespace {

constexpr int kResolution = 6;

hex::CellIndex CellAt(int i) {
  return hex::LatLngToCell({1.0 + 0.05 * (i % 40), 100.0 + 0.05 * (i / 40)},
                           kResolution);
}

PipelineRecord RandomRecord(Rng& rng, hex::CellIndex cell) {
  PipelineRecord r;
  r.cell = cell;
  r.mmsi = static_cast<ais::Mmsi>(200000000 + rng.NextBelow(300));
  r.segment = static_cast<ais::MarketSegment>(
      rng.NextBelow(ais::kNumMarketSegments));
  r.trip_id = 1 + rng.NextBelow(500);
  r.origin = static_cast<sim::PortId>(1 + rng.NextBelow(4));
  r.destination = static_cast<sim::PortId>(5 + rng.NextBelow(3));
  r.sog_knots = 10.0 + 4.0 * rng.NextGaussian();
  r.cog_deg = rng.Uniform(0, 360);
  r.heading_deg = rng.Uniform(0, 360);
  r.eto_s = rng.UniformInt(60, 90000);
  r.ata_s = rng.UniformInt(60, 90000);
  r.next_cell = CellAt(static_cast<int>(rng.NextBelow(200)));
  return r;
}

// A pipeline-shaped inventory: `records` random records over cells
// [first, first + cells), folded by the chunked builder.
Inventory Built(uint64_t seed, int first, int cells, int records) {
  Rng rng(seed);
  std::vector<PipelineRecord> batch;
  for (int i = 0; i < records; ++i) {
    batch.push_back(RandomRecord(
        rng, CellAt(first + static_cast<int>(rng.NextBelow(
                                static_cast<uint64_t>(cells))))));
  }
  flow::ThreadPool pool(2);
  ExtractorConfig config;
  config.resolution = kResolution;
  InventoryBuilder builder(config);
  builder.Fold(flow::Dataset<PipelineRecord>::FromVector(std::move(batch), 2,
                                                         &pool));
  return std::move(builder).Finish();
}

CellSummary RandomSummary(Rng& rng, hex::CellIndex cell) {
  CellSummary summary;
  const int records = 1 + static_cast<int>(rng.NextBelow(8));
  for (int i = 0; i < records; ++i) summary.Add(RandomRecord(rng, cell));
  return summary;
}

// Every key of `inventory` in one grouping set.
std::vector<GroupKey> KeysOf(const Inventory& inventory, GroupingSet set) {
  std::vector<GroupKey> keys;
  inventory.VisitGroupingSet(
      set, [&keys](const GroupKey& key, const CellSummary&) {
        keys.push_back(key);
      });
  return keys;
}

// The decoded image: every summary the snapshot serves, as a map.
Inventory Decode(const InventorySnapshot& snapshot) {
  SummaryMap summaries;
  for (int set = 0; set < kNumGroupingSets; ++set) {
    snapshot.VisitGroupingSet(
        static_cast<GroupingSet>(set),
        [&summaries](const GroupKey& key, const CellSummary& summary) {
          summaries.emplace(key, summary);
        });
  }
  return Inventory(snapshot.resolution(), std::move(summaries));
}

std::string Image(const InventorySnapshot& snapshot) {
  std::string image;
  snapshot.EncodeTo(&image);
  return image;
}

// Equal images outside the meta's seal stats: every other section byte
// for byte, and the meta's counts.
void ExpectSameContent(const InventorySnapshot& actual,
                       const InventorySnapshot& expected) {
  const std::string a = Image(actual);
  const std::string b = Image(expected);
  const Result<store::SnapshotFileView> va = store::SnapshotFileView::Validate(a);
  const Result<store::SnapshotFileView> vb = store::SnapshotFileView::Validate(b);
  ASSERT_TRUE(va.ok() && vb.ok());
  ASSERT_EQ(va->Sections().size(), vb->Sections().size());
  for (const store::SnapshotFileView::SectionInfo& info : vb->Sections()) {
    if (info.id == kSnapSectionMeta) continue;
    const Result<std::string_view> sa = va->Section(info.id);
    ASSERT_TRUE(sa.ok()) << "section " << info.id << " missing";
    EXPECT_TRUE(*sa == *vb->Section(info.id))
        << "section 0x" << std::hex << info.id << " differs";
  }
  const InventorySnapshotStats& sa = actual.stats();
  const InventorySnapshotStats& sb = expected.stats();
  EXPECT_EQ(actual.resolution(), expected.resolution());
  EXPECT_EQ(actual.size(), expected.size());
  EXPECT_EQ(sa.summaries_per_set, sb.summaries_per_set);
  EXPECT_EQ(sa.route_index_routes, sb.route_index_routes);
  EXPECT_EQ(sa.route_index_cells, sb.route_index_cells);
  EXPECT_EQ(sa.segment_index_cells, sb.segment_index_cells);
}

// Folds `delta` into `live` three ways and checks they agree:
// merge-seal of `image`, Seal(Decode(image) + delta), and the warm
// build side `live` (sealed at least once) merging it and sealing.
// Every summary of `image` is decoded before the merge-seal, so the new
// snapshot shares the decodes of its verbatim runs; what it serves must
// still be what its bytes hold. Returns the merge-seal's
// result.
std::shared_ptr<const InventorySnapshot> FoldAndCheck(
    const InventorySnapshot& image, Inventory* live, const SummaryMap& delta) {
  Inventory reference = Decode(image);
  Result<std::shared_ptr<const InventorySnapshot>> merged =
      image.MergeSeal(Inventory(kResolution, SummaryMap(delta)));
  EXPECT_TRUE(merged.ok()) << merged.status().ToString();
  if (!merged.ok()) return nullptr;
  EXPECT_GT((*merged)->stats().seal_sequence, image.stats().seal_sequence);
  ExpectSameContent(**merged, *Decode(**merged).Seal());

  EXPECT_TRUE(
      reference.MergeFrom(Inventory(kResolution, SummaryMap(delta))).ok());
  ExpectSameContent(**merged, *reference.Seal());

  EXPECT_TRUE(live->MergeFrom(Inventory(kResolution, SummaryMap(delta))).ok());
  ExpectSameContent(**merged, *live->Seal());
  return std::move(merged).value();
}

enum class DeltaShape {
  kEverySet,    // Shared and new keys in all three grouping sets.
  kEmpty,       // No keys at all.
  kSharedOnly,  // Only keys the image already holds, in every set.
  kNewRoutes,   // New route-set keys only: on known and unknown routes.
  kNewTypes,    // New (cell, type) keys only: at known and new cells.
  kNewCells,    // New cell-set keys only: route and segment kept.
};

SummaryMap RandomDelta(uint64_t seed, const Inventory& base, DeltaShape shape) {
  Rng rng(seed);
  SummaryMap delta;
  const auto share = [&](GroupingSet set) {
    for (const GroupKey& key : KeysOf(base, set)) {
      if (rng.NextBelow(8) == 0) delta.emplace(key, RandomSummary(rng, key.cell));
    }
  };
  const auto add = [&](const GroupKey& key) {
    if (base.Find(key) == nullptr) {
      delta.emplace(key, RandomSummary(rng, key.cell));
    }
  };
  const std::vector<GroupKey> cells = KeysOf(base, GroupingSet::kCell);
  const auto known_cell = [&] {
    return cells[rng.NextBelow(cells.size())].cell;
  };
  const auto new_cell = [&] {
    return CellAt(1000 + static_cast<int>(rng.NextBelow(400)));
  };
  const auto segment = [&] {
    return static_cast<ais::MarketSegment>(
        rng.NextBelow(ais::kNumMarketSegments));
  };
  switch (shape) {
    case DeltaShape::kEverySet:
      share(GroupingSet::kCell);
      share(GroupingSet::kCellType);
      share(GroupingSet::kCellRouteType);
      for (int i = 0; i < 12; ++i) {
        const hex::CellIndex cell = i % 2 == 0 ? known_cell() : new_cell();
        const ais::MarketSegment type = segment();
        add(KeyCell(cell));
        add(KeyCellType(cell, type));
        add(KeyCellRouteType(cell, static_cast<sim::PortId>(1 + i % 6),
                             static_cast<sim::PortId>(5 + i % 4), type));
      }
      break;
    case DeltaShape::kEmpty:
      break;
    case DeltaShape::kSharedOnly:
      share(GroupingSet::kCell);
      share(GroupingSet::kCellType);
      share(GroupingSet::kCellRouteType);
      break;
    case DeltaShape::kNewRoutes: {
      const std::vector<GroupKey> routes =
          KeysOf(base, GroupingSet::kCellRouteType);
      for (int i = 0; i < 10; ++i) {
        const GroupKey& known = routes[rng.NextBelow(routes.size())];
        add(KeyCellRouteType(new_cell(), known.origin, known.destination,
                             static_cast<ais::MarketSegment>(known.segment)));
        add(KeyCellRouteType(known_cell(), 40, static_cast<sim::PortId>(41 + i),
                             segment()));
      }
      break;
    }
    case DeltaShape::kNewTypes:
      for (int i = 0; i < 10; ++i) {
        add(KeyCellType(known_cell(), segment()));
        add(KeyCellType(new_cell(), segment()));
      }
      break;
    case DeltaShape::kNewCells:
      for (int i = 0; i < 10; ++i) add(KeyCell(new_cell()));
      break;
  }
  return delta;
}

TEST(MergeSealTest, MatchesSealOfDecodedImagePlusDelta) {
  const DeltaShape shapes[] = {DeltaShape::kEverySet,  DeltaShape::kEmpty,
                               DeltaShape::kSharedOnly, DeltaShape::kNewRoutes,
                               DeltaShape::kNewTypes,  DeltaShape::kNewCells};
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    for (const DeltaShape shape : shapes) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " shape " +
                   std::to_string(static_cast<int>(shape)));
      Inventory live = Built(seed, 0, 60, 1500);
      const std::shared_ptr<const InventorySnapshot> image = live.Seal();
      const SummaryMap delta = RandomDelta(seed * 31, live, shape);
      FoldAndCheck(*image, &live, delta);
    }
  }
}

TEST(MergeSealTest, ChainedRefreshesMatchOneSealOfEverything) {
  Inventory live = Built(7, 0, 80, 2500);
  std::shared_ptr<const InventorySnapshot> image = live.Seal();
  for (int day = 0; day < 6; ++day) {
    SCOPED_TRACE("day " + std::to_string(day));
    const DeltaShape shape =
        day % 2 == 0 ? DeltaShape::kEverySet : DeltaShape::kNewRoutes;
    const SummaryMap delta = RandomDelta(100 + day, live, shape);
    image = FoldAndCheck(*image, &live, delta);
    ASSERT_NE(image, nullptr);
  }
}

TEST(MergeSealTest, PipelineDeltaOverlappingTheImage) {
  // Two pipeline batches over overlapping cell ranges: most delta keys
  // are shared, the rest new in every grouping set.
  Inventory live = Built(11, 0, 50, 2000);
  const std::shared_ptr<const InventorySnapshot> image = live.Seal();
  const Inventory day = Built(12, 30, 50, 800);
  FoldAndCheck(*image, &live, day.summaries());
}

TEST(MergeSealTest, EmptyImageMergeSealIsSeal) {
  const std::shared_ptr<const InventorySnapshot> empty =
      Inventory(kResolution, SummaryMap{}).Seal();
  EXPECT_EQ(empty->size(), 0u);
  const Inventory built = Built(5, 0, 40, 1000);
  Result<std::shared_ptr<const InventorySnapshot>> merged =
      empty->MergeSeal(Inventory(kResolution, SummaryMap(built.summaries())));
  ASSERT_TRUE(merged.ok());
  ExpectSameContent(**merged, *built.Seal());
}

TEST(MergeSealTest, VerbatimEntriesShareDecodesThatOutliveTheirImage) {
  const Inventory built = Built(13, 0, 30, 600);
  std::shared_ptr<const InventorySnapshot> image = built.Seal();
  const std::vector<GroupKey> cells = KeysOf(built, GroupingSet::kCell);
  const GroupKey untouched = cells.front();
  const GroupKey merged = cells.back();
  const CellSummary* decoded = image->Find(untouched);
  const CellSummary* before_merge = image->Find(merged);
  ASSERT_NE(decoded, nullptr);
  ASSERT_NE(before_merge, nullptr);
  const uint64_t records = decoded->record_count();

  Rng rng(3);
  SummaryMap delta;
  delta.emplace(merged, RandomSummary(rng, merged.cell));
  Result<std::shared_ptr<const InventorySnapshot>> next =
      image->MergeSeal(Inventory(kResolution, std::move(delta)));
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  // The untouched entry's decode is shared, not copied; the merged
  // entry is decoded afresh from its new bytes.
  EXPECT_EQ((*next)->Find(untouched), decoded);
  EXPECT_NE((*next)->Find(merged), before_merge);
  // The shared decode outlives the snapshot that made it (the sanitizer
  // builds check this read).
  image.reset();
  ASSERT_NE((*next)->Find(untouched), nullptr);
  EXPECT_EQ((*next)->Find(untouched)->record_count(), records);
}

TEST(MergeSealTest, ResolutionMismatchIsFailedPrecondition) {
  const std::shared_ptr<const InventorySnapshot> image =
      Built(3, 0, 10, 100).Seal();
  EXPECT_EQ(image->MergeSeal(Inventory(kResolution + 1, SummaryMap{}))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

// The image of `inventory` with every cell-set summary blob overwritten
// by bytes that do not decode; framing, CRCs and key order stay valid,
// so it opens like any stored generation.
std::shared_ptr<const InventorySnapshot> UndecodableCellSet(
    const Inventory& inventory) {
  const std::string image = Image(*inventory.Seal());
  const Result<store::SnapshotFileView> view =
      store::SnapshotFileView::Validate(image);
  EXPECT_TRUE(view.ok());
  store::SnapshotFileWriter writer(view->Sections().size());
  for (const store::SnapshotFileView::SectionInfo& info : view->Sections()) {
    std::string* out = writer.BeginSection(info.id);
    const std::string_view payload = *view->Section(info.id);
    if (info.id == kSnapSectionSummaryBlobBase) {
      out->append(payload.size(), '\xff');
    } else {
      out->append(payload);
    }
  }
  store::SnapshotStore::Opened opened;
  opened.file = store::MappedFile::FromString(writer.Finish());
  opened.view = *store::SnapshotFileView::Validate(opened.file.bytes());
  Result<std::shared_ptr<const InventorySnapshot>> snapshot =
      SnapshotFromOpened(std::move(opened));
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  return std::move(snapshot).value();
}

TEST(MergeSealTest, UndecodableSharedSummaryIsDataLossAndNothingPublishes) {
  const Inventory built = Built(9, 0, 20, 300);
  ServingInventory serving(UndecodableCellSet(built));
  const std::shared_ptr<const InventorySnapshot> active = serving.Acquire();
  const uint64_t swaps = serving.swap_count();

  // A delta sharing one cell-set key must not drop or skip it.
  Rng rng(1);
  const GroupKey shared = KeysOf(built, GroupingSet::kCell).front();
  SummaryMap delta;
  delta.emplace(shared, RandomSummary(rng, shared.cell));
  const Status status = serving.Refresh(Inventory(kResolution, std::move(delta)));
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  EXPECT_EQ(serving.Acquire().get(), active.get());
  EXPECT_EQ(serving.swap_count(), swaps);

  // A delta that only adds keys copies the image verbatim and succeeds.
  SummaryMap fresh;
  fresh.emplace(KeyCell(CellAt(1500)), RandomSummary(rng, CellAt(1500)));
  ASSERT_TRUE(serving.Refresh(Inventory(kResolution, std::move(fresh))).ok());
  EXPECT_EQ(serving.size(), active->size() + 1);
}

uint64_t Counter(std::string_view name) {
  return obs::Registry::Global().counter(name)->value();
}

TEST(MergeSealTest, RefreshCountersCountCopiedMergedAndAddedKeys) {
  // An image of 10 cells x 3 grouping sets; the delta shares 4 of its
  // cells (12 keys) and brings 2 new cells (6 keys).
  Rng rng(2);
  SummaryMap base;
  SummaryMap delta;
  for (int i = 0; i < 12; ++i) {
    const hex::CellIndex cell = CellAt(i);
    for (const GroupKey& key :
         {KeyCell(cell), KeyCellType(cell, ais::MarketSegment::kTanker),
          KeyCellRouteType(cell, 1, 5, ais::MarketSegment::kTanker)}) {
      if (i < 10) base.emplace(key, RandomSummary(rng, cell));
      if (i >= 6) delta.emplace(key, RandomSummary(rng, cell));
    }
  }
  ServingInventory serving(Inventory(kResolution, std::move(base)));
  const uint64_t copied = Counter(kMetricServingRefreshKeysCopied);
  const uint64_t merged = Counter(kMetricServingRefreshKeysMerged);
  const uint64_t added = Counter(kMetricServingRefreshKeysAdded);
  ASSERT_TRUE(serving.Refresh(Inventory(kResolution, std::move(delta))).ok());
  EXPECT_EQ(Counter(kMetricServingRefreshKeysCopied) - copied, 18u);
  EXPECT_EQ(Counter(kMetricServingRefreshKeysMerged) - merged, 12u);
  EXPECT_EQ(Counter(kMetricServingRefreshKeysAdded) - added, 6u);
  EXPECT_EQ(serving.size(), 36u);

  // An empty delta copies everything, and still publishes a new seal.
  const uint64_t sequence = serving.active_seal_sequence();
  ASSERT_TRUE(serving.Refresh(Inventory(kResolution, SummaryMap{})).ok());
  EXPECT_EQ(Counter(kMetricServingRefreshKeysCopied) - copied, 18u + 36u);
  EXPECT_EQ(Counter(kMetricServingRefreshKeysAdded) - added, 6u);
  EXPECT_GT(serving.active_seal_sequence(), sequence);
}

}  // namespace
}  // namespace pol::core
