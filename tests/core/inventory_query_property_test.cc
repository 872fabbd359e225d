// Property regression for the serving split: on randomized inventories,
// the build side's full-scan route query and the snapshot — freshly
// sealed or reopened from a store — must agree on every answer: point
// lookups byte-identical, corridors element-identical including the
// reversed-pair fallback and the orientation that answered, the
// fallback ladder (Resolve) on the same level and bytes, and full
// visitation equal to the build side in (cell, dims) order. Route
// queries on both sides are also checked against the cells the
// generator recorded inserting under each route key, so the build
// side's answers are not only compared with themselves. On both sides
// a walk stopped after k summaries visits exactly k, in the full
// walk's order. Unit cases pin each rung of the ladder.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/inventory.h"
#include "core/inventory_snapshot.h"
#include "core/snapshot_codec.h"
#include "hexgrid/hexgrid.h"
#include "store/snapshot_store.h"

namespace pol::core {
namespace {

struct RouteKey {
  sim::PortId origin;
  sim::PortId destination;
  ais::MarketSegment segment;
};

// The cells inserted under each exact (origin, destination, segment)
// route key, ascending.
using RouteCells =
    std::map<std::tuple<sim::PortId, sim::PortId, ais::MarketSegment>,
             std::set<hex::CellIndex>>;

struct Sample {
  Inventory inventory;
  std::vector<hex::CellIndex> cells;
  std::vector<RouteKey> routes;
  RouteCells route_cells;
};

// What CellsForRoute must answer, from the recorded inserts alone: the
// exact key's cells, else the reversed pair's, else none.
std::vector<hex::CellIndex> ExpectedCells(const RouteCells& recorded,
                                          const RouteKey& q) {
  for (const auto& key : {std::tuple(q.origin, q.destination, q.segment),
                          std::tuple(q.destination, q.origin, q.segment)}) {
    const auto it = recorded.find(key);
    if (it != recorded.end()) return {it->second.begin(), it->second.end()};
  }
  return {};
}

// A random inventory over a handful of ports and segments: small key
// spaces on purpose, so collisions, multi-cell corridors, and pairs
// present in both orientations all occur.
Sample RandomInventory(uint64_t seed) {
  Rng rng(seed);
  SummaryMap summaries;
  std::vector<hex::CellIndex> cells;
  std::vector<RouteKey> routes;
  RouteCells route_cells;
  const int groups = 30 + static_cast<int>(rng.NextBelow(50));
  for (int i = 0; i < groups; ++i) {
    const hex::CellIndex cell = hex::LatLngToCell(
        {rng.Uniform(-55, 55), rng.Uniform(-180, 180)}, 6);
    const auto origin = static_cast<sim::PortId>(1 + rng.NextBelow(5));
    const auto destination = static_cast<sim::PortId>(1 + rng.NextBelow(5));
    const auto segment =
        static_cast<ais::MarketSegment>(rng.NextBelow(ais::kNumMarketSegments));
    PipelineRecord r;
    r.mmsi = static_cast<ais::Mmsi>(200000000 + rng.NextBelow(20));
    r.trip_id = 1 + rng.NextBelow(40);
    r.origin = origin;
    r.destination = destination;
    r.segment = segment;
    r.sog_knots = rng.Uniform(2, 22);
    r.cog_deg = rng.Uniform(0, 360);
    r.heading_deg = r.cog_deg;
    r.eto_s = rng.Uniform(100, 100000);
    r.ata_s = rng.Uniform(100, 100000);
    cells.push_back(cell);
    routes.push_back({origin, destination, segment});
    route_cells[{origin, destination, segment}].insert(cell);
    for (const GroupKey& key :
         {KeyCell(cell), KeyCellType(cell, segment),
          KeyCellRouteType(cell, origin, destination, segment)}) {
      auto [it, inserted] = summaries.try_emplace(key);
      (void)inserted;
      const int adds = 1 + static_cast<int>(rng.NextBelow(4));
      for (int k = 0; k < adds; ++k) it->second.Add(r);
    }
  }
  return Sample{Inventory(6, std::move(summaries)), std::move(cells),
                std::move(routes), std::move(route_cells)};
}

std::string Bytes(const CellSummary* summary) {
  if (summary == nullptr) return "<null>";
  std::string out;
  summary->Serialize(&out);
  return out;
}

// Every (key, summary bytes) pair of one grouping set, in visit order.
std::vector<std::pair<GroupKey, std::string>> Walk(const InventoryQuery& q,
                                                   GroupingSet set) {
  std::vector<std::pair<GroupKey, std::string>> out;
  q.VisitGroupingSet(set, [&out](const GroupKey& key,
                                 const CellSummary& summary) {
    out.emplace_back(key, Bytes(&summary));
  });
  return out;
}

// The snapshot's canonical visit order: cell, then packed dimensions.
bool CanonicalLess(const std::pair<GroupKey, std::string>& a,
                   const std::pair<GroupKey, std::string>& b) {
  if (a.first.cell != b.first.cell) return a.first.cell < b.first.cell;
  return GroupKeyDimsPacked(a.first) < GroupKeyDimsPacked(b.first);
}

// Checks one snapshot against the build side it was sealed from.
void ExpectSnapshotMatchesBuildSide(const Sample& sample,
                                    const InventorySnapshot& snap) {
  const Inventory& inv = sample.inventory;
  ASSERT_EQ(snap.size(), inv.size());
  EXPECT_EQ(snap.DistinctCells(), inv.DistinctCells());

  // Every route key, in both orientations, plus a never-inserted one:
  // the build side and the snapshot both answer what was inserted.
  std::vector<RouteKey> queries = sample.routes;
  for (const RouteKey& route : sample.routes) {
    queries.push_back({route.destination, route.origin, route.segment});
  }
  queries.push_back({200, 201, ais::MarketSegment::kTugAndService});
  for (const RouteKey& q : queries) {
    const std::vector<hex::CellIndex> expected =
        ExpectedCells(sample.route_cells, q);
    EXPECT_EQ(inv.CellsForRoute(q.origin, q.destination, q.segment),
              expected)
        << "route " << q.origin << "->" << q.destination;
    EXPECT_EQ(snap.CellsForRoute(q.origin, q.destination, q.segment),
              expected)
        << "route " << q.origin << "->" << q.destination;
  }

  // Point lookups byte-identical on every touched cell (and one miss).
  std::vector<hex::CellIndex> probes = sample.cells;
  probes.push_back(hex::LatLngToCell({80, 0}, 6));
  for (size_t i = 0; i < probes.size(); ++i) {
    const hex::CellIndex cell = probes[i];
    EXPECT_EQ(Bytes(snap.Cell(cell)), Bytes(inv.Cell(cell)));
    const RouteKey& route = sample.routes[i % sample.routes.size()];
    EXPECT_EQ(Bytes(snap.CellType(cell, route.segment)),
              Bytes(inv.CellType(cell, route.segment)));
    EXPECT_EQ(Bytes(snap.CellRouteType(cell, route.origin, route.destination,
                                       route.segment)),
              Bytes(inv.CellRouteType(cell, route.origin, route.destination,
                                      route.segment)));
    EXPECT_EQ(snap.SegmentsAt(cell), inv.SegmentsAt(cell));
  }

  // Full visitation: the snapshot walks exactly the build side's
  // summaries, keys and bytes, in (cell, dims) order.
  for (int s = 0; s < kNumGroupingSets; ++s) {
    const auto set = static_cast<GroupingSet>(s);
    auto expected = Walk(inv, set);
    std::sort(expected.begin(), expected.end(), CanonicalLess);
    const auto walked = Walk(snap, set);
    ASSERT_EQ(walked.size(), expected.size()) << "set " << s;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(walked[i].first, expected[i].first)
          << "set " << s << " entry " << i;
      EXPECT_EQ(walked[i].second, expected[i].second)
          << "set " << s << " entry " << i;
    }
  }
}

// The query policy InventoryQuery layers over the primitives answers
// alike on the build side and a snapshot: the corridor and its
// orientation for every route key, and the fallback ladder's level and
// summary bytes under ETA's acceptance and under a support threshold
// that rejects some levels.
void ExpectPolicyMatchesBuildSide(const Sample& sample,
                                  const InventorySnapshot& snap) {
  const Inventory& inv = sample.inventory;
  std::vector<RouteKey> queries = sample.routes;
  for (const RouteKey& route : sample.routes) {
    queries.push_back({route.destination, route.origin, route.segment});
  }
  queries.push_back({200, 201, ais::MarketSegment::kTugAndService});
  for (const RouteKey& q : queries) {
    const auto want = inv.CorridorForRoute(q.origin, q.destination, q.segment);
    const auto got = snap.CorridorForRoute(q.origin, q.destination, q.segment);
    EXPECT_EQ(got.cells, want.cells);
    EXPECT_EQ(got.origin, want.origin);
    EXPECT_EQ(got.destination, want.destination);
    EXPECT_EQ(got.reversed, want.reversed);
  }

  const auto eta = [](const CellSummary& summary, GroupingSet) {
    return summary.ata().count() > 0;
  };
  const auto supported = [](const CellSummary& summary, GroupingSet) {
    return summary.record_count() >= 3;
  };
  std::vector<hex::CellIndex> probes = sample.cells;
  probes.push_back(hex::LatLngToCell({80, 0}, 6));
  for (size_t i = 0; i < probes.size(); ++i) {
    const RouteKey& route = sample.routes[i % sample.routes.size()];
    for (const sim::PortId origin : {route.origin, sim::kNoPort}) {
      const auto want_eta = inv.Resolve(probes[i], route.segment, origin,
                                        route.destination, eta);
      const auto got_eta = snap.Resolve(probes[i], route.segment, origin,
                                        route.destination, eta);
      EXPECT_EQ(got_eta.level, want_eta.level);
      EXPECT_EQ(Bytes(got_eta.summary), Bytes(want_eta.summary));
      const auto want = inv.Resolve(probes[i], route.segment, origin,
                                    route.destination, supported);
      const auto got = snap.Resolve(probes[i], route.segment, origin,
                                    route.destination, supported);
      EXPECT_EQ(got.level, want.level);
      EXPECT_EQ(Bytes(got.summary), Bytes(want.summary));
    }
  }
}

// The one visit primitive on one store: for every grouping set, a walk
// whose visitor never stops equals VisitGroupingSet and returns true,
// and a visitor that stops at its k-th summary (k = 1, 2, half, all)
// ends the walk there — false, exactly k visits, the full walk's first
// k entries.
void ExpectStoppableWalk(const InventoryQuery& q) {
  for (int s = 0; s < kNumGroupingSets; ++s) {
    const auto set = static_cast<GroupingSet>(s);
    const auto full = Walk(q, set);
    std::vector<std::pair<GroupKey, std::string>> walked;
    EXPECT_TRUE(q.VisitGroupingSetWhile(
        set, [&walked](const GroupKey& key, const CellSummary& summary) {
          walked.emplace_back(key, Bytes(&summary));
          return true;
        }))
        << "set " << s;
    EXPECT_EQ(walked, full) << "set " << s;
    ASSERT_GE(full.size(), 3u) << "set " << s;
    for (const size_t k : {size_t{1}, size_t{2}, full.size() / 2,
                           full.size()}) {
      walked.clear();
      const bool completed = q.VisitGroupingSetWhile(
          set, [&walked, k](const GroupKey& key, const CellSummary& summary) {
            walked.emplace_back(key, Bytes(&summary));
            return walked.size() < k;
          });
      EXPECT_FALSE(completed) << "set " << s << " k " << k;
      ASSERT_EQ(walked.size(), k) << "set " << s;
      EXPECT_TRUE(std::equal(walked.begin(), walked.end(), full.begin()))
          << "set " << s << " k " << k;
    }
  }
}

// Scan vs snapshot, for a freshly sealed snapshot (heap image) and the
// same generation reopened from a store (mapped image): both answer
// every query like the build side, and both hold the same bytes. The
// build side and the sealed snapshot also stop their walks on cue.
TEST(InventoryQueryPropertyTest, ScanAndSnapshotAgree) {
  const std::string root =
      (std::filesystem::path(::testing::TempDir()) / "pol_scan_vs_snapshot")
          .string();
  std::filesystem::remove_all(root);
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Sample sample = RandomInventory(seed);
    const std::shared_ptr<const InventorySnapshot> sealed =
        sample.inventory.Seal();
    ExpectSnapshotMatchesBuildSide(sample, *sealed);
    ExpectPolicyMatchesBuildSide(sample, *sealed);
    ExpectStoppableWalk(sample.inventory);
    ExpectStoppableWalk(*sealed);

    store::SnapshotStoreOptions options;
    options.directory =
        (std::filesystem::path(root) / std::to_string(seed)).string();
    store::SnapshotStore store(options);
    ASSERT_TRUE(sealed->WriteTo(&store).ok());
    const Result<std::shared_ptr<const InventorySnapshot>> reopened =
        OpenLatestSnapshot(store);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ExpectSnapshotMatchesBuildSide(sample, **reopened);
    ExpectPolicyMatchesBuildSide(sample, **reopened);

    std::string sealed_image;
    std::string reopened_image;
    sealed->EncodeTo(&sealed_image);
    (*reopened)->EncodeTo(&reopened_image);
    EXPECT_EQ(reopened_image, sealed_image);
  }
  std::filesystem::remove_all(root);
}

TEST(InventoryQueryPropertyTest, IndexSurvivesMerges) {
  for (uint64_t seed = 100; seed <= 110; ++seed) {
    Sample a = RandomInventory(seed);
    Sample b = RandomInventory(seed + 1000);
    ASSERT_TRUE(a.inventory.MergeFrom(std::move(b.inventory)).ok());
    const Inventory& merged = a.inventory;
    const std::shared_ptr<const InventorySnapshot> snap = merged.Seal();
    std::vector<RouteKey> queries = a.routes;
    queries.insert(queries.end(), b.routes.begin(), b.routes.end());
    RouteCells recorded = a.route_cells;
    for (const auto& [key, cells] : b.route_cells) {
      recorded[key].insert(cells.begin(), cells.end());
    }
    for (const RouteKey& q : queries) {
      const std::vector<hex::CellIndex> expected = ExpectedCells(recorded, q);
      EXPECT_FALSE(expected.empty()) << "seed " << seed;
      EXPECT_EQ(merged.CellsForRoute(q.origin, q.destination, q.segment),
                expected)
          << "seed " << seed;
      EXPECT_EQ(snap->CellsForRoute(q.origin, q.destination, q.segment),
                expected)
          << "seed " << seed;
    }
  }
}

// --- Resolve: one case per rung of the fallback ladder, on the build
// side and its sealed snapshot alike. ---

constexpr ais::MarketSegment kLadderSegment = ais::MarketSegment::kContainer;

// One cell holding all three levels, each with a distinct record count
// (route 1, type 2, cell 3), plus a route summary under (kNoPort, 2)
// that a port-less query must never reach.
Inventory LadderInventory(hex::CellIndex cell) {
  SummaryMap summaries;
  const auto add = [&summaries](const GroupKey& key, int records) {
    PipelineRecord r;
    r.ata_s = 1000;
    for (int i = 0; i < records; ++i) summaries[key].Add(r);
  };
  add(KeyCellRouteType(cell, 1, 2, kLadderSegment), 1);
  add(KeyCellRouteType(cell, sim::kNoPort, 2, kLadderSegment), 4);
  add(KeyCellType(cell, kLadderSegment), 2);
  add(KeyCell(cell), 3);
  return Inventory(6, std::move(summaries));
}

template <typename Check>
void OnBothSides(const Check& check) {
  const hex::CellIndex cell = hex::LatLngToCell({1.3, 103.8}, 6);
  const Inventory inv = LadderInventory(cell);
  check(static_cast<const InventoryQuery&>(inv), cell);
  check(static_cast<const InventoryQuery&>(*inv.Seal()), cell);
}

TEST(InventoryQueryResolveTest, RouteLevelAnswersWhenBothPortsAreGiven) {
  OnBothSides([](const InventoryQuery& q, hex::CellIndex cell) {
    std::vector<GroupingSet> offered;
    const auto resolved = q.Resolve(
        cell, kLadderSegment, 1, 2,
        [&offered](const CellSummary&, GroupingSet level) {
          offered.push_back(level);
          return true;
        });
    ASSERT_NE(resolved.summary, nullptr);
    EXPECT_EQ(resolved.level, GroupingSet::kCellRouteType);
    EXPECT_EQ(resolved.summary->record_count(), 1u);
    EXPECT_EQ(offered, std::vector<GroupingSet>{GroupingSet::kCellRouteType});
  });
}

TEST(InventoryQueryResolveTest, RouteLevelIsSkippedWithoutBothPorts) {
  OnBothSides([](const InventoryQuery& q, hex::CellIndex cell) {
    const auto take = [](const CellSummary&, GroupingSet) { return true; };
    for (const auto& [origin, destination] :
         {std::pair<sim::PortId, sim::PortId>{sim::kNoPort, 2},
          std::pair<sim::PortId, sim::PortId>{1, sim::kNoPort}}) {
      const auto resolved =
          q.Resolve(cell, kLadderSegment, origin, destination, take);
      ASSERT_NE(resolved.summary, nullptr);
      EXPECT_EQ(resolved.level, GroupingSet::kCellType);
      EXPECT_EQ(resolved.summary->record_count(), 2u);
    }
  });
}

TEST(InventoryQueryResolveTest, RejectedLevelFallsThroughToTheNext) {
  OnBothSides([](const InventoryQuery& q, hex::CellIndex cell) {
    std::vector<GroupingSet> offered;
    const auto resolved = q.Resolve(
        cell, kLadderSegment, 1, 2,
        [&offered](const CellSummary& summary, GroupingSet level) {
          offered.push_back(level);
          return summary.record_count() >= 3;
        });
    ASSERT_NE(resolved.summary, nullptr);
    EXPECT_EQ(resolved.level, GroupingSet::kCell);
    EXPECT_EQ(resolved.summary->record_count(), 3u);
    EXPECT_EQ(offered,
              (std::vector<GroupingSet>{GroupingSet::kCellRouteType,
                                        GroupingSet::kCellType,
                                        GroupingSet::kCell}));
    // An absent level is not offered: another segment has no route or
    // type summary here, so the cell answers first time.
    offered.clear();
    const auto other = q.Resolve(
        cell, ais::MarketSegment::kTanker, 1, 2,
        [&offered](const CellSummary&, GroupingSet level) {
          offered.push_back(level);
          return true;
        });
    EXPECT_EQ(other.level, GroupingSet::kCell);
    EXPECT_EQ(offered, std::vector<GroupingSet>{GroupingSet::kCell});
  });
}

TEST(InventoryQueryResolveTest, NoAcceptedLevelIsANullSummary) {
  OnBothSides([](const InventoryQuery& q, hex::CellIndex cell) {
    const auto reject = [](const CellSummary&, GroupingSet) { return false; };
    EXPECT_EQ(q.Resolve(cell, kLadderSegment, 1, 2, reject).summary, nullptr);
    const auto take = [](const CellSummary&, GroupingSet) { return true; };
    EXPECT_EQ(q.Resolve(hex::LatLngToCell({80, 0}, 6), kLadderSegment, 1, 2,
                        take)
                  .summary,
              nullptr);
  });
}

}  // namespace
}  // namespace pol::core
