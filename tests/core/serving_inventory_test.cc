// ServingInventory under fire: reader threads keep querying through
// repeated snapshot swaps. Runs in the --tsan pass of
// tools/run_tier1.sh, where torn reads, use-after-free on a retired
// snapshot, or an unsynchronized publish would be caught; under plain
// builds it still asserts the visible contract — readers only ever see
// fully sealed snapshots, and metrics land in the run report.

#include "core/serving_inventory.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/inventory.h"
#include "core/run_report.h"
#include "hexgrid/hexgrid.h"

namespace pol::core {
namespace {

constexpr sim::PortId kOrigin = 3;
constexpr sim::PortId kDestination = 21;
constexpr auto kSegment = ais::MarketSegment::kContainer;

// A batch whose route corridor carries `cells` cells; every batch keyed
// the same way, so merged generations grow the same route.
Inventory Batch(int generation, int cells) {
  SummaryMap summaries;
  for (int i = 0; i < cells; ++i) {
    const hex::CellIndex cell = hex::LatLngToCell(
        {1.0 + 0.2 * generation, 100.0 + 0.4 * i}, 6);
    PipelineRecord r;
    r.mmsi = 215000001;
    r.trip_id = static_cast<uint64_t>(generation * 1000 + i);
    r.origin = kOrigin;
    r.destination = kDestination;
    r.segment = kSegment;
    r.sog_knots = 13;
    r.cog_deg = 90;
    r.heading_deg = 90;
    r.eto_s = 3600;
    r.ata_s = 7200;
    for (const GroupKey& key :
         {KeyCell(cell), KeyCellType(cell, kSegment),
          KeyCellRouteType(cell, kOrigin, kDestination, kSegment)}) {
      auto [it, inserted] = summaries.try_emplace(key);
      (void)inserted;
      it->second.Add(r);
    }
  }
  return Inventory(6, std::move(summaries));
}

TEST(ServingInventoryTest, PublishesOnConstructionAndRefresh) {
  ServingInventory serving(Batch(0, 3));
  EXPECT_EQ(serving.swap_count(), 1u);
  const size_t before = serving.size();
  ASSERT_TRUE(serving.Refresh(Batch(1, 3)).ok());
  EXPECT_EQ(serving.swap_count(), 2u);
  EXPECT_GT(serving.size(), before);
  // A mismatched-resolution delta is rejected and nothing is published.
  SummaryMap empty;
  EXPECT_FALSE(serving.Refresh(Inventory(7, std::move(empty))).ok());
  EXPECT_EQ(serving.swap_count(), 2u);
}

TEST(ServingInventoryTest, FailedRefreshLeavesBothSidesByteIdentical) {
  // A resolution-mismatched delta must be a complete no-op: served image
  // byte-identical, the very same snapshot object still published, and
  // no swap recorded.
  ServingInventory serving(Batch(0, 3));
  std::string before;
  serving.Acquire()->EncodeTo(&before);
  const std::shared_ptr<const InventorySnapshot> active = serving.Acquire();
  const uint64_t swaps = serving.swap_count();

  SummaryMap mismatched;
  const Status status = serving.Refresh(Inventory(7, std::move(mismatched)));
  ASSERT_FALSE(status.ok());
  // A caller error, not a transient store fault — the circuit breaker
  // and retry loops must not treat it as retryable.
  EXPECT_FALSE(status.IsRetryable());

  std::string after;
  serving.Acquire()->EncodeTo(&after);
  EXPECT_EQ(before, after);
  EXPECT_EQ(serving.Acquire().get(), active.get());
  EXPECT_EQ(serving.swap_count(), swaps);
}

TEST(ServingInventoryTest, AcquireKeepsRetiredSnapshotsAlive) {
  ServingInventory serving(Batch(0, 3));
  const std::shared_ptr<const InventorySnapshot> pinned = serving.Acquire();
  const size_t pinned_size = pinned->size();
  ASSERT_TRUE(serving.Refresh(Batch(1, 4)).ok());
  // The pinned snapshot still answers from its own generation.
  EXPECT_EQ(pinned->size(), pinned_size);
  EXPECT_LT(pinned->size(), serving.Acquire()->size());
}

TEST(ServingInventoryTest, ReadersNeverSeeTornSnapshotsAcrossSwaps) {
  constexpr int kReaders = 4;
  constexpr int kRefreshes = 40;
  ServingInventory serving(Batch(0, 2));

  // Legal snapshot sizes: generation g holds batches 0..g, each batch
  // adding 3 new groups per cell with disjoint cells per generation.
  std::set<size_t> legal_sizes;
  {
    Inventory accumulated = Batch(0, 2);
    legal_sizes.insert(accumulated.size());
    for (int g = 1; g <= kRefreshes; ++g) {
      ASSERT_TRUE(accumulated.MergeFrom(Batch(g, 2)).ok());
      legal_sizes.insert(accumulated.size());
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<int> torn{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&serving, &stop, &reads, &torn, &legal_sizes] {
      while (!stop.load(std::memory_order_acquire)) {
        // One consistent view across several queries.
        const std::shared_ptr<const InventorySnapshot> snap =
            serving.Acquire();
        if (legal_sizes.count(snap->size()) == 0) torn.fetch_add(1);
        const std::vector<hex::CellIndex> corridor =
            snap->CellsForRoute(kOrigin, kDestination, kSegment);
        // Reversed pair answers the same corridor on every generation.
        if (snap->CellsForRoute(kDestination, kOrigin, kSegment) != corridor) {
          torn.fetch_add(1);
        }
        uint64_t visited = 0;
        snap->VisitGroupingSet(GroupingSet::kCellRouteType,
                               [&visited](const GroupKey&,
                                          const CellSummary&) { ++visited; });
        if (visited != corridor.size()) torn.fetch_add(1);
        // And a fresh Acquire per lookup.
        for (const hex::CellIndex cell : corridor) {
          if (serving.Acquire()->Cell(cell) == nullptr) torn.fetch_add(1);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // A refresh of this tiny inventory takes microseconds, so all of them
  // could land before a reader thread is first scheduled; start them
  // once the readers are reading.
  while (reads.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  for (int g = 1; g <= kRefreshes; ++g) {
    ASSERT_TRUE(serving.Refresh(Batch(g, 2)).ok());
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(serving.swap_count(), static_cast<uint64_t>(kRefreshes) + 1);
}

TEST(ServingInventoryTest, MetricsSurfaceInRunReport) {
  ServingInventory serving(Batch(0, 2));
  ASSERT_TRUE(serving.Refresh(Batch(1, 2)).ok());
  (void)serving.Acquire();

  PipelineConfig config;
  PipelineResult result;
  const obs::Json report = BuildRunReport(config, result);
  EXPECT_EQ(report.GetString("schema"), "pol.run_report/1");
  const obs::Json* metrics = report.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const obs::Json* counters = metrics->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->GetUint64("serving.seals"), 2u);
  EXPECT_GE(counters->GetUint64("serving.swaps"), 2u);
  EXPECT_GE(counters->GetUint64("serving.reader_acquisitions"), 1u);
  const obs::Json* gauges = metrics->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->GetUint64("serving.active_snapshot_summaries"),
            serving.size());
  const obs::Json* histograms = metrics->Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const obs::Json* seal = histograms->Find("serving.seal_seconds");
  ASSERT_NE(seal, nullptr);
  EXPECT_GE(seal->GetUint64("count"), 2u);
}

}  // namespace
}  // namespace pol::core
