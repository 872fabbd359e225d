// Guarded calls from several threads while a writer swaps snapshots:
// the striped tallies (obs/stripe.h) and the per-thread snapshot pins
// (ServingInventory::PinnedRead) must lose nothing and free what they
// no longer need. Runs in the sanitizer passes of tools/run_tier1.sh:
// TSan sees the pins' mutex slow path and the stripes, ASan the
// lifetime of superseded snapshots under nested guarded calls.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "core/inventory.h"
#include "core/serving_guard.h"
#include "core/serving_inventory.h"
#include "core/serving_metric_names.h"
#include "hexgrid/hexgrid.h"
#include "obs/metrics.h"
#include "obs/querylog.h"
#include "obs/stripe.h"
#include "obs/window.h"

namespace pol::core {
namespace {

constexpr sim::PortId kOrigin = 3;
constexpr sim::PortId kDestination = 21;
constexpr auto kSegment = ais::MarketSegment::kContainer;

// A batch whose route corridor carries `cells` cells, disjoint per
// generation, so every merged generation is larger than the last.
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
      summaries[key].Add(r);
    }
  }
  return Inventory(6, std::move(summaries));
}

uint64_t CounterValue(std::string_view name) {
  return obs::Registry::Global().counter(name)->value();
}

// Spins (yielding) until `flag` reaches `value`.
void AwaitStep(const std::atomic<int>& flag, int value) {
  while (flag.load(std::memory_order_acquire) < value) {
    std::this_thread::yield();
  }
}

TEST(ServingConcurrencyTest, StripedTalliesAndPinsUnderSwaps) {
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 20000;
  constexpr int kSwaps = 50;
  constexpr uint64_t kCalls = uint64_t{kThreads} * kCallsPerThread;

  ServingInventory store(Batch(0, 3));
  ServingGuardOptions options;
  // One window spans the whole test, so the windows count every call.
  options.telemetry.window_seconds = 3600.0;
  // Every call is notable, so the notable rings must hold the newest
  // notable_capacity ids of all of them.
  options.telemetry.query_log.slow_seconds = 0.0;
  ServingGuard guard(&store, options);
  const size_t notable_capacity =
      guard.telemetry()->query_log().options().notable_capacity;

  // The first sample of a window rotates it in, and samples racing that
  // rotation may be wiped (obs/window.h), so one OK and one failed call
  // open the windows first; the run below then rotates nothing.
  for (const bool ok : {true, false}) {
    ASSERT_EQ(guard
                  .Run(QueryClass::kInteractive, Deadline(),
                       [ok](const InventorySnapshot&) {
                         return ok ? Status::OK() : Status::NotFound("warm");
                       })
                  .ok(),
              ok);
  }
  constexpr uint64_t kWarmCalls = 2;

  // Weak references to every snapshot published during the test; the
  // initial one is read here, through this thread's pin.
  std::vector<std::weak_ptr<const InventorySnapshot>> published;
  published.emplace_back(store.Acquire());
  const uint64_t admitted_before = CounterValue(kMetricServingAdmitted);
  const uint64_t acquisitions_before =
      CounterValue(kMetricServingReaderAcquisitions);

  std::atomic<bool> go{false};
  std::atomic<uint64_t> ok_calls{0};
  std::atomic<int> regressions{0};
  std::vector<size_t> stripes(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      stripes[static_cast<size_t>(t)] = obs::ThisThreadStripe();
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      uint64_t last_seal = 0;
      uint64_t ok = 0;
      for (int i = 0; i < kCallsPerThread; ++i) {
        const Status status = guard.RunOp(
            "probe", QueryClass::kInteractive, Deadline(),
            [&](const InventorySnapshot& snapshot) {
              // A thread never reads an older snapshot after a newer one.
              const uint64_t seal = snapshot.stats().seal_sequence;
              if (seal < last_seal) regressions.fetch_add(1);
              last_seal = seal;
              if (snapshot.CellsForRoute(kOrigin, kDestination, kSegment)
                      .empty()) {
                regressions.fetch_add(1);
              }
              return i % 3 == 0 ? Status::NotFound("probe miss")
                                : Status::OK();
            });
        if (status.ok()) ++ok;
      }
      ok_calls.fetch_add(ok);
    });
  }
  std::vector<std::weak_ptr<const InventorySnapshot>> swapped;
  std::thread writer([&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (int g = 1; g <= kSwaps; ++g) {
      ASSERT_TRUE(guard.Refresh(Batch(g, 3)).ok());
      swapped.emplace_back(store.Acquire());
    }
  });
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
  writer.join();
  published.insert(published.end(), swapped.begin(), swapped.end());

  EXPECT_EQ(regressions.load(), 0);
  EXPECT_EQ(store.swap_count(), uint64_t{kSwaps} + 1);

  // Every call is counted exactly once in every tally. The writer read
  // each of its swaps once through Acquire.
  EXPECT_EQ(CounterValue(kMetricServingAdmitted) - admitted_before, kCalls);
  EXPECT_EQ(CounterValue(kMetricServingReaderAcquisitions) -
                acquisitions_before,
            kCalls + kSwaps);
  const uint64_t ok = ok_calls.load() + 1;  // The warm-up's OK call.
  const obs::QueryLog& log = guard.telemetry()->query_log();
  const obs::QueryLog::Totals totals = log.totals();
  EXPECT_EQ(totals.events, kWarmCalls + kCalls);
  EXPECT_EQ(totals.ok, ok);
  EXPECT_EQ(totals.errors, kWarmCalls + kCalls - ok);
  EXPECT_EQ(totals.slow, kWarmCalls + kCalls);

  // So is every window.
  const ServingTelemetry& telemetry = *guard.telemetry();
  const obs::WindowedHistogram& latency =
      telemetry.latency(QueryClass::kInteractive);
  EXPECT_EQ(latency.TrailingSnapshot().count, kWarmCalls + kCalls);
  EXPECT_EQ(telemetry.ok_rate().Total(), ok);
  EXPECT_EQ(telemetry.error_rate().Total(), kWarmCalls + kCalls - ok);

  // The merged notable rings hold the newest ids, sorted. Ids are
  // handed out in call order across threads but recorded per stripe,
  // so the exact newest set is guaranteed when no two workers share a
  // stripe (the round-robin assignment gives consecutive threads
  // distinct ones).
  const std::vector<obs::QueryEvent> notable = log.NotableEvents();
  ASSERT_EQ(notable.size(), notable_capacity);
  for (size_t i = 1; i < notable.size(); ++i) {
    EXPECT_LT(notable[i - 1].id, notable[i].id);
  }
  if (std::set<size_t>(stripes.begin(), stripes.end()).size() == kThreads) {
    EXPECT_EQ(notable.front().id, kWarmCalls + kCalls - notable_capacity + 1);
    EXPECT_EQ(notable.back().id, kWarmCalls + kCalls);
  }

  // Every worker and the writer have exited, so only this thread's pin
  // can still hold a superseded snapshot; one more call moves it on.
  ASSERT_TRUE(guard.Run(QueryClass::kInteractive, Deadline(),
                        [](const InventorySnapshot&) { return Status::OK(); })
                  .ok());
  for (size_t i = 0; i + 1 < published.size(); ++i) {
    EXPECT_TRUE(published[i].expired()) << "snapshot " << i;
  }
  EXPECT_FALSE(published.back().expired());
}

TEST(ServingConcurrencyTest, SupersededSnapshotLivesUntilEveryReaderMovesOn) {
  ServingInventory store(Batch(0, 3));
  ServingGuard guard(&store);
  const auto read = [&guard] {
    ASSERT_TRUE(guard.Run(QueryClass::kInteractive, Deadline(),
                          [](const InventorySnapshot& snapshot) {
                            return snapshot.size() > 0
                                       ? Status::OK()
                                       : Status::NotFound("empty");
                          })
                    .ok());
  };

  // Two live reader threads, each stepped by the test: read, wait, read.
  std::atomic<int> step{0};
  std::atomic<int> done_first{0};
  std::atomic<int> done_second{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      read();
      done_first.fetch_add(1, std::memory_order_release);
      AwaitStep(step, r + 1);  // Reader r reads again at step r + 1.
      read();
      done_second.fetch_add(1, std::memory_order_release);
      AwaitStep(step, 3);  // Stays alive until the test is done.
    });
  }
  AwaitStep(done_first, 2);
  std::weak_ptr<const InventorySnapshot> first = store.Acquire();
  ASSERT_TRUE(guard.Refresh(Batch(1, 3)).ok());
  read();  // This thread moves on; both readers still pin `first`.
  EXPECT_FALSE(first.expired());

  step.store(1, std::memory_order_release);
  AwaitStep(done_second, 1);
  EXPECT_FALSE(first.expired());  // Reader 1 still pins it.

  step.store(2, std::memory_order_release);
  AwaitStep(done_second, 2);
  EXPECT_TRUE(first.expired());

  step.store(3, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
}

TEST(ServingConcurrencyTest, NestedGuardedCallAcrossSwapStaysValid) {
  ServingInventory store(Batch(0, 3));
  ServingGuard guard(&store);
  std::weak_ptr<const InventorySnapshot> outer_weak;
  uint64_t outer_seal = 0;
  uint64_t inner_seal = 0;
  const Status status = guard.Run(
      QueryClass::kInteractive, Deadline(),
      [&](const InventorySnapshot& outer) {
        outer_weak = store.Acquire();
        outer_seal = outer.stats().seal_sequence;
        const std::vector<hex::CellIndex> corridor =
            outer.CellsForRoute(kOrigin, kDestination, kSegment);
        // Swap under the outer call, then call again from inside it: the
        // nested call must see the new snapshot without releasing the
        // outer one.
        if (!guard.Refresh(Batch(1, 3)).ok()) return Status::Internal("swap");
        const Status nested = guard.Run(
            QueryClass::kInteractive, Deadline(),
            [&](const InventorySnapshot& inner) {
              inner_seal = inner.stats().seal_sequence;
              return Status::OK();
            });
        if (!nested.ok()) return nested;
        // Still the outer snapshot, still alive (ASan checks the reads).
        if (outer.stats().seal_sequence != outer_seal ||
            outer.CellsForRoute(kOrigin, kDestination, kSegment) != corridor) {
          return Status::Internal("outer snapshot changed under the call");
        }
        return Status::OK();
      });
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_GT(inner_seal, outer_seal);
  // The outer call's pin still holds the old snapshot; this thread's
  // next read moves it on and frees it.
  EXPECT_FALSE(outer_weak.expired());
  EXPECT_EQ(store.Acquire()->stats().seal_sequence, inner_seal);
  EXPECT_TRUE(outer_weak.expired());
}

}  // namespace
}  // namespace pol::core
