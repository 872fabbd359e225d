// ServingGuard under fire: per-call deadlines (admission-time and
// mid-scan), two-class admission control with bounded queue waits and
// load shedding, and the refresh circuit breaker riding out injected
// merge/seal/swap faults while readers keep getting whole snapshots.
// The chaos soak at the bottom runs in the --tsan and --faults passes
// of tools/run_tier1.sh (--soak); the scripted breaker tests need the
// faults preset (POL_FAILPOINTS) and skip elsewhere.

#include "core/serving_guard.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/failpoint.h"
#include "core/inventory.h"
#include "hexgrid/hexgrid.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/querylog.h"
#include "obs/slo.h"

namespace pol::core {
namespace {

#if defined(POL_FAILPOINTS)
constexpr bool kFailPointsEnabled = true;
#else
constexpr bool kFailPointsEnabled = false;
#endif

constexpr sim::PortId kOrigin = 3;
constexpr sim::PortId kDestination = 21;
constexpr auto kSegment = ais::MarketSegment::kContainer;

// Same shape as the serving_inventory_test batches: every generation
// extends the one (origin, destination, segment) route with disjoint
// cells, so corridor size == kCellRouteType group count on every
// generation — the torn-snapshot witness.
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

uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().counter(name)->value();
}

TEST(ServingGuardTest, ExpiredDeadlineRejectedBeforeAdmission) {
  ServingInventory store(Batch(0, 3));
  ServingGuard guard(&store);
  bool entered = false;
  const Status status = guard.Run(
      QueryClass::kInteractive, Deadline::AtSeconds(0.0),
      [&entered](const InventorySnapshot&) {
        entered = true;
        return Status::OK();
      });
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(entered);
}

TEST(ServingGuardTest, LongScanCanceledMidFlight) {
  ServingInventory store(Batch(0, 3));
  ServingGuardOptions options;
  options.deadline_check_stride = 1;  // Poll on every summary.
  ServingGuard guard(&store, options);
  const uint64_t scans_before = CounterValue("serving.scan_deadline_exceeded");

  const Deadline deadline = Deadline::AfterSeconds(0.05);
  uint64_t visited = 0;
  const Status status = guard.VisitGroupingSet(
      GroupingSet::kCellRouteType, deadline,
      [&visited, &deadline](const GroupKey&, const CellSummary&) {
        ++visited;
        // Burn past the deadline inside the scan so the next stride
        // check must cancel cooperatively.
        while (!deadline.Expired()) {
        }
      });
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(visited, 1u);
  EXPECT_EQ(CounterValue("serving.scan_deadline_exceeded"),
            scans_before + 1);
}

TEST(ServingGuardTest, InfiniteDeadlineAnswersLikeTheRawStore) {
  ServingInventory store(Batch(0, 4));
  ServingGuard guard(&store);

  uint64_t visited = 0;
  ASSERT_TRUE(guard
                  .VisitGroupingSet(
                      GroupingSet::kCellRouteType, Deadline(),
                      [&visited](const GroupKey&, const CellSummary&) {
                        ++visited;
                      })
                  .ok());
  const auto corridor =
      guard.CellsForRoute(kOrigin, kDestination, kSegment, Deadline());
  ASSERT_TRUE(corridor.ok());
  EXPECT_EQ(corridor.value().size(), 4u);
  EXPECT_EQ(visited, corridor.value().size());
  EXPECT_EQ(corridor.value(),
            store.Acquire()->CellsForRoute(kOrigin, kDestination, kSegment));
}

TEST(ServingGuardTest, SaturatedClassShedsInsteadOfQueueingForever) {
  ServingInventory store(Batch(0, 2));
  ServingGuardOptions options;
  options.max_concurrent_interactive = 1;
  options.max_queue_wait_seconds = 0.0;  // Full class = immediate shed.
  ServingGuard guard(&store, options);

  std::atomic<bool> inside{false};
  std::atomic<bool> release{false};
  std::thread holder([&guard, &inside, &release] {
    const Status status = guard.Run(
        QueryClass::kInteractive, Deadline(),
        [&inside, &release](const InventorySnapshot&) {
          inside.store(true, std::memory_order_release);
          while (!release.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
          return Status::OK();
        });
    EXPECT_TRUE(status.ok());
  });
  while (!inside.load(std::memory_order_acquire)) std::this_thread::yield();

  // The one interactive slot is held: the next interactive call sheds,
  // while the batch class is unaffected.
  const Status shed = guard.Run(QueryClass::kInteractive, Deadline(),
                                [](const InventorySnapshot&) {
                                  return Status::OK();
                                });
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(guard
                  .Run(QueryClass::kBatch, Deadline(),
                       [](const InventorySnapshot&) { return Status::OK(); })
                  .ok());

  release.store(true, std::memory_order_release);
  holder.join();
}

TEST(ServingGuardTest, QueuedCallerAdmittedWhenSlotFrees) {
  ServingInventory store(Batch(0, 2));
  ServingGuardOptions options;
  options.max_concurrent_interactive = 1;
  options.max_queue_wait_seconds = 30.0;  // Plenty; Release must wake us.
  ServingGuard guard(&store, options);
  const uint64_t queued_before = CounterValue("serving.queued");

  std::atomic<bool> inside{false};
  std::atomic<bool> release{false};
  std::thread holder([&guard, &inside, &release] {
    ASSERT_TRUE(guard
                    .Run(QueryClass::kInteractive, Deadline(),
                         [&inside, &release](const InventorySnapshot&) {
                           inside.store(true, std::memory_order_release);
                           while (!release.load(std::memory_order_acquire)) {
                             std::this_thread::yield();
                           }
                           return Status::OK();
                         })
                    .ok());
  });
  while (!inside.load(std::memory_order_acquire)) std::this_thread::yield();

  std::atomic<bool> waiter_started{false};
  std::thread waiter([&guard, &waiter_started] {
    waiter_started.store(true, std::memory_order_release);
    const Status status =
        guard.Run(QueryClass::kInteractive, Deadline(),
                  [](const InventorySnapshot&) { return Status::OK(); });
    EXPECT_TRUE(status.ok());
  });
  while (!waiter_started.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  release.store(true, std::memory_order_release);
  holder.join();
  waiter.join();
  EXPECT_GE(CounterValue("serving.queued"), queued_before);
}

TEST(ServingGuardTest, QueuedCallerHonorsItsOwnDeadline) {
  ServingInventory store(Batch(0, 2));
  ServingGuardOptions options;
  options.max_concurrent_interactive = 1;
  options.max_queue_wait_seconds = 30.0;  // Queue budget far beyond it.
  ServingGuard guard(&store, options);

  std::atomic<bool> inside{false};
  std::atomic<bool> release{false};
  std::thread holder([&guard, &inside, &release] {
    ASSERT_TRUE(guard
                    .Run(QueryClass::kInteractive, Deadline(),
                         [&inside, &release](const InventorySnapshot&) {
                           inside.store(true, std::memory_order_release);
                           while (!release.load(std::memory_order_acquire)) {
                             std::this_thread::yield();
                           }
                           return Status::OK();
                         })
                    .ok());
  });
  while (!inside.load(std::memory_order_acquire)) std::this_thread::yield();

  const double start = obs::NowSeconds();
  const Status status =
      guard.Run(QueryClass::kInteractive, Deadline::AfterSeconds(0.02),
                [](const InventorySnapshot&) { return Status::OK(); });
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(obs::NowSeconds() - start, 0.02);

  release.store(true, std::memory_order_release);
  holder.join();
}

TEST(ServingGuardTest, NonRetryableRefreshFailuresNeverTripTheBreaker) {
  ServingInventory store(Batch(0, 2));
  ServingGuardOptions options;
  options.breaker_trip_failures = 2;
  ServingGuard guard(&store, options);

  // A resolution-mismatched delta is a caller error; even a run of them
  // far past the threshold must leave the breaker closed.
  for (int i = 0; i < 5; ++i) {
    SummaryMap mismatched;
    const Status status = guard.Refresh(Inventory(7, std::move(mismatched)));
    ASSERT_FALSE(status.ok());
    ASSERT_FALSE(status.IsRetryable());
  }
  EXPECT_EQ(guard.breaker_state(), BreakerState::kClosed);
  EXPECT_FALSE(guard.degraded());
  // The staleness gauge still records the refreshes that went nowhere.
  EXPECT_EQ(guard.snapshot_age_refreshes(), 5u);

  ASSERT_TRUE(guard.Refresh(Batch(1, 2)).ok());
  EXPECT_EQ(guard.snapshot_age_refreshes(), 0u);
}

TEST(ServingGuardTest, BreakerTripsProbesAndCloses) {
  if (!kFailPointsEnabled) {
    GTEST_SKIP() << "fail points compiled out (build with POL_FAILPOINTS)";
  }
  FailPointRegistry::Global().Reset();
  ServingInventory store(Batch(0, 2));
  ServingGuardOptions options;
  options.breaker_trip_failures = 2;
  options.breaker_open_seconds = 0.0;  // Every rejected epoch may probe.
  ServingGuard guard(&store, options);
  const uint64_t swaps_before = store.swap_count();

  FailPointSpec spec;
  spec.code = StatusCode::kIoError;
  FailPointRegistry::Global().Arm("serving.merge", spec);

  // Two consecutive retryable failures trip the breaker...
  EXPECT_EQ(guard.Refresh(Batch(1, 2)).code(), StatusCode::kIoError);
  EXPECT_EQ(guard.breaker_state(), BreakerState::kClosed);
  EXPECT_EQ(guard.Refresh(Batch(1, 2)).code(), StatusCode::kIoError);
  EXPECT_EQ(guard.breaker_state(), BreakerState::kOpen);
  EXPECT_TRUE(guard.degraded());

  // ...a failing half-open probe re-opens it...
  EXPECT_EQ(guard.Refresh(Batch(1, 2)).code(), StatusCode::kIoError);
  EXPECT_EQ(guard.breaker_state(), BreakerState::kOpen);
  EXPECT_EQ(guard.snapshot_age_refreshes(), 3u);
  EXPECT_EQ(store.swap_count(), swaps_before);  // Last good still serving.

  // ...and once the fault clears, the next probe closes it and the
  // merged generation is published.
  FailPointRegistry::Global().DisarmAll();
  ASSERT_TRUE(guard.Refresh(Batch(1, 2)).ok());
  EXPECT_EQ(guard.breaker_state(), BreakerState::kClosed);
  EXPECT_FALSE(guard.degraded());
  EXPECT_EQ(guard.snapshot_age_refreshes(), 0u);
  EXPECT_EQ(store.swap_count(), swaps_before + 1);
}

TEST(ServingGuardTest, OpenBreakerRejectsWhileReadersKeepServing) {
  if (!kFailPointsEnabled) {
    GTEST_SKIP() << "fail points compiled out (build with POL_FAILPOINTS)";
  }
  FailPointRegistry::Global().Reset();
  ServingInventory store(Batch(0, 3));
  ServingGuardOptions options;
  options.breaker_trip_failures = 1;
  options.breaker_open_seconds = 3600.0;  // Stay open for the whole test.
  ServingGuard guard(&store, options);
  const uint64_t swaps_before = store.swap_count();
  const size_t size_before = store.size();

  FailPointSpec spec;
  spec.code = StatusCode::kUnavailable;
  FailPointRegistry::Global().Arm("serving.seal", spec);
  EXPECT_EQ(guard.Refresh(Batch(1, 3)).code(), StatusCode::kUnavailable);
  EXPECT_EQ(guard.breaker_state(), BreakerState::kOpen);
  FailPointRegistry::Global().DisarmAll();

  // While open, refreshes are rejected without touching the store...
  const Status rejected = guard.Refresh(Batch(2, 3));
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);
  EXPECT_EQ(guard.snapshot_age_refreshes(), 2u);
  EXPECT_EQ(store.swap_count(), swaps_before);

  // ...and guarded reads still answer from the last good snapshot.
  const Status read = guard.Run(
      QueryClass::kInteractive, Deadline(),
      [size_before](const InventorySnapshot& snapshot) {
        EXPECT_EQ(snapshot.size(), size_before);
        return Status::OK();
      });
  EXPECT_TRUE(read.ok());
}

// The chaos soak: concurrent readers, a faulting refresher, and a
// deadline storm against one guard. Asserts (a) readers only ever see
// whole snapshots — corridor == grouping-set sweep, reversed corridor
// identical, (b) the admission counters account for every issued call
// exactly once, (c) with fail points armed the breaker trips and closes
// as the fault window passes, and the final inventory holds every
// generation despite the injected merge/seal/swap faults.
TEST(ServingResilienceSoakTest, ChaosSoak) {
  FailPointRegistry::Global().Reset();
  const uint64_t admitted_before = CounterValue("serving.admitted");
  const uint64_t shed_before = CounterValue("serving.shed");
  const uint64_t deadline_before = CounterValue("serving.deadline_exceeded");
  const uint64_t scan_before = CounterValue("serving.scan_deadline_exceeded");

  constexpr int kReaders = 4;
  constexpr int kIterations = 250;
  constexpr int kGenerations = 24;
  constexpr int kCellsPerBatch = 2;

  ServingInventory store(Batch(0, kCellsPerBatch));
  ServingGuardOptions options;
  options.max_concurrent_interactive = 3;
  options.max_concurrent_batch = 2;
  options.max_queue_wait_seconds = 0.002;  // Saturation sheds quickly.
  options.breaker_trip_failures = 3;
  options.breaker_open_seconds = 0.0;  // Deterministic probing.
  options.deadline_check_stride = 16;
  // Small telemetry windows so the SLO burn trips — and recovers —
  // within the soak's own lifetime.
  options.telemetry.window_seconds = 0.05;
  options.telemetry.window_count = 32;
  options.telemetry.slo_fast_windows = 4;
  options.telemetry.slo_slow_windows = 20;
  ServingGuard guard(&store, options);
  const size_t initial_size = store.size();

  if (kFailPointsEnabled) {
    // Three deterministic fault windows, one per refresh boundary. The
    // serving.seal window is long enough (3 consecutive retryable
    // failures) to trip the breaker; cooldown 0 lets the retry loop
    // probe straight through it once the window passes.
    FailPointSpec merge;
    merge.fire_from = 2;
    merge.fire_count = 2;
    merge.code = StatusCode::kIoError;
    FailPointRegistry::Global().Arm("serving.merge", merge);
    FailPointSpec seal;
    seal.fire_from = 8;
    seal.fire_count = 3;
    seal.code = StatusCode::kUnavailable;
    FailPointRegistry::Global().Arm("serving.seal", seal);
    FailPointSpec swap;
    swap.fire_from = 14;
    swap.fire_count = 1;
    swap.code = StatusCode::kInternal;
    FailPointRegistry::Global().Arm("serving.swap", swap);
  }

  std::atomic<uint64_t> issued{0};
  std::atomic<uint64_t> ok_calls{0};
  std::atomic<uint64_t> shed_calls{0};
  std::atomic<uint64_t> deadline_calls{0};
  std::atomic<uint64_t> unexpected{0};
  std::atomic<uint64_t> torn{0};
  std::atomic<bool> stop_storm{false};

  const auto tally = [&](const Status& status) {
    issued.fetch_add(1, std::memory_order_relaxed);
    switch (status.code()) {
      case StatusCode::kOk:
        ok_calls.fetch_add(1, std::memory_order_relaxed);
        break;
      case StatusCode::kResourceExhausted:
        shed_calls.fetch_add(1, std::memory_order_relaxed);
        break;
      case StatusCode::kDeadlineExceeded:
        deadline_calls.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        unexpected.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&guard, &tally, &torn, initial_size, t] {
      for (int i = 0; i < kIterations; ++i) {
        // Interactive: one consistent multi-query view inside one
        // guarded call — this is the torn-snapshot witness.
        tally(guard.Run(
            QueryClass::kInteractive, Deadline::AfterSeconds(0.5),
            [&torn, initial_size](const InventorySnapshot& snapshot) {
              if (snapshot.resolution() != 6 ||
                  snapshot.size() < initial_size) {
                torn.fetch_add(1);
              }
              const std::vector<hex::CellIndex> corridor =
                  snapshot.CellsForRoute(kOrigin, kDestination, kSegment);
              if (snapshot.CellsForRoute(kDestination, kOrigin, kSegment) !=
                  corridor) {
                torn.fetch_add(1);
              }
              uint64_t visited = 0;
              snapshot.VisitGroupingSetWhile(
                  GroupingSet::kCellRouteType,
                  [&visited](const GroupKey&, const CellSummary&) {
                    ++visited;
                    return true;
                  });
              if (visited != corridor.size()) torn.fetch_add(1);
              for (const hex::CellIndex cell : corridor) {
                if (snapshot.Cell(cell) == nullptr) torn.fetch_add(1);
              }
              return Status::OK();
            }));
        // Batch: guarded sweeps, some under a deadline tight enough to
        // cancel mid-scan now and then.
        const Deadline sweep_deadline = (i % 3 == static_cast<int>(t) % 3)
                                            ? Deadline::AfterSeconds(0.0001)
                                            : Deadline();
        tally(guard.VisitGroupingSet(GroupingSet::kCell, sweep_deadline,
                                     [](const GroupKey&,
                                        const CellSummary&) {}));
        // Interactive corridor through the Result<> wrapper.
        const auto corridor = guard.CellsForRoute(
            kOrigin, kDestination, kSegment, Deadline::AfterSeconds(0.5));
        tally(corridor.ok() ? Status::OK() : corridor.status());
        if (corridor.ok() && corridor.value().empty()) torn.fetch_add(1);
      }
    });
  }

  // Deadline storm: every call arrives already expired and must be
  // rejected at admission without ever reaching a snapshot.
  std::thread storm([&guard, &tally, &stop_storm] {
    while (!stop_storm.load(std::memory_order_acquire)) {
      tally(guard.Run(QueryClass::kInteractive, Deadline::AtSeconds(0.0),
                      [](const InventorySnapshot&) { return Status::OK(); }));
      std::this_thread::yield();
    }
  });

  // Refresher: folds every generation through the breaker, retrying
  // over the injected fault windows (bounded so a wedged breaker fails
  // the test instead of hanging it).
  uint64_t refresh_failures = 0;
  bool saw_degraded = false;
  for (int g = 1; g <= kGenerations; ++g) {
    bool folded = false;
    for (int attempt = 0; attempt < 200 && !folded; ++attempt) {
      const Status status = guard.Refresh(Batch(g, kCellsPerBatch));
      if (status.ok()) {
        folded = true;
      } else {
        ASSERT_TRUE(status.IsRetryable()) << status.message();
        ++refresh_failures;
        saw_degraded = saw_degraded || guard.degraded();
      }
    }
    ASSERT_TRUE(folded) << "generation " << g
                        << " never folded; breaker wedged";
  }

  // While the deadline storm still rages: every storm call feeds the
  // error rate, so the availability SLO must report burning once both
  // trailing windows (fast 4 x 50ms, slow 20 x 50ms) have seen it.
  bool saw_burning = false;
  uint64_t availability_breaches = 0;
  if (guard.telemetry()->enabled()) {
    const double evaluate_until = obs::NowSeconds() + 5.0;
    while (!saw_burning && obs::NowSeconds() < evaluate_until) {
      const std::vector<obs::SloStatus> statuses =
          guard.telemetry()->EvaluateSlos();
      ASSERT_FALSE(statuses.empty());
      saw_burning = statuses[0].burning;
      availability_breaches = statuses[0].breaches;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  stop_storm.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  storm.join();

  // (a) No torn or partial snapshot, ever; no status outside the
  // resilience vocabulary.
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(unexpected.load(), 0u);

  // (b) Every issued call accounted for exactly once.
  EXPECT_EQ(ok_calls.load() + shed_calls.load() + deadline_calls.load(),
            issued.load());
  const uint64_t admitted = CounterValue("serving.admitted") -
                            admitted_before;
  const uint64_t shed = CounterValue("serving.shed") - shed_before;
  const uint64_t deadline =
      CounterValue("serving.deadline_exceeded") - deadline_before;
  const uint64_t scans =
      CounterValue("serving.scan_deadline_exceeded") - scan_before;
  EXPECT_EQ(admitted + shed + deadline, issued.load());
  EXPECT_EQ(shed, shed_calls.load());
  EXPECT_EQ(deadline + scans, deadline_calls.load());
  EXPECT_EQ(ok_calls.load(), admitted - scans);

  // Query-level telemetry reconciles against the same ledger: every
  // admitted call wrote exactly one wide event, OK or not, and
  // nothing else did.
  const obs::QueryLog::Totals logged =
      guard.telemetry()->query_log().totals();
  EXPECT_EQ(logged.ok + logged.errors, admitted);
  EXPECT_EQ(logged.ok, ok_calls.load());
  EXPECT_EQ(logged.errors, scans);

  // The storm tripped the availability SLO; with the storm gone and
  // the fast window drained, the alert clears (the slow window may
  // still remember the incident — burning needs both).
  EXPECT_TRUE(saw_burning);
  EXPECT_GE(availability_breaches, 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::vector<obs::SloStatus> recovered =
      guard.telemetry()->EvaluateSlos();
  ASSERT_FALSE(recovered.empty());
  EXPECT_FALSE(recovered[0].burning);
  EXPECT_GE(recovered[0].breaches, 1u);

  // (c) The fault windows passed: the breaker closed again, every
  // generation folded, and the final snapshot carries all of them.
  EXPECT_EQ(guard.breaker_state(), BreakerState::kClosed);
  EXPECT_FALSE(guard.degraded());
  EXPECT_EQ(guard.snapshot_age_refreshes(), 0u);
  Inventory expected = Batch(0, kCellsPerBatch);
  for (int g = 1; g <= kGenerations; ++g) {
    ASSERT_TRUE(expected.MergeFrom(Batch(g, kCellsPerBatch)).ok());
  }
  EXPECT_EQ(store.size(), expected.size());
  if (kFailPointsEnabled) {
    EXPECT_GE(refresh_failures, 6u);  // 2 merge + 3 seal + 1 swap windows.
    EXPECT_TRUE(saw_degraded);
    EXPECT_GE(FailPointRegistry::Global().HitCount("serving.merge"),
              static_cast<uint64_t>(kGenerations));
  } else {
    EXPECT_EQ(refresh_failures, 0u);
  }
  FailPointRegistry::Global().Reset();
}

}  // namespace
}  // namespace pol::core
