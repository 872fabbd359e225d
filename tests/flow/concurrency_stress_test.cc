// Adversarial concurrency stress tests for the flow layer. These exist
// to give ThreadSanitizer real interleavings to bite on (they run in
// the --tsan pass of tools/run_tier1.sh) while still asserting the
// deterministic-output contract under plain builds: many small chunks
// through a StageRunner, nested ParallelFor storms launched from inside
// pool tasks, several runners sharing one pool, and pool teardown with
// work still queued.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "flow/dataset.h"
#include "flow/stage.h"
#include "flow/stage_runner.h"
#include "flow/threadpool.h"
#include "obs/metrics.h"

namespace pol::flow {
namespace {

using IntRunner = StageRunner<int, Dataset<int>>;

// The two-step chain the ordering tests drive, each step through the
// stage boundary: add_one maps v -> v + 1 and counts every record it
// sees into `records` (shared by every chunk in flight); keep_even
// drops odd values via a nested ParallelFor over partitions (Filter
// already parallelizes; this adds a second fan-out level).
IntRunner::ChunkFn AddOneKeepEven(std::atomic<size_t>* records,
                                  StageMetricsCollector* metrics = nullptr) {
  return [records, metrics](Dataset<int> input) -> Result<Dataset<int>> {
    POL_ASSIGN_OR_RETURN(
        Dataset<int> plus_one,
        RunStage<int>("add_one", 0, std::move(input), metrics,
                      [records](const Dataset<int>& in) {
                        records->fetch_add(in.Count());
                        return in.MapPartitions(
                            [](const std::vector<int>& part) {
                              std::vector<int> out = part;
                              for (int& v : out) ++v;
                              return out;
                            });
                      }));
    return RunStage<int>("keep_even", 1, std::move(plus_one), metrics,
                         [](const Dataset<int>& in) {
                           return in.Filter(
                               [](const int& v) { return v % 2 == 0; });
                         });
  };
}

std::vector<Dataset<int>> MakeChunks(int num_chunks, int values_per_chunk,
                                     ThreadPool* pool) {
  std::vector<Dataset<int>> chunks;
  chunks.reserve(static_cast<size_t>(num_chunks));
  int next = 0;
  for (int c = 0; c < num_chunks; ++c) {
    std::vector<int> data(static_cast<size_t>(values_per_chunk));
    std::iota(data.begin(), data.end(), next);
    next += values_per_chunk;
    chunks.push_back(Dataset<int>::FromVector(std::move(data), 3, pool));
  }
  return chunks;
}

// Folds every chunk through a 2-step chain and checks that the sink
// sees chunks strictly in order with identical totals regardless of the
// in-flight window.
void RunManyChunks(int max_in_flight, int num_chunks) {
  ThreadPool pool(4);
  std::atomic<size_t> add_one_records{0};
  IntRunner::Options options;
  options.max_in_flight = max_in_flight;
  IntRunner runner(AddOneKeepEven(&add_one_records), &pool, options);

  constexpr int kValuesPerChunk = 40;
  std::vector<size_t> fold_order;
  long total = 0;
  const RunSummary summary =
      runner.Run(MakeChunks(num_chunks, kValuesPerChunk, &pool),
                 [&](size_t chunk, Dataset<int> out) {
                   fold_order.push_back(chunk);
                   for (int v : out.Collect()) total += v;
                   return Status::OK();
                 });

  EXPECT_TRUE(summary.status.ok());
  EXPECT_EQ(summary.chunks_folded, static_cast<size_t>(num_chunks));
  EXPECT_EQ(summary.chunks_quarantined, 0u);
  ASSERT_EQ(fold_order.size(), static_cast<size_t>(num_chunks));
  for (size_t i = 0; i < fold_order.size(); ++i) {
    EXPECT_EQ(fold_order[i], i) << "sink saw chunks out of order";
  }
  // Inputs are 0..N-1; +1 then keep-even keeps exactly the odd inputs
  // shifted up by one: sum of even values in 1..N.
  const long n = static_cast<long>(num_chunks) * kValuesPerChunk;
  long expected = 0;
  for (long v = 1; v <= n; ++v) {
    if (v % 2 == 0) expected += v;
  }
  EXPECT_EQ(total, expected);
  EXPECT_EQ(add_one_records.load(),
            static_cast<size_t>(num_chunks) * kValuesPerChunk);
}

TEST(ConcurrencyStressTest, StageRunnerManyChunksSequentialWindow) {
  RunManyChunks(/*max_in_flight=*/1, /*num_chunks=*/48);
}

TEST(ConcurrencyStressTest, StageRunnerManyChunksOverlappedWindow) {
  RunManyChunks(/*max_in_flight=*/3, /*num_chunks=*/48);
}

TEST(ConcurrencyStressTest, StageRunnerWindowWiderThanChunkCount) {
  RunManyChunks(/*max_in_flight=*/16, /*num_chunks=*/5);
}

// Step that fails every attempt on chunks containing `poison`, and the
// first `flaky_attempts` attempts on every other chunk (keyed by the
// chunk's first value). Exercises retry and quarantine paths.
class FaultyStep {
 public:
  FaultyStep(int poison, int flaky_attempts)
      : poison_(poison), flaky_attempts_(flaky_attempts) {}

  Result<Dataset<int>> operator()(const Dataset<int>& input) {
    const std::vector<int> values = input.Collect();
    for (const int v : values) {
      if (v == poison_) return Status::Corruption("poisoned chunk");
    }
    const int key = values.empty() ? -1 : values.front();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (++attempts_by_key_[key] <= flaky_attempts_) {
        return Status::Internal("transient fault");
      }
    }
    return input;
  }

 private:
  int poison_;
  int flaky_attempts_;
  std::mutex mutex_;  // guards: attempts_by_key_
  std::map<int, int> attempts_by_key_;
};

// A one-step chain running `step` as stage "faulty".
IntRunner::ChunkFn Faulty(FaultyStep* step,
                          StageMetricsCollector* metrics = nullptr) {
  return [step, metrics](Dataset<int> input) {
    return RunStage<int>(
        "faulty", 0, std::move(input), metrics,
        [step](const Dataset<int>& in) { return (*step)(in); });
  };
}

TEST(ConcurrencyStressTest, TransientFaultsRetrySucceed) {
  // Every chunk fails its first attempt; with three attempts allowed,
  // the run must still fold every chunk in order.
  ThreadPool pool(4);
  constexpr int kChunks = 12;
  FaultyStep step(/*poison=*/-1, /*flaky_attempts=*/1);
  StageMetricsCollector collector;
  IntRunner::Options options;
  options.max_in_flight = 3;
  options.max_attempts = 3;
  IntRunner runner(Faulty(&step, &collector), &pool, options);

  std::vector<size_t> fold_order;
  const RunSummary summary =
      runner.Run(MakeChunks(kChunks, 10, &pool),
                 [&](size_t chunk, Dataset<int>) {
                   fold_order.push_back(chunk);
                   return Status::OK();
                 });
  EXPECT_TRUE(summary.status.ok());
  EXPECT_EQ(summary.chunks_folded, static_cast<size_t>(kChunks));
  EXPECT_EQ(summary.chunks_quarantined, 0u);
  EXPECT_EQ(summary.retries, static_cast<uint64_t>(kChunks));
  ASSERT_EQ(fold_order.size(), static_cast<size_t>(kChunks));
  for (size_t i = 0; i < fold_order.size(); ++i) EXPECT_EQ(fold_order[i], i);
  // Failed attempts land in the stage's failure metrics.
  const std::vector<StageMetrics> metrics = collector.Snapshot();
  ASSERT_EQ(metrics.size(), 1u);
  EXPECT_EQ(metrics[0].failures, static_cast<uint64_t>(kChunks));
  EXPECT_EQ(metrics[0].failures_by_reason.at("Internal"),
            static_cast<uint64_t>(kChunks));
}

TEST(ConcurrencyStressTest, PoisonedChunkIsQuarantinedRunContinues) {
  // Chunk values are contiguous: chunk 2 of 10-value chunks holds 25.
  ThreadPool pool(4);
  constexpr int kChunks = 8;
  FaultyStep step(/*poison=*/25, /*flaky_attempts=*/0);
  IntRunner::Options options;
  options.max_attempts = 2;
  IntRunner runner(Faulty(&step), &pool, options);

  std::vector<size_t> fold_order;
  std::vector<size_t> quarantine_order;
  const RunSummary summary = runner.Run(
      MakeChunks(kChunks, 10, &pool),
      [&](size_t chunk, Dataset<int>) {
        fold_order.push_back(chunk);
        return Status::OK();
      },
      /*start_chunk=*/0,
      [&](const ChunkFailure& failure) {
        quarantine_order.push_back(failure.chunk_index);
        EXPECT_EQ(failure.attempts, 2);
        EXPECT_EQ(failure.records, 10u);
        EXPECT_EQ(failure.status.code(), StatusCode::kCorruption);
        // The error names the failing stage.
        EXPECT_NE(failure.status.message().find("faulty"), std::string::npos);
      });
  EXPECT_TRUE(summary.status.ok());
  EXPECT_EQ(summary.chunks_folded, static_cast<size_t>(kChunks - 1));
  EXPECT_EQ(summary.chunks_quarantined, 1u);
  EXPECT_EQ(summary.records_quarantined, 10u);
  ASSERT_EQ(summary.quarantined.size(), 1u);
  EXPECT_EQ(summary.quarantined[0].chunk_index, 2u);
  ASSERT_EQ(quarantine_order.size(), 1u);
  EXPECT_EQ(quarantine_order[0], 2u);
  // Every other chunk folded, in order, with chunk 2 absent.
  ASSERT_EQ(fold_order.size(), static_cast<size_t>(kChunks - 1));
  size_t expected = 0;
  for (const size_t chunk : fold_order) {
    if (expected == 2) ++expected;
    EXPECT_EQ(chunk, expected++);
  }
}

TEST(ConcurrencyStressTest, FailFastAbortsOnExhaustedChunk) {
  ThreadPool pool(4);
  FaultyStep step(/*poison=*/25, /*flaky_attempts=*/0);
  IntRunner::Options options;
  options.fail_fast = true;
  IntRunner runner(Faulty(&step), &pool, options);

  const RunSummary summary = runner.Run(
      MakeChunks(8, 10, &pool),
      [&](size_t, Dataset<int>) { return Status::OK(); });
  EXPECT_FALSE(summary.status.ok());
  EXPECT_EQ(summary.status.code(), StatusCode::kCorruption);
  EXPECT_EQ(summary.chunks_folded, 2u);  // Chunks 0 and 1 precede the bad one.
  EXPECT_EQ(summary.chunks_quarantined, 0u);
}

TEST(ConcurrencyStressTest, SinkErrorAbortsRunAndDrains) {
  ThreadPool pool(4);
  std::atomic<size_t> records{0};
  IntRunner::Options options;
  options.max_in_flight = 4;
  IntRunner runner(AddOneKeepEven(&records), &pool, options);

  size_t folds = 0;
  const RunSummary summary =
      runner.Run(MakeChunks(16, 10, &pool), [&](size_t chunk, Dataset<int>) {
        ++folds;
        if (chunk == 3) return Status::IoError("sink refused");
        return Status::OK();
      });
  EXPECT_FALSE(summary.status.ok());
  EXPECT_EQ(summary.status.code(), StatusCode::kIoError);
  EXPECT_EQ(folds, 4u);
  EXPECT_EQ(summary.chunks_folded, 3u);
  // The pool must be fully drained: no task may still reference the
  // finished Run call's stack.
  pool.Wait();
}

TEST(ConcurrencyStressTest, SinkThrowDrainsInFlightTasks) {
  // A throwing sink must not leave pool tasks referencing the destroyed
  // Run frame (slots/mutex/condvar). ASan runs of this test catch the
  // use-after-free the old runner had.
  ThreadPool pool(4);
  std::atomic<size_t> records{0};
  IntRunner::Options options;
  options.max_in_flight = 4;
  IntRunner runner(AddOneKeepEven(&records), &pool, options);

  EXPECT_THROW(
      runner.Run(MakeChunks(32, 10, &pool),
                 [&](size_t chunk, Dataset<int>) {
                   if (chunk == 2) throw std::runtime_error("sink exploded");
                   return Status::OK();
                 }),
      std::runtime_error);
  // Submitting more work must find a healthy pool and no stale tasks.
  std::atomic<int> after{0};
  pool.Submit([&after] { after.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(after.load(), 1);
}

TEST(ConcurrencyStressTest, ResumeCursorSkipsAccountedChunks) {
  ThreadPool pool(4);
  std::atomic<size_t> records{0};
  IntRunner runner(AddOneKeepEven(&records), &pool);

  std::vector<size_t> fold_order;
  const RunSummary summary = runner.Run(
      MakeChunks(10, 10, &pool),
      [&](size_t chunk, Dataset<int>) {
        fold_order.push_back(chunk);
        return Status::OK();
      },
      /*start_chunk=*/6);
  EXPECT_TRUE(summary.status.ok());
  EXPECT_EQ(summary.chunks_skipped, 6u);
  EXPECT_EQ(summary.chunks_folded, 4u);
  ASSERT_EQ(fold_order.size(), 4u);
  for (size_t i = 0; i < fold_order.size(); ++i) {
    EXPECT_EQ(fold_order[i], i + 6);
  }
}

TEST(ConcurrencyStressTest, ConcurrentRunnersShareOnePool) {
  // Two independent StageRunners driven from separate threads over the
  // same pool: each must fold its own chunks in its own order.
  ThreadPool pool(4);
  constexpr int kChunks = 16;
  auto drive = [&pool](std::vector<size_t>* order) {
    std::atomic<size_t> records{0};
    IntRunner runner(AddOneKeepEven(&records), &pool);
    runner.Run(MakeChunks(kChunks, 30, &pool),
               [order](size_t chunk, Dataset<int>) {
                 order->push_back(chunk);
                 return Status::OK();
               });
  };
  std::vector<size_t> order_a;
  std::vector<size_t> order_b;
  std::thread a([&] { drive(&order_a); });
  std::thread b([&] { drive(&order_b); });
  a.join();
  b.join();
  ASSERT_EQ(order_a.size(), static_cast<size_t>(kChunks));
  ASSERT_EQ(order_b.size(), static_cast<size_t>(kChunks));
  for (size_t i = 0; i < order_a.size(); ++i) {
    EXPECT_EQ(order_a[i], i);
    EXPECT_EQ(order_b[i], i);
  }
}

TEST(ConcurrencyStressTest, ParallelForStormFromInsidePoolTasks) {
  // Pool tasks each launch their own ParallelFor, which launches
  // another ParallelFor one level down — every fan-out on the same
  // pool. Caller participation must keep all of it live-locked-free,
  // and every (task, i, j) triple must execute exactly once.
  ThreadPool pool(3);
  constexpr int kTasks = 8;
  constexpr size_t kOuter = 6;
  constexpr size_t kInner = 5;
  std::vector<std::atomic<int>> hits(kTasks * kOuter * kInner);
  std::atomic<int> tasks_done{0};
  for (int t = 0; t < kTasks; ++t) {
    pool.Submit([&, t] {
      pool.ParallelFor(kOuter, [&, t](size_t i) {
        pool.ParallelFor(kInner, [&, t, i](size_t j) {
          hits[(static_cast<size_t>(t) * kOuter + i) * kInner + j]
              .fetch_add(1);
        });
      });
      tasks_done.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(tasks_done.load(), kTasks);
  for (size_t k = 0; k < hits.size(); ++k) {
    ASSERT_EQ(hits[k].load(), 1) << "slot " << k;
  }
}

TEST(ConcurrencyStressTest, TeardownUnderLoad) {
  // Destroying the pool with tasks still queued (no Wait) must drain
  // the queue and join cleanly — every submitted task runs.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&ran] {
        int local = 0;
        for (int k = 0; k < 1000; ++k) local += k % 3;
        ran.fetch_add(local > 0 ? 1 : 0);
      });
    }
    // No Wait: the destructor races the still-draining queue.
  }
  EXPECT_EQ(ran.load(), 200);
}

TEST(ConcurrencyStressTest, StageMetricsCollectorUnderContention) {
  // Many threads hammer one collector across interleaved stages; the
  // snapshot must account for every Record/RecordFailure exactly — this
  // is the accumulator every in-flight chunk shares during a run.
  StageMetricsCollector collector;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  constexpr size_t kStages = 3;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&collector, t] {
      const char* names[kStages] = {"clean", "enrich", "extract"};
      for (int i = 0; i < kPerThread; ++i) {
        const size_t stage = static_cast<size_t>((t + i) % kStages);
        collector.Record(stage, names[stage], /*records_in=*/10,
                         /*records_out=*/8,
                         /*peak_partition=*/static_cast<size_t>(i % 100),
                         /*wall_seconds=*/0.0);
        if (i % 10 == 0) {
          collector.RecordFailure(stage, names[stage], StatusCode::kInternal);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const std::vector<StageMetrics> metrics = collector.Snapshot();
  ASSERT_EQ(metrics.size(), kStages);
  uint64_t chunks = 0;
  uint64_t failures = 0;
  for (const StageMetrics& m : metrics) {
    chunks += m.chunks;
    failures += m.failures;
    EXPECT_EQ(m.records_in, m.chunks * 10);
    EXPECT_EQ(m.records_out, m.chunks * 8);
    EXPECT_EQ(m.dropped, m.chunks * 2);
    EXPECT_EQ(m.peak_partition, 99u);
    EXPECT_EQ(m.failures_by_reason.at("Internal"), m.failures);
  }
  EXPECT_EQ(chunks, uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(failures, uint64_t{kThreads} * (kPerThread / 10));
}

TEST(ConcurrencyStressTest, SharedRegistryMetricsFromPoolTasks) {
  // Pool tasks record into one global-registry counter/histogram pair
  // while ParallelFor storms run; totals must be exact.
  auto& registry = obs::Registry::Global();
  obs::Counter* counter = registry.counter("test.stress.events");
  obs::Histogram* histogram = registry.histogram("test.stress.latency");
  counter->Reset();
  histogram->Reset();
  constexpr int kTasks = 16;
  constexpr size_t kPerTask = 400;
  {
    ThreadPool pool(4);
    for (int t = 0; t < kTasks; ++t) {
      pool.Submit([&pool, counter, histogram] {
        pool.ParallelFor(kPerTask, [counter, histogram](size_t i) {
          counter->Increment();
          histogram->Record(1e-6 * static_cast<double>(i % 32));
        });
      });
    }
    pool.Wait();
  }
  const uint64_t expected = uint64_t{kTasks} * kPerTask;
  EXPECT_EQ(counter->value(), expected);
  EXPECT_EQ(histogram->count(), expected);
}

TEST(ConcurrencyStressTest, TeardownRacesNestedParallelFor) {
  // Teardown while tasks are mid-ParallelFor: destruction must wait for
  // the in-flight fan-out to finish, not tear the state out from under
  // the helpers.
  std::atomic<int> hits{0};
  {
    ThreadPool pool(4);
    for (int t = 0; t < 6; ++t) {
      pool.Submit([&] {
        pool.ParallelFor(25, [&](size_t) { hits.fetch_add(1); });
      });
    }
  }
  EXPECT_EQ(hits.load(), 6 * 25);
}

}  // namespace
}  // namespace pol::flow
