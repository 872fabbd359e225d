#include "flow/threadpool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

namespace pol::flow {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, DefaultsToAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // Must not hang.
  SUCCEED();
}

TEST(ThreadPoolTest, TasksCanSubmitMoreTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&] {
    counter.fetch_add(1);
    pool.Submit([&] { counter.fetch_add(10); });
  });
  pool.Wait();
  EXPECT_EQ(counter.load(), 11);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, ParallelForZeroAndOne) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL(); });
  int calls = 0;
  pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ParallelForBalancesSkewedWork) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  pool.ParallelFor(64, [&](size_t i) {
    long local = 0;
    // Index 0 is 64x more work than the rest.
    const long reps = (i == 0) ? 640000 : 10000;
    for (long k = 0; k < reps; ++k) local += k % 7;
    total.fetch_add(local > 0 ? 1 : 0);
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, SequentialWaitsCompose) {
  ThreadPool pool(2);
  std::atomic<int> phase1{0};
  std::atomic<int> phase2{0};
  for (int i = 0; i < 10; ++i) pool.Submit([&] { phase1.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(phase1.load(), 10);
  for (int i = 0; i < 10; ++i) pool.Submit([&] { phase2.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(phase2.load(), 10);
}

TEST(ThreadPoolTest, ParallelForFromInsideATask) {
  // The stage runner executes a whole chunk step inside a pool task, and
  // its steps call ParallelFor on the same pool. The caller must
  // participate in its own loop instead of parking on a global wait, or
  // this nests into deadlock.
  ThreadPool pool(2);
  std::atomic<int> inner_hits{0};
  std::atomic<int> outer_done{0};
  for (int t = 0; t < 4; ++t) {
    pool.Submit([&] {
      pool.ParallelFor(50, [&](size_t) { inner_hits.fetch_add(1); });
      outer_done.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(outer_done.load(), 4);
  EXPECT_EQ(inner_hits.load(), 200);
}

TEST(ThreadPoolTest, NestedParallelFor) {
  ThreadPool pool(3);
  std::atomic<int> hits{0};
  pool.ParallelFor(8, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) { hits.fetch_add(1); });
  });
  EXPECT_EQ(hits.load(), 64);
}

TEST(ThreadPoolTest, ConcurrentParallelForCallers) {
  // Independent threads driving ParallelFor on one shared pool: each
  // call must see exactly its own indices, and nobody may block on
  // another caller's work.
  ThreadPool pool(4);
  constexpr int kCallers = 6;
  constexpr size_t kN = 200;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(kN);
  }
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      pool.ParallelFor(kN, [&, c](size_t i) { hits[c][i].fetch_add(1); });
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[c][i].load(), 1) << "caller " << c << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, SubmitStormFromInsideTasks) {
  // Tasks fanning out more tasks, several levels deep, with a Wait()
  // from the outside racing the expansion.
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::function<void(int)> spawn = [&](int depth) {
    counter.fetch_add(1);
    if (depth == 0) return;
    for (int i = 0; i < 3; ++i) {
      pool.Submit([&spawn, depth] { spawn(depth - 1); });
    }
  };
  for (int i = 0; i < 4; ++i) {
    pool.Submit([&spawn] { spawn(3); });
  }
  pool.Wait();
  // 4 roots, each a 3-ary tree of depth 3: 4 * (1 + 3 + 9 + 27) = 160.
  EXPECT_EQ(counter.load(), 160);
}

TEST(ThreadPoolTest, IsWorkerThreadDistinguishesCallers) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.IsWorkerThread());
  std::atomic<int> inside{-1};
  pool.Submit([&] { inside.store(pool.IsWorkerThread() ? 1 : 0); });
  pool.Wait();
  EXPECT_EQ(inside.load(), 1);
}

#ifndef NDEBUG
TEST(ThreadPoolDeathTest, WaitFromInsideTaskAborts) {
  // Wait() from inside a task would deadlock (the caller counts as
  // active); the POL_DCHECK must turn that into a loud abort instead.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        pool.Submit([&pool] { pool.Wait(); });
        // The destructor drains the queue, so the task runs — and the
        // worker thread hits the precondition check.
      },
      "Wait\\(\\) called from inside a pool task");
}
#endif

TEST(ThreadPoolTest, DestructionDrainsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 20);
}

}  // namespace
}  // namespace pol::flow
