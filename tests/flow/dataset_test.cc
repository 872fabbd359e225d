#include "flow/dataset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>

#include "common/rng.h"

namespace pol::flow {
namespace {

std::vector<int> Iota(int n) {
  std::vector<int> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

TEST(DatasetTest, FromVectorPreservesAllElements) {
  ThreadPool pool(4);
  const auto ds = Dataset<int>::FromVector(Iota(100), 7, &pool);
  EXPECT_EQ(ds.num_partitions(), 7);
  EXPECT_EQ(ds.Count(), 100u);
  const auto collected = ds.Collect();
  EXPECT_EQ(collected, Iota(100));  // Chunked split keeps global order.
}

TEST(DatasetTest, MorePartitionsThanElements) {
  // Regression: the partition count must be exactly what was asked for,
  // even when it exceeds the element count — the excess partitions are
  // empty, not dropped, so downstream per-partition plumbing (chunk
  // splitting, partition-indexed merges) never sees a surprise shape.
  ThreadPool pool(2);
  const auto ds = Dataset<int>::FromVector({1, 2, 3}, 10, &pool);
  EXPECT_EQ(ds.num_partitions(), 10);
  EXPECT_EQ(ds.Count(), 3u);
  EXPECT_EQ(ds.Collect(), (std::vector<int>{1, 2, 3}));
  size_t non_empty = 0;
  for (int p = 0; p < ds.num_partitions(); ++p) {
    EXPECT_LE(ds.partition(p).size(), 1u) << p;
    non_empty += ds.partition(p).empty() ? 0 : 1;
  }
  EXPECT_EQ(non_empty, 3u);
}

TEST(DatasetTest, FromVectorSplitIsBalanced) {
  // Partition sizes differ by at most one for every (n, p) combination,
  // and the requested partition count always holds.
  ThreadPool pool(2);
  for (const int n : {0, 1, 5, 17, 100}) {
    for (const int p : {1, 2, 3, 7, 16, 101}) {
      const auto ds = Dataset<int>::FromVector(Iota(n), p, &pool);
      ASSERT_EQ(ds.num_partitions(), p) << "n=" << n;
      size_t min_size = SIZE_MAX;
      size_t max_size = 0;
      for (int i = 0; i < p; ++i) {
        min_size = std::min(min_size, ds.partition(i).size());
        max_size = std::max(max_size, ds.partition(i).size());
      }
      EXPECT_LE(max_size - min_size, 1u) << "n=" << n << " p=" << p;
      EXPECT_EQ(ds.Collect(), Iota(n)) << "n=" << n << " p=" << p;
    }
  }
}

TEST(DatasetTest, SplitIntoChunksPreservesPartitionOrder) {
  ThreadPool pool(2);
  for (const int chunks : {1, 2, 3, 5, 7}) {
    auto ds = Dataset<int>::FromVector(Iota(100), 7, &pool);
    const auto split = std::move(ds).SplitIntoChunks(chunks);
    ASSERT_EQ(split.size(), static_cast<size_t>(chunks));
    // Concatenating the chunks' partition lists reproduces the original
    // dataset's partition list, in order.
    std::vector<int> reassembled;
    int total_partitions = 0;
    for (const auto& chunk : split) {
      EXPECT_GE(chunk.num_partitions(), 1);
      const auto collected = chunk.Collect();
      reassembled.insert(reassembled.end(), collected.begin(),
                         collected.end());
      for (int p = 0; p < chunk.num_partitions(); ++p) {
        if (!chunk.partition(p).empty()) ++total_partitions;
      }
    }
    EXPECT_EQ(reassembled, Iota(100)) << chunks;
    EXPECT_EQ(total_partitions, 7) << chunks;
  }
}

TEST(DatasetTest, SplitIntoMoreChunksThanPartitions) {
  ThreadPool pool(2);
  auto ds = Dataset<int>::FromVector(Iota(10), 3, &pool);
  const auto split = std::move(ds).SplitIntoChunks(5);
  ASSERT_EQ(split.size(), 5u);
  size_t total = 0;
  for (const auto& chunk : split) {
    EXPECT_GE(chunk.num_partitions(), 1);  // Placeholder partitions OK.
    total += chunk.Count();
  }
  EXPECT_EQ(total, 10u);
}

TEST(DatasetTest, EmptyDataset) {
  ThreadPool pool(2);
  const auto ds = Dataset<int>::FromVector({}, 4, &pool);
  EXPECT_EQ(ds.Count(), 0u);
  EXPECT_TRUE(ds.Collect().empty());
  EXPECT_EQ(ds.Filter([](const int&) { return true; }).Count(), 0u);
}

TEST(DatasetTest, FilterKeepsMatching) {
  ThreadPool pool(4);
  const auto ds = Dataset<int>::FromVector(Iota(100), 5, &pool);
  const auto evens = ds.Filter([](const int& x) { return x % 2 == 0; });
  EXPECT_EQ(evens.Count(), 50u);
  for (const int x : evens.Collect()) EXPECT_EQ(x % 2, 0);
}

TEST(DatasetTest, MapPartitionsSeesWholePartition) {
  ThreadPool pool(2);
  const auto ds = Dataset<int>::FromVector(Iota(10), 2, &pool);
  // Emit one element per partition: its size.
  const auto sizes = ds.MapPartitions([](const std::vector<int>& part) {
    return std::vector<size_t>{part.size()};
  });
  const auto collected = sizes.Collect();
  ASSERT_EQ(collected.size(), 2u);
  EXPECT_EQ(collected[0] + collected[1], 10u);
}

TEST(DatasetTest, PartitionByKeyGroupsEqualKeys) {
  ThreadPool pool(4);
  const auto ds = Dataset<int>::FromVector(Iota(1000), 8, &pool);
  const auto shuffled =
      ds.PartitionByKey([](const int& x) { return x % 13; }, 5);
  EXPECT_EQ(shuffled.Count(), 1000u);
  EXPECT_EQ(shuffled.num_partitions(), 5);
  // Every residue class must live in exactly one partition.
  for (int residue = 0; residue < 13; ++residue) {
    std::set<int> partitions_seen;
    for (int p = 0; p < shuffled.num_partitions(); ++p) {
      for (const int x : shuffled.partition(p)) {
        if (x % 13 == residue) partitions_seen.insert(p);
      }
    }
    EXPECT_EQ(partitions_seen.size(), 1u) << "residue " << residue;
  }
}

TEST(DatasetTest, SortWithinPartitionsOrdersEachPartition) {
  ThreadPool pool(4);
  Rng rng(5);
  std::vector<int> data;
  for (int i = 0; i < 500; ++i) {
    data.push_back(static_cast<int>(rng.NextBelow(10000)));
  }
  const auto ds = Dataset<int>::FromVector(std::move(data), 6, &pool);
  const auto sorted = ds.SortWithinPartitions(std::less<int>());
  for (int p = 0; p < sorted.num_partitions(); ++p) {
    const auto& part = sorted.partition(p);
    EXPECT_TRUE(std::is_sorted(part.begin(), part.end())) << p;
  }
  EXPECT_EQ(sorted.Count(), 500u);
}

TEST(DatasetTest, ChainedPipeline) {
  // A miniature of the paper's flow: shuffle by key, sort, per-partition
  // scan.
  ThreadPool pool(4);
  Rng rng(31);
  struct Ping {
    int vessel;
    int time;
  };
  std::vector<Ping> pings;
  for (int i = 0; i < 3000; ++i) {
    pings.push_back({static_cast<int>(rng.NextBelow(20)),
                     static_cast<int>(rng.NextBelow(100000))});
  }
  const auto by_vessel =
      Dataset<Ping>::FromVector(std::move(pings), 8, &pool)
          .PartitionByKey([](const Ping& p) { return p.vessel; }, 8)
          .SortWithinPartitions([](const Ping& a, const Ping& b) {
            if (a.vessel != b.vessel) return a.vessel < b.vessel;
            return a.time < b.time;
          });
  // Within every partition, each vessel's pings must now be contiguous
  // and time-ordered.
  for (int p = 0; p < by_vessel.num_partitions(); ++p) {
    const auto& part = by_vessel.partition(p);
    for (size_t i = 1; i < part.size(); ++i) {
      if (part[i].vessel == part[i - 1].vessel) {
        EXPECT_LE(part[i - 1].time, part[i].time);
      }
    }
    std::set<int> seen;
    int current = -1;
    for (const Ping& ping : part) {
      if (ping.vessel != current) {
        EXPECT_TRUE(seen.insert(ping.vessel).second)
            << "vessel " << ping.vessel << " not contiguous";
        current = ping.vessel;
      }
    }
  }
  EXPECT_EQ(by_vessel.Count(), 3000u);
}

}  // namespace
}  // namespace pol::flow
