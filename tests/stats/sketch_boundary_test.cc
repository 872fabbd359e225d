// Boundary tests for the Table 3 sketches' storage: each sketch keeps
// its small state inline and spills to the heap past a fixed count, so
// every transition — inline to spilled, sparse to dense, buffered to
// flushed — and every copy, move and Deserialize across those states
// must leave the distribution and its serialized bytes unchanged.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "common/rng.h"
#include "stats/histogram.h"
#include "stats/hyperloglog.h"
#include "stats/spacesaving.h"
#include "stats/tdigest.h"

namespace pol::stats {
namespace {

template <typename Sketch>
std::string Bytes(const Sketch& sketch) {
  std::string out;
  sketch.Serialize(&out);
  return out;
}

// Deserializes `bytes` into `target` (whatever state it was in) and
// checks the round trip is exact.
template <typename Sketch>
void ReloadInto(Sketch* target, const std::string& bytes) {
  std::string_view input = bytes;
  ASSERT_TRUE(target->Deserialize(&input).ok());
  EXPECT_TRUE(input.empty());
  EXPECT_EQ(Bytes(*target), bytes);
}

// --- HyperLogLog: sparse set inline, spilled, then dense at 257. -------

TEST(SketchBoundaryTest, HyperLogLogDensifiesAt257Hashes) {
  HyperLogLog hll(10);
  for (uint64_t key = 1; key <= 256; ++key) hll.Add(key);
  EXPECT_TRUE(hll.IsSparse());
  EXPECT_EQ(hll.Estimate(), 256.0);
  hll.Add(256);  // A duplicate changes nothing.
  EXPECT_TRUE(hll.IsSparse());
  const std::string sparse_bytes = Bytes(hll);

  hll.Add(257);
  EXPECT_FALSE(hll.IsSparse());
  EXPECT_NEAR(hll.Estimate(), 257.0, 257.0 * 0.1);

  // Dense and sparse states survive copy, move and reload.
  const HyperLogLog copy(hll);
  EXPECT_EQ(Bytes(copy), Bytes(hll));
  HyperLogLog moved(std::move(hll));
  EXPECT_EQ(Bytes(moved), Bytes(copy));
  ReloadInto(&moved, sparse_bytes);  // Dense object reloads sparse bytes.
  EXPECT_TRUE(moved.IsSparse());
  EXPECT_EQ(moved.Estimate(), 256.0);
}

TEST(SketchBoundaryTest, HyperLogLogInlineAndSpilledSetsAgree) {
  // One, two (inline) and three (spilled) hashes; merging in both
  // directions gives the same exact set.
  for (uint64_t n : {1, 2, 3, 40}) {
    HyperLogLog a(10);
    HyperLogLog b(10);
    for (uint64_t key = 0; key < n; ++key) (key % 2 == 0 ? a : b).Add(key);
    HyperLogLog ab = a;
    ab.Merge(b);
    HyperLogLog ba = b;
    ba.Merge(a);
    EXPECT_EQ(ab.Estimate(), static_cast<double>(n));
    EXPECT_EQ(Bytes(ab), Bytes(ba));

    HyperLogLog spilled(10);
    for (uint64_t key = 1000; key < 1100; ++key) spilled.Add(key);
    ReloadInto(&spilled, Bytes(ab));  // Spilled object reloads n hashes.
    EXPECT_EQ(spilled.Estimate(), static_cast<double>(n));
  }
}

// --- TDigest: centroids + buffered points inline, flush at 4x. ---------

TEST(SketchBoundaryTest, TDigestFlushesAt100BufferedPoints) {
  TDigest digest(25.0);  // Flushes when 4 * 25 = 100 points are buffered.
  Rng rng(7);
  for (int i = 0; i < 99; ++i) digest.Add(rng.Uniform(0, 100));
  EXPECT_EQ(digest.BufferedCount(), 99u);
  digest.Add(rng.Uniform(0, 100));
  EXPECT_EQ(digest.BufferedCount(), 0u);
  const size_t centroids = digest.CentroidCount();
  EXPECT_GT(centroids, 2u);
  EXPECT_LT(centroids, 100u);
  EXPECT_EQ(digest.count(), 100u);

  // The next point buffers behind the centroids; a copy carries both.
  digest.Add(50.0);
  EXPECT_EQ(digest.BufferedCount(), 1u);
  const TDigest copy(digest);
  EXPECT_EQ(copy.BufferedCount(), 1u);
  EXPECT_EQ(Bytes(copy), Bytes(digest));
  EXPECT_EQ(copy.Quantile(0.5), digest.Quantile(0.5));
}

TEST(SketchBoundaryTest, TDigestSmallStatesSurviveCopyMoveAndMerge) {
  // One and two points stay inline; three spill.
  for (int n : {1, 2, 3}) {
    TDigest digest(25.0);
    for (int i = 0; i < n; ++i) digest.Add(10.0 * (i + 1));
    const TDigest copy(digest);
    EXPECT_EQ(Bytes(copy), Bytes(digest));
    TDigest moved(std::move(digest));
    EXPECT_EQ(Bytes(moved), Bytes(copy));
    EXPECT_EQ(moved.count(), static_cast<uint64_t>(n));
    EXPECT_EQ(moved.min(), 10.0);
    EXPECT_EQ(moved.max(), 10.0 * n);

    TDigest merged(25.0);
    merged.Add(5.0);
    merged.Merge(copy);
    EXPECT_EQ(merged.count(), static_cast<uint64_t>(n) + 1);
    EXPECT_EQ(merged.BufferedCount(), 0u);
    EXPECT_EQ(merged.min(), 5.0);
  }
}

TEST(SketchBoundaryTest, TDigestDeserializeIntoSpilledDigest) {
  TDigest small(25.0);
  small.Add(3.0);
  const std::string small_bytes = Bytes(small);

  TDigest spilled(25.0);
  for (int i = 0; i < 450; ++i) spilled.Add(i * 0.5);
  ReloadInto(&spilled, small_bytes);
  EXPECT_EQ(spilled.count(), 1u);
  EXPECT_EQ(spilled.BufferedCount(), 0u);
  EXPECT_EQ(spilled.Quantile(0.9), 3.0);
}

TEST(SketchBoundaryTest, TDigestSelfMergeDoublesWeights) {
  TDigest digest(25.0);
  for (int i = 0; i < 5; ++i) digest.Add(i);
  digest.Merge(digest);
  EXPECT_EQ(digest.count(), 10u);
  EXPECT_EQ(digest.Quantile(0.0), 0.0);
  EXPECT_EQ(digest.Quantile(1.0), 4.0);
}

// --- SpaceSaving: one counter inline, evictions at capacity. -----------

TEST(SketchBoundaryTest, SpaceSavingSpillsAndEvictsAtCapacity) {
  SpaceSaving sketch(3);
  sketch.Add(1, 5);
  EXPECT_EQ(sketch.size(), 1u);  // Inline.
  sketch.Add(2, 3);
  sketch.Add(3, 1);  // Spilled, at capacity.
  sketch.Add(4, 1);  // Evicts key 3 (the minimum), inheriting its count.
  EXPECT_EQ(sketch.size(), 3u);
  EXPECT_EQ(sketch.CountOf(3), 0u);
  EXPECT_EQ(sketch.CountOf(4), 2u);
  EXPECT_EQ(sketch.TopN(1)[0].key, 1u);

  const SpaceSaving copy(sketch);
  EXPECT_EQ(Bytes(copy), Bytes(sketch));
  SpaceSaving moved(std::move(sketch));
  EXPECT_EQ(Bytes(moved), Bytes(copy));

  // Merge past capacity trims to the heaviest counters.
  SpaceSaving other(3);
  other.Add(9, 10);
  other.Add(1, 1);
  moved.Merge(other);
  EXPECT_EQ(moved.size(), 3u);
  EXPECT_EQ(moved.TopN(3)[0].key, 9u);
  EXPECT_EQ(moved.CountOf(1), 6u);
  EXPECT_EQ(moved.total(), copy.total() + other.total());

  // Self-merge doubles every counter.
  SpaceSaving self = copy;
  self.Merge(self);
  EXPECT_EQ(self.CountOf(1), 10u);
  EXPECT_EQ(self.total(), 2 * copy.total());
}

TEST(SketchBoundaryTest, SpaceSavingDeserializeIntoSpilledSketch) {
  SpaceSaving one(12);
  one.Add(77, 2);
  SpaceSaving spilled(12);
  for (uint64_t key = 0; key < 40; ++key) spilled.Add(key, key + 1);
  ReloadInto(&spilled, Bytes(one));
  EXPECT_EQ(spilled.size(), 1u);
  EXPECT_EQ(spilled.CountOf(77), 2u);
}

// --- Histogram: 12 bins inline, other configurations spill. ------------

TEST(SketchBoundaryTest, HistogramInlineAndSpilledBins) {
  Histogram degrees = Histogram::ForDegrees30();
  Histogram fine(0.0, 100.0, 40, false);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    degrees.Add(rng.Uniform(0, 360));
    fine.Add(rng.Uniform(-5, 105));
  }
  for (const Histogram* h : {&degrees, &fine}) {
    const Histogram copy(*h);
    EXPECT_EQ(Bytes(copy), Bytes(*h));
    Histogram moved(copy);
    Histogram target = std::move(moved);
    EXPECT_EQ(Bytes(target), Bytes(*h));
    EXPECT_EQ(target.total(), 200u);
  }
  // A 40-bin (spilled) histogram reloads 12-bin bytes, and back.
  Histogram reloaded = fine;
  ReloadInto(&reloaded, Bytes(degrees));
  EXPECT_EQ(reloaded.num_bins(), 12);
  ReloadInto(&reloaded, Bytes(fine));
  EXPECT_EQ(reloaded.num_bins(), 40);
}

}  // namespace
}  // namespace pol::stats
