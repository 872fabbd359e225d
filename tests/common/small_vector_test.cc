#include "common/small_vector.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace pol {
namespace {

using Vec = SmallVector<uint64_t, 2>;

std::vector<uint64_t> Contents(const Vec& v) {
  return std::vector<uint64_t>(v.begin(), v.end());
}

Vec Filled(uint64_t n) {
  Vec v;
  for (uint64_t i = 0; i < n; ++i) v.push_back(10 + i);
  return v;
}

bool IsInline(const Vec& v) { return v.capacity() == 2; }

TEST(SmallVectorTest, LayoutMatchesDocumentedSizes) {
  EXPECT_EQ(sizeof(SmallVector<uint64_t, 2>), sizeof(std::vector<uint64_t>));
  EXPECT_EQ(sizeof(SmallVector<uint8_t, 0>), 16u);
  EXPECT_EQ(sizeof(SmallVector<uint64_t, 12>), 12 * sizeof(uint64_t) + 8);
}

TEST(SmallVectorTest, InlineThenSpillThenShrink) {
  Vec v;
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(IsInline(v));
  v.push_back(1);
  v.push_back(2);
  EXPECT_TRUE(IsInline(v));
  v.push_back(3);  // Past N: spills.
  EXPECT_FALSE(IsInline(v));
  EXPECT_GE(v.capacity(), 3u);
  EXPECT_EQ(Contents(v), (std::vector<uint64_t>{1, 2, 3}));
  for (uint64_t i = 4; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_EQ(v[99], 100u);

  v.resize(5);  // Shrinking the size keeps the heap buffer...
  EXPECT_FALSE(IsInline(v));
  v.shrink_to_fit();  // ...until asked: trimmed to exactly five.
  EXPECT_EQ(v.capacity(), 5u);
  EXPECT_EQ(Contents(v), (std::vector<uint64_t>{1, 2, 3, 4, 5}));

  v.resize(2);
  v.shrink_to_fit();  // Fits inline again: the heap buffer is freed.
  EXPECT_TRUE(IsInline(v));
  EXPECT_EQ(Contents(v), (std::vector<uint64_t>{1, 2}));
  v.clear();
  v.shrink_to_fit();
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(IsInline(v));
}

TEST(SmallVectorTest, InsertKeepsOrderAcrossSpill) {
  Vec v;
  v.insert(v.end(), 30);
  v.insert(v.begin(), 10);
  EXPECT_TRUE(IsInline(v));
  uint64_t* at = v.insert(v.begin() + 1, 20);  // Spills mid-insert.
  EXPECT_EQ(*at, 20u);
  EXPECT_FALSE(IsInline(v));
  v.insert(v.end(), 40);
  EXPECT_EQ(Contents(v), (std::vector<uint64_t>{10, 20, 30, 40}));
}

TEST(SmallVectorTest, PushBackOfOwnElementSurvivesGrowth) {
  Vec v = Filled(2);
  v.push_back(v[0]);  // Reallocates while the argument aliases v.
  v.push_back(v[2]);
  EXPECT_EQ(Contents(v), (std::vector<uint64_t>{10, 11, 10, 10}));
}

TEST(SmallVectorTest, ResizeValueInitializesAndAssignFills) {
  Vec v = Filled(1);
  v.resize(4);
  EXPECT_EQ(Contents(v), (std::vector<uint64_t>{10, 0, 0, 0}));
  v.assign(3, 7);
  EXPECT_EQ(Contents(v), (std::vector<uint64_t>{7, 7, 7}));
  v.assign(1, 9);
  EXPECT_EQ(Contents(v), (std::vector<uint64_t>{9}));
}

TEST(SmallVectorTest, ReserveAllocatesExactly) {
  Vec v = Filled(1);
  v.reserve(2);  // Fits inline: nothing to do.
  EXPECT_TRUE(IsInline(v));
  v.reserve(9);
  EXPECT_EQ(v.capacity(), 9u);
  EXPECT_EQ(Contents(v), (std::vector<uint64_t>{10}));
}

TEST(SmallVectorTest, CopyOfInlineAndSpilledStates) {
  const Vec small = Filled(2);
  const Vec copy_small(small);
  EXPECT_TRUE(IsInline(copy_small));
  EXPECT_EQ(Contents(copy_small), Contents(small));

  Vec big = Filled(20);
  const Vec copy_big(big);
  EXPECT_EQ(copy_big.capacity(), 20u);  // Exactly what it holds.
  EXPECT_NE(copy_big.data(), big.data());
  EXPECT_EQ(Contents(copy_big), Contents(big));

  // A spilled vector that has shrunk to N copies back inline.
  big.resize(2);
  const Vec copy_shrunk(big);
  EXPECT_TRUE(IsInline(copy_shrunk));
  EXPECT_EQ(Contents(copy_shrunk), (std::vector<uint64_t>{10, 11}));
}

TEST(SmallVectorTest, CopyAssignAcrossStates) {
  Vec spilled = Filled(20);
  const uint64_t* buffer = spilled.data();
  const Vec one = Filled(1);
  spilled = one;  // Fits the existing heap buffer: reused.
  EXPECT_EQ(spilled.data(), buffer);
  EXPECT_EQ(Contents(spilled), (std::vector<uint64_t>{10}));

  Vec inline_vec = Filled(1);
  const Vec source = Filled(5);
  inline_vec = source;  // Grows from inline to the heap.
  EXPECT_EQ(Contents(inline_vec), Contents(source));
  EXPECT_EQ(Contents(source), (std::vector<uint64_t>{10, 11, 12, 13, 14}));
}

TEST(SmallVectorTest, MoveOfInlineAndSpilledStates) {
  Vec small = Filled(2);
  Vec moved_small(std::move(small));
  EXPECT_EQ(Contents(moved_small), (std::vector<uint64_t>{10, 11}));
  EXPECT_TRUE(small.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(IsInline(small));

  Vec big = Filled(20);
  const uint64_t* buffer = big.data();
  Vec moved_big(std::move(big));
  EXPECT_EQ(moved_big.data(), buffer);  // The buffer is stolen, not copied.
  EXPECT_EQ(moved_big.size(), 20u);
  EXPECT_TRUE(big.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(IsInline(big));

  // A moved-from vector is reusable, and move-assignment frees the
  // target's previous heap buffer (ASan reports a leak otherwise).
  big.push_back(5);
  Vec target = Filled(30);
  target = std::move(moved_big);
  EXPECT_EQ(target.data(), buffer);
  EXPECT_EQ(target.size(), 20u);
  target = std::move(big);
  EXPECT_EQ(Contents(target), (std::vector<uint64_t>{5}));
  EXPECT_TRUE(IsInline(target));
}

TEST(SmallVectorTest, SelfAssignmentIsANoOp) {
  Vec small = Filled(2);
  Vec big = Filled(20);
  Vec& small_ref = small;
  Vec& big_ref = big;
  small = small_ref;
  big = big_ref;
  EXPECT_EQ(Contents(small), (std::vector<uint64_t>{10, 11}));
  EXPECT_EQ(Contents(big), Contents(Filled(20)));
  small = std::move(small_ref);
  big = std::move(big_ref);
  EXPECT_EQ(Contents(small), (std::vector<uint64_t>{10, 11}));
  EXPECT_EQ(Contents(big), Contents(Filled(20)));
}

TEST(SmallVectorTest, ZeroInlineCapacityIsAHeapVector) {
  SmallVector<uint8_t, 0> v;
  EXPECT_EQ(v.capacity(), 0u);
  v.assign(1024, 3);
  EXPECT_EQ(v.size(), 1024u);
  EXPECT_EQ(v[1023], 3);
  SmallVector<uint8_t, 0> copy(v);
  EXPECT_EQ(copy.size(), 1024u);
  v.clear();
  v.shrink_to_fit();
  EXPECT_EQ(v.capacity(), 0u);
  EXPECT_EQ(copy[0], 3);
}

TEST(SmallVectorTest, HoldsStructsWithMemberInitializers) {
  struct Entry {
    uint64_t key = 1;
    uint64_t count = 2;
  };
  SmallVector<Entry, 1> v;
  v.resize(3);
  EXPECT_EQ(v[2].key, 1u);
  EXPECT_EQ(v[2].count, 2u);
  v.push_back({7, 8});
  const SmallVector<Entry, 1> copy(v);
  EXPECT_EQ(copy.size(), 4u);
  EXPECT_EQ(copy[3].key, 7u);
}

}  // namespace
}  // namespace pol
