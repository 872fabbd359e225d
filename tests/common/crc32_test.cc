#include "common/crc32.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/rng.h"

namespace pol {
namespace {

// Bit-at-a-time CRC-32 straight from the reflected polynomial: the
// reference both kernels are checked against.
constexpr uint32_t kReflectedPolynomial = 0xedb88320u;

uint32_t ReferenceStep(uint32_t reg, unsigned char byte) {
  reg ^= byte;
  for (int bit = 0; bit < 8; ++bit) {
    reg = (reg >> 1) ^ (kReflectedPolynomial & (0u - (reg & 1u)));
  }
  return reg;
}

uint32_t ReferenceCrc32(std::string_view data, uint32_t seed = 0) {
  uint32_t reg = ~seed;
  for (const char c : data) {
    reg = ReferenceStep(reg, static_cast<unsigned char>(c));
  }
  return ~reg;
}

std::string RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string bytes(n, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.NextUint64() & 0xff);
  return bytes;
}

TEST(Crc32Test, KnownVectors) {
  // Standard CRC-32 (IEEE) test vectors.
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32("a"), 0xe8b7be43u);
  EXPECT_EQ(Crc32("abc"), 0x352441c2u);
  EXPECT_EQ(Crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"),
            0x414fa339u);
  EXPECT_EQ(ReferenceCrc32("123456789"), 0xcbf43926u);
}

TEST(Crc32Test, SeedChainsIncrementally) {
  const std::string data = "patterns of life";
  const uint32_t whole = Crc32(data);
  const uint32_t part1 = Crc32(data.substr(0, 8));
  const uint32_t chained = Crc32(data.substr(8), part1);
  EXPECT_EQ(whole, chained);
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data(256, '\0');
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i);
  const uint32_t original = Crc32(data);
  for (size_t byte : {size_t{0}, size_t{100}, data.size() - 1}) {
    std::string corrupted = data;
    corrupted[byte] = static_cast<char>(corrupted[byte] ^ 0x01);
    EXPECT_NE(Crc32(corrupted), original) << "flip at byte " << byte;
  }
}

TEST(Crc32Test, ChainingAgreesAtEverySplit) {
  // Every split point makes the continuation start at a different
  // word-path phase, so the sliced fast path and the bytewise tail must
  // agree with each other and with the one-shot CRC.
  std::string data(100, '\0');
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i * 37 + 11);
  }
  const uint32_t whole = Crc32(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t head = Crc32(data.substr(0, split));
    EXPECT_EQ(Crc32(data.substr(split), head), whole) << "split " << split;
  }
}

TEST(Crc32Test, BinaryDataWithEmbeddedNulls) {
  const std::string a{"ab\0cd", 5};
  const std::string b{"ab\0ce", 5};
  EXPECT_NE(Crc32(a), Crc32(b));
}

#if defined(__x86_64__)
// x^n mod P for the (unreflected) IEEE polynomial, by shift and reduce.
uint32_t XPowModP(int n) {
  constexpr uint64_t kPolynomial = 0x104c11db7;
  uint64_t r = 1;
  for (int i = 0; i < n; ++i) {
    r <<= 1;
    if ((r >> 32) & 1) r ^= kPolynomial;
  }
  return static_cast<uint32_t>(r);
}

uint64_t ReflectedFoldConstant(int n) {
  const uint32_t r = XPowModP(n);
  uint32_t reflected = 0;
  for (int bit = 0; bit < 32; ++bit) {
    reflected |= ((r >> bit) & 1u) << (31 - bit);
  }
  return uint64_t{reflected} << 1;
}

TEST(Crc32Test, FoldConstantsDeriveFromThePolynomial) {
  EXPECT_EQ(internal::kCrc32Fold512[0], ReflectedFoldConstant(512 + 32));
  EXPECT_EQ(internal::kCrc32Fold512[1], ReflectedFoldConstant(512 - 32));
  EXPECT_EQ(internal::kCrc32Fold128[0], ReflectedFoldConstant(128 + 32));
  EXPECT_EQ(internal::kCrc32Fold128[1], ReflectedFoldConstant(128 - 32));
}
#endif

// The differential suite runs once per kernel, each called directly,
// so the portable path stays under test on hosts that dispatch to the
// accelerated one.
using Kernel = uint32_t (*)(std::string_view, uint32_t);

class Crc32KernelTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    const std::string_view name = GetParam();
    if (name == "portable") {
      kernel_ = internal::Crc32Portable;
      return;
    }
#if defined(__x86_64__)
    if (!internal::Crc32ClmulSupported()) {
      GTEST_SKIP() << "CPU lacks PCLMULQDQ/SSE4.1";
    }
    kernel_ = internal::Crc32Clmul;
#else
    GTEST_SKIP() << "no accelerated kernel on this architecture";
#endif
  }

  Kernel kernel_ = nullptr;
};

TEST_P(Crc32KernelTest, KnownVectors) {
  EXPECT_EQ(kernel_("123456789", 0), 0xcbf43926u);
  const std::string fox = "The quick brown fox jumps over the lazy dog";
  // Long enough for the folding path: the sentence twice.
  EXPECT_EQ(kernel_(fox + fox, 0), ReferenceCrc32(fox + fox));
}

TEST_P(Crc32KernelTest, EveryLengthAtEveryAlignment) {
  constexpr size_t kMaxLength = 1100;
  constexpr size_t kAlignments = 16;
  const std::string buffer = RandomBytes(kMaxLength + kAlignments, 7);
  for (const uint32_t seed : {0u, 0x9e3779b9u}) {
    for (size_t align = 0; align < kAlignments; ++align) {
      const std::string_view base =
          std::string_view(buffer).substr(align, kMaxLength);
      // The reference register after `length` bytes, advanced one byte
      // per length.
      uint32_t reg = ~seed;
      for (size_t length = 0; length <= kMaxLength; ++length) {
        if (length > 0) {
          reg = ReferenceStep(reg,
                              static_cast<unsigned char>(base[length - 1]));
        }
        ASSERT_EQ(kernel_(base.substr(0, length), seed), ~reg)
            << "length " << length << " alignment " << align << " seed "
            << seed;
      }
    }
  }
}

TEST_P(Crc32KernelTest, RandomChainedSplits) {
  const std::string data = RandomBytes(20000, 11);
  const uint32_t whole = ReferenceCrc32(data);
  Rng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    uint32_t crc = 0;
    size_t pos = 0;
    while (pos < data.size()) {
      // Mostly short pieces around the 64-byte cutover, some long ones.
      const size_t limit = rng.NextBelow(4) == 0 ? 4096 : 160;
      const size_t piece = std::min<size_t>(rng.NextBelow(limit + 1),
                                            data.size() - pos);
      crc = kernel_(std::string_view(data).substr(pos, piece), crc);
      pos += piece;
    }
    ASSERT_EQ(crc, whole) << "trial " << trial;
  }
}

TEST_P(Crc32KernelTest, SnapshotSizedBuffer) {
  // A serving snapshot's size plus an odd tail, at an odd offset.
  const std::string buffer = RandomBytes((28u << 20) + 7 + 1, 17);
  const std::string_view data = std::string_view(buffer).substr(1);
  EXPECT_EQ(kernel_(data, 0), ReferenceCrc32(data));
  EXPECT_EQ(kernel_(data, 0), Crc32(data));
}

INSTANTIATE_TEST_SUITE_P(Kernels, Crc32KernelTest,
                         ::testing::Values("portable", "clmul"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace pol
