#include "common/crc32.h"

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace pol {
namespace {

constexpr uint32_t kPolynomial = 0xedb88320u;

using Tables = std::array<std::array<uint32_t, 256>, 8>;

// Slice-by-8: table[0] is the classic bytewise table; table[s] maps a
// byte that is s positions further from the end of the message, so
// eight bytes fold into the CRC with eight independent lookups per
// iteration instead of an 8-deep dependency chain. Same polynomial,
// same results — only the schedule changes.
Tables MakeTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (kPolynomial ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = tables[0][i];
    for (size_t s = 1; s < 8; ++s) {
      c = tables[0][c & 0xff] ^ (c >> 8);
      tables[s][i] = c;
    }
  }
  return tables;
}

// Advances the raw CRC register `c` (no pre- or post-inversion) over
// `n` bytes at `p`.
uint32_t UpdateTables(uint32_t c, const unsigned char* p, size_t n) {
  static const Tables kTables = MakeTables();
  const Tables& t = kTables;
  // The word path folds two little-endian u32 loads per step; CRC over
  // a byte stream is endian-agnostic, but the XOR-into-a-load trick is
  // not, so big-endian hosts take the bytewise tail for everything.
  if constexpr (std::endian::native == std::endian::little) {
    while (n >= 8) {
      uint32_t lo;
      uint32_t hi;
      std::memcpy(&lo, p, sizeof(lo));
      std::memcpy(&hi, p + 4, sizeof(hi));
      lo ^= c;
      c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
          t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^ t[3][hi & 0xff] ^
          t[2][(hi >> 8) & 0xff] ^ t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
      p += 8;
      n -= 8;
    }
  }
  while (n-- > 0) {
    c = t[0][(c ^ *p++) & 0xff] ^ (c >> 8);
  }
  return c;
}

const unsigned char* Bytes(std::string_view data) {
  return reinterpret_cast<const unsigned char*>(data.data());
}

#if defined(__x86_64__)
// Carry-less folding after Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ" (Intel, 2009). In the reflected
// bit order a 128-bit lane's low quadword holds its higher-degree
// coefficients. Multiplying it by x^(d+32) mod P and the high quadword
// by x^(d-32) mod P (the 32-bit offsets place the reflected products)
// gives a value congruent to the lane moved d bits forward, which XORs
// into the lane found there.

#define POL_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

POL_CLMUL_TARGET inline __m128i Load(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

POL_CLMUL_TARGET inline __m128i Fold(__m128i lane, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(lane, k, 0x00),
                                     _mm_clmulepi64_si128(lane, k, 0x11)),
                       next);
}

// Requires n >= 64. The last lane and the sub-16-byte tail go through
// the tables: the register after the fold is the CRC, from a zero
// register, of the lane's 16 bytes followed by the tail, so no Barrett
// reduction is needed.
POL_CLMUL_TARGET uint32_t UpdateClmul(uint32_t c, const unsigned char* p,
                                      size_t n) {
  using internal::kCrc32Fold128;
  using internal::kCrc32Fold512;
  const __m128i k512 =
      _mm_set_epi64x(static_cast<long long>(kCrc32Fold512[1]),
                     static_cast<long long>(kCrc32Fold512[0]));
  const __m128i k128 =
      _mm_set_epi64x(static_cast<long long>(kCrc32Fold128[1]),
                     static_cast<long long>(kCrc32Fold128[0]));
  __m128i x0 = _mm_xor_si128(Load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = Load(p + 16);
  __m128i x2 = Load(p + 32);
  __m128i x3 = Load(p + 48);
  p += 64;
  n -= 64;
  while (n >= 64) {
    x0 = Fold(x0, k512, Load(p));
    x1 = Fold(x1, k512, Load(p + 16));
    x2 = Fold(x2, k512, Load(p + 32));
    x3 = Fold(x3, k512, Load(p + 48));
    p += 64;
    n -= 64;
  }
  x0 = Fold(x0, k128, x1);
  x0 = Fold(x0, k128, x2);
  x0 = Fold(x0, k128, x3);
  while (n >= 16) {
    x0 = Fold(x0, k128, Load(p));
    p += 16;
    n -= 16;
  }
  unsigned char lane[16];
  _mm_storeu_si128(reinterpret_cast<__m128i*>(lane), x0);
  return UpdateTables(UpdateTables(0, lane, sizeof(lane)), p, n);
}

#undef POL_CLMUL_TARGET
#endif

}  // namespace

namespace internal {

uint32_t Crc32Portable(std::string_view data, uint32_t seed) {
  return UpdateTables(seed ^ 0xffffffffu, Bytes(data), data.size()) ^
         0xffffffffu;
}

#if defined(__x86_64__)
bool Crc32ClmulSupported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

uint32_t Crc32Clmul(std::string_view data, uint32_t seed) {
  if (data.size() < 64) return Crc32Portable(data, seed);
  return UpdateClmul(seed ^ 0xffffffffu, Bytes(data), data.size()) ^
         0xffffffffu;
}
#endif

}  // namespace internal

uint32_t Crc32(std::string_view data, uint32_t seed) {
#if defined(__x86_64__)
  static const bool kClmul = internal::Crc32ClmulSupported();
  if (kClmul) return internal::Crc32Clmul(data, seed);
#endif
  return internal::Crc32Portable(data, seed);
}

}  // namespace pol
