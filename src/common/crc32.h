#ifndef POL_COMMON_CRC32_H_
#define POL_COMMON_CRC32_H_

#include <cstdint>
#include <string_view>

// CRC-32 (IEEE 802.3 polynomial, reflected). Used to checksum inventory
// file blocks so corruption is detected on load.
//
// Two kernels compute the same value. On x86_64 hosts with PCLMULQDQ,
// inputs of 64 bytes and more fold four 128-bit lanes by carry-less
// multiplication; everything else runs the portable slice-by-8 tables.
// Over a sealed 27 MB snapshot on a shared 4-vCPU x86_64 host
// (bench_snapshot_store) the folding kernel reads 12-15 GB/s (~2 ms)
// from cache and ~5.5 GB/s (~5 ms, a plain read's speed) when the
// image comes from memory; slice-by-8 reads 1.5-1.9 GB/s (14-18 ms)
// either way. The kernel is chosen once per process from the CPU's feature
// bits.

namespace pol {

// Computes the CRC of `data`, optionally continuing from a prior value.
uint32_t Crc32(std::string_view data, uint32_t seed = 0);

namespace internal {

// The kernels behind Crc32, exposed so tests can check each against a
// reference on the same host; callers use Crc32.
uint32_t Crc32Portable(std::string_view data, uint32_t seed);

#if defined(__x86_64__)
// PCLMULQDQ fold multipliers: bit-reflected (x^n mod P) << 1 for the
// IEEE polynomial P, n = 512 + 32 and 512 - 32 (four lanes forward by
// 512 bits), then n = 128 + 32 and 128 - 32 (one lane by 128 bits).
inline constexpr uint64_t kCrc32Fold512[2] = {0x154442bd4, 0x1c6e41596};
inline constexpr uint64_t kCrc32Fold128[2] = {0x1751997d0, 0x0ccaa009e};

// True when this CPU runs Crc32Clmul (PCLMULQDQ and SSE4.1).
bool Crc32ClmulSupported();
// The folding kernel; inputs under 64 bytes take the portable kernel.
// Requires Crc32ClmulSupported().
uint32_t Crc32Clmul(std::string_view data, uint32_t seed);
#endif

}  // namespace internal
}  // namespace pol

#endif  // POL_COMMON_CRC32_H_
