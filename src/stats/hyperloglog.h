#ifndef POL_STATS_HYPERLOGLOG_H_
#define POL_STATS_HYPERLOGLOG_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/small_vector.h"
#include "common/status.h"

// Distinct counting — the "Dist" statistic of Table 3 (distinct ships
// and trips per cell).
//
// Two-mode sketch: small cardinalities are kept as an exact sorted set
// of 64-bit hashes (most grid cells see tens to hundreds of vessels, so
// this stays exact and tiny); past a threshold the set is folded into
// dense HyperLogLog registers (Flajolet et al., with linear-counting
// small-range correction). Both modes merge with each other.

namespace pol::stats {

class HyperLogLog {
 public:
  // `precision` in [4, 16]: 2^precision registers once dense; the
  // standard error in dense mode is ~1.04 / sqrt(2^precision).
  explicit HyperLogLog(int precision = 12);

  // Adds a key (already-unique identifier such as an MMSI or trip id).
  void Add(uint64_t key);

  void Merge(const HyperLogLog& other);

  // Estimated number of distinct keys (exact while in sparse mode).
  double Estimate() const;

  // True while the sketch still stores the exact hash set.
  bool IsSparse() const { return dense_.empty(); }

  int precision() const { return precision_; }

  void Serialize(std::string* out) const;
  Status Deserialize(std::string_view* input);

 private:
  // Number of exact hashes kept before switching to dense registers.
  static constexpr size_t kSparseLimit = 256;
  // Sparse hashes held inline: 97% of inventory sketches hold at most
  // two (DESIGN.md "Summary memory layout").
  static constexpr uint32_t kInlineHashes = 2;

  void InsertHash(uint64_t hash);
  void Densify();
  void DenseAdd(uint64_t hash);

  int precision_;
  // Sorted unique hashes (sparse mode).
  SmallVector<uint64_t, kInlineHashes> sparse_;
  SmallVector<uint8_t, 0> dense_;  // 2^precision registers (dense mode).
};

}  // namespace pol::stats

#endif  // POL_STATS_HYPERLOGLOG_H_
