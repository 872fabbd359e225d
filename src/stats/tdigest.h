#ifndef POL_STATS_TDIGEST_H_
#define POL_STATS_TDIGEST_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/small_vector.h"
#include "common/status.h"

// Merging t-digest (Dunning & Ertl) — the approximate-percentile sketch
// behind the Perc. column of Table 3 (10th / 50th / 90th percentiles of
// speed, ETO and ATA per cell). Mergeable, bounded memory (~compression
// centroids), most accurate in the tails.

namespace pol::stats {

class TDigest {
 public:
  // `compression` bounds the number of centroids (~2x compression) and
  // controls accuracy; 100 gives roughly 1% worst-case quantile error.
  explicit TDigest(double compression = 100.0);

  void Add(double value, uint64_t weight = 1);
  void Merge(const TDigest& other);

  uint64_t count() const { return total_weight_ + buffered_weight_; }
  double min() const;
  double max() const;

  // Approximate value at quantile q in [0, 1]. Returns 0 when empty.
  double Quantile(double q) const;

  // Approximate fraction of observations <= value. Returns 0 when empty.
  double Rank(double value) const;

  void Serialize(std::string* out) const;
  Status Deserialize(std::string_view* input);

  // Number of stored centroids after flushing (for tests/inspection).
  size_t CentroidCount() const;

  // Points added or merged in since the last flush (for tests and
  // inspection; does not flush).
  size_t BufferedCount() const { return points_.size() - num_centroids_; }

 private:
  struct Centroid {
    double mean;
    uint64_t weight;
  };

  // Centroids plus buffered points held inline: 96% of inventory
  // digests hold at most two (DESIGN.md "Summary memory layout").
  static constexpr uint32_t kInlinePoints = 2;

  // Folds buffered points into the centroid list. Logically const:
  // flushing changes the representation, not the distribution.
  void Flush() const;

  double compression_;
  // The centroids, sorted by mean, followed by the points buffered
  // since the last flush. Flush sorts the whole run in place and
  // compresses it back into centroids, so it needs no scratch buffer.
  mutable SmallVector<Centroid, kInlinePoints> points_;
  mutable uint32_t num_centroids_ = 0;    // Leading centroids in points_.
  mutable uint64_t total_weight_ = 0;     // Weight in the centroids.
  mutable uint64_t buffered_weight_ = 0;  // Weight in the buffered points.
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace pol::stats

#endif  // POL_STATS_TDIGEST_H_
