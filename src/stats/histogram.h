#ifndef POL_STATS_HISTOGRAM_H_
#define POL_STATS_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/small_vector.h"
#include "common/status.h"

// Fixed-width binned counters — the "Bins" statistic of Table 3. The
// paper splits course and heading into 30-degree bins; the class is
// generic over any [lo, hi) range. A wrapping histogram folds values
// modulo the range (for angles); a clamping one counts out-of-range
// values in the edge bins.

namespace pol::stats {

class Histogram {
 public:
  // Creates `num_bins` equal bins over [lo, hi). `wrap` selects modular
  // folding (angles) vs clamping. num_bins must be >= 1 and hi > lo.
  Histogram(double lo, double hi, int num_bins, bool wrap);

  // A 12-bin wrapping histogram over [0, 360): the paper's course /
  // heading configuration.
  static Histogram ForDegrees30() { return Histogram(0.0, 360.0, 12, true); }

  void Add(double value);

  // Merge requires identical bin configuration; returns
  // FailedPrecondition otherwise.
  Status Merge(const Histogram& other);

  uint64_t total() const { return total_; }
  int num_bins() const { return static_cast<int>(counts_.size()); }
  uint64_t bin_count(int bin) const {
    return counts_[static_cast<size_t>(bin)];
  }
  // Inclusive-exclusive bounds of a bin.
  double bin_lo(int bin) const { return lo_ + bin * width_; }
  double bin_hi(int bin) const { return lo_ + (bin + 1) * width_; }

  // Index of the bin a value falls into.
  int BinOf(double value) const;

  // Bin with the highest count (lowest index wins ties); -1 when empty.
  int ModeBin() const;

  // Fraction of observations in `bin`; 0 when empty.
  double Fraction(int bin) const;

  void Serialize(std::string* out) const;
  Status Deserialize(std::string_view* input);

 private:
  // Bins held inline: the paper's 30-degree course/heading histograms.
  static constexpr uint32_t kInlineBins = 12;

  double lo_;
  double hi_;
  double width_;
  bool wrap_;
  uint64_t total_ = 0;
  SmallVector<uint64_t, kInlineBins> counts_;
};

}  // namespace pol::stats

#endif  // POL_STATS_HISTOGRAM_H_
