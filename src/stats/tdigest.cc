#include "stats/tdigest.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>

#include "common/logging.h"
#include "common/varint.h"

namespace pol::stats {
namespace {

constexpr double kPi = 3.14159265358979323846;

// The k1 scale function: k(q) = (compression / 2pi) * asin(2q - 1).
// Centroids may only merge while their k-span stays below 1, which
// concentrates resolution in the tails.
double ScaleK(double q, double compression) {
  return compression / (2.0 * kPi) * std::asin(2.0 * std::clamp(q, 0.0, 1.0) - 1.0);
}

}  // namespace

TDigest::TDigest(double compression)
    : compression_(std::max(20.0, compression)) {}

void TDigest::Add(double value, uint64_t weight) {
  if (weight == 0 || std::isnan(value)) return;
  if (count() == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  points_.push_back({value, weight});
  buffered_weight_ += weight;
  if (BufferedCount() >= static_cast<size_t>(compression_) * 4) Flush();
}

void TDigest::Merge(const TDigest& other) {
  if (other.count() == 0) return;
  if (count() == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  // Other's centroids then its buffered points, all buffered here. By
  // index: `other` may be this digest, whose storage grows meanwhile.
  const size_t n = other.points_.size();
  for (size_t i = 0; i < n; ++i) {
    const Centroid c = other.points_[i];
    points_.push_back(c);
    buffered_weight_ += c.weight;
  }
  Flush();
}

double TDigest::min() const { return count() == 0 ? 0.0 : min_; }
double TDigest::max() const { return count() == 0 ? 0.0 : max_; }

void TDigest::Flush() const {
  if (points_.size() == num_centroids_) return;
  std::sort(points_.begin(), points_.end(),
            [](const Centroid& a, const Centroid& b) { return a.mean < b.mean; });
  total_weight_ += buffered_weight_;
  buffered_weight_ = 0;

  // Compress in place: the write position trails the read position, so
  // every point is read before its slot is reused.
  const double total = static_cast<double>(total_weight_);
  size_t out = 0;
  Centroid current = points_[0];
  double weight_so_far = 0.0;
  double k_lower = ScaleK(0.0, compression_);
  for (size_t i = 1; i < points_.size(); ++i) {
    const Centroid next = points_[i];
    const double proposed = static_cast<double>(current.weight + next.weight);
    const double q_upper = (weight_so_far + proposed) / total;
    if (ScaleK(q_upper, compression_) - k_lower <= 1.0) {
      // Merge into the current centroid (weighted mean).
      const double w_cur = static_cast<double>(current.weight);
      const double w_new = static_cast<double>(next.weight);
      current.mean = (current.mean * w_cur + next.mean * w_new) / (w_cur + w_new);
      current.weight += next.weight;
    } else {
      points_[out++] = current;
      weight_so_far += static_cast<double>(current.weight);
      k_lower = ScaleK(weight_so_far / total, compression_);
      current = next;
    }
  }
  points_[out++] = current;
  points_.resize(out);
  num_centroids_ = static_cast<uint32_t>(out);
}

size_t TDigest::CentroidCount() const {
  Flush();
  return num_centroids_;
}

double TDigest::Quantile(double q) const {
  if (count() == 0) return 0.0;
  Flush();
  q = std::clamp(q, 0.0, 1.0);
  const double total = static_cast<double>(total_weight_);
  const double target = q * total;

  // Cumulative weight at each centroid's midpoint; linear interpolation
  // between midpoints, and between min/max and the extreme centroids.
  double cumulative = 0.0;
  double prev_midpoint = 0.0;
  double prev_mean = min_;
  for (size_t i = 0; i < points_.size(); ++i) {
    const double w = static_cast<double>(points_[i].weight);
    const double midpoint = cumulative + w / 2.0;
    if (target < midpoint) {
      const double span = midpoint - prev_midpoint;
      if (span <= 0.0) return points_[i].mean;
      const double t = (target - prev_midpoint) / span;
      return prev_mean + t * (points_[i].mean - prev_mean);
    }
    prev_midpoint = midpoint;
    prev_mean = points_[i].mean;
    cumulative += w;
  }
  // Beyond the last midpoint: interpolate toward the maximum.
  const double span = total - prev_midpoint;
  if (span <= 0.0) return max_;
  const double t = (target - prev_midpoint) / span;
  return prev_mean + std::clamp(t, 0.0, 1.0) * (max_ - prev_mean);
}

double TDigest::Rank(double value) const {
  if (count() == 0) return 0.0;
  Flush();
  if (value <= min_) return 0.0;
  if (value >= max_) return 1.0;
  const double total = static_cast<double>(total_weight_);
  double cumulative = 0.0;
  double prev_midpoint = 0.0;
  double prev_mean = min_;
  for (size_t i = 0; i < points_.size(); ++i) {
    const double w = static_cast<double>(points_[i].weight);
    const double midpoint = cumulative + w / 2.0;
    if (value < points_[i].mean) {
      const double span = points_[i].mean - prev_mean;
      const double t = span <= 0.0 ? 0.0 : (value - prev_mean) / span;
      return (prev_midpoint + t * (midpoint - prev_midpoint)) / total;
    }
    prev_midpoint = midpoint;
    prev_mean = points_[i].mean;
    cumulative += w;
  }
  const double span = max_ - prev_mean;
  const double t = span <= 0.0 ? 1.0 : (value - prev_mean) / span;
  return (prev_midpoint + t * (total - prev_midpoint)) / total;
}

void TDigest::Serialize(std::string* out) const {
  Flush();
  PutDouble(out, compression_);
  PutVarint64(out, num_centroids_);
  if (num_centroids_ == 0) return;
  PutDouble(out, min_);
  PutDouble(out, max_);
  for (const Centroid& c : points_) {
    PutDouble(out, c.mean);
    PutVarint64(out, c.weight);
  }
}

Status TDigest::Deserialize(std::string_view* input) {
  double compression = 0.0;
  POL_RETURN_IF_ERROR(GetDouble(input, &compression));
  if (!(compression >= 20.0 && compression <= 1e6)) {
    return Status::Corruption("bad t-digest compression");
  }
  uint64_t n = 0;
  POL_RETURN_IF_ERROR(GetVarint64(input, &n));
  if (n > 1000000) return Status::Corruption("bad t-digest size");
  *this = TDigest(compression);
  if (n == 0) return Status::OK();
  POL_RETURN_IF_ERROR(GetDouble(input, &min_));
  POL_RETURN_IF_ERROR(GetDouble(input, &max_));
  points_.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Centroid c{};
    POL_RETURN_IF_ERROR(GetDouble(input, &c.mean));
    POL_RETURN_IF_ERROR(GetVarint64(input, &c.weight));
    if (c.weight == 0) return Status::Corruption("zero-weight centroid");
    points_.push_back(c);
    ++num_centroids_;
    total_weight_ += c.weight;
  }
  return Status::OK();
}

}  // namespace pol::stats
