#include "stats/hyperloglog.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <string_view>

#include "common/check.h"
#include "common/rng.h"
#include "common/varint.h"

namespace pol::stats {
namespace {

uint64_t HashKey(uint64_t key) {
  uint64_t state = key;
  return SplitMix64(state);
}

double AlphaM(size_t m) {
  switch (m) {
    case 16:
      return 0.673;
    case 32:
      return 0.697;
    case 64:
      return 0.709;
    default:
      return 0.7213 / (1.0 + 1.079 / static_cast<double>(m));
  }
}

}  // namespace

HyperLogLog::HyperLogLog(int precision)
    : precision_(std::clamp(precision, 4, 16)) {}

void HyperLogLog::Add(uint64_t key) { InsertHash(HashKey(key)); }

void HyperLogLog::InsertHash(uint64_t hash) {
  if (!dense_.empty()) {
    DenseAdd(hash);
    return;
  }
  const auto it = std::lower_bound(sparse_.begin(), sparse_.end(), hash);
  if (it != sparse_.end() && *it == hash) return;
  sparse_.insert(it, hash);
  if (sparse_.size() > kSparseLimit) Densify();
}

void HyperLogLog::Densify() {
  dense_.assign(size_t{1} << precision_, 0);
  for (const uint64_t hash : sparse_) DenseAdd(hash);
  sparse_.clear();
  sparse_.shrink_to_fit();
}

void HyperLogLog::DenseAdd(uint64_t hash) {
  const size_t index = static_cast<size_t>(hash >> (64 - precision_));
  const uint64_t remaining = hash << precision_;
  // Rank of the leftmost 1-bit in the remaining 64-precision bits, 1-based.
  const int rank =
      remaining == 0 ? (64 - precision_ + 1) : (__builtin_clzll(remaining) + 1);
  if (static_cast<uint8_t>(rank) > dense_[index]) {
    dense_[index] = static_cast<uint8_t>(rank);
  }
}

void HyperLogLog::Merge(const HyperLogLog& other) {
  POL_CHECK(other.precision_ == precision_)
      << "merging HyperLogLogs of different precision";
  if (other.IsSparse()) {
    for (const uint64_t hash : other.sparse_) InsertHash(hash);
    return;
  }
  if (IsSparse()) Densify();
  for (size_t i = 0; i < dense_.size(); ++i) {
    dense_[i] = std::max(dense_[i], other.dense_[i]);
  }
}

double HyperLogLog::Estimate() const {
  if (IsSparse()) return static_cast<double>(sparse_.size());
  const size_t m = dense_.size();
  double inverse_sum = 0.0;
  size_t zero_registers = 0;
  for (const uint8_t reg : dense_) {
    inverse_sum += std::ldexp(1.0, -static_cast<int>(reg));
    if (reg == 0) ++zero_registers;
  }
  const double raw =
      AlphaM(m) * static_cast<double>(m) * static_cast<double>(m) / inverse_sum;
  // Small-range correction: linear counting while any register is empty.
  if (raw <= 2.5 * static_cast<double>(m) && zero_registers > 0) {
    return static_cast<double>(m) *
           std::log(static_cast<double>(m) / static_cast<double>(zero_registers));
  }
  return raw;
}

void HyperLogLog::Serialize(std::string* out) const {
  PutVarint64(out, static_cast<uint64_t>(precision_));
  PutVarint64(out, IsSparse() ? 0 : 1);
  if (IsSparse()) {
    PutVarint64(out, sparse_.size());
    uint64_t prev = 0;
    for (const uint64_t hash : sparse_) {
      PutVarint64(out, hash - prev);  // Delta coding (sorted).
      prev = hash;
    }
  } else {
    out->append(reinterpret_cast<const char*>(dense_.data()), dense_.size());
  }
}

Status HyperLogLog::Deserialize(std::string_view* input) {
  uint64_t precision = 0;
  uint64_t mode = 0;
  POL_RETURN_IF_ERROR(GetVarint64(input, &precision));
  if (precision < 4 || precision > 16) {
    return Status::Corruption("bad HyperLogLog precision");
  }
  POL_RETURN_IF_ERROR(GetVarint64(input, &mode));
  *this = HyperLogLog(static_cast<int>(precision));
  if (mode == 0) {
    uint64_t n = 0;
    POL_RETURN_IF_ERROR(GetVarint64(input, &n));
    if (n > kSparseLimit) return Status::Corruption("sparse set too large");
    sparse_.reserve(n);
    uint64_t prev = 0;
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t delta = 0;
      POL_RETURN_IF_ERROR(GetVarint64(input, &delta));
      if (i > 0 && delta == 0) return Status::Corruption("duplicate hash");
      prev += delta;
      sparse_.push_back(prev);
    }
  } else {
    const size_t m = size_t{1} << precision;
    if (input->size() < m) return Status::Corruption("truncated registers");
    dense_.resize(m);
    std::memcpy(dense_.data(), input->data(), m);
    input->remove_prefix(m);
    for (const uint8_t reg : dense_) {
      if (reg > 64) return Status::Corruption("bad register value");
    }
  }
  return Status::OK();
}

}  // namespace pol::stats
