#ifndef POL_STATS_SPACESAVING_H_
#define POL_STATS_SPACESAVING_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/small_vector.h"
#include "common/status.h"

// Top-N heavy hitters (SpaceSaving, Metwally et al.) — the "Top-N"
// statistic of Table 3: most frequent origin ports, destination ports
// and cell-to-cell transitions per cell.
//
// The sketch keeps at most `capacity` keyed counters. Any key whose true
// frequency exceeds total/capacity is guaranteed to be present; reported
// counts overestimate the truth by at most the counter's `error` field.
// Merging unions the counters and trims back to capacity, which keeps
// the heavy-hitter guarantee when capacity is a few times the queried N.

namespace pol::stats {

class SpaceSaving {
 public:
  struct Entry {
    uint64_t key = 0;
    uint64_t count = 0;  // Upper bound on the true frequency.
    uint64_t error = 0;  // count - error is a lower bound.
  };

  // `capacity` >= 1; use ~4x the largest N you intend to query.
  explicit SpaceSaving(size_t capacity = 32);

  void Add(uint64_t key, uint64_t increment = 1);
  void Merge(const SpaceSaving& other);

  // The top `n` entries by count (descending; ties broken by key). The
  // result has min(n, stored entries) elements.
  std::vector<Entry> TopN(size_t n) const;

  // Count upper bound for a key; 0 when not tracked.
  uint64_t CountOf(uint64_t key) const;

  // All tracked keys in deterministic (count desc, key asc) order.
  std::vector<Entry> Entries() const { return TopN(capacity_); }

  uint64_t total() const { return total_; }
  size_t capacity() const { return capacity_; }
  size_t size() const { return entries_.size(); }

  void Serialize(std::string* out) const;
  Status Deserialize(std::string_view* input);

 private:
  // Counters held inline: 90% of inventory sketches track one key
  // (DESIGN.md "Summary memory layout").
  static constexpr uint32_t kInlineEntries = 1;

  // Index of the minimum-count entry.
  size_t MinIndex() const;

  size_t capacity_;
  uint64_t total_ = 0;  // Total increments observed.
  // Unordered; linear scans (capacity is small).
  SmallVector<Entry, kInlineEntries> entries_;
};

}  // namespace pol::stats

#endif  // POL_STATS_SPACESAVING_H_
