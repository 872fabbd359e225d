#include "stats/spacesaving.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "common/varint.h"

namespace pol::stats {
namespace {

// Serialize sorts a copy of the counters on the stack; sketches up to
// the default capacity need no heap for it.
constexpr uint32_t kSerializeInline = 32;

bool OrderByCountDesc(const SpaceSaving::Entry& a,
                      const SpaceSaving::Entry& b) {
  if (a.count != b.count) return a.count > b.count;
  return a.key < b.key;
}

}  // namespace

SpaceSaving::SpaceSaving(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {}

void SpaceSaving::Add(uint64_t key, uint64_t increment) {
  if (increment == 0) return;
  total_ += increment;
  for (Entry& e : entries_) {
    if (e.key == key) {
      e.count += increment;
      return;
    }
  }
  if (entries_.size() < capacity_) {
    entries_.push_back({key, increment, 0});
    return;
  }
  // Evict the minimum: the newcomer inherits its count as error bound.
  Entry& victim = entries_[MinIndex()];
  const uint64_t inherited = victim.count;
  victim = Entry{key, inherited + increment, inherited};
}

size_t SpaceSaving::MinIndex() const {
  size_t best = 0;
  for (size_t i = 1; i < entries_.size(); ++i) {
    if (entries_[i].count < entries_[best].count ||
        (entries_[i].count == entries_[best].count &&
         entries_[i].key > entries_[best].key)) {
      best = i;
    }
  }
  return best;
}

void SpaceSaving::Merge(const SpaceSaving& other) {
  total_ += other.total_;
  // Union with count/error sums for common keys, in place. By index:
  // `other` may be this sketch, whose storage grows meanwhile.
  const size_t n = other.entries_.size();
  for (size_t i = 0; i < n; ++i) {
    const Entry oe = other.entries_[i];
    bool found = false;
    for (Entry& e : entries_) {
      if (e.key == oe.key) {
        e.count += oe.count;
        e.error += oe.error;
        found = true;
        break;
      }
    }
    if (!found) entries_.push_back(oe);
  }
  if (entries_.size() > capacity_) {
    std::sort(entries_.begin(), entries_.end(), OrderByCountDesc);
    entries_.resize(capacity_);
  }
}

std::vector<SpaceSaving::Entry> SpaceSaving::TopN(size_t n) const {
  std::vector<Entry> sorted(entries_.begin(), entries_.end());
  std::sort(sorted.begin(), sorted.end(), OrderByCountDesc);
  if (sorted.size() > n) sorted.resize(n);
  return sorted;
}

uint64_t SpaceSaving::CountOf(uint64_t key) const {
  for (const Entry& e : entries_) {
    if (e.key == key) return e.count;
  }
  return 0;
}

void SpaceSaving::Serialize(std::string* out) const {
  PutVarint64(out, capacity_);
  PutVarint64(out, total_);
  PutVarint64(out, entries_.size());
  // Deterministic order so serialization is canonical, sorted in a
  // copy on the stack.
  SmallVector<Entry, kSerializeInline> sorted;
  for (const Entry& e : entries_) sorted.push_back(e);
  std::sort(sorted.begin(), sorted.end(), OrderByCountDesc);
  for (const Entry& e : sorted) {
    PutVarint64(out, e.key);
    PutVarint64(out, e.count);
    PutVarint64(out, e.error);
  }
}

Status SpaceSaving::Deserialize(std::string_view* input) {
  uint64_t capacity = 0;
  uint64_t total = 0;
  uint64_t n = 0;
  POL_RETURN_IF_ERROR(GetVarint64(input, &capacity));
  POL_RETURN_IF_ERROR(GetVarint64(input, &total));
  POL_RETURN_IF_ERROR(GetVarint64(input, &n));
  if (capacity == 0 || capacity > 1000000 || n > capacity) {
    return Status::Corruption("bad SpaceSaving header");
  }
  *this = SpaceSaving(capacity);
  total_ = total;
  entries_.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Entry e{};
    POL_RETURN_IF_ERROR(GetVarint64(input, &e.key));
    POL_RETURN_IF_ERROR(GetVarint64(input, &e.count));
    POL_RETURN_IF_ERROR(GetVarint64(input, &e.error));
    if (e.error > e.count) return Status::Corruption("error exceeds count");
    entries_.push_back(e);
  }
  return Status::OK();
}

}  // namespace pol::stats
