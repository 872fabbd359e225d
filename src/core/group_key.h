#ifndef POL_CORE_GROUP_KEY_H_
#define POL_CORE_GROUP_KEY_H_

#include <cstdint>
#include <functional>
#include <string>

#include "ais/types.h"
#include "hexgrid/cell_index.h"
#include "sim/ports.h"

// The grouping sets of Table 2. Every statistical summary in the
// inventory is keyed by a GroupKey: the cell plus the dimensions the
// summary is broken down by. Dimensions not used by a grouping set hold
// the kAny* sentinels, so one keyed store holds all three sets.

namespace pol::core {

// Which grouping set a key belongs to (Table 2 rows).
enum class GroupingSet : uint8_t {
  kCell = 0,                 // (H3-index)
  kCellType = 1,             // (H3-index, vessel-type)
  kCellRouteType = 2,        // (H3-index, origin, destination, vessel-type)
};

inline constexpr int kNumGroupingSets = 3;

inline constexpr uint8_t kAnySegment = 0xff;
inline constexpr uint16_t kAnyPort = 0;

struct GroupKey {
  hex::CellIndex cell = hex::kInvalidCell;
  uint8_t grouping_set = 0;
  uint8_t segment = kAnySegment;
  uint16_t origin = kAnyPort;
  uint16_t destination = kAnyPort;

  bool operator==(const GroupKey& o) const {
    return cell == o.cell && grouping_set == o.grouping_set &&
           segment == o.segment && origin == o.origin &&
           destination == o.destination;
  }
};

// Key constructors for the three grouping sets.
GroupKey KeyCell(hex::CellIndex cell);
GroupKey KeyCellType(hex::CellIndex cell, ais::MarketSegment segment);
GroupKey KeyCellRouteType(hex::CellIndex cell, sim::PortId origin,
                          sim::PortId destination,
                          ais::MarketSegment segment);

// 16-byte canonical encoding (used by the POLSNAP1 key sections and as
// the hash input).
uint64_t GroupKeyDimsPacked(const GroupKey& key);

// Inverse of GroupKeyDimsPacked: reassembles the key from its cell and
// packed dimensions. The POLSNAP1 key sections store keys as (cell,
// dims) pairs in exactly this packing.
GroupKey GroupKeyFromPacked(uint64_t cell, uint64_t dims);

// The packed (origin, destination, segment) route key: the span key of
// the POLSNAP1 route sections, sorted by this value, so the snapshot
// binary-searches spans straight off its image.
uint64_t PackRouteKey(sim::PortId origin, sim::PortId destination,
                      ais::MarketSegment segment);

struct GroupKeyHash {
  size_t operator()(const GroupKey& key) const {
    // Mix the two 64-bit halves (splitmix-style finalizer).
    uint64_t h = key.cell * 0x9e3779b97f4a7c15ULL;
    h ^= GroupKeyDimsPacked(key) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    return static_cast<size_t>(h);
  }
};

std::string GroupKeyToString(const GroupKey& key);

}  // namespace pol::core

#endif  // POL_CORE_GROUP_KEY_H_
