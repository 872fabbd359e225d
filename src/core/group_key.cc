#include "core/group_key.h"

#include <cstdio>
#include <string>

namespace pol::core {

GroupKey KeyCell(hex::CellIndex cell) {
  GroupKey key;
  key.cell = cell;
  key.grouping_set = static_cast<uint8_t>(GroupingSet::kCell);
  return key;
}

GroupKey KeyCellType(hex::CellIndex cell, ais::MarketSegment segment) {
  GroupKey key;
  key.cell = cell;
  key.grouping_set = static_cast<uint8_t>(GroupingSet::kCellType);
  key.segment = static_cast<uint8_t>(segment);
  return key;
}

GroupKey KeyCellRouteType(hex::CellIndex cell, sim::PortId origin,
                          sim::PortId destination,
                          ais::MarketSegment segment) {
  GroupKey key;
  key.cell = cell;
  key.grouping_set = static_cast<uint8_t>(GroupingSet::kCellRouteType);
  key.segment = static_cast<uint8_t>(segment);
  key.origin = static_cast<uint16_t>(origin);
  key.destination = static_cast<uint16_t>(destination);
  return key;
}

uint64_t GroupKeyDimsPacked(const GroupKey& key) {
  return static_cast<uint64_t>(key.grouping_set) |
         (static_cast<uint64_t>(key.segment) << 8) |
         (static_cast<uint64_t>(key.origin) << 16) |
         (static_cast<uint64_t>(key.destination) << 32);
}

GroupKey GroupKeyFromPacked(uint64_t cell, uint64_t dims) {
  GroupKey key;
  key.cell = cell;
  key.grouping_set = static_cast<uint8_t>(dims & 0xff);
  key.segment = static_cast<uint8_t>((dims >> 8) & 0xff);
  key.origin = static_cast<uint16_t>((dims >> 16) & 0xffff);
  key.destination = static_cast<uint16_t>((dims >> 32) & 0xffff);
  return key;
}

uint64_t PackRouteKey(sim::PortId origin, sim::PortId destination,
                      ais::MarketSegment segment) {
  return (static_cast<uint64_t>(origin) << 32) |
         (static_cast<uint64_t>(destination) << 16) |
         static_cast<uint64_t>(segment);
}

std::string GroupKeyToString(const GroupKey& key) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "gs%u:%s:seg%u:o%u:d%u", key.grouping_set,
                hex::CellToString(key.cell).c_str(), key.segment, key.origin,
                key.destination);
  return buf;
}

}  // namespace pol::core
