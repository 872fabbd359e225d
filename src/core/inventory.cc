#include "core/inventory.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/crc32.h"
#include "common/varint.h"
#include "hexgrid/hex_math.h"
#include "hexgrid/hexgrid.h"
#include "store/atomic_file.h"

namespace pol::core {
namespace {

constexpr char kMagic[] = "POLINV01";
constexpr size_t kMagicLen = 8;

}  // namespace

Inventory::Inventory(int resolution, SummaryMap summaries)
    : resolution_(resolution), summaries_(std::move(summaries)) {}

const CellSummary* Inventory::Find(const GroupKey& key) const {
  const auto it = summaries_.find(key);
  return it == summaries_.end() ? nullptr : &it->second;
}

std::vector<hex::CellIndex> Inventory::RouteCells(
    sim::PortId origin, sim::PortId destination,
    ais::MarketSegment segment) const {
  std::vector<hex::CellIndex> cells;
  for (const auto& [key, summary] : summaries_) {
    if (key.grouping_set ==
            static_cast<uint8_t>(GroupingSet::kCellRouteType) &&
        key.origin == origin && key.destination == destination &&
        key.segment == static_cast<uint8_t>(segment)) {
      cells.push_back(key.cell);
    }
  }
  std::sort(cells.begin(), cells.end());
  return cells;
}

std::vector<ais::MarketSegment> Inventory::SegmentsAt(
    hex::CellIndex cell) const {
  std::vector<ais::MarketSegment> segments;
  for (const auto& [key, summary] : summaries_) {
    if (key.grouping_set == static_cast<uint8_t>(GroupingSet::kCellType) &&
        key.cell == cell) {
      segments.push_back(static_cast<ais::MarketSegment>(key.segment));
    }
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

bool Inventory::VisitGroupingSetWhile(
    GroupingSet set, const CancellableVisitor& visitor) const {
  for (const auto& [key, summary] : summaries_) {
    if (key.grouping_set != static_cast<uint8_t>(set)) continue;
    if (!visitor(key, summary)) return false;
  }
  return true;
}

uint64_t Inventory::DistinctCells() const {
  uint64_t cells = 0;
  for (const auto& [key, summary] : summaries_) {
    if (key.grouping_set == static_cast<uint8_t>(GroupingSet::kCell)) {
      ++cells;
    }
  }
  return cells;
}

CompressionReport Inventory::Compression(uint64_t records) const {
  CompressionReport report;
  report.resolution = resolution_;
  report.records = records;
  report.cells = DistinctCells();
  report.summaries = summaries_.size();
  report.compression =
      records == 0 ? 0.0
                   : 1.0 - static_cast<double>(report.cells) /
                               static_cast<double>(records);
  report.utilization = static_cast<double>(report.cells) /
                       static_cast<double>(hex::NumCells(resolution_));
  std::string bytes;
  SerializeTo(&bytes);
  report.serialized_bytes = bytes.size();
  return report;
}

Status Inventory::MergeFrom(Inventory&& other) {
  if (other.resolution_ != resolution_) {
    return Status::FailedPrecondition(
        "cannot merge inventories of different resolutions");
  }
  SpliceSummaries(&summaries_, &other.summaries_);
  return Status::OK();
}

void SerializeSummaryRecords(const SummaryMap& summaries, std::string* out) {
  // Deterministic order: sort keys. (The map is unordered; canonical
  // bytes make file-level comparisons and CRCs meaningful.)
  std::vector<const SummaryMap::value_type*> entries;
  entries.reserve(summaries.size());
  for (const auto& entry : summaries) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(),
            [](const SummaryMap::value_type* a,
               const SummaryMap::value_type* b) {
              if (a->first.cell != b->first.cell) {
                return a->first.cell < b->first.cell;
              }
              return GroupKeyDimsPacked(a->first) <
                     GroupKeyDimsPacked(b->first);
            });
  std::string summary_bytes;  // Reused: one allocation for the walk.
  for (const SummaryMap::value_type* entry : entries) {
    PutVarint64(out, entry->first.cell);
    PutVarint64(out, GroupKeyDimsPacked(entry->first));
    summary_bytes.clear();
    entry->second.Serialize(&summary_bytes);
    PutLengthPrefixed(out, summary_bytes);
  }
}

Status DeserializeSummaryRecords(std::string_view* input, uint64_t count,
                                 SummaryMap* out) {
  // Every record takes at least three bytes, so a garbage count cannot
  // reserve more than the input could hold.
  out->reserve(out->size() + std::min<uint64_t>(count, input->size() / 3));
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t cell = 0;
    uint64_t dims = 0;
    POL_RETURN_IF_ERROR(GetVarint64(input, &cell));
    POL_RETURN_IF_ERROR(GetVarint64(input, &dims));
    std::string_view summary_bytes;
    POL_RETURN_IF_ERROR(GetLengthPrefixed(input, &summary_bytes));
    CellSummary summary;
    POL_RETURN_IF_ERROR(summary.Deserialize(&summary_bytes));
    if (!summary_bytes.empty()) {
      return Status::Corruption("trailing bytes in summary");
    }
    if (!out->emplace(GroupKeyFromPacked(cell, dims), std::move(summary))
             .second) {
      return Status::Corruption("repeated summary key");
    }
  }
  return Status::OK();
}

void Inventory::SerializeTo(std::string* out) const {
  out->append(kMagic, kMagicLen);
  // The body is written in place and its size prefix inserted in front
  // of it afterwards, so the file is never held twice.
  const size_t body_start = out->size();
  PutVarint64(out, static_cast<uint64_t>(resolution_));
  PutVarint64(out, summaries_.size());
  SerializeSummaryRecords(summaries_, out);
  const size_t body_size = out->size() - body_start;
  const uint32_t crc =
      Crc32(std::string_view(out->data() + body_start, body_size));
  std::string size_prefix;
  PutVarint64(&size_prefix, body_size);
  out->insert(body_start, size_prefix);
  // Footer: CRC of the body.
  out->push_back(static_cast<char>(crc & 0xff));
  out->push_back(static_cast<char>((crc >> 8) & 0xff));
  out->push_back(static_cast<char>((crc >> 16) & 0xff));
  out->push_back(static_cast<char>((crc >> 24) & 0xff));
}

Result<Inventory> Inventory::DeserializeFrom(std::string_view input) {
  if (input.size() < kMagicLen ||
      input.substr(0, kMagicLen) != std::string_view(kMagic, kMagicLen)) {
    return Status::Corruption("bad inventory magic");
  }
  input.remove_prefix(kMagicLen);
  uint64_t body_size = 0;
  POL_RETURN_IF_ERROR(GetVarint64(&input, &body_size));
  if (input.size() < body_size + 4) {
    return Status::Corruption("truncated inventory body");
  }
  const std::string_view body_bytes = input.substr(0, body_size);
  const std::string_view crc_bytes = input.substr(body_size, 4);
  uint32_t declared = 0;
  for (int i = 3; i >= 0; --i) {
    declared = (declared << 8) | static_cast<uint8_t>(crc_bytes[static_cast<size_t>(i)]);
  }
  if (Crc32(body_bytes) != declared) {
    return Status::Corruption("inventory checksum mismatch");
  }

  std::string_view body = body_bytes;
  uint64_t resolution = 0;
  uint64_t count = 0;
  POL_RETURN_IF_ERROR(GetVarint64(&body, &resolution));
  POL_RETURN_IF_ERROR(GetVarint64(&body, &count));
  if (resolution > hex::kMaxResolution) {
    return Status::Corruption("bad inventory resolution");
  }
  SummaryMap summaries;
  POL_RETURN_IF_ERROR(DeserializeSummaryRecords(&body, count, &summaries));
  return Inventory(static_cast<int>(resolution), std::move(summaries));
}

Status Inventory::SaveToFile(const std::string& path) const {
  std::string bytes;
  SerializeTo(&bytes);
  return store::WriteFileDurable(path, bytes);
}

Result<Inventory> Inventory::LoadFromFile(const std::string& path) {
  std::string bytes;
  POL_RETURN_IF_ERROR(store::ReadFileToString(path, &bytes));
  return DeserializeFrom(bytes);
}

}  // namespace pol::core
