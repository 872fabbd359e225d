#include "core/inventory_snapshot.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/serving_metric_names.h"
#include "core/snapshot_codec.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/snapshot_format.h"
#include "store/store_metric_names.h"

namespace pol::core {
namespace {

// Record strides of the fixed-width sections.
constexpr size_t kKeyRecordBytes = 16;      // {u64 cell, u64 dims}
constexpr size_t kRouteSpanBytes = 24;      // {u64 route, u64 begin, u64 end}
constexpr size_t kSegmentRecordBytes = 16;  // {u64 cell, u64 mask}
// Reserved summary-blob bytes per summary. Typical inventory summaries
// serialize to ~370 B; reserving generously spares the blob its
// doubling copies, and reserved pages that are never written are
// never resident.
constexpr size_t kSummaryBytesHint = 512;
// Seal's encode loop prefetches the map node this many entries ahead.
constexpr size_t kPrefetchAhead = 8;
constexpr size_t kCacheLineBytes = 64;

Status Payload(std::string why) {
  return Status::DataLoss("POLSNAP1 payload: " + std::move(why));
}

// True when `section` is exactly `count` records of `stride` bytes.
// Divides rather than multiplies: the counts come from the file, and a
// product can wrap to the size of a short section.
bool HoldsRecords(std::string_view section, uint64_t count, size_t stride) {
  return section.size() % stride == 0 && section.size() / stride == count;
}

uint64_t KeyCellAt(const char* keys, size_t i) {
  return store::LoadU64(keys + i * kKeyRecordBytes);
}

uint64_t KeyDimsAt(const char* keys, size_t i) {
  return store::LoadU64(keys + i * kKeyRecordBytes + sizeof(uint64_t));
}

// The canonical key order of the key sections (and of the serialized
// inventory format): cell first, then the packed dimensions.
bool KeyLess(const GroupKey& a, const GroupKey& b) {
  if (a.cell != b.cell) return a.cell < b.cell;
  return GroupKeyDimsPacked(a) < GroupKeyDimsPacked(b);
}

}  // namespace

Result<std::shared_ptr<const InventorySnapshot>> InventorySnapshot::FromImage(
    store::SnapshotStore::Opened opened) {
  auto snapshot = std::make_shared<InventorySnapshot>(OpenTag{});
  // The view's sections stay valid across the move: mmap addresses are
  // stable and a heap image moves by pointer.
  snapshot->image_ = std::move(opened.file);
  POL_RETURN_IF_ERROR(snapshot->Bind(opened.view));
  return std::shared_ptr<const InventorySnapshot>(std::move(snapshot));
}

Status InventorySnapshot::Bind(const store::SnapshotFileView& view) {
  POL_ASSIGN_OR_RETURN(const SnapshotMeta meta, DecodeSnapshotMeta(view));
  resolution_ = meta.resolution;
  total_ = static_cast<size_t>(meta.total);
  stats_ = meta.stats;

  for (size_t set = 0; set < kNumGroupingSets; ++set) {
    const uint32_t ordinal = static_cast<uint32_t>(set);
    POL_ASSIGN_OR_RETURN(std::string_view keys,
                         view.Section(kSnapSectionKeysBase + ordinal));
    POL_ASSIGN_OR_RETURN(
        std::string_view offsets,
        view.Section(kSnapSectionSummaryOffsetsBase + ordinal));
    POL_ASSIGN_OR_RETURN(std::string_view blob,
                         view.Section(kSnapSectionSummaryBlobBase + ordinal));
    const uint64_t count = meta.stats.summaries_per_set[set];
    if (!HoldsRecords(keys, count, kKeyRecordBytes)) {
      return Payload("key section size disagrees with meta count");
    }
    if (!HoldsRecords(offsets, count + 1, sizeof(uint64_t))) {
      return Payload("offset section size disagrees with meta count");
    }
    SetView& entries = sets_[set];
    entries.keys = keys.data();
    entries.count = static_cast<size_t>(count);
    entries.offsets = offsets.data();
    entries.blob = blob.data();
    entries.blob_size = blob.size();
    // Cross-section invariants: offsets monotone within the blob and
    // keys in strict (cell, dims) order — the preconditions the
    // unchecked query paths rely on.
    uint64_t previous_offset = 0;
    for (size_t i = 0; i <= entries.count; ++i) {
      const uint64_t offset =
          store::LoadU64(entries.offsets + i * sizeof(uint64_t));
      if (offset < previous_offset || offset > entries.blob_size) {
        return Payload("summary offsets not monotone");
      }
      previous_offset = offset;
    }
    if (previous_offset != entries.blob_size) {
      return Payload("summary blob has trailing bytes");
    }
    for (size_t i = 1; i < entries.count; ++i) {
      const uint64_t prev_cell = KeyCellAt(entries.keys, i - 1);
      const uint64_t cell = KeyCellAt(entries.keys, i);
      if (prev_cell > cell ||
          (prev_cell == cell &&
           KeyDimsAt(entries.keys, i - 1) >= KeyDimsAt(entries.keys, i))) {
        return Payload("keys out of order");
      }
    }
    if (entries.count > 0) {
      entries.cache =
          std::make_unique<std::atomic<const CellSummary*>[]>(entries.count);
    }
  }

  POL_ASSIGN_OR_RETURN(std::string_view spans,
                       view.Section(kSnapSectionRouteSpans));
  POL_ASSIGN_OR_RETURN(std::string_view route_cells,
                       view.Section(kSnapSectionRouteCells));
  if (!HoldsRecords(spans, meta.stats.route_index_routes, kRouteSpanBytes)) {
    return Payload("route span section size disagrees with meta");
  }
  if (!HoldsRecords(route_cells, meta.stats.route_index_cells,
                    sizeof(uint64_t))) {
    return Payload("route cell section size disagrees with meta");
  }
  route_spans_ = spans.data();
  route_span_count_ = static_cast<size_t>(meta.stats.route_index_routes);
  route_cells_ = route_cells.data();
  route_cell_count_ = static_cast<size_t>(meta.stats.route_index_cells);
  uint64_t previous_route = 0;
  for (size_t i = 0; i < route_span_count_; ++i) {
    const char* span = route_spans_ + i * kRouteSpanBytes;
    const uint64_t route = store::LoadU64(span);
    const uint64_t begin = store::LoadU64(span + 8);
    const uint64_t end = store::LoadU64(span + 16);
    if (i > 0 && route <= previous_route) {
      return Payload("route spans out of order");
    }
    if (begin > end || end > route_cell_count_) {
      return Payload("route span out of bounds");
    }
    previous_route = route;
  }

  POL_ASSIGN_OR_RETURN(std::string_view segments,
                       view.Section(kSnapSectionSegmentIndex));
  if (!HoldsRecords(segments, meta.stats.segment_index_cells,
                    kSegmentRecordBytes)) {
    return Payload("segment section size disagrees with meta");
  }
  segments_ = segments.data();
  segment_count_ = static_cast<size_t>(meta.stats.segment_index_cells);
  for (size_t i = 1; i < segment_count_; ++i) {
    if (store::LoadU64(segments_ + (i - 1) * kSegmentRecordBytes) >=
        store::LoadU64(segments_ + i * kSegmentRecordBytes)) {
      return Payload("segment index out of order");
    }
  }
  return Status::OK();
}

InventorySnapshot::~InventorySnapshot() {
  for (const SetView& entries : sets_) {
    // A failed Bind can leave count set with no cache allocated yet.
    if (entries.cache == nullptr) continue;
    for (size_t i = 0; i < entries.count; ++i) {
      // Reconstitute ownership of each cached decode (created by
      // make_unique in Materialize and released into the slot).
      std::unique_ptr<const CellSummary> owner(
          entries.cache[i].load(std::memory_order_acquire));
    }
  }
}

void InventorySnapshot::EncodeTo(std::string* out) const {
  const std::string_view bytes = image_.bytes();
  out->assign(bytes.data(), bytes.size());
}

Status InventorySnapshot::WriteTo(store::SnapshotStore* store,
                                  uint64_t* generation) const {
  POL_ASSIGN_OR_RETURN(const uint64_t published,
                       store->Publish(image_.bytes()));
  if (generation != nullptr) *generation = published;
  return Status::OK();
}

const CellSummary* InventorySnapshot::Materialize(const SetView& set,
                                                  size_t i) const {
  const CellSummary* cached = set.cache[i].load(std::memory_order_acquire);
  if (cached != nullptr) return cached;
  const uint64_t begin = store::LoadU64(set.offsets + i * sizeof(uint64_t));
  const uint64_t end =
      store::LoadU64(set.offsets + (i + 1) * sizeof(uint64_t));
  std::string_view bytes(set.blob + begin, static_cast<size_t>(end - begin));
  auto decoded = std::make_unique<CellSummary>();
  if (!decoded->Deserialize(&bytes).ok() || !bytes.empty()) {
    // Unreachable after Validate's CRC pass; surfaced as telemetry
    // (and a null summary, the "no data" answer) rather than a crash.
    obs::Registry::Global()
        .counter(store::kMetricStoreDecodeFailures)
        ->Increment();
    return nullptr;
  }
  const CellSummary* fresh = decoded.get();
  const CellSummary* expected = nullptr;
  if (set.cache[i].compare_exchange_strong(expected, fresh,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
    decoded.release();  // The slot owns it now; freed in the destructor.
    return fresh;
  }
  return expected;  // Another thread won the race; ours is discarded.
}

const CellSummary* InventorySnapshot::Find(const GroupKey& key) const {
  if (key.grouping_set >= kNumGroupingSets) return nullptr;
  const SetView& entries = sets_[key.grouping_set];
  const uint64_t cell = key.cell;
  const uint64_t dims = GroupKeyDimsPacked(key);
  size_t lo = 0;
  size_t hi = entries.count;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const uint64_t mid_cell = KeyCellAt(entries.keys, mid);
    if (mid_cell < cell ||
        (mid_cell == cell && KeyDimsAt(entries.keys, mid) < dims)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == entries.count || KeyCellAt(entries.keys, lo) != cell ||
      KeyDimsAt(entries.keys, lo) != dims) {
    return nullptr;
  }
  return Materialize(entries, lo);
}

std::vector<hex::CellIndex> InventorySnapshot::RouteCells(
    sim::PortId origin, sim::PortId destination,
    ais::MarketSegment segment) const {
  const uint64_t packed = PackRouteKey(origin, destination, segment);
  size_t lo = 0;
  size_t hi = route_span_count_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (store::LoadU64(route_spans_ + mid * kRouteSpanBytes) < packed) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  std::vector<hex::CellIndex> cells;
  if (lo == route_span_count_) return cells;
  const char* span = route_spans_ + lo * kRouteSpanBytes;
  if (store::LoadU64(span) != packed) return cells;
  const uint64_t begin = store::LoadU64(span + 8);
  const uint64_t end = store::LoadU64(span + 16);
  cells.reserve(static_cast<size_t>(end - begin));
  for (uint64_t i = begin; i < end; ++i) {
    cells.push_back(store::LoadU64(route_cells_ + i * sizeof(uint64_t)));
  }
  return cells;
}

std::vector<ais::MarketSegment> InventorySnapshot::SegmentsAt(
    hex::CellIndex cell) const {
  size_t lo = 0;
  size_t hi = segment_count_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (store::LoadU64(segments_ + mid * kSegmentRecordBytes) < cell) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  std::vector<ais::MarketSegment> result;
  if (lo == segment_count_ ||
      store::LoadU64(segments_ + lo * kSegmentRecordBytes) != cell) {
    return result;
  }
  const uint64_t mask =
      store::LoadU64(segments_ + lo * kSegmentRecordBytes + sizeof(uint64_t));
  for (int bit = 0; bit < ais::kNumMarketSegments; ++bit) {
    if ((mask >> bit) & 1) {
      result.push_back(static_cast<ais::MarketSegment>(bit));
    }
  }
  return result;
}

template <typename Visitor>
bool InventorySnapshot::Walk(GroupingSet set, const Visitor& visitor) const {
  const SetView& entries = sets_[static_cast<size_t>(set)];
  for (size_t i = 0; i < entries.count; ++i) {
    const CellSummary* summary = Materialize(entries, i);
    if (summary == nullptr) continue;
    const GroupKey key = GroupKeyFromPacked(KeyCellAt(entries.keys, i),
                                            KeyDimsAt(entries.keys, i));
    if (!visitor(key, *summary)) return false;
  }
  return true;
}

void InventorySnapshot::VisitGroupingSet(GroupingSet set,
                                         const SummaryVisitor& visitor) const {
  Walk(set, [&visitor](const GroupKey& key, const CellSummary& summary) {
    visitor(key, summary);
    return true;
  });
}

bool InventorySnapshot::VisitGroupingSetWhile(
    GroupingSet set, const CancellableVisitor& visitor) const {
  return Walk(set, visitor);
}

uint64_t InventorySnapshot::DistinctCells() const {
  return sets_[static_cast<size_t>(GroupingSet::kCell)].count;
}

std::shared_ptr<const InventorySnapshot> Inventory::Seal() const {
  POL_TRACE_SPAN("inventory.seal");
  const double start = obs::NowSeconds();

  // Sort pointers into the map per grouping set, then write each
  // summary once, straight into its section.
  std::array<std::vector<const SummaryMap::value_type*>, kNumGroupingSets>
      per_set;
  for (const auto& entry : summaries_) {
    const size_t set = entry.first.grouping_set;
    if (set < kNumGroupingSets) per_set[set].push_back(&entry);
  }
  // Payload sections in layout order; meta goes first but is written
  // last, once the seal time it records is known.
  std::vector<std::pair<uint32_t, std::string>> sections;
  SnapshotMeta meta;
  meta.resolution = resolution_;
  // (packed route, cell) of every route-set key, collected as the route
  // set encodes: the source of the route sections below.
  std::vector<std::pair<uint64_t, hex::CellIndex>> routes;
  routes.reserve(
      per_set[static_cast<size_t>(GroupingSet::kCellRouteType)].size());
  for (size_t set = 0; set < kNumGroupingSets; ++set) {
    auto& pointers = per_set[set];
    const bool route_set =
        set == static_cast<size_t>(GroupingSet::kCellRouteType);
    std::sort(pointers.begin(), pointers.end(),
              [](const SummaryMap::value_type* a,
                 const SummaryMap::value_type* b) {
                return KeyLess(a->first, b->first);
              });
    std::string keys;
    keys.reserve(pointers.size() * kKeyRecordBytes);
    std::string offsets;
    offsets.reserve((pointers.size() + 1) * sizeof(uint64_t));
    std::string blob;
    blob.reserve(pointers.size() * kSummaryBytesHint);
    for (size_t i = 0; i < pointers.size(); ++i) {
      // The map nodes are scattered, so encoding them in key order is
      // bound by cache misses; fetch a few nodes ahead so those misses
      // overlap with the encode of the current one.
      if (i + kPrefetchAhead < pointers.size()) {
        const char* ahead =
            reinterpret_cast<const char*>(pointers[i + kPrefetchAhead]);
        for (size_t line = 0; line < sizeof(SummaryMap::value_type);
             line += kCacheLineBytes) {
          __builtin_prefetch(ahead + line);
        }
      }
      const SummaryMap::value_type* entry = pointers[i];
      store::AppendU64(&keys, entry->first.cell);
      store::AppendU64(&keys, GroupKeyDimsPacked(entry->first));
      store::AppendU64(&offsets, blob.size());
      entry->second.Serialize(&blob);
      if (route_set) {
        const GroupKey& key = entry->first;
        routes.emplace_back(
            PackRouteKey(key.origin, key.destination,
                         static_cast<ais::MarketSegment>(key.segment)),
            key.cell);
      }
    }
    store::AppendU64(&offsets, blob.size());
    const uint32_t ordinal = static_cast<uint32_t>(set);
    sections.emplace_back(kSnapSectionKeysBase + ordinal, std::move(keys));
    sections.emplace_back(kSnapSectionSummaryOffsetsBase + ordinal,
                          std::move(offsets));
    sections.emplace_back(kSnapSectionSummaryBlobBase + ordinal,
                          std::move(blob));
    meta.stats.summaries_per_set[set] = pointers.size();
    meta.total += pointers.size();
  }

  // Secondary index 1: (origin, destination, segment) -> cells. One
  // span per route key over a cell array ascending within each span.
  std::sort(routes.begin(), routes.end());
  std::string spans;
  std::string route_cells;
  route_cells.reserve(routes.size() * sizeof(uint64_t));
  uint64_t span_count = 0;
  for (size_t begin = 0; begin < routes.size();) {
    size_t end = begin;
    for (; end < routes.size() && routes[end].first == routes[begin].first;
         ++end) {
      store::AppendU64(&route_cells, routes[end].second);
    }
    store::AppendU64(&spans, routes[begin].first);
    store::AppendU64(&spans, begin);
    store::AppendU64(&spans, end);
    ++span_count;
    begin = end;
  }
  sections.emplace_back(kSnapSectionRouteSpans, std::move(spans));
  sections.emplace_back(kSnapSectionRouteCells, std::move(route_cells));
  meta.stats.route_index_routes = span_count;
  meta.stats.route_index_cells = routes.size();

  // Secondary index 2: cell -> present-segments bitmask, derived from
  // the already-sorted (cell, type) keys.
  std::vector<std::pair<hex::CellIndex, uint64_t>> masks;
  for (const SummaryMap::value_type* entry :
       per_set[static_cast<size_t>(GroupingSet::kCellType)]) {
    const GroupKey& key = entry->first;
    if (key.segment >= ais::kNumMarketSegments) continue;
    if (masks.empty() || masks.back().first != key.cell) {
      masks.emplace_back(key.cell, 0);
    }
    masks.back().second |= uint64_t{1} << key.segment;
  }
  std::string segments;
  segments.reserve(masks.size() * kSegmentRecordBytes);
  for (const auto& [cell, mask] : masks) {
    store::AppendU64(&segments, cell);
    store::AppendU64(&segments, mask);
  }
  sections.emplace_back(kSnapSectionSegmentIndex, std::move(segments));
  meta.stats.segment_index_cells = masks.size();

  // Process-wide seal ordinal: the snapshot id the serving telemetry
  // joins query-log rows and the active_id gauge on.
  static std::atomic<uint64_t> seal_counter{0};
  meta.stats.seal_sequence =
      seal_counter.fetch_add(1, std::memory_order_relaxed) + 1;
  meta.stats.seal_seconds = obs::NowSeconds() - start;

  store::SnapshotFileBuilder builder;
  builder.AddSection(kSnapSectionMeta, EncodeSnapshotMeta(meta));
  for (auto& [id, payload] : sections) {
    builder.AddSection(id, std::move(payload));
  }
  store::SnapshotStore::Opened opened;
  opened.file = store::MappedFile::FromString(builder.Finish());
  // The sealed image opens exactly like a stored generation; a failure
  // here is an encoder bug, not data loss.
  Result<store::SnapshotFileView> view =
      store::SnapshotFileView::Validate(opened.file.bytes());
  POL_CHECK(view.ok()) << "sealed image fails validation: "
                       << view.status().ToString();
  opened.view = std::move(view).value();
  Result<std::shared_ptr<const InventorySnapshot>> snapshot =
      InventorySnapshot::FromImage(std::move(opened));
  POL_CHECK(snapshot.ok()) << "sealed image fails to open: "
                           << snapshot.status().ToString();

  auto& registry = obs::Registry::Global();
  registry.histogram(kMetricServingSealSeconds)
      ->Record(meta.stats.seal_seconds);
  registry.counter(kMetricServingSeals)->Increment();
  return std::move(snapshot).value();
}

}  // namespace pol::core
