#include "core/snapshot_codec.h"

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/varint.h"
#include "core/group_key.h"
#include "core/inventory.h"
#include "core/route_index.h"
#include "hexgrid/cell_index.h"
#include "obs/metrics.h"
#include "store/mapped_file.h"
#include "store/snapshot_format.h"
#include "store/store_metric_names.h"

namespace pol::core {
namespace {

// Record strides of the fixed-width sections.
constexpr size_t kKeyRecordBytes = 16;       // {u64 cell, u64 dims}
constexpr size_t kRouteSpanBytes = 24;       // {u64 route, u64 begin, u64 end}
constexpr size_t kSegmentRecordBytes = 16;   // {u64 cell, u64 mask}
// Reserved summary-blob bytes per summary. Typical inventory summaries
// serialize to ~370 B; reserving generously spares the blob its
// doubling copies, and reserved pages that are never written are
// never resident.
constexpr size_t kSummaryBytesHint = 512;

Status Payload(std::string why) {
  return Status::DataLoss("POLSNAP1 payload: " + std::move(why));
}

Status ReadMetaVarint(std::string_view* meta, uint64_t* value,
                      std::string_view field) {
  if (!GetVarint64(meta, value).ok()) {
    return Payload("meta section truncated at " + std::string(field));
  }
  return Status::OK();
}

}  // namespace

void InventorySnapshot::EncodeTo(std::string* out) const {
  store::SnapshotFileBuilder builder;

  std::string meta;
  PutVarint64(&meta, kSnapPayloadVersion);
  PutVarint64(&meta, static_cast<uint64_t>(resolution_));
  PutVarint64(&meta, total_);
  for (size_t set = 0; set < kNumGroupingSets; ++set) {
    PutVarint64(&meta, stats_.summaries_per_set[set]);
  }
  PutVarint64(&meta, stats_.route_index_routes);
  PutVarint64(&meta, stats_.route_index_cells);
  PutVarint64(&meta, stats_.segment_index_cells);
  PutDouble(&meta, stats_.seal_seconds);
  PutVarint64(&meta, stats_.seal_sequence);
  builder.AddSection(kSnapSectionMeta, std::move(meta));

  for (size_t set = 0; set < kNumGroupingSets; ++set) {
    const GroupArray& group = groups_[set];
    std::string keys;
    keys.reserve(group.keys.size() * kKeyRecordBytes);
    for (const GroupKey& key : group.keys) {
      store::AppendU64(&keys, key.cell);
      store::AppendU64(&keys, GroupKeyDimsPacked(key));
    }
    std::string offsets;
    offsets.reserve((group.values.size() + 1) * sizeof(uint64_t));
    std::string blob;
    blob.reserve(group.values.size() * kSummaryBytesHint);
    for (const CellSummary& value : group.values) {
      store::AppendU64(&offsets, blob.size());
      value.Serialize(&blob);
    }
    store::AppendU64(&offsets, blob.size());
    const uint32_t ordinal = static_cast<uint32_t>(set);
    builder.AddSection(kSnapSectionKeysBase + ordinal, std::move(keys));
    builder.AddSection(kSnapSectionSummaryOffsetsBase + ordinal,
                       std::move(offsets));
    builder.AddSection(kSnapSectionSummaryBlobBase + ordinal, std::move(blob));
  }

  std::string spans;
  spans.reserve(route_index_.routes() * kRouteSpanBytes);
  route_index_.ForEachSpan([&spans](uint64_t route, size_t begin, size_t end) {
    store::AppendU64(&spans, route);
    store::AppendU64(&spans, begin);
    store::AppendU64(&spans, end);
  });
  builder.AddSection(kSnapSectionRouteSpans, std::move(spans));
  std::string route_cells;
  route_cells.reserve(route_index_.cells() * sizeof(uint64_t));
  for (const hex::CellIndex cell : route_index_.cell_array()) {
    store::AppendU64(&route_cells, cell);
  }
  builder.AddSection(kSnapSectionRouteCells, std::move(route_cells));

  std::string segments;
  segments.reserve(segment_index_.size() * kSegmentRecordBytes);
  for (const CellSegments& entry : segment_index_) {
    store::AppendU64(&segments, entry.cell);
    store::AppendU64(&segments, entry.mask);
  }
  builder.AddSection(kSnapSectionSegmentIndex, std::move(segments));

  *out = builder.Finish();
}

Status InventorySnapshot::WriteTo(store::SnapshotStore* store,
                                  uint64_t* generation) const {
  std::string image;
  EncodeTo(&image);
  POL_ASSIGN_OR_RETURN(const uint64_t published, store->Publish(image));
  if (generation != nullptr) *generation = published;
  return Status::OK();
}

Result<SnapshotMeta> DecodeSnapshotMeta(const store::SnapshotFileView& view) {
  POL_ASSIGN_OR_RETURN(std::string_view meta, view.Section(kSnapSectionMeta));
  uint64_t version = 0;
  POL_RETURN_IF_ERROR(ReadMetaVarint(&meta, &version, "version"));
  if (version != kSnapPayloadVersion) {
    return Payload("unsupported payload version " + std::to_string(version));
  }
  SnapshotMeta out;
  uint64_t resolution = 0;
  POL_RETURN_IF_ERROR(ReadMetaVarint(&meta, &resolution, "resolution"));
  if (resolution > hex::kMaxResolution) {
    return Payload("bad resolution " + std::to_string(resolution));
  }
  out.resolution = static_cast<int>(resolution);
  POL_RETURN_IF_ERROR(ReadMetaVarint(&meta, &out.total, "total"));
  for (size_t set = 0; set < kNumGroupingSets; ++set) {
    POL_RETURN_IF_ERROR(ReadMetaVarint(
        &meta, &out.stats.summaries_per_set[set], "per-set count"));
  }
  POL_RETURN_IF_ERROR(
      ReadMetaVarint(&meta, &out.stats.route_index_routes, "route spans"));
  POL_RETURN_IF_ERROR(
      ReadMetaVarint(&meta, &out.stats.route_index_cells, "route cells"));
  POL_RETURN_IF_ERROR(
      ReadMetaVarint(&meta, &out.stats.segment_index_cells, "segment cells"));
  if (!GetDouble(&meta, &out.stats.seal_seconds).ok()) {
    return Payload("meta section truncated at seal seconds");
  }
  POL_RETURN_IF_ERROR(
      ReadMetaVarint(&meta, &out.stats.seal_sequence, "seal sequence"));
  return out;
}

// The zero-copy serving snapshot: every fixed-width section (keys,
// offsets, route spans/cells, segment masks) is binary-searched in
// place on the mapping; CellSummary blobs are decoded lazily on first
// access and CAS-cached per entry. Section framing and CRCs were
// verified by SnapshotFileView::Validate, and Open() re-checks the
// cross-section invariants (counts, offset monotonicity, key order),
// so the query paths run unchecked, exactly like the sealed in-memory
// snapshot they mirror.
class MappedSnapshot final : public InventorySnapshot {
 public:
  explicit MappedSnapshot(SealTag tag) : InventorySnapshot(tag) {}
  ~MappedSnapshot() override;

  static Result<std::shared_ptr<const InventorySnapshot>> Open(
      store::SnapshotStore::Opened opened);

  // The file is its own canonical encoding: base-class EncodeTo would
  // re-encode the (empty) in-memory arrays, so a mapped snapshot hands
  // back the exact image it serves from instead.
  void EncodeTo(std::string* out) const override;

  const CellSummary* Cell(hex::CellIndex cell) const override;
  const CellSummary* CellType(hex::CellIndex cell,
                              ais::MarketSegment segment) const override;
  const CellSummary* CellRouteType(hex::CellIndex cell, sim::PortId origin,
                                   sim::PortId destination,
                                   ais::MarketSegment segment) const override;
  std::vector<hex::CellIndex> CellsForRoute(
      sim::PortId origin, sim::PortId destination,
      ais::MarketSegment segment) const override;
  std::vector<ais::MarketSegment> SegmentsAt(
      hex::CellIndex cell) const override;
  void VisitGroupingSet(GroupingSet set,
                        const SummaryVisitor& visitor) const override;
  bool VisitGroupingSetWhile(GroupingSet set,
                             const CancellableVisitor& visitor) const override;
  uint64_t DistinctCells() const override;

 private:
  struct SetView {
    const char* keys = nullptr;     // count * 16 B, (cell, dims)-sorted.
    size_t count = 0;
    const char* offsets = nullptr;  // (count + 1) * u64 into the blob.
    const char* blob = nullptr;
    size_t blob_size = 0;
    // Lazily materialized summaries, one slot per key. Entries decode
    // on first access; the CAS loser's copy dies with its unique_ptr.
    std::unique_ptr<std::atomic<const CellSummary*>[]> cache;
  };

  static uint64_t KeyCellAt(const char* keys, size_t i) {
    return store::LoadU64(keys + i * kKeyRecordBytes);
  }
  static uint64_t KeyDimsAt(const char* keys, size_t i) {
    return store::LoadU64(keys + i * kKeyRecordBytes + sizeof(uint64_t));
  }

  const CellSummary* Materialize(const SetView& view, size_t i) const;
  const CellSummary* Find(GroupingSet set, uint64_t cell, uint64_t dims) const;
  std::vector<hex::CellIndex> RouteCells(uint64_t packed) const;

  store::MappedFile file_;
  std::array<SetView, kNumGroupingSets> sets_;
  const char* route_spans_ = nullptr;
  size_t route_span_count_ = 0;
  const char* route_cells_ = nullptr;
  size_t route_cell_count_ = 0;
  const char* segments_ = nullptr;
  size_t segment_count_ = 0;
};

MappedSnapshot::~MappedSnapshot() {
  for (const SetView& view : sets_) {
    // A failed Open can leave count set with no cache allocated yet.
    if (view.cache == nullptr) continue;
    for (size_t i = 0; i < view.count; ++i) {
      // Reconstitute ownership of each cached decode (created by
      // make_unique in Materialize and released into the slot).
      std::unique_ptr<const CellSummary> owner(
          view.cache[i].load(std::memory_order_acquire));
    }
  }
}

Result<std::shared_ptr<const InventorySnapshot>> MappedSnapshot::Open(
    store::SnapshotStore::Opened opened) {
  POL_ASSIGN_OR_RETURN(const SnapshotMeta meta,
                       DecodeSnapshotMeta(opened.view));
  auto snapshot = std::make_shared<MappedSnapshot>(SealTag{});
  snapshot->resolution_ = meta.resolution;
  snapshot->total_ = static_cast<size_t>(meta.total);
  snapshot->stats_ = meta.stats;

  for (size_t set = 0; set < kNumGroupingSets; ++set) {
    const uint32_t ordinal = static_cast<uint32_t>(set);
    POL_ASSIGN_OR_RETURN(std::string_view keys,
                         opened.view.Section(kSnapSectionKeysBase + ordinal));
    POL_ASSIGN_OR_RETURN(
        std::string_view offsets,
        opened.view.Section(kSnapSectionSummaryOffsetsBase + ordinal));
    POL_ASSIGN_OR_RETURN(
        std::string_view blob,
        opened.view.Section(kSnapSectionSummaryBlobBase + ordinal));
    const uint64_t count = meta.stats.summaries_per_set[set];
    if (keys.size() != count * kKeyRecordBytes) {
      return Payload("key section size disagrees with meta count");
    }
    if (offsets.size() != (count + 1) * sizeof(uint64_t)) {
      return Payload("offset section size disagrees with meta count");
    }
    SetView& view = snapshot->sets_[set];
    view.keys = keys.data();
    view.count = static_cast<size_t>(count);
    view.offsets = offsets.data();
    view.blob = blob.data();
    view.blob_size = blob.size();
    // Cross-section invariants: offsets monotone within the blob and
    // keys in strict (cell, dims) order — the preconditions the
    // unchecked query paths rely on.
    uint64_t previous_offset = 0;
    for (size_t i = 0; i <= view.count; ++i) {
      const uint64_t offset =
          store::LoadU64(view.offsets + i * sizeof(uint64_t));
      if (offset < previous_offset || offset > view.blob_size) {
        return Payload("summary offsets not monotone");
      }
      previous_offset = offset;
    }
    if (previous_offset != view.blob_size) {
      return Payload("summary blob has trailing bytes");
    }
    for (size_t i = 1; i < view.count; ++i) {
      const uint64_t prev_cell = KeyCellAt(view.keys, i - 1);
      const uint64_t cell = KeyCellAt(view.keys, i);
      if (prev_cell > cell ||
          (prev_cell == cell &&
           KeyDimsAt(view.keys, i - 1) >= KeyDimsAt(view.keys, i))) {
        return Payload("keys out of order");
      }
    }
    if (view.count > 0) {
      view.cache =
          std::make_unique<std::atomic<const CellSummary*>[]>(view.count);
    }
  }

  POL_ASSIGN_OR_RETURN(std::string_view spans,
                       opened.view.Section(kSnapSectionRouteSpans));
  POL_ASSIGN_OR_RETURN(std::string_view route_cells,
                       opened.view.Section(kSnapSectionRouteCells));
  if (spans.size() != meta.stats.route_index_routes * kRouteSpanBytes) {
    return Payload("route span section size disagrees with meta");
  }
  if (route_cells.size() !=
      meta.stats.route_index_cells * sizeof(uint64_t)) {
    return Payload("route cell section size disagrees with meta");
  }
  snapshot->route_spans_ = spans.data();
  snapshot->route_span_count_ = static_cast<size_t>(meta.stats.route_index_routes);
  snapshot->route_cells_ = route_cells.data();
  snapshot->route_cell_count_ =
      static_cast<size_t>(meta.stats.route_index_cells);
  uint64_t previous_route = 0;
  for (size_t i = 0; i < snapshot->route_span_count_; ++i) {
    const char* span = snapshot->route_spans_ + i * kRouteSpanBytes;
    const uint64_t route = store::LoadU64(span);
    const uint64_t begin = store::LoadU64(span + 8);
    const uint64_t end = store::LoadU64(span + 16);
    if (i > 0 && route <= previous_route) {
      return Payload("route spans out of order");
    }
    if (begin > end || end > snapshot->route_cell_count_) {
      return Payload("route span out of bounds");
    }
    previous_route = route;
  }

  POL_ASSIGN_OR_RETURN(std::string_view segments,
                       opened.view.Section(kSnapSectionSegmentIndex));
  if (segments.size() !=
      meta.stats.segment_index_cells * kSegmentRecordBytes) {
    return Payload("segment section size disagrees with meta");
  }
  snapshot->segments_ = segments.data();
  snapshot->segment_count_ =
      static_cast<size_t>(meta.stats.segment_index_cells);
  for (size_t i = 1; i < snapshot->segment_count_; ++i) {
    if (store::LoadU64(snapshot->segments_ + (i - 1) * kSegmentRecordBytes) >=
        store::LoadU64(snapshot->segments_ + i * kSegmentRecordBytes)) {
      return Payload("segment index out of order");
    }
  }

  // Adopt the mapping last: the raw section pointers above reference
  // the mapped bytes, whose addresses survive the move (mmap addresses
  // are stable; the heap-fallback buffer moves by pointer).
  snapshot->file_ = std::move(opened.file);
  return std::shared_ptr<const InventorySnapshot>(std::move(snapshot));
}

void MappedSnapshot::EncodeTo(std::string* out) const {
  const std::string_view bytes = file_.bytes();
  out->assign(bytes.data(), bytes.size());
}

const CellSummary* MappedSnapshot::Materialize(const SetView& view,
                                               size_t i) const {
  const CellSummary* cached = view.cache[i].load(std::memory_order_acquire);
  if (cached != nullptr) return cached;
  const uint64_t begin = store::LoadU64(view.offsets + i * sizeof(uint64_t));
  const uint64_t end =
      store::LoadU64(view.offsets + (i + 1) * sizeof(uint64_t));
  std::string_view bytes(view.blob + begin,
                         static_cast<size_t>(end - begin));
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
  if (view.cache[i].compare_exchange_strong(expected, fresh,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
    decoded.release();  // The slot owns it now; freed in ~MappedSnapshot.
    return fresh;
  }
  return expected;  // Another thread won the race; ours is discarded.
}

const CellSummary* MappedSnapshot::Find(GroupingSet set, uint64_t cell,
                                        uint64_t dims) const {
  const SetView& view = sets_[static_cast<size_t>(set)];
  size_t lo = 0;
  size_t hi = view.count;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const uint64_t mid_cell = KeyCellAt(view.keys, mid);
    if (mid_cell < cell ||
        (mid_cell == cell && KeyDimsAt(view.keys, mid) < dims)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == view.count || KeyCellAt(view.keys, lo) != cell ||
      KeyDimsAt(view.keys, lo) != dims) {
    return nullptr;
  }
  return Materialize(view, lo);
}

const CellSummary* MappedSnapshot::Cell(hex::CellIndex cell) const {
  return Find(GroupingSet::kCell, cell, GroupKeyDimsPacked(KeyCell(cell)));
}

const CellSummary* MappedSnapshot::CellType(hex::CellIndex cell,
                                            ais::MarketSegment segment) const {
  return Find(GroupingSet::kCellType, cell,
              GroupKeyDimsPacked(KeyCellType(cell, segment)));
}

const CellSummary* MappedSnapshot::CellRouteType(
    hex::CellIndex cell, sim::PortId origin, sim::PortId destination,
    ais::MarketSegment segment) const {
  return Find(
      GroupingSet::kCellRouteType, cell,
      GroupKeyDimsPacked(KeyCellRouteType(cell, origin, destination, segment)));
}

std::vector<hex::CellIndex> MappedSnapshot::RouteCells(uint64_t packed) const {
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
    cells.push_back(
        store::LoadU64(route_cells_ + i * sizeof(uint64_t)));
  }
  return cells;
}

std::vector<hex::CellIndex> MappedSnapshot::CellsForRoute(
    sim::PortId origin, sim::PortId destination,
    ais::MarketSegment segment) const {
  // Same answer policy as the sealed snapshot: the exact key's cells,
  // falling back to the reversed port pair when the exact key is empty.
  std::vector<hex::CellIndex> cells =
      RouteCells(RouteIndex::PackRouteKey(origin, destination, segment));
  if (cells.empty()) {
    cells = RouteCells(RouteIndex::PackRouteKey(destination, origin, segment));
  }
  return cells;
}

std::vector<ais::MarketSegment> MappedSnapshot::SegmentsAt(
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

void MappedSnapshot::VisitGroupingSet(GroupingSet set,
                                      const SummaryVisitor& visitor) const {
  const SetView& view = sets_[static_cast<size_t>(set)];
  for (size_t i = 0; i < view.count; ++i) {
    const CellSummary* summary = Materialize(view, i);
    if (summary == nullptr) continue;
    const GroupKey key =
        GroupKeyFromPacked(KeyCellAt(view.keys, i), KeyDimsAt(view.keys, i));
    visitor(key, *summary);
  }
}

bool MappedSnapshot::VisitGroupingSetWhile(
    GroupingSet set, const CancellableVisitor& visitor) const {
  const SetView& view = sets_[static_cast<size_t>(set)];
  for (size_t i = 0; i < view.count; ++i) {
    const CellSummary* summary = Materialize(view, i);
    if (summary == nullptr) continue;
    const GroupKey key =
        GroupKeyFromPacked(KeyCellAt(view.keys, i), KeyDimsAt(view.keys, i));
    if (!visitor(key, *summary)) return false;
  }
  return true;
}

uint64_t MappedSnapshot::DistinctCells() const {
  return sets_[static_cast<size_t>(GroupingSet::kCell)].count;
}

Result<std::shared_ptr<const InventorySnapshot>> SnapshotFromOpened(
    store::SnapshotStore::Opened opened) {
  return MappedSnapshot::Open(std::move(opened));
}

Result<std::shared_ptr<const InventorySnapshot>> OpenLatestSnapshot(
    const store::SnapshotStore& store, uint64_t* generation) {
  const std::vector<uint64_t> generations = store.ListGenerations();
  if (generations.empty()) {
    return Status::NotFound("no generations in " +
                            store.options().directory);
  }
  std::string failures;
  for (size_t i = generations.size(); i-- > 0;) {
    Result<store::SnapshotStore::Opened> opened =
        store.OpenGeneration(generations[i]);
    Result<std::shared_ptr<const InventorySnapshot>> snapshot =
        opened.ok() ? SnapshotFromOpened(std::move(opened).value())
                    : Result<std::shared_ptr<const InventorySnapshot>>(
                          opened.status());
    if (snapshot.ok()) {
      if (generation != nullptr) *generation = generations[i];
      return snapshot;
    }
    // Torn or damaged at either the container or the payload level:
    // fall back to the previous generation, counting the skip.
    obs::Registry::Global()
        .counter(store::kMetricStoreFallbacks)
        ->Increment();
    if (!failures.empty()) failures += "; ";
    failures += "gen " + std::to_string(generations[i]) + ": " +
                snapshot.status().ToString();
  }
  return Status::DataLoss("all " + std::to_string(generations.size()) +
                          " generations unreadable: " + failures);
}

Result<std::shared_ptr<const InventorySnapshot>> OpenGenerationSnapshot(
    const store::SnapshotStore& store, uint64_t generation) {
  POL_ASSIGN_OR_RETURN(store::SnapshotStore::Opened opened,
                       store.OpenGeneration(generation));
  return SnapshotFromOpened(std::move(opened));
}

}  // namespace pol::core
