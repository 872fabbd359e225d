#include "core/inventory_snapshot.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstring>
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
// Reserved image bytes per summary written: its key, offset and index
// records plus the summary itself, which typically serializes to
// ~370 B. Reserving generously spares the image its doubling copies,
// and reserved pages that are never written are never resident.
constexpr size_t kEntryBytesHint = 512 + 64;
// Seal's encode loop prefetches the map node this many entries ahead.
constexpr size_t kPrefetchAhead = 8;
constexpr size_t kCacheLineBytes = 64;
// The image's sections: meta, then keys, offsets and blob per grouping
// set, then the two route sections and the segment index.
constexpr size_t kSectionCount = 1 + 3 * kNumGroupingSets + 3;

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

// Index of the first of `count` sorted key records not below
// (cell, dims).
size_t KeyLowerBound(const char* keys, size_t count, uint64_t cell,
                     uint64_t dims) {
  size_t lo = 0;
  size_t hi = count;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const uint64_t mid_cell = KeyCellAt(keys, mid);
    if (mid_cell < cell ||
        (mid_cell == cell && KeyDimsAt(keys, mid) < dims)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Index of `key`'s record among `count` sorted key records, or `count`
// when absent.
size_t KeyIndex(const char* keys, size_t count, const GroupKey& key) {
  const uint64_t dims = GroupKeyDimsPacked(key);
  const size_t at = KeyLowerBound(keys, count, key.cell, dims);
  if (at == count || KeyCellAt(keys, at) != key.cell ||
      KeyDimsAt(keys, at) != dims) {
    return count;
  }
  return at;
}

// The encoded summary of entry `i`.
std::string_view SummaryBytes(const char* offsets, const char* blob,
                              size_t i) {
  const uint64_t begin = store::LoadU64(offsets + i * sizeof(uint64_t));
  const uint64_t end = store::LoadU64(offsets + (i + 1) * sizeof(uint64_t));
  return std::string_view(blob + begin, static_cast<size_t>(end - begin));
}

// Decodes the summary of entry `i`, keyed `key`, into *out; kDataLoss
// when its bytes do not decode exactly.
Status DecodeSummary(const char* offsets, const char* blob, size_t i,
                     const GroupKey& key, CellSummary* out) {
  std::string_view bytes = SummaryBytes(offsets, blob, i);
  if (!out->Deserialize(&bytes).ok() || !bytes.empty()) {
    return Payload("summary of " + GroupKeyToString(key) + " does not decode");
  }
  return Status::OK();
}

// An entry placed against one grouping set of the image it is written
// over: `at` is the index of the first image key not below it, and
// `shared` whether that key is the entry's own.
struct Placed {
  const SummaryMap::value_type* entry;
  size_t at;
  bool shared;
};

}  // namespace

Result<std::shared_ptr<const InventorySnapshot>> InventorySnapshot::FromImage(
    store::SnapshotStore::Opened opened) {
  auto snapshot = std::make_shared<InventorySnapshot>(OpenTag{});
  // The view's sections stay valid across the move: mmap addresses are
  // stable and a heap image moves by pointer.
  snapshot->image_ = std::move(opened.file);
  POL_RETURN_IF_ERROR(snapshot->Bind(opened.view));
  for (SetView& entries : snapshot->sets_) {
    if (entries.count > 0) {
      entries.cache =
          std::make_unique<std::atomic<Decoded*>[]>(entries.count);
    }
  }
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
      // Drop this snapshot's hold on each cached decode (created by
      // make_unique in Materialize and released into the slot).
      Decoded* decoded = entries.cache[i].load(std::memory_order_acquire);
      if (decoded != nullptr &&
          decoded->holders.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::unique_ptr<Decoded> last_holder(decoded);
      }
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
  const Decoded* cached = set.cache[i].load(std::memory_order_acquire);
  if (cached != nullptr) return &cached->summary;
  std::string_view bytes = SummaryBytes(set.offsets, set.blob, i);
  auto decoded = std::make_unique<Decoded>();
  if (!decoded->summary.Deserialize(&bytes).ok() || !bytes.empty()) {
    // Unreachable after Validate's CRC pass; surfaced as telemetry
    // (and a null summary, the "no data" answer) rather than a crash.
    obs::Registry::Global()
        .counter(store::kMetricStoreDecodeFailures)
        ->Increment();
    return nullptr;
  }
  Decoded* expected = nullptr;
  if (set.cache[i].compare_exchange_strong(expected, decoded.get(),
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
    // The slot holds it now; released in the destructor.
    return &decoded.release()->summary;
  }
  // Another thread won the race; ours is discarded.
  return &expected->summary;
}

const CellSummary* InventorySnapshot::Find(const GroupKey& key) const {
  if (key.grouping_set >= kNumGroupingSets) return nullptr;
  const SetView& entries = sets_[key.grouping_set];
  const size_t at = KeyIndex(entries.keys, entries.count, key);
  return at == entries.count ? nullptr : Materialize(entries, at);
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

bool InventorySnapshot::VisitGroupingSetWhile(
    GroupingSet set, const CancellableVisitor& visitor) const {
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

uint64_t InventorySnapshot::DistinctCells() const {
  return sets_[static_cast<size_t>(GroupingSet::kCell)].count;
}

const InventorySnapshot& InventorySnapshot::Empty() {
  static const InventorySnapshot empty{OpenTag{}};
  return empty;
}

std::shared_ptr<const InventorySnapshot> Inventory::Seal() const {
  return InventorySnapshot::Write(InventorySnapshot::Empty(), resolution_,
                                  summaries_);
}

void Inventory::SerializeTo(std::string* out) const {
  *out = InventorySnapshot::WriteImage(InventorySnapshot::Empty(), resolution_,
                                       summaries_, /*stamp=*/false,
                                       /*copied_runs=*/nullptr);
}

Result<Inventory> Inventory::DeserializeFrom(std::string_view input) {
  POL_ASSIGN_OR_RETURN(const store::SnapshotFileView view,
                       store::SnapshotFileView::Validate(input));
  // Bound to the caller's bytes: no copy of the image, no decode cache.
  InventorySnapshot image{InventorySnapshot::OpenTag{}};
  POL_RETURN_IF_ERROR(image.Bind(view));
  SummaryMap summaries;
  summaries.reserve(image.total_);
  for (const InventorySnapshot::SetView& entries : image.sets_) {
    for (size_t i = 0; i < entries.count; ++i) {
      const GroupKey key = GroupKeyFromPacked(KeyCellAt(entries.keys, i),
                                              KeyDimsAt(entries.keys, i));
      CellSummary summary;
      POL_RETURN_IF_ERROR(
          DecodeSummary(entries.offsets, entries.blob, i, key, &summary));
      // Dims that differ only outside the packing decode to one key; a
      // repeated key has no single answer.
      if (!summaries.emplace(key, std::move(summary)).second) {
        return Payload("repeated summary key " + GroupKeyToString(key));
      }
    }
  }
  return Inventory(image.resolution_, std::move(summaries));
}

Result<std::shared_ptr<const InventorySnapshot>> InventorySnapshot::MergeSeal(
    Inventory&& delta) const {
  if (delta.resolution() != resolution_) {
    return Status::FailedPrecondition(
        "cannot merge inventories of different resolutions");
  }
  // Shared keys first: each image summary the delta also holds is
  // decoded and the delta's summary merged into it, so what is left to
  // write is the delta overlaid on the image.
  uint64_t merged = 0;
  for (auto& [key, summary] : delta.summaries_) {
    if (key.grouping_set >= kNumGroupingSets) continue;
    const SetView& entries = sets_[key.grouping_set];
    const size_t at = KeyIndex(entries.keys, entries.count, key);
    if (at == entries.count) continue;
    CellSummary image_summary;
    POL_RETURN_IF_ERROR(DecodeSummary(entries.offsets, entries.blob, at, key,
                                      &image_summary));
    image_summary.Merge(std::move(summary));
    summary = std::move(image_summary);
    ++merged;
  }
  std::shared_ptr<const InventorySnapshot> sealed =
      Write(*this, resolution_, delta.summaries_);
  auto& registry = obs::Registry::Global();
  registry.counter(kMetricServingRefreshKeysCopied)->Increment(total_ - merged);
  registry.counter(kMetricServingRefreshKeysMerged)->Increment(merged);
  registry.counter(kMetricServingRefreshKeysAdded)
      ->Increment(sealed->size() - total_);
  return sealed;
}

std::shared_ptr<const InventorySnapshot> InventorySnapshot::Write(
    const InventorySnapshot& base, int resolution, const SummaryMap& entries) {
  POL_TRACE_SPAN("inventory.seal");
  std::vector<std::array<size_t, 4>> copied_runs;
  store::SnapshotStore::Opened opened;
  opened.file = store::MappedFile::FromString(
      WriteImage(base, resolution, entries, /*stamp=*/true, &copied_runs));
  // The written image opens exactly like a stored generation; a failure
  // here is a writer bug, not data loss.
  Result<store::SnapshotFileView> view =
      store::SnapshotFileView::Validate(opened.file.bytes());
  POL_CHECK(view.ok()) << "sealed image fails validation: "
                       << view.status().ToString();
  opened.view = std::move(view).value();
  Result<std::shared_ptr<const InventorySnapshot>> snapshot =
      FromImage(std::move(opened));
  POL_CHECK(snapshot.ok()) << "sealed image fails to open: "
                           << snapshot.status().ToString();
  // A verbatim copy decodes to what the image already decoded, so the
  // new snapshot shares those decodes: readers do not pay a first-touch
  // decode again for summaries the delta left alone, and no summary is
  // copied.
  for (const auto& [set, from_index, to_index, count] : copied_runs) {
    const SetView& old_entries = base.sets_[set];
    const SetView& new_entries = (*snapshot)->sets_[set];
    for (size_t i = 0; i < count; ++i) {
      Decoded* decoded =
          old_entries.cache[from_index + i].load(std::memory_order_acquire);
      if (decoded == nullptr) continue;
      decoded->holders.fetch_add(1, std::memory_order_relaxed);
      new_entries.cache[to_index + i].store(decoded,
                                            std::memory_order_release);
    }
  }

  auto& registry = obs::Registry::Global();
  registry.histogram(kMetricServingSealSeconds)
      ->Record((*snapshot)->stats_.seal_seconds);
  registry.counter(kMetricServingSeals)->Increment();
  return std::move(snapshot).value();
}

std::string InventorySnapshot::WriteImage(
    const InventorySnapshot& base, int resolution, const SummaryMap& entries,
    bool stamp, std::vector<std::array<size_t, 4>>* copied_runs) {
  const double start = obs::NowSeconds();

  // Plan: the entries per grouping set in key order, each placed against
  // the image keys it lands among. Every count the meta records follows
  // from the plan, so the meta, the first section, is sized before any
  // payload is written.
  std::array<std::vector<Placed>, kNumGroupingSets> placed;
  for (const auto& entry : entries) {
    const size_t set = entry.first.grouping_set;
    if (set < kNumGroupingSets) placed[set].push_back({&entry, 0, false});
  }
  SnapshotMeta meta;
  meta.resolution = resolution;
  std::array<uint64_t, kNumGroupingSets> added{};
  for (size_t set = 0; set < kNumGroupingSets; ++set) {
    std::sort(placed[set].begin(), placed[set].end(),
              [](const Placed& a, const Placed& b) {
                return KeyLess(a.entry->first, b.entry->first);
              });
    const SetView& image = base.sets_[set];
    for (Placed& p : placed[set]) {
      const GroupKey& key = p.entry->first;
      const uint64_t dims = GroupKeyDimsPacked(key);
      p.at = KeyLowerBound(image.keys, image.count, key.cell, dims);
      p.shared = p.at < image.count &&
                 KeyCellAt(image.keys, p.at) == key.cell &&
                 KeyDimsAt(image.keys, p.at) == dims;
      if (!p.shared) ++added[set];
    }
    meta.stats.summaries_per_set[set] = image.count + added[set];
    meta.total += meta.stats.summaries_per_set[set];
  }

  // Secondary index 1: (origin, destination, segment) -> cells, one span
  // per route key over a cell array ascending within each span: the
  // image's (route, cell) pairs, already in order, merged with the new
  // route-set keys'.
  constexpr size_t kRouteSet = static_cast<size_t>(GroupingSet::kCellRouteType);
  std::vector<std::pair<uint64_t, hex::CellIndex>> routes;
  routes.reserve(base.route_cell_count_ + added[kRouteSet]);
  for (size_t i = 0; i < base.route_span_count_; ++i) {
    const char* span = base.route_spans_ + i * kRouteSpanBytes;
    for (uint64_t c = store::LoadU64(span + 8); c < store::LoadU64(span + 16);
         ++c) {
      routes.emplace_back(
          store::LoadU64(span),
          store::LoadU64(base.route_cells_ + c * sizeof(uint64_t)));
    }
  }
  for (const Placed& p : placed[kRouteSet]) {
    if (p.shared) continue;
    const GroupKey& key = p.entry->first;
    routes.emplace_back(
        PackRouteKey(key.origin, key.destination,
                     static_cast<ais::MarketSegment>(key.segment)),
        key.cell);
  }
  const auto image_routes =
      routes.begin() + static_cast<ptrdiff_t>(base.route_cell_count_);
  std::sort(image_routes, routes.end());
  std::inplace_merge(routes.begin(), image_routes, routes.end());
  meta.stats.route_index_cells = routes.size();
  for (size_t i = 0; i < routes.size(); ++i) {
    if (i == 0 || routes[i].first != routes[i - 1].first) {
      ++meta.stats.route_index_routes;
    }
  }

  // Secondary index 2: cell -> present-segments bitmask: the new
  // (cell, type) keys' bits folded into the image's masks, in cell
  // order.
  constexpr size_t kTypeSet = static_cast<size_t>(GroupingSet::kCellType);
  std::vector<std::pair<hex::CellIndex, uint64_t>> masks;
  masks.reserve(base.segment_count_ + added[kTypeSet]);
  size_t next_mask = 0;
  const auto image_mask = [&base](size_t i) {
    const char* record = base.segments_ + i * kSegmentRecordBytes;
    return std::make_pair(store::LoadU64(record),
                          store::LoadU64(record + sizeof(uint64_t)));
  };
  for (const Placed& p : placed[kTypeSet]) {
    const GroupKey& key = p.entry->first;
    if (p.shared || key.segment >= ais::kNumMarketSegments) continue;
    while (next_mask < base.segment_count_ &&
           image_mask(next_mask).first <= key.cell) {
      masks.push_back(image_mask(next_mask++));
    }
    if (masks.empty() || masks.back().first != key.cell) {
      masks.emplace_back(key.cell, 0);
    }
    masks.back().second |= uint64_t{1} << key.segment;
  }
  while (next_mask < base.segment_count_) {
    masks.push_back(image_mask(next_mask++));
  }
  meta.stats.segment_index_cells = masks.size();
  if (stamp) {
    // Process-wide seal ordinal: the snapshot id the serving telemetry
    // joins query-log rows and the active_id gauge on.
    static std::atomic<uint64_t> seal_counter{0};
    meta.stats.seal_sequence =
        seal_counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  // Write: every section in layout order, straight into the image. The
  // keys and offsets sections are sized first and filled while the blob
  // after them grows; the meta is rewritten in place once the seal time
  // it records is known (a fixed-width double, so its size does not
  // change). The writer takes every CRC at Finish, after all of this.
  store::SnapshotFileWriter writer(
      kSectionCount, base.image_.size() + entries.size() * kEntryBytesHint);
  std::string* out = writer.BeginSection(kSnapSectionMeta);
  const size_t meta_at = out->size();
  out->append(EncodeSnapshotMeta(meta));
  for (size_t set = 0; set < kNumGroupingSets; ++set) {
    const SetView& image = base.sets_[set];
    const uint64_t count = meta.stats.summaries_per_set[set];
    const uint32_t ordinal = static_cast<uint32_t>(set);
    const size_t keys_at = writer.BeginSection(kSnapSectionKeysBase + ordinal)
                               ->size();
    out->resize(keys_at + count * kKeyRecordBytes);
    const size_t offsets_at =
        writer.BeginSection(kSnapSectionSummaryOffsetsBase + ordinal)->size();
    out->resize(offsets_at + (count + 1) * sizeof(uint64_t));
    const size_t blob_at =
        writer.BeginSection(kSnapSectionSummaryBlobBase + ordinal)->size();
    size_t written = 0;  // Entries written.
    size_t copied = 0;   // Image entries consumed.
    // Starts output entry `written` at the blob's current end.
    const auto put_key = [&](uint64_t cell, uint64_t dims) {
      char* key = out->data() + keys_at + written * kKeyRecordBytes;
      store::StoreU64(key, cell);
      store::StoreU64(key + sizeof(uint64_t), dims);
      store::StoreU64(out->data() + offsets_at + written * sizeof(uint64_t),
                      out->size() - blob_at);
      ++written;
    };
    // Copies image entries [copied, end) verbatim, offsets rebased.
    const auto copy_run = [&](size_t end) {
      if (end == copied) return;
      const uint64_t run_begin =
          store::LoadU64(image.offsets + copied * sizeof(uint64_t));
      const uint64_t run_end =
          store::LoadU64(image.offsets + end * sizeof(uint64_t));
      const uint64_t shift = (out->size() - blob_at) - run_begin;
      std::memcpy(out->data() + keys_at + written * kKeyRecordBytes,
                  image.keys + copied * kKeyRecordBytes,
                  (end - copied) * kKeyRecordBytes);
      for (size_t i = copied; i < end; ++i, ++written) {
        store::StoreU64(
            out->data() + offsets_at + written * sizeof(uint64_t),
            store::LoadU64(image.offsets + i * sizeof(uint64_t)) + shift);
      }
      out->append(image.blob + run_begin,
                  static_cast<size_t>(run_end - run_begin));
      if (copied_runs != nullptr) {
        copied_runs->push_back(
            {set, copied, written - (end - copied), end - copied});
      }
      copied = end;
    };
    const std::vector<Placed>& set_entries = placed[set];
    for (size_t i = 0; i < set_entries.size(); ++i) {
      // The map nodes are scattered, so encoding them in key order is
      // bound by cache misses; fetch a few nodes ahead so those misses
      // overlap with the encode of the current one.
      if (i + kPrefetchAhead < set_entries.size()) {
        const char* ahead = reinterpret_cast<const char*>(
            set_entries[i + kPrefetchAhead].entry);
        for (size_t line = 0; line < sizeof(SummaryMap::value_type);
             line += kCacheLineBytes) {
          __builtin_prefetch(ahead + line);
        }
      }
      const Placed& p = set_entries[i];
      copy_run(p.at);
      put_key(p.entry->first.cell, GroupKeyDimsPacked(p.entry->first));
      p.entry->second.Serialize(out);
      if (p.shared) ++copied;  // The entry replaces the image's.
    }
    copy_run(image.count);
    store::StoreU64(out->data() + offsets_at + count * sizeof(uint64_t),
                    out->size() - blob_at);
    POL_DCHECK(written == count);
  }

  out = writer.BeginSection(kSnapSectionRouteSpans);
  for (size_t begin = 0; begin < routes.size();) {
    size_t end = begin + 1;
    while (end < routes.size() && routes[end].first == routes[begin].first) {
      ++end;
    }
    store::AppendU64(out, routes[begin].first);
    store::AppendU64(out, begin);
    store::AppendU64(out, end);
    begin = end;
  }
  out = writer.BeginSection(kSnapSectionRouteCells);
  for (const auto& [route, cell] : routes) store::AppendU64(out, cell);
  out = writer.BeginSection(kSnapSectionSegmentIndex);
  for (const auto& [cell, mask] : masks) {
    store::AppendU64(out, cell);
    store::AppendU64(out, mask);
  }

  if (stamp) {
    meta.stats.seal_seconds = obs::NowSeconds() - start;
    const std::string sealed_meta = EncodeSnapshotMeta(meta);
    out->replace(meta_at, sealed_meta.size(), sealed_meta);
  }
  return writer.Finish();
}

}  // namespace pol::core
