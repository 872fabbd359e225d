// Snapshot-store cold start: time-to-first-query from durable bytes.
// One sealed inventory is published as a store generation, then
// restored two ways:
//
//   load+seal - read the generation file, Inventory::DeserializeFrom it
//               (validate, decode every summary into the hash map),
//               then Seal() (sort keys, encode and validate a new
//               POLSNAP1 image) — cold start without serving in place
//   mmap      - core::OpenLatestSnapshot over a SnapshotStore: map the
//               newest POLSNAP1 generation, CRC-validate, serve in
//               place; summaries decode lazily on first access
//
// Every restored snapshot answers the same probe battery (corridor
// fetch + point lookups) and the checksums must agree, so the timed
// paths are proven to serve identical data. The acceptance bar is
// mmap cold start at least kMinSpeedup x faster than load+seal, a
// min-round ratio from bench::CompareInterleaved.
//
// The CRC pass is most of what is left of the mmap path, so a second
// bar checks the kernel behind it: on x86_64, Crc32 (the dispatched
// kernel) over a sealed ~27 MB image — about the size of a serving
// generation — must be at least kMinCrcSpeedup x faster than the
// portable slice-by-8 kernel, with both returning the same checksum.
// Each slice checksums the image kCrcPasses times back to back: a lone
// accelerated pass that follows the compute-bound portable one reads
// at the memory system's speed while it ramps up (on a shared 4-vCPU
// x86_64 host, ~5 ms per pass, the time of a plain read of the image),
// and the bar is about the kernel.
//
// A third bar checks the refresh path over the same ~27 MB image: the
// merge-seal (InventorySnapshot::MergeSeal, untouched summaries copied
// verbatim) against the build-side path it replaced (a live Inventory
// that MergeFroms the delta and re-seals everything), for an empty
// delta and for one touching ~1% of the keys. Both paths fold the same
// deltas in the same order and must serve the same answers; the
// merge-seal must be at least kMinRefreshSpeedup x faster on each.
// The empty-delta bar runs once more over a fully decoded image: the
// merge-seal's verbatim entries share the decodes of the image they
// copy, so a hot cache must not slow it below the bar, and one
// merge-seal over it allocates about its new image, not a second copy
// of the decoded summaries (glibc's heap counters; reported, not
// gated).
// Exits non-zero below any bar so tools/run_tier1.sh --store can gate
// on it.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench/bench_util.h"
#include "common/crc32.h"
#include "common/status.h"
#include "core/inventory.h"
#include "core/inventory_snapshot.h"
#include "core/snapshot_codec.h"
#include "hexgrid/hexgrid.h"
#include "store/atomic_file.h"
#include "store/snapshot_store.h"

namespace pol {
namespace {

constexpr int kRounds = 9;
constexpr double kMinSpeedup = 10.0;
constexpr int kGenerations = 96;
constexpr int kCellsPerGeneration = 64;
// The CRC bar's image: four times the cold-start corridor, ~27 MB
// sealed.
constexpr int kCrcGenerations = 4 * kGenerations;
constexpr int kCrcPasses = 4;
constexpr double kMinRefreshSpeedup = 2.0;
// Generations of the corridor a ~1% delta re-folds: 4 x 64 cells x 3
// grouping sets of the CRC image's 384 x 64 x 3 keys.
constexpr int kDeltaGenerations = 4;
#if defined(__x86_64__)
constexpr double kMinCrcSpeedup = 4.0;
#else
// Only x86_64 builds carry an accelerated kernel; elsewhere Crc32 is
// the portable one, and the comparison only checks agreement.
constexpr double kMinCrcSpeedup = 0.0;
#endif

// Heap bytes this process has allocated and not freed, in MB; 0 where
// the C library does not count them.
double HeapInUseMb() {
#if defined(__GLIBC__)
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
#else
  return 0.0;
#endif
}

// Time-to-first-query probe: the corridor fetch plus a sample of point
// lookups. Runs against each freshly restored snapshot inside the
// timed region, so both paths are measured end-to-end to answers (the
// mmap path pays its lazy first-touch decodes for the sampled cells) —
// but the probe is a serving request, not a full-table replay, because
// cold start is over once the first queries answer.
uint64_t Probe(const core::InventoryQuery& q) {
  constexpr size_t kSampledLookups = 64;
  uint64_t checksum = q.DistinctCells();
  const std::vector<hex::CellIndex> corridor =
      q.CellsForRoute(bench::kCorridorOrigin, bench::kCorridorDestination,
                      bench::kCorridorSegment);
  checksum += corridor.size();
  const size_t stride = corridor.size() / kSampledLookups + 1;
  for (size_t i = 0; i < corridor.size(); i += stride) {
    const core::CellSummary* s = q.Cell(corridor[i]);
    if (s != nullptr) checksum += s->record_count();
    checksum += q.SegmentsAt(corridor[i]).size();
  }
  return checksum;
}

// Full-table checksum: every corridor cell materialized. Untimed — it
// proves both restore paths serve byte-identical data before any round
// is scored.
uint64_t FullChecksum(const core::InventoryQuery& q) {
  uint64_t checksum = q.DistinctCells();
  const std::vector<hex::CellIndex> corridor =
      q.CellsForRoute(bench::kCorridorOrigin, bench::kCorridorDestination,
                      bench::kCorridorSegment);
  checksum += corridor.size();
  for (const hex::CellIndex cell : corridor) {
    const core::CellSummary* s = q.Cell(cell);
    if (s != nullptr) checksum += s->record_count();
    checksum += q.SegmentsAt(cell).size();
  }
  return checksum;
}

int Run(int argc, char** argv) {
  bench::Summary summary("snapshot_store", argc, argv);
  bench::PrintHeader("Snapshot-store cold start (mmap vs load+seal)");
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pol_bench_snapshot_store")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // The serving benches' corridor, scaled up: the cost being amortized
  // is per-summary parse + sort work, so size matters.
  const core::Inventory inventory =
      bench::CorridorInventory(kGenerations, kCellsPerGeneration);
  store::SnapshotStoreOptions options;
  options.directory = dir + "/snapshots";
  store::SnapshotStore snapshot_store(options);
  const std::shared_ptr<const core::InventorySnapshot> sealed =
      inventory.Seal();
  uint64_t generation = 0;
  const Status published = sealed->WriteTo(&snapshot_store, &generation);
  if (!published.ok()) {
    std::fprintf(stderr, "FAIL: WriteTo: %s\n", published.message().c_str());
    return 1;
  }
  const std::string generation_path =
      snapshot_store.GenerationPath(generation);

  const uint64_t store_bytes = std::filesystem::file_size(generation_path);
  std::printf("inventory: %s summaries, POLSNAP1 generation %s\n\n",
              bench::FormatCount(inventory.size()).c_str(),
              bench::FormatBytes(store_bytes).c_str());

  // Reads and decodes the generation into a build-side inventory.
  const auto load = [&generation_path]() -> Result<core::Inventory> {
    std::string bytes;
    POL_RETURN_IF_ERROR(store::ReadFileToString(generation_path, &bytes));
    return core::Inventory::DeserializeFrom(bytes);
  };

  // A restore that errors or answers differently from the sealed
  // snapshot fails the bench.
  const uint64_t expected = Probe(*sealed);
  bool failed = false;
  auto served = [&](uint64_t probe) {
    if (probe != expected) failed = true;
    return probe;
  };
  auto load_seal_round = [&]() -> uint64_t {
    Result<core::Inventory> loaded = load();
    return served(loaded.ok() ? Probe(*loaded->Seal()) : 0);
  };
  auto mmap_round = [&]() -> uint64_t {
    const Result<std::shared_ptr<const core::InventorySnapshot>> mapped =
        core::OpenLatestSnapshot(snapshot_store);
    return served(mapped.ok() ? Probe(**mapped) : 0);
  };

  // Untimed full-table equality: both restore paths must serve exactly
  // what was sealed before any round is scored.
  {
    const uint64_t full_expected = FullChecksum(*sealed);
    const Result<core::Inventory> loaded = load();
    const Result<std::shared_ptr<const core::InventorySnapshot>> mapped =
        core::OpenLatestSnapshot(snapshot_store);
    if (!loaded.ok() || !mapped.ok() ||
        FullChecksum(*loaded->Seal()) != full_expected ||
        FullChecksum(**mapped) != full_expected) {
      std::fprintf(stderr,
                   "FAIL: restored snapshots disagree with the sealed one\n");
      return 1;
    }
  }

  enum : size_t { kLoadSeal, kMmap };
  const bench::Comparison result = bench::CompareInterleaved(
      {{"load+seal", load_seal_round}, {"mmap", mmap_round}},
      {{kMmap, kLoadSeal, 1.0 / kMinSpeedup}}, kRounds, /*slices=*/1);
  std::filesystem::remove_all(dir);
  if (failed || result.diverged) {
    std::fprintf(stderr,
                 "FAIL: a cold-start path errored or disagrees with the "
                 "sealed snapshot\n");
    return 1;
  }

  const double load_seal_s = result.min_s[kLoadSeal];
  const double mmap_s = result.min_s[kMmap];
  const double speedup = load_seal_s / mmap_s;
  std::printf("load+seal (read + decode + seal):   %.4f s (min of %d x %d)\n",
              load_seal_s, kRounds, result.blocks);
  std::printf("mmap      (map + CRC + lazy serve): %.4f s (min of %d x %d)\n",
              mmap_s, kRounds, result.blocks);
  std::printf("cold-start speedup:                 %.1fx (bar: %.0fx)\n",
              speedup, kMinSpeedup);

  summary.Set("summaries", static_cast<uint64_t>(inventory.size()));
  summary.Set("file_bytes", store_bytes);
  summary.Set("rounds", kRounds);
  summary.Set("blocks", result.blocks);
  summary.Set("load_seal_s", load_seal_s);
  summary.Set("mmap_s", mmap_s);
  summary.Set("speedup", speedup);
  summary.Set("min_speedup", kMinSpeedup);

  // CRC bar: the dispatched kernel against the portable one over a
  // serving-sized sealed image, checksums compared every round.
  core::Inventory live =
      bench::CorridorInventory(kCrcGenerations, kCellsPerGeneration);
  std::shared_ptr<const core::InventorySnapshot> foundation = live.Seal();
  std::string image;
  foundation->EncodeTo(&image);
  const auto passes = [&](uint32_t (*kernel)(std::string_view, uint32_t)) {
    uint64_t checksum = 0;
    for (int pass = 0; pass < kCrcPasses; ++pass) checksum += kernel(image, 0);
    return checksum;
  };
  enum : size_t { kPortable, kDispatched };
  const bench::Comparison crc = bench::CompareInterleaved(
      {{"portable", [&] { return passes(internal::Crc32Portable); }},
       {"dispatched", [&] { return passes(Crc32); }}},
      {{kDispatched, kPortable, 1.0 / kMinCrcSpeedup}}, kRounds,
      /*slices=*/1);
  const double portable_s = crc.min_s[kPortable] / kCrcPasses;
  const double dispatched_s = crc.min_s[kDispatched] / kCrcPasses;
  const double crc_speedup = portable_s / dispatched_s;
  const auto gb_per_s = [&](double seconds) {
    return static_cast<double>(image.size()) / seconds / 1e9;
  };
  std::printf("\nCRC-32 over a sealed %s image (per pass, min of %d x %d):\n",
              bench::FormatBytes(image.size()).c_str(), kRounds, crc.blocks);
  std::printf("portable   (slice-by-8):            %.2f ms, %.2f GB/s\n",
              portable_s * 1e3, gb_per_s(portable_s));
  std::printf("dispatched (Crc32):                 %.2f ms, %.2f GB/s\n",
              dispatched_s * 1e3, gb_per_s(dispatched_s));
  std::printf("CRC speedup:                        %.1fx (bar: %.1fx)\n",
              crc_speedup, kMinCrcSpeedup);
  summary.Set("crc_image_bytes", static_cast<uint64_t>(image.size()));
  summary.Set("crc_passes_per_round", kCrcPasses);
  summary.Set("crc_blocks", crc.blocks);
  summary.Set("crc_portable_s", portable_s);
  summary.Set("crc_dispatched_s", dispatched_s);
  summary.Set("crc_portable_gb_per_s", gb_per_s(portable_s));
  summary.Set("crc_dispatched_gb_per_s", gb_per_s(dispatched_s));
  summary.Set("crc_speedup", crc_speedup);
  summary.Set("crc_min_speedup", kMinCrcSpeedup);

  // Refresh bar: the merge-seal against MergeFrom + Seal of a live
  // build side, both starting from the CRC image and its inventory
  // (sealed once, as a serving build side would have been).
  const hex::CellIndex probe_cell =
      foundation
          ->CellsForRoute(bench::kCorridorOrigin, bench::kCorridorDestination,
                          bench::kCorridorSegment)
          .front();
  const auto refreshed = [&](const core::InventoryQuery& q) -> uint64_t {
    const core::CellSummary* probe = q.Cell(probe_cell);
    return q.size() + q.DistinctCells() +
           (probe != nullptr ? probe->record_count() : 0);
  };
  bool refresh_failed = false;
  const auto refresh_bar = [&](const char* name, int delta_generations) {
    const auto delta = [&] {
      return delta_generations == 0
                 ? core::Inventory(live.resolution(), core::SummaryMap{})
                 : bench::CorridorInventory(delta_generations,
                                            kCellsPerGeneration);
    };
    enum : size_t { kSeal, kMergeSeal };
    const bench::Comparison refresh = bench::CompareInterleaved(
        {{"merge_from+seal",
          [&] {
            refresh_failed |= !live.MergeFrom(delta()).ok();
            return refreshed(*live.Seal());
          }},
         {"merge_seal",
          [&] {
            Result<std::shared_ptr<const core::InventorySnapshot>> next =
                foundation->MergeSeal(delta());
            if (!next.ok()) {
              refresh_failed = true;
              return uint64_t{0};
            }
            foundation = std::move(next).value();
            return refreshed(*foundation);
          }}},
        {{kMergeSeal, kSeal, 1.0 / kMinRefreshSpeedup}}, kRounds,
        /*slices=*/1);
    const double seal_s = refresh.min_s[kSeal];
    const double merge_seal_s = refresh.min_s[kMergeSeal];
    std::printf("\nrefresh, %s delta (min of %d x %d):\n", name, kRounds,
                refresh.blocks);
    std::printf("merge_from+seal (re-encode all):    %.2f ms\n", seal_s * 1e3);
    std::printf("merge_seal      (copy untouched):   %.2f ms\n",
                merge_seal_s * 1e3);
    std::printf("refresh speedup:                    %.1fx (bar: %.1fx)\n",
                seal_s / merge_seal_s, kMinRefreshSpeedup);
    const std::string prefix = std::string("refresh_") + name + "_";
    summary.Set(prefix + "delta_keys",
                static_cast<uint64_t>(delta().size()));
    summary.Set(prefix + "blocks", refresh.blocks);
    summary.Set(prefix + "seal_s", seal_s);
    summary.Set(prefix + "merge_seal_s", merge_seal_s);
    summary.Set(prefix + "speedup", seal_s / merge_seal_s);
    if (refresh.diverged) {
      std::fprintf(stderr, "FAIL: the %s-delta refresh paths disagree\n",
                   name);
      refresh_failed = true;
    } else if (!refresh.met) {
      std::fprintf(stderr,
                   "FAIL: %s-delta refresh speedup %.1fx below %.1fx bar\n",
                   name, seal_s / merge_seal_s, kMinRefreshSpeedup);
      refresh_failed = true;
    }
  };
  refresh_bar("empty", 0);
  refresh_bar("one_percent", kDeltaGenerations);
  for (int set = 0; set < core::kNumGroupingSets; ++set) {
    foundation->VisitGroupingSet(
        static_cast<core::GroupingSet>(set),
        [](const core::GroupKey&, const core::CellSummary&) {});
  }
  refresh_bar("empty_decoded", 0);
  const double heap_mb = HeapInUseMb();
  Result<std::shared_ptr<const core::InventorySnapshot>> hot =
      foundation->MergeSeal(core::Inventory(live.resolution(), {}));
  refresh_failed |= !hot.ok();
  const double added_mb = HeapInUseMb() - heap_mb;
  std::printf("heap one merge-seal holds over the decoded image: %.1f MB "
              "(its image: %.1f MB)\n",
              added_mb, static_cast<double>(image.size()) / (1024.0 * 1024.0));
  summary.Set("refresh_empty_decoded_heap_added_mb", added_mb);
  summary.Set("refresh_summaries", static_cast<uint64_t>(live.size()));
  summary.Set("refresh_min_speedup", kMinRefreshSpeedup);
  const int written = summary.Write();

  int status = written;
  if (!result.met) {
    std::fprintf(stderr, "FAIL: cold-start speedup %.1fx below %.0fx bar\n",
                 speedup, kMinSpeedup);
    status = 1;
  }
  if (crc.diverged) {
    std::fprintf(stderr, "FAIL: the CRC kernels disagree\n");
    status = 1;
  } else if (!crc.met) {
    std::fprintf(stderr, "FAIL: CRC speedup %.1fx below %.1fx bar\n",
                 crc_speedup, kMinCrcSpeedup);
    status = 1;
  }
  if (refresh_failed) status = 1;
  return status;
}

}  // namespace
}  // namespace pol

int main(int argc, char** argv) { return pol::Run(argc, argv); }
