// Serving-path overhead: what the serving-resilience layer (admission
// control + deadline bookkeeping) and the query-level telemetry layer
// (windowed latency histograms, QPS/error rates, wide-event query log,
// background OpenMetrics exporter) each add to the hot read path.
// Three shapes share one sealed inventory:
//
//   raw         - ServingInventory::Acquire() + a batch of point lookups
//   guarded     - the same batch inside ServingGuard::Run with telemetry
//                 off and an infinite deadline (admission fast path: two
//                 atomics + one clock read per call; the snapshot is the
//                 thread's pinned one)
//   telemetered - telemetry on: every call records into two windowed
//                 rings and the query log, with the exporter thread
//                 rendering OpenMetrics to a temp file in the background
//
// A guarded call writes no cache line another thread's call writes,
// except the class's in-flight slot count, the query log's id counter
// and (OK calls) the reservoir's seen-counter; its snapshot pin holds
// the snapshot until the thread's first call after a swap (DESIGN.md
// §3.7). The single-threaded bars cannot see sharing, so a report-only
// concurrent shape runs beside them: kConcurrentThreads threads making
// calls of kConcurrentLookupsPerCall lookups (about one ETA estimate),
// bare lookups on a held snapshot against telemetered calls. Its
// concurrent_* keys carry no bar.
//
// Each timed call does kLookupsPerCall point lookups, mirroring one
// real request answering a corridor. There are two bars, each 2%:
// `guarded` over `raw` (the guard) and `telemetered` over `guarded`
// (the telemetry). Both read the median paired slice ratio of
// bench::CompareInterleaved: each round is cut into kSlicesPerRound
// slices of a few milliseconds, run shape after shape, so each pair of
// slices shares the machine's speed. A ratio of minimum round times
// does not hold still on a shared host: the machine's speed drifts
// within a round, and each shape's fastest round comes from a
// different stretch, so min-round ratios of identical code spread
// about +-4% from run to run, twice the bars. The minimum round times
// are still reported. Exits non-zero past either bar so
// tools/run_tier1.sh --obs can gate on it.

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/deadline.h"
#include "core/serving_guard.h"
#include "core/serving_inventory.h"
#include "hexgrid/hexgrid.h"
#include "obs/querylog.h"

namespace pol {
namespace {

constexpr int kRounds = 11;
constexpr double kMaxOverhead = 0.02;
constexpr int kCallsPerRound = 12000;
constexpr int kLookupsPerCall = 128;
constexpr int kSlicesPerRound = 48;
constexpr int kCallsPerSlice = kCallsPerRound / kSlicesPerRound;
static_assert(kCallsPerSlice * kSlicesPerRound == kCallsPerRound);

// The report-only concurrent call shape: kConcurrentThreads fresh
// threads, started together, each making kConcurrentCallsPerThread
// calls of kConcurrentLookupsPerCall lookups — about the lookups of one
// ETA estimate, at the two clients of perfbench's closed loop.
constexpr int kConcurrentThreads = 2;
constexpr int kConcurrentLookupsPerCall = 3;
constexpr int kConcurrentCallsPerThread = 4000;
constexpr int kConcurrentRounds = 5;
constexpr int kConcurrentSlices = 16;

// One call's `lookups` lookups, cycling through `probes` from *cursor.
// Every shape runs this same out-of-line loop, so the bars time what
// wraps a call, not how each shape's copy of the loop was compiled.
[[gnu::noinline]] uint64_t LookupBatch(
    const core::InventorySnapshot& snapshot,
    const std::vector<hex::CellIndex>& probes, size_t* cursor,
    int lookups = kLookupsPerCall) {
  uint64_t found = 0;
  size_t next = *cursor;
  for (int i = 0; i < lookups; ++i) {
    if (snapshot.Cell(probes[next]) != nullptr) ++found;
    next = (next + 1) % probes.size();
  }
  *cursor = next;
  return found;
}

uint64_t RawSlice(const core::ServingInventory& store,
                  const std::vector<hex::CellIndex>& probes) {
  uint64_t found = 0;
  size_t cursor = 0;
  for (int call = 0; call < kCallsPerSlice; ++call) {
    found += LookupBatch(*store.Acquire(), probes, &cursor);
  }
  return found;
}

uint64_t GuardSlice(core::ServingGuard& guard,
                    const std::vector<hex::CellIndex>& probes) {
  uint64_t found = 0;
  size_t cursor = 0;
  for (int call = 0; call < kCallsPerSlice; ++call) {
    const Status status = guard.Run(
        core::QueryClass::kInteractive, Deadline(),
        [&found, &cursor, &probes](const core::InventorySnapshot& snapshot) {
          found += LookupBatch(snapshot, probes, &cursor);
          return Status::OK();
        });
    if (!status.ok()) return 0;  // Admission must never fail here.
  }
  return found;
}

// One slice of the concurrent shape: every thread runs `call(&cursor)`
// kConcurrentCallsPerThread times from its own cursor. Returns the
// summed lookup hits.
template <typename Call>
uint64_t ConcurrentSlice(const Call& call) {
  std::atomic<bool> go{false};
  std::array<uint64_t, kConcurrentThreads> found{};
  std::vector<std::thread> threads;
  for (int t = 0; t < kConcurrentThreads; ++t) {
    threads.emplace_back([&go, &found, &call, t] {
      size_t cursor = static_cast<size_t>(t) * 7;
      while (!go.load(std::memory_order_acquire)) {
      }
      uint64_t hits = 0;
      for (int c = 0; c < kConcurrentCallsPerThread; ++c) hits += call(&cursor);
      found[static_cast<size_t>(t)] = hits;
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
  uint64_t total = 0;
  for (const uint64_t hits : found) total += hits;
  return total;
}

int Run(int argc, char** argv) {
  bench::Summary summary("serving_telemetry", argc, argv);
  bench::PrintHeader("Serving overhead (guard, then windows + log + exporter)");
  core::ServingInventory store(bench::CorridorInventory(48, 40));

  core::ServingGuardOptions plain_options;
  plain_options.telemetry.enabled = false;
  core::ServingGuard plain(&store, plain_options);

  core::ServingGuardOptions telemetered_options;  // Telemetry on by default.
  core::ServingGuard telemetered(&store, telemetered_options);

  // The exporter renders the full registry to a temp file throughout
  // the rounds, so the telemetry bar covers the whole subsystem, not
  // just the record path.
  const std::string out_dir =
      (std::filesystem::temp_directory_path() / "pol_bench_serving_telemetry")
          .string();
  std::filesystem::create_directories(out_dir);
  core::TelemetryExporterOptions exporter;
  exporter.openmetrics_path = out_dir + "/metrics.txt";
  exporter.period_seconds = 0.25;
  const Status exporter_status = telemetered.StartTelemetryExporter(exporter);
  if (!exporter_status.ok()) {
    std::fprintf(stderr, "FAIL: cannot start exporter: %s\n",
                 exporter_status.message().c_str());
    return 1;
  }

  std::printf("snapshot: %s summaries, %d calls x %d lookups per round\n",
              bench::FormatCount(store.size()).c_str(), kCallsPerRound,
              kLookupsPerCall);
  std::printf("exporter period %.2fs\n\n", exporter.period_seconds);

  // Probe every corridor cell plus misses (cells far off the corridor),
  // cycled, so every shape hits the same mix.
  std::vector<hex::CellIndex> probes = store.Acquire()->CellsForRoute(
      bench::kCorridorOrigin, bench::kCorridorDestination,
      bench::kCorridorSegment);
  const size_t hits = probes.size();
  for (size_t i = 0; i < hits / 4 + 1; ++i) {
    probes.push_back(hex::LatLngToCell({-40.0 - 0.3 * i, 10.0}, 6));
  }
  std::printf("probes: %llu (%llu corridor hits)\n",
              static_cast<unsigned long long>(probes.size()),
              static_cast<unsigned long long>(hits));

  enum : size_t { kRaw, kGuarded, kTelemetered };
  const bench::Comparison result = bench::CompareInterleaved(
      {{"raw", [&] { return RawSlice(store, probes); }},
       {"guarded", [&] { return GuardSlice(plain, probes); }},
       {"telemetered", [&] { return GuardSlice(telemetered, probes); }}},
      {{kGuarded, kRaw, 1.0 + kMaxOverhead, bench::Estimator::kMedianPaired},
       {kTelemetered, kGuarded, 1.0 + kMaxOverhead,
        bench::Estimator::kMedianPaired}},
      kRounds, kSlicesPerRound);

  // Report only: the concurrent shape, raw (bare lookups on one held
  // snapshot) against telemetered calls. Its one bar cannot be missed;
  // it is there to read the median paired ratio.
  const std::shared_ptr<const core::InventorySnapshot> held = store.Acquire();
  const bench::Comparison concurrent = bench::CompareInterleaved(
      {{"concurrent_raw",
        [&] {
          return ConcurrentSlice([&](size_t* cursor) {
            return LookupBatch(*held, probes, cursor,
                               kConcurrentLookupsPerCall);
          });
        }},
       {"concurrent_telemetered",
        [&] {
          return ConcurrentSlice([&](size_t* cursor) {
            uint64_t hits = 0;
            const Status status = telemetered.Run(
                core::QueryClass::kInteractive, Deadline(),
                [&](const core::InventorySnapshot& snapshot) {
                  hits = LookupBatch(snapshot, probes, cursor,
                                     kConcurrentLookupsPerCall);
                  return Status::OK();
                });
            return status.ok() ? hits : 0;
          });
        }}},
      {{1, 0, 1e9, bench::Estimator::kMedianPaired}}, kConcurrentRounds,
      kConcurrentSlices);
  telemetered.StopTelemetryExporter();
  std::filesystem::remove_all(out_dir);
  if (result.diverged || concurrent.diverged) {
    std::fprintf(stderr, "FAIL: guarded or telemetered lookups diverge\n");
    return 1;
  }

  // Every telemetered call must have landed in the query log, and the
  // log totals must reconcile exactly (admitted == ok + errors).
  const obs::QueryLog::Totals totals =
      telemetered.telemetry()->query_log().totals();
  if (totals.events != totals.ok + totals.errors) {
    std::fprintf(stderr, "FAIL: query log totals do not reconcile\n");
    return 1;
  }

  const double raw_s = result.min_s[kRaw];
  const double guarded_s = result.min_s[kGuarded];
  const double telemetered_s = result.min_s[kTelemetered];
  const double guard_overhead = result.ratios[0] - 1.0;
  const double telemetry_overhead = result.ratios[1] - 1.0;
  const double lookups =
      static_cast<double>(kCallsPerRound) * kLookupsPerCall;
  std::printf("raw         (Acquire + lookups): %.4f s (%.0f ns/op)\n",
              raw_s, raw_s / lookups * 1e9);
  std::printf("guarded     (telemetry off):     %.4f s (%.0f ns/op)\n",
              guarded_s, guarded_s / lookups * 1e9);
  std::printf("telemetered (windows + log):     %.4f s (%.0f ns/op)\n",
              telemetered_s, telemetered_s / lookups * 1e9);
  std::printf("min of %d rounds x %d block(s)\n", kRounds, result.blocks);
  std::printf("guard overhead:                  %s (median paired ratio "
              "of %d slices a round, bar: %s)\n",
              bench::FormatPercent(guard_overhead).c_str(), kSlicesPerRound,
              bench::FormatPercent(kMaxOverhead).c_str());
  std::printf("telemetry overhead:              %s (same, bar: %s)\n",
              bench::FormatPercent(telemetry_overhead).c_str(),
              bench::FormatPercent(kMaxOverhead).c_str());
  std::printf("query log: %llu events (%llu ok, %llu errors, %llu slow)\n",
              static_cast<unsigned long long>(totals.events),
              static_cast<unsigned long long>(totals.ok),
              static_cast<unsigned long long>(totals.errors),
              static_cast<unsigned long long>(totals.slow));

  summary.Set("summaries", static_cast<uint64_t>(store.size()));
  summary.Set("rounds", kRounds);
  summary.Set("blocks", result.blocks);
  summary.Set("calls_per_round", kCallsPerRound);
  summary.Set("slices_per_round", kSlicesPerRound);
  summary.Set("lookups_per_call", kLookupsPerCall);
  summary.Set("raw_s", raw_s);
  summary.Set("guarded_s", guarded_s);
  // The guarded shape under its former serving-telemetry summary name.
  summary.Set("plain_s", guarded_s);
  summary.Set("telemetered_s", telemetered_s);
  summary.Set("guard_overhead_frac", guard_overhead);
  summary.Set("overhead_frac", telemetry_overhead);
  summary.Set("overhead_estimator", "median_paired_slice_ratio");
  summary.Set("max_overhead_frac", kMaxOverhead);
  summary.Set("logged_events", totals.events);
  // The report-only concurrent shape (no bar): wall ns per call over
  // the whole round, i.e. the inverse of the threads' joint throughput.
  const double concurrent_calls_per_round =
      static_cast<double>(kConcurrentSlices) * kConcurrentThreads *
      kConcurrentCallsPerThread;
  const double concurrent_raw_ns =
      concurrent.min_s[0] / concurrent_calls_per_round * 1e9;
  const double concurrent_telemetered_ns =
      concurrent.min_s[1] / concurrent_calls_per_round * 1e9;
  std::printf("concurrent  (%d threads x %d lookups, report only): raw "
              "%.0f ns/call, telemetered %.0f ns/call, overhead %s\n",
              kConcurrentThreads, kConcurrentLookupsPerCall,
              concurrent_raw_ns, concurrent_telemetered_ns,
              bench::FormatPercent(concurrent.ratios[0] - 1.0).c_str());
  summary.Set("concurrent_threads", kConcurrentThreads);
  summary.Set("concurrent_lookups_per_call", kConcurrentLookupsPerCall);
  summary.Set("concurrent_raw_ns_per_call", concurrent_raw_ns);
  summary.Set("concurrent_telemetered_ns_per_call", concurrent_telemetered_ns);
  summary.Set("concurrent_overhead_frac", concurrent.ratios[0] - 1.0);
  const int written = summary.Write();

  if (!result.met) {
    std::fprintf(stderr,
                 "FAIL: serving overhead (guard %.2f%%, telemetry %.2f%%) "
                 "exceeds %.2f%%\n",
                 guard_overhead * 100.0, telemetry_overhead * 100.0,
                 kMaxOverhead * 100.0);
    return 1;
  }
  return written;
}

}  // namespace
}  // namespace pol

int main(int argc, char** argv) { return pol::Run(argc, argv); }
