// polbench: the repository benchmark (see README.md beside this file).
//
//   polbench --workload <build_global|serve_steady|serve_refresh>
//            --seed <n> --seconds <s> --trace <0|1> --scratch <dir>
//
// Each run simulates its inputs from --seed (sim::FleetSimulator), then
// runs the daily cycle of the inventory: build the archive
// (RunPipeline -> Seal -> WriteTo store), cold-start the serving side
// from the published generation, serve ETA queries (closed loop, then
// open loop), sweep the (cell) grouping set, and fold daily deltas in
// with Refresh. The workload decides how the --seconds budget is split
// between those phases and whether refreshes run beside the readers.
//
// --trace 0 prints every end-to-end metric; --trace 1 runs the layers
// one at a time from this file, timing each public call, and prints
// the per-layer metrics. Every output is checked (see Gate below); the
// process exits 1 on any wrong answer and prints no result.

#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ais/messages.h"
#include "ais/types.h"
#include "common/deadline.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/cleaning.h"
#include "core/enrich.h"
#include "core/extractor.h"
#include "core/geofence.h"
#include "core/inventory.h"
#include "core/inventory_builder.h"
#include "core/inventory_snapshot.h"
#include "core/pipeline.h"
#include "core/serving_guard.h"
#include "core/serving_inventory.h"
#include "core/serving_metric_names.h"
#include "core/snapshot_codec.h"
#include "core/trips.h"
#include "flow/threadpool.h"
#include "harness.h"
#include "hexgrid/hexgrid.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "sim/fleet.h"
#include "sim/ports.h"
#include "store/snapshot_format.h"
#include "store/snapshot_store.h"
#include "usecases/eta.h"

namespace {
std::atomic<uint64_t> g_fsyncs{0};
}  // namespace

// Counts the store's fsyncs (store.publish.fsyncs). The library is
// linked statically into this binary, so its fsync calls bind here.
extern "C" int fsync(int fd) {
  g_fsyncs.fetch_add(1, std::memory_order_relaxed);
  return static_cast<int>(::syscall(SYS_fsync, fd));
}

namespace pol::perfbench {
namespace {

// ---------------------------------------------------------------- setup

// Thread counts, fixed so that runs compare across machines with the
// same core count: at most three busy threads on a four-core host.
constexpr int kPipelineThreads = 2;  // Pool; the caller folds beside it.
constexpr int kClosedLoopClients = 2;
// One open-loop reader: with two beside the refresh writer, the readers
// of a 4-vCPU host lost whole milliseconds to co-scheduling.
constexpr int kOpenLoopReaders = 1;  // Plus one refresh writer.
constexpr int kSetupRepeats = 3;

// The simulated archive: a 45-day global window of the paper's mix
// (non-commercial rows are the majority, default error injection),
// then twelve daily deltas, then a held-out window whose voyages supply
// the query positions.
constexpr int kCommercialVessels = 200;
constexpr int kNoncommercialVessels = 600;
constexpr int kBaseDays = 45;
// Archived reports are 8x sparser than the simulator's default cadence,
// so 800 vessels fit a ~150k-report build; many vessels keep the
// archive's shape (summaries per report, miss share) within ~2% from
// seed to seed.
constexpr double kCadence = 8.0;
constexpr int kDeltaDays = 12;
constexpr int kHoldoutDays = 30;  // Voyages the queries follow.
constexpr UnixSeconds kStart = 1640995200;  // 2022-01-01.

// Open-loop offered load, in ETA queries per second: about half of one
// closed-loop client's capacity on the reference host.
constexpr double kOpenLoopRateQps = 150000.0;
// Deadline of every guarded ETA query (finite, never reached when
// healthy).
constexpr double kQueryDeadlineSeconds = 0.05;
// query_p99_us is the median, over windows of this length, of each
// window's p99 (see MedianWindowQuantile).
constexpr double kLatencyWindowSeconds = 0.01;
// Every kCheckStride-th guarded answer is re-asked of the build side.
constexpr size_t kCheckStride = 7;

double Now() { return obs::NowSeconds(); }

void SpinUntil(double due) {
  while (Now() < due) {
  }
}

struct Query {
  geo::LatLng position;
  ais::MarketSegment segment = ais::MarketSegment::kOther;
  sim::PortId origin = sim::kNoPort;
  sim::PortId destination = sim::kNoPort;
};

struct Inputs {
  std::vector<ais::VesselInfo> fleet;
  std::vector<ais::PositionReport> base;
  std::vector<std::string> deltas;  // Serialized delta inventories.
  uint64_t delta_reports = 0;
  std::vector<Query> queries;
};

core::PipelineConfig PipelineSettings() {
  core::PipelineConfig config;
  config.partitions = 8;
  config.threads = kPipelineThreads;
  config.chunks = 8;
  config.max_in_flight_chunks = 2;
  config.resolution = 6;
  config.commercial_only = true;
  return config;
}

// Simulates the archive, the held-out query voyages and the daily
// deltas for `seed`; deterministic.
Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  sim::FleetConfig archive;
  archive.seed = seed;
  archive.commercial_vessels = kCommercialVessels;
  archive.noncommercial_vessels = kNoncommercialVessels;
  archive.start_time = kStart;
  archive.coastal_interval_s *= kCadence;
  archive.ocean_interval_s *= kCadence;
  archive.noncommercial_interval_s *= kCadence;
  archive.end_time = kStart + (kBaseDays + kDeltaDays + kHoldoutDays) * 86400;
  sim::SimulationOutput sim = sim::FleetSimulator(archive).Run();
  in.fleet = sim.fleet;
  const UnixSeconds split = kStart + kBaseDays * 86400;
  std::vector<std::vector<ais::PositionReport>> daily(kDeltaDays);
  for (const ais::PositionReport& report : sim.reports) {
    if (report.timestamp < split) {
      in.base.push_back(report);
    } else {
      const int64_t day = (report.timestamp - split) / 86400;
      if (day >= 0 && day < kDeltaDays) daily[static_cast<size_t>(day)].push_back(report);
    }
  }
  const core::PipelineConfig config = PipelineSettings();
  for (const auto& reports : daily) {
    in.delta_reports += reports.size();
    core::PipelineResult delta = core::RunPipeline(reports, in.fleet, config);
    std::string bytes;
    delta.inventory->SerializeTo(&bytes);
    in.deltas.push_back(std::move(bytes));
  }

  // Held-out voyages: the same fleet's voyages that depart after the
  // last delta (never folded), as in bench_eta's temporal split, so the
  // query positions follow the shipping lanes' spatial skew.
  const UnixSeconds holdout = split + kDeltaDays * 86400;
  std::unordered_map<ais::Mmsi, ais::MarketSegment> segments;
  for (const ais::VesselInfo& vessel : sim.fleet) {
    segments[vessel.mmsi] = vessel.segment;
  }
  std::unordered_map<ais::Mmsi, std::vector<const sim::VoyageTruth*>> by_vessel;
  for (const sim::VoyageTruth& voyage : sim.voyages) {
    if (voyage.departure >= holdout) by_vessel[voyage.mmsi].push_back(&voyage);
  }
  for (const ais::PositionReport& report : sim.reports) {
    if (report.timestamp < holdout || std::fabs(report.lat_deg) > 90.0 ||
        std::fabs(report.lng_deg) > 180.0) {
      continue;
    }
    const auto it = by_vessel.find(report.mmsi);
    if (it == by_vessel.end()) continue;
    for (const sim::VoyageTruth* voyage : it->second) {
      if (report.timestamp < voyage->departure ||
          report.timestamp > voyage->arrival) {
        continue;
      }
      Query query;
      query.position = {report.lat_deg, report.lng_deg};
      query.segment = segments[report.mmsi];
      query.origin = voyage->origin;
      query.destination = voyage->destination;
      in.queries.push_back(query);
      break;
    }
  }
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  for (size_t i = in.queries.size(); i > 1; --i) {
    std::swap(in.queries[i - 1], in.queries[rng.NextBelow(i)]);
  }
  return in;
}

uint64_t Fingerprint(const Inputs& in) {
  uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](uint64_t v) { h = (h ^ v) * 1099511628211ULL; };
  mix(in.base.size());
  for (const ais::PositionReport& r : in.base) {
    mix(r.mmsi);
    mix(static_cast<uint64_t>(r.timestamp));
  }
  for (const std::string& d : in.deltas) mix(std::hash<std::string>()(d));
  for (const Query& q : in.queries) {
    uint64_t bits = 0;
    std::memcpy(&bits, &q.position.lat_deg, sizeof(bits));
    mix(bits);
  }
  return h;
}

core::Inventory Deserialize(const std::string& bytes) {
  Result<core::Inventory> inventory = core::Inventory::DeserializeFrom(bytes);
  if (!inventory.ok()) {
    std::fprintf(stderr, "FATAL: cannot deserialize inventory: %s\n",
                 inventory.status().message().c_str());
    std::exit(1);
  }
  return std::move(*inventory);
}

// ------------------------------------------------------------ reporting

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string detail;  // Samples, percentile and samples beyond it.
};

// Failure accounting for one run: every attempted operation lands in
// exactly one outcome. NotFound is an answered miss, not a failure.
struct Ledger {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t not_found = 0;
  uint64_t shed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t other = 0;
  uint64_t mismatched = 0;

  void Count(const Status& status) {
    ++attempted;
    switch (status.code()) {
      case StatusCode::kOk: ++ok; break;
      case StatusCode::kNotFound: ++not_found; break;
      case StatusCode::kResourceExhausted: ++shed; break;
      case StatusCode::kDeadlineExceeded: ++deadline_exceeded; break;
      default: ++other; break;
    }
  }
  void Add(const Ledger& o) {
    attempted += o.attempted;
    ok += o.ok;
    not_found += o.not_found;
    shed += o.shed;
    deadline_exceeded += o.deadline_exceeded;
    other += o.other;
    mismatched += o.mismatched;
  }
  uint64_t failed() const { return shed + deadline_exceeded + other + mismatched; }
};

// The correctness gate: every check that fails is printed and makes the
// run exit non-zero without a result line.
struct Gate {
  std::vector<std::string> failures;
  void Check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

std::string Detail(const TimingSummary& s) {
  char buf[200];
  std::snprintf(buf, sizeof(buf), "n=%zu min=%.6g median=%.6g p%g=%.6g beyond=%zu max=%.6g",
                s.n, s.min, s.median, s.tail_q * 100.0, s.tail, s.tail_beyond, s.max);
  return buf;
}

// ---------------------------------------------------- content identity

// Two snapshot images hold the same inventory when every section is
// byte-identical, except the seal time and seal ordinal in the meta
// section, which differ by construction between two seals.
bool SameContent(const std::string& a, const std::string& b, std::string* why) {
  Result<store::SnapshotFileView> va = store::SnapshotFileView::Validate(a);
  Result<store::SnapshotFileView> vb = store::SnapshotFileView::Validate(b);
  if (!va.ok() || !vb.ok()) {
    *why = "image does not validate";
    return false;
  }
  if (va->Sections().size() != vb->Sections().size()) {
    *why = "section count differs";
    return false;
  }
  for (const store::SnapshotFileView::SectionInfo& info : va->Sections()) {
    if (info.id == core::kSnapSectionMeta) continue;
    Result<std::string_view> sa = va->Section(info.id);
    Result<std::string_view> sb = vb->Section(info.id);
    if (!sb.ok() || *sa != *sb) {
      *why = "section " + std::to_string(info.id) + " differs";
      return false;
    }
  }
  Result<core::SnapshotMeta> ma = core::DecodeSnapshotMeta(*va);
  Result<core::SnapshotMeta> mb = core::DecodeSnapshotMeta(*vb);
  if (!ma.ok() || !mb.ok() || ma->resolution != mb->resolution ||
      ma->total != mb->total ||
      ma->stats.summaries_per_set != mb->stats.summaries_per_set ||
      ma->stats.route_index_routes != mb->stats.route_index_routes ||
      ma->stats.route_index_cells != mb->stats.route_index_cells ||
      ma->stats.segment_index_cells != mb->stats.segment_index_cells) {
    *why = "meta differs";
    return false;
  }
  return true;
}

std::string Encode(const core::InventorySnapshot& snapshot) {
  std::string image;
  snapshot.EncodeTo(&image);
  return image;
}

// ------------------------------------------------------------- queries

// One ETA answer, comparable bit for bit.
struct Answer {
  bool found = false;
  uc::EtaEstimate estimate;
  bool operator==(const Answer& o) const {
    if (found != o.found) return false;
    if (!found) return true;
    return estimate.seconds == o.estimate.seconds &&
           estimate.p10_seconds == o.estimate.p10_seconds &&
           estimate.p90_seconds == o.estimate.p90_seconds &&
           estimate.support == o.estimate.support &&
           estimate.grouping_set == o.estimate.grouping_set;
  }
};

Result<uc::EtaEstimate> Estimate(const core::InventoryQuery& inventory,
                                 const Query& q) {
  return uc::EtaEstimator(&inventory).Estimate(q.position, q.segment, q.origin,
                                               q.destination);
}

// A sampled guarded answer, to be re-asked of the build side. `seal`
// names the snapshot that answered (refresh phases change it).
struct Sample {
  size_t query = 0;
  uint64_t seal = 0;
  Answer answer;
};

// One guarded ETA query: the paper's section 4.1.2 ETA at a position,
// inside ServingGuard::RunOp with a finite deadline.
Status GuardedEta(core::ServingGuard& guard, const Query& q, Sample* sample) {
  return guard.RunOp(
      "eta", core::QueryClass::kInteractive,
      Deadline::AfterSeconds(kQueryDeadlineSeconds),
      [&](const core::InventorySnapshot& snapshot) -> Status {
        Result<uc::EtaEstimate> estimate = Estimate(snapshot, q);
        if (sample != nullptr) {
          sample->seal = snapshot.stats().seal_sequence;
          sample->answer.found = estimate.ok();
          if (estimate.ok()) sample->answer.estimate = *estimate;
        }
        return estimate.ok() ? Status::OK() : estimate.status();
      });
}

// Re-asks every sample of seal `seal` of `reference`; returns
// mismatches.
uint64_t CheckSamples(const std::vector<Sample>& samples, uint64_t seal,
                      bool any_seal, const core::InventoryQuery& reference,
                      const std::vector<Query>& queries, uint64_t* checked) {
  uint64_t mismatched = 0;
  for (const Sample& s : samples) {
    if (!any_seal && s.seal != seal) continue;
    Result<uc::EtaEstimate> expected = Estimate(reference, queries[s.query]);
    Answer want;
    want.found = expected.ok();
    if (expected.ok()) want.estimate = *expected;
    if (!(want == s.answer)) ++mismatched;
    ++*checked;
  }
  return mismatched;
}

// ------------------------------------------------------------ the run

// A run is kCycles cycles; each cycle runs a slice of every phase, in
// the order of the daily cycle, so that slow spells of a shared host
// fall on all metrics alike rather than on one phase. Phase budgets are
// shares of --seconds / kCycles; every slice runs at least once.
struct Workload {
  const char* name;
  double build, cold, closed, sweep, open;
  // Daily deltas folded in per cycle. serve_refresh runs them beside the
  // open-loop readers; the others run them alone after the readers.
  int refreshes;
  bool refresh_beside_readers;
};

constexpr int kCycles = 6;

constexpr Workload kWorkloads[] = {
    {"build_global", 0.40, 0.03, 0.07, 0.05, 0.40, 1, false},
    {"serve_steady", 0.02, 0.08, 0.15, 0.15, 0.55, 1, false},
    {"serve_refresh", 0.10, 0.04, 0.08, 0.08, 0.0, kDeltaDays / kCycles, true},
};

class Bench {
 public:
  Bench(const Workload& workload, uint64_t seed, double seconds,
        std::string scratch)
      : w_(workload), seed_(seed), seconds_(seconds),
        scratch_(std::move(scratch)), store_({scratch_ + "/store", 3}),
        refresh_store_({scratch_ + "/refreshed", 3}) {}

  int Run(bool trace);

 private:
  void Setup();
  void BuildSlice(double budget);
  void ColdStartSlice(double budget);
  void ClosedLoopSlice(double budget);
  void SweepSlice(double budget);
  void OpenLoopSlice(double min_seconds, size_t refreshes, bool traced);
  void RefreshSlice();
  void EmitEndToEnd();
  double OpenLoopP99(std::string* detail);
  void TracedBuild();
  void TracedServing();
  void CheckSteady();
  void CheckRefreshed();
  std::unique_ptr<core::ServingInventory> Open(bool with_base);
  core::ServingGuard& Steady();
  core::ServingGuard& Refreshed();
  Status RefreshNext(core::ServingGuard& guard);
  void Emit(const std::string& name, double value, const std::string& unit,
            const std::string& detail = "");
  bool Print(bool trace);

  const Workload& w_;
  const uint64_t seed_;
  const double seconds_;
  const std::string scratch_;
  store::SnapshotStore store_;          // Generations of the build phase.
  store::SnapshotStore refresh_store_;  // Generations Refresh publishes.
  Gate gate_;
  Ledger queries_;
  Ledger operations_;  // Builds, opens, sweeps, refreshes.
  std::vector<Metric> metrics_;

  Inputs in_;
  std::string reference_bytes_;  // Build-side inventory, serialized.
  std::unique_ptr<core::Inventory> reference_;
  std::string published_image_;
  uint64_t summaries_ = 0;

  // Serving sides that live across cycles: a cold-started generation
  // that is never refreshed, and one that folds a delta per cycle.
  std::unique_ptr<core::ServingInventory> steady_;
  std::unique_ptr<core::ServingGuard> steady_guard_;
  std::unique_ptr<core::ServingInventory> refreshed_;
  std::unique_ptr<core::ServingGuard> refreshed_guard_;
  size_t next_delta_ = 0;
  std::vector<uint64_t> seals_;  // Seal ordinal of each refreshed generation.
  std::vector<Sample> steady_samples_;
  std::vector<Sample> refresh_samples_;

  // Samples collected over all cycles.
  std::vector<double> build_rates_;
  std::vector<double> cold_ms_;
  std::vector<double> qps_;
  std::vector<double> sweep_ms_;
  std::vector<double> refresh_s_;
  std::vector<double> latency_us_;
  std::vector<double> late_us_;
  std::vector<TimedSample> timed_latency_us_;
  std::vector<double> acquire_ns_;
  size_t queries_per_round_ = 0;
  double setup_s_ = 0.0;
  double peak_rss_mb_ = 0.0;
};

void Bench::Emit(const std::string& name, double value, const std::string& unit,
                 const std::string& detail) {
  metrics_.push_back({name, value, unit, detail});
}

std::unique_ptr<core::ServingInventory> Bench::Open(bool with_base) {
  Result<std::unique_ptr<core::ServingInventory>> serving =
      with_base ? core::ServingInventory::OpenLatest(store_,
                                                     Deserialize(reference_bytes_))
                : core::ServingInventory::OpenLatest(store_);
  operations_.Count(serving.status());
  if (!serving.ok()) {
    std::fprintf(stderr, "FATAL: OpenLatest: %s\n",
                 serving.status().message().c_str());
    std::exit(1);
  }
  return std::move(*serving);
}

core::ServingGuard& Bench::Steady() {
  if (steady_ == nullptr) {
    steady_ = Open(false);
    steady_guard_ = std::make_unique<core::ServingGuard>(steady_.get());
  }
  return *steady_guard_;
}

core::ServingGuard& Bench::Refreshed() {
  if (refreshed_ == nullptr) {
    refreshed_ = Open(true);
    refreshed_->AttachDurableStore(&refresh_store_);
    refreshed_guard_ = std::make_unique<core::ServingGuard>(refreshed_.get());
    seals_.push_back(refreshed_->active_seal_sequence());
  }
  return *refreshed_guard_;
}

// Folds the next daily delta in; records its wall time and the seal
// ordinal of the generation it published.
Status Bench::RefreshNext(core::ServingGuard& guard) {
  core::Inventory delta = Deserialize(in_.deltas[next_delta_++]);
  const double t0 = Now();
  const Status status = guard.Refresh(std::move(delta));
  refresh_s_.push_back(Now() - t0);
  operations_.Count(status);
  seals_.push_back(refreshed_->active_seal_sequence());
  return status;
}

void Bench::Setup() {
  std::vector<double> times;
  uint64_t first = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = Now();
    Inputs in = MakeInputs(seed_);
    times.push_back(Now() - t0);
    const uint64_t print = Fingerprint(in);
    if (i == 0) first = print;
    gate_.Check(print == first, "setup is not deterministic for the seed");
    in_ = std::move(in);
  }
  gate_.Check(in_.queries.size() >= 1000, "too few held-out query positions");
  setup_s_ = Median(times);

  std::printf("setup_s %.6f (%s)\n", setup_s_, Detail(Summarize(times)).c_str());
  std::printf("setup: %zu archive reports, %zu deltas (%" PRIu64
              " reports), %zu query positions\n",
              in_.base.size(), in_.deltas.size(), in_.delta_reports,
              in_.queries.size());
}

// The daily batch build: RunPipeline -> Seal -> WriteTo(store).
void Bench::BuildSlice(double budget) {
  const core::PipelineConfig config = PipelineSettings();
  const double slice_start = Now();
  do {
    const double t0 = Now();
    core::PipelineResult result = core::RunPipeline(in_.base, in_.fleet, config);
    const std::shared_ptr<const core::InventorySnapshot> sealed =
        result.inventory->Seal();
    std::string image = Encode(*sealed);
    Result<uint64_t> generation = store_.Publish(image);
    const double wall = Now() - t0;
    operations_.Count(result.status);
    operations_.Count(generation.status());
    build_rates_.push_back(static_cast<double>(in_.base.size()) / wall);
    std::string bytes;
    result.inventory->SerializeTo(&bytes);
    if (reference_bytes_.empty()) {
      // The first build's peak: later builds run beside the reference
      // inventory kept here, and how many fit a slice depends on speed.
      struct rusage usage {};
      getrusage(RUSAGE_SELF, &usage);
      peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
      reference_bytes_ = std::move(bytes);
      reference_ = std::move(result.inventory);
      summaries_ = reference_->size();
    } else {
      gate_.Check(bytes == reference_bytes_, "rebuild differs from first build");
    }
    published_image_ = std::move(image);
  } while (Now() - slice_start < budget);
  // The published generation re-opens with the same bytes.
  Result<std::shared_ptr<const core::InventorySnapshot>> reopened =
      core::OpenLatestSnapshot(store_);
  gate_.Check(reopened.ok() && Encode(**reopened) == published_image_,
              "published generation does not re-open byte-identical");
}

void Bench::ColdStartSlice(double budget) {
  const double slice_start = Now();
  int opens = 0;
  do {
    const double t0 = Now();
    std::unique_ptr<core::ServingInventory> serving = Open(false);
    cold_ms_.push_back((Now() - t0) * 1e3);
  } while (++opens < 3 || Now() - slice_start < budget);
}

// Closed loop: kClosedLoopClients clients, each sending its next query
// when the previous one returns, over a fixed count per round.
void Bench::ClosedLoopSlice(double budget) {
  const bool first = steady_ == nullptr;
  core::ServingGuard& guard = Steady();
  queries_per_round_ = in_.queries.size() * 4;
  const size_t per_round = queries_per_round_;
  std::vector<std::vector<Sample>> samples(kClosedLoopClients);
  std::vector<Ledger> ledgers(kClosedLoopClients);
  const auto round = [&](bool record) {
    std::atomic<bool> go{false};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClosedLoopClients; ++c) {
      clients.emplace_back([&, c] {
        const size_t ci = static_cast<size_t>(c);
        while (!go.load(std::memory_order_acquire)) {
        }
        for (size_t i = ci; i < per_round; i += kClosedLoopClients) {
          const size_t qi = i % in_.queries.size();
          Sample sample;
          const bool sampled = record && i % kCheckStride == 0;
          const Status status =
              GuardedEta(guard, in_.queries[qi], sampled ? &sample : nullptr);
          if (!record) continue;
          ledgers[ci].Count(status);
          if (sampled) {
            sample.query = qi;
            samples[ci].push_back(sample);
          }
        }
      });
    }
    const double t0 = Now();
    go.store(true, std::memory_order_release);
    for (std::thread& t : clients) t.join();
    return Now() - t0;
  };
  if (first) round(false);  // Warm: first touches decode, caches fill.
  const double slice_start = Now();
  do {
    qps_.push_back(static_cast<double>(per_round) / round(true));
  } while (Now() - slice_start < budget);
  for (int c = 0; c < kClosedLoopClients; ++c) {
    queries_.Add(ledgers[static_cast<size_t>(c)]);
    steady_samples_.insert(steady_samples_.end(),
                           samples[static_cast<size_t>(c)].begin(),
                           samples[static_cast<size_t>(c)].end());
  }
}

// Guarded full sweeps of the (cell) set on the long-lived generation:
// the Figure 1 map as a running server redraws it. The first draw after
// a cold start also decodes every summary; it runs once, untimed, and
// its cost is core.sweep.ns_per_summary in the traced run. (Timed on
// fresh generations, page faults and allocation made the median swing
// by 30% from run to run.)
void Bench::SweepSlice(double budget) {
  const bool first = steady_ == nullptr;
  core::ServingGuard& guard = Steady();
  const auto sweep = [&] {
    uint64_t visited = 0;
    double sink = 0.0;
    const double t0 = Now();
    const Status status = guard.VisitGroupingSet(
        core::GroupingSet::kCell, Deadline::AfterSeconds(10.0),
        [&](const core::GroupKey&, const core::CellSummary& summary) {
          ++visited;
          sink += static_cast<double>(summary.record_count());
        });
    const double ms = (Now() - t0) * 1e3;
    operations_.Count(status);
    gate_.Check(sink > 0.0 && visited == steady_->DistinctCells(),
                "sweep visited count differs from DistinctCells()");
    return ms;
  };
  if (first) sweep();
  const double slice_start = Now();
  int sweeps = 0;
  do {
    sweep_ms_.push_back(sweep());
  } while (++sweeps < 2 || Now() - slice_start < budget);
}

// Open loop: kOpenLoopReaders readers at a fixed offered rate, latency
// timed from each query's due time. With `refreshes` > 0 one writer
// thread calls Refresh(delta) back to back beside them, and the readers
// run until it is done.
void Bench::OpenLoopSlice(double min_seconds, size_t refreshes, bool traced) {
  const bool on_refreshed = w_.refresh_beside_readers;
  core::ServingGuard& guard = on_refreshed ? Refreshed() : Steady();
  core::ServingInventory* serving = guard.store();
  std::vector<Sample>& kept = on_refreshed ? refresh_samples_ : steady_samples_;
  const double interval = kOpenLoopReaders / kOpenLoopRateQps;
  std::atomic<bool> writer_done{refreshes == 0};
  std::atomic<bool> acquire_stop{false};
  std::vector<OpenLoopResult> results(kOpenLoopReaders);
  std::vector<std::vector<Sample>> samples(kOpenLoopReaders);
  std::vector<Ledger> ledgers(kOpenLoopReaders);
  const double start = Now() + 0.005;
  const double min_end = start + min_seconds;
  const size_t max_count = static_cast<size_t>(
      (min_seconds + 30.0) * kOpenLoopRateQps / kOpenLoopReaders);
  std::vector<std::thread> threads;
  for (int r = 0; r < kOpenLoopReaders; ++r) {
    threads.emplace_back([&, r] {
      const size_t ri = static_cast<size_t>(r);
      results[ri] = RunOpenLoop(
          max_count, start + interval * r / kOpenLoopReaders, interval, Now,
          SpinUntil,
          [&](size_t i) {
            const size_t qi = (i * kOpenLoopReaders + ri) % in_.queries.size();
            Sample sample;
            const bool sampled = i % kCheckStride == 0;
            const Status status =
                GuardedEta(guard, in_.queries[qi], sampled ? &sample : nullptr);
            ledgers[ri].Count(status);
            if (sampled) {
              sample.query = qi;
              samples[ri].push_back(sample);
            }
          },
          [&] {
            return Now() >= min_end && writer_done.load(std::memory_order_acquire);
          });
    });
  }
  if (refreshes > 0) {
    threads.emplace_back([&] {
      SpinUntil(start);
      for (size_t i = 0; i < refreshes; ++i) RefreshNext(guard);
      writer_done.store(true, std::memory_order_release);
    });
  }
  if (traced) {
    // ServingInventory::Acquire beside the readers (and the writer):
    // batches of 256 calls, timed.
    threads.emplace_back([&] {
      SpinUntil(start);
      while (!acquire_stop.load(std::memory_order_acquire)) {
        const double t0 = Now();
        for (int i = 0; i < 256; ++i) {
          if (serving->Acquire() == nullptr) std::abort();
        }
        acquire_ns_.push_back((Now() - t0) * 1e9 / 256.0);
        SpinUntil(Now() + 20e-6);
      }
    });
  }
  for (int r = 0; r < kOpenLoopReaders; ++r) threads[static_cast<size_t>(r)].join();
  acquire_stop.store(true, std::memory_order_release);
  for (size_t t = kOpenLoopReaders; t < threads.size(); ++t) threads[t].join();

  for (int r = 0; r < kOpenLoopReaders; ++r) {
    const size_t ri = static_cast<size_t>(r);
    const OpenLoopResult& result = results[ri];
    for (size_t i = 0; i < result.latency_seconds.size(); ++i) {
      latency_us_.push_back(result.latency_seconds[i] * 1e6);
      timed_latency_us_.push_back(
          {result.due_seconds[i], result.latency_seconds[i] * 1e6});
    }
    for (double s : result.late_seconds) late_us_.push_back(s * 1e6);
    queries_.Add(ledgers[ri]);
    kept.insert(kept.end(), samples[ri].begin(), samples[ri].end());
  }
}

// The cycle's refreshes with no readers (build_global, serve_steady).
void Bench::RefreshSlice() {
  for (int i = 0; i < w_.refreshes; ++i) RefreshNext(Refreshed());
}

// The open loop's p99: the median over 10 ms windows of each window's
// p99, with its description.
double Bench::OpenLoopP99(std::string* detail) {
  size_t windows = 0;
  const double p99 =
      MedianWindowQuantile(timed_latency_us_, kLatencyWindowSeconds, 0.99, &windows);
  gate_.Check(windows >= 5, "open loop has too few windows with a reportable p99");
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "median of %zu window p99s (%.2f s windows, >=%zu beyond each); "
                "offered %.0f/s by %d reader(s)",
                windows, kLatencyWindowSeconds, kMinSamplesBeyond,
                kOpenLoopRateQps, kOpenLoopReaders);
  *detail = buf;
  return p99;
}

void Bench::EmitEndToEnd() {
  Emit("setup_s", setup_s_, "s", "median of " + std::to_string(kSetupRepeats) + " setups");
  Emit("build_reports_per_s", Median(build_rates_), "1/s",
       Detail(Summarize(build_rates_)));
  Emit("peak_rss_mb", peak_rss_mb_, "MB",
       "process peak RSS through setup and the first build");
  Emit("store_bytes_per_report",
       static_cast<double>(published_image_.size()) /
           static_cast<double>(in_.base.size()),
       "B");
  Emit("cold_start_ms", Median(cold_ms_), "ms", Detail(Summarize(cold_ms_)));
  Emit("query_qps", Median(qps_), "1/s",
       Detail(Summarize(qps_)) + " rounds of " +
           std::to_string(queries_per_round_) + " queries, " +
           std::to_string(kClosedLoopClients) + " clients");
  const TimingSummary latency = Summarize(latency_us_);
  Emit("query_p50_us", latency.median, "us", Detail(latency));
  Emit("refresh_s", Median(refresh_s_), "s",
       Detail(Summarize(refresh_s_)) +
           (w_.refresh_beside_readers ? " beside readers" : " alone"));
  std::string detail;
  const double p99 = OpenLoopP99(&detail);
  std::printf("query_p99_us %.6f (%s; a per-layer metric, see README)\n", p99,
              detail.c_str());
  std::printf("sweep_ms %.6f (%s; a per-layer metric, see README)\n",
              Median(sweep_ms_), Detail(Summarize(sweep_ms_)).c_str());
  const TimingSummary late = Summarize(late_us_);
  std::printf("open loop: whole-run %s; generator late %s\n",
              Detail(latency).c_str(), Detail(late).c_str());
}

void Bench::CheckSteady() {
  uint64_t checked = 0;
  queries_.mismatched += CheckSamples(steady_samples_, 0, true, *reference_,
                                      in_.queries, &checked);
  std::printf("steady serving: %" PRIu64 " answers re-checked against the build side\n",
              checked);
}

// Every sampled answer is re-asked of the build side of the generation
// that answered it (base plus the deltas folded in so far), and the
// last generation served must equal Seal(base + every delta folded).
void Bench::CheckRefreshed() {
  if (refreshed_ == nullptr) return;
  gate_.Check(seals_.size() == next_delta_ + 1, "a refresh published no generation");
  core::Inventory running = Deserialize(reference_bytes_);
  uint64_t checked = 0;
  for (size_t g = 0; g < seals_.size(); ++g) {
    if (g > 0) {
      const Status merged = running.MergeFrom(Deserialize(in_.deltas[g - 1]));
      gate_.Check(merged.ok(), "reference merge failed");
    }
    queries_.mismatched += CheckSamples(refresh_samples_, seals_[g], false,
                                        running, in_.queries, &checked);
  }
  gate_.Check(checked == refresh_samples_.size(),
              "an answer came from a snapshot no refresh published");
  std::string why;
  const std::string served = Encode(*refreshed_->Acquire());
  gate_.Check(SameContent(served, Encode(*running.Seal()), &why),
              "last served generation differs from Seal(base + deltas): " + why);
  gate_.Check(next_delta_ > 0, "no delta was refreshed");
  Result<std::shared_ptr<const core::InventorySnapshot>> reopened =
      core::OpenLatestSnapshot(refresh_store_);
  gate_.Check(reopened.ok() && SameContent(Encode(**reopened), served, &why),
              "last published generation differs from the served one");
  std::printf("refreshed serving: %zu generations, %" PRIu64
              " answers re-checked against base + deltas\n",
              seals_.size(), checked);
}

// ------------------------------------------------------------- tracing

// The build, one layer at a time, timing each public call: split,
// clean, enrich, trips, projection and fold per chunk, then seal,
// encode and publish. Compared against the untraced RunPipeline.
void Bench::TracedBuild() {
  const core::PipelineConfig config = PipelineSettings();
  std::vector<double> untraced;
  for (int i = 0; i < 3; ++i) {
    const double t0 = Now();
    core::PipelineResult result = core::RunPipeline(in_.base, in_.fleet, config);
    untraced.push_back(Now() - t0);
    operations_.Count(result.status);
    if (i == 0) {
      result.inventory->SerializeTo(&reference_bytes_);
      reference_ = std::move(result.inventory);
      summaries_ = reference_->size();
    }
  }
  const double pipeline_wall = Median(untraced);

  // One serial pass, traced or not.
  struct LayerStats {
    core::CleaningStats cleaning;
    core::EnrichmentStats enrichment;
    core::TripStats trips;
    uint64_t projected = 0;
    uint64_t folded = 0;
    uint64_t fsyncs = 0;
    size_t image_bytes = 0;
    double wall = 0.0;
  };
  const auto serial_build = [&](SpanRecorder* rec, LayerStats* stats) {
    const auto begin = [&](const char* name, int parent) {
      return rec != nullptr ? rec->Begin(name, parent) : -1;
    };
    const auto end = [&](int id) {
      if (rec != nullptr) rec->End(id);
    };
    const double t0 = Now();
    const int root = begin("build", -1);
    flow::ThreadPool pool(kPipelineThreads);
    int span = begin("flow.split", root);
    std::vector<flow::Dataset<ais::PositionReport>> chunks =
        core::SplitReportsByVessel(in_.base, config.partitions, config.chunks, &pool);
    end(span);
    core::CleaningConfig cleaning_config;
    cleaning_config.partitions = config.partitions;
    cleaning_config.max_speed_knots = config.max_speed_knots;
    span = begin("core.enrich", root);
    const core::Enricher enricher(in_.fleet);
    end(span);
    span = begin("core.trips", root);
    const core::Geofencer geofencer(&sim::PortDatabase::Global(),
                                    config.geofence_resolution);
    end(span);
    core::ExtractorConfig extractor = config.extractor;
    extractor.resolution = config.resolution;
    core::InventoryBuilder builder(extractor);
    using Records = std::optional<flow::Dataset<core::PipelineRecord>>;
    for (flow::Dataset<ais::PositionReport>& chunk : chunks) {
      // Each layer also frees its input, so no time falls between spans.
      std::optional<flow::Dataset<ais::PositionReport>> input(std::move(chunk));
      span = begin("core.cleaning", root);
      Records cleaned(core::CleanChunk(*input, cleaning_config, &stats->cleaning));
      input.reset();
      end(span);
      span = begin("core.enrich", root);
      Records enriched(
          enricher.Enrich(*cleaned, config.commercial_only, &stats->enrichment));
      cleaned.reset();
      end(span);
      span = begin("core.trips", root);
      Records trips(core::ExtractTrips(*enriched, geofencer, &stats->trips));
      enriched.reset();
      end(span);
      span = begin("core.projection", root);
      stats->projected += trips->Count();
      Records projected(core::ProjectToGrid(*trips, config.resolution));
      trips.reset();
      end(span);
      span = begin("core.fold", root);
      builder.Fold(*projected);
      projected.reset();
      end(span);
    }
    span = begin("core.fold", root);
    stats->folded = builder.records_folded();
    core::Inventory inventory = std::move(builder).Finish();
    end(span);
    span = begin("core.seal", root);
    const std::shared_ptr<const core::InventorySnapshot> sealed = inventory.Seal();
    end(span);
    span = begin("core.encode", root);
    std::string image;
    sealed->EncodeTo(&image);
    end(span);
    span = begin("store.publish", root);
    const uint64_t fsyncs0 = g_fsyncs.load();
    Result<uint64_t> generation = store_.Publish(image);
    stats->fsyncs = g_fsyncs.load() - fsyncs0;
    end(span);
    end(root);
    stats->wall = Now() - t0;
    stats->image_bytes = image.size();
    operations_.Count(generation.status());
    // The traced build must be the RunPipeline build.
    std::string bytes;
    inventory.SerializeTo(&bytes);
    gate_.Check(bytes == reference_bytes_,
                "layer-by-layer build differs from RunPipeline");
    std::string why;
    gate_.Check(SameContent(image, Encode(*reference_->Seal()), &why),
                "layer-by-layer build encodes differently: " + why);
    published_image_ = std::move(image);
  };

  LayerStats plain;
  serial_build(nullptr, &plain);
  const char* layers[] = {"flow.split",      "core.cleaning", "core.enrich",
                          "core.trips",      "core.projection", "core.fold",
                          "core.seal",       "core.encode",   "store.publish"};
  std::map<std::string, std::vector<double>> self;
  std::vector<double> unattributed;
  std::vector<double> serial_sum;
  std::vector<double> traced_wall;
  LayerStats stats;
  for (int rep = 0; rep < 3; ++rep) {
    SpanRecorder rec(Now);
    stats = LayerStats();
    serial_build(&rec, &stats);
    double sum = 0.0;
    for (const char* layer : layers) {
      const double s = SelfSecondsByName(rec.spans(), layer);
      self[layer].push_back(s);
      if (std::strcmp(layer, "core.seal") == 0) serial_sum.push_back(sum);
      sum += s;
    }
    unattributed.push_back(UnattributedShare(rec.spans(), 0));
    traced_wall.push_back(stats.wall);
  }
  const auto ns_per = [&](const char* layer, double count) {
    return Median(self[layer]) * 1e9 / std::max(count, 1.0);
  };
  const double reports = static_cast<double>(in_.base.size());
  Emit("core.cleaning.ns_per_report", ns_per("core.cleaning", reports), "ns");
  Emit("core.cleaning.drop_ratio",
       1.0 - static_cast<double>(stats.cleaning.kept) /
                 static_cast<double>(std::max<uint64_t>(stats.cleaning.input, 1)),
       "ratio");
  Emit("core.enrich.ns_per_record",
       ns_per("core.enrich", static_cast<double>(stats.enrichment.input)), "ns");
  Emit("core.enrich.kept_ratio",
       static_cast<double>(stats.enrichment.kept) /
           static_cast<double>(std::max<uint64_t>(stats.enrichment.input, 1)),
       "ratio");
  Emit("core.trips.ns_per_record",
       ns_per("core.trips", static_cast<double>(stats.trips.input)), "ns");
  Emit("core.projection.ns_per_record",
       ns_per("core.projection", static_cast<double>(stats.projected)), "ns");
  Emit("core.fold.ns_per_record",
       ns_per("core.fold", static_cast<double>(stats.folded)), "ns");
  Emit("core.fold.summaries", static_cast<double>(summaries_), "count");
  Emit("core.fold.records_per_summary",
       static_cast<double>(stats.folded) / static_cast<double>(summaries_), "ratio");
  Emit("flow.split.ms", Median(self["flow.split"]) * 1e3, "ms");
  Emit("core.seal.ms", Median(self["core.seal"]) * 1e3, "ms");
  Emit("core.seal.ns_per_summary", ns_per("core.seal", static_cast<double>(summaries_)),
       "ns");
  Emit("core.encode.ms", Median(self["core.encode"]) * 1e3, "ms");
  Emit("core.encode.bytes", static_cast<double>(stats.image_bytes), "B");
  Emit("store.publish.ms", Median(self["store.publish"]) * 1e3, "ms");
  Emit("store.publish.bytes", static_cast<double>(stats.image_bytes), "B");
  Emit("store.publish.fsyncs", static_cast<double>(stats.fsyncs), "count");
  Emit("flow.overlap_gain", Median(serial_sum) / pipeline_wall, "ratio",
       "serial split..fold layer sum / untraced RunPipeline wall");
  Emit("flow.unattributed_share", Median(unattributed), "ratio",
       Detail(Summarize(unattributed)));
  Emit("bench.trace_overhead.build_share", Median(traced_wall) / plain.wall - 1.0,
       "ratio", "traced vs untraced serial build");

  // Merge of each daily delta into a copy of the base (MergeFrom).
  std::vector<double> merge_ms;
  for (const std::string& bytes : in_.deltas) {
    core::Inventory base = Deserialize(reference_bytes_);
    core::Inventory delta = Deserialize(bytes);
    const double t0 = Now();
    const Status merged = base.MergeFrom(std::move(delta));
    merge_ms.push_back((Now() - t0) * 1e3);
    operations_.Count(merged);
  }
  Emit("core.merge.ms", Median(merge_ms), "ms", Detail(Summarize(merge_ms)));
}

// The serving layers in isolation, each on one thread: open, cell
// projection, raw lookups, lazy decode, raw ETA, guard, telemetry.
void Bench::TracedServing() {
  std::vector<double> open_ms;
  std::vector<double> decode_ms;
  for (int i = 0; i < 30; ++i) {
    const double t0 = Now();
    Result<store::SnapshotStore::Opened> opened = store_.OpenLatest();
    const double t1 = Now();
    operations_.Count(opened.status());
    if (!opened.ok()) break;
    Result<std::shared_ptr<const core::InventorySnapshot>> snapshot =
        core::SnapshotFromOpened(std::move(*opened));
    const double t2 = Now();
    operations_.Count(snapshot.status());
    open_ms.push_back((t1 - t0) * 1e3);
    decode_ms.push_back((t2 - t1) * 1e3);
  }
  Emit("store.open.ms", Median(open_ms), "ms", Detail(Summarize(open_ms)));
  Emit("core.snapshot_open.ms", Median(decode_ms), "ms", Detail(Summarize(decode_ms)));

  const auto fresh = [&] {
    Result<std::shared_ptr<const core::InventorySnapshot>> snapshot =
        core::OpenLatestSnapshot(store_);
    if (!snapshot.ok()) std::exit(1);
    return *snapshot;
  };
  const std::vector<Query>& queries = in_.queries;
  const double n = static_cast<double>(queries.size());
  std::shared_ptr<const core::InventorySnapshot> snap = fresh();
  const int res = snap->resolution();

  // Cell projection of every query position.
  std::vector<hex::CellIndex> cells(queries.size());
  std::vector<double> latlng_ns;
  for (int pass = 0; pass < 5; ++pass) {
    const double t0 = Now();
    for (size_t i = 0; i < queries.size(); ++i) {
      cells[i] = hex::LatLngToCell(queries[i].position, res);
    }
    latlng_ns.push_back((Now() - t0) * 1e9 / n);
  }
  Emit("hexgrid.latlng_to_cell_ns", Median(latlng_ns), "ns");

  // ETA's lookup chain, unguarded: route, then type, then cell. The
  // first pass runs on the fresh snapshot and counts first touches.
  uint64_t lookups = 0;
  uint64_t first_touches = 0;
  std::unordered_set<const core::CellSummary*> touched;
  const auto chain = [&](size_t i, bool count) {
    const Query& q = queries[i];
    const core::CellSummary* s = nullptr;
    int made = 0;
    if (q.origin != sim::kNoPort && q.destination != sim::kNoPort) {
      s = snap->CellRouteType(cells[i], q.origin, q.destination, q.segment);
      ++made;
      if (count && s != nullptr && touched.insert(s).second) ++first_touches;
      if (s != nullptr && s->ata().count() > 0) return made;
    }
    s = snap->CellType(cells[i], q.segment);
    ++made;
    if (count && s != nullptr && touched.insert(s).second) ++first_touches;
    if (s != nullptr && s->ata().count() > 0) return made;
    s = snap->Cell(cells[i]);
    ++made;
    if (count && s != nullptr && touched.insert(s).second) ++first_touches;
    return made;
  };
  for (size_t i = 0; i < queries.size(); ++i) lookups += static_cast<uint64_t>(chain(i, true));
  std::vector<double> lookup_ns;
  for (int pass = 0; pass < 5; ++pass) {
    const double t0 = Now();
    uint64_t made = 0;
    for (size_t i = 0; i < queries.size(); ++i) made += static_cast<uint64_t>(chain(i, false));
    lookup_ns.push_back((Now() - t0) * 1e9 / static_cast<double>(made));
  }
  Emit("core.snapshot.lookup_ns", Median(lookup_ns), "ns");
  Emit("core.snapshot.lookups_per_query", static_cast<double>(lookups) / n, "ratio");
  Emit("core.snapshot.first_touch_share",
       static_cast<double>(first_touches) / static_cast<double>(lookups), "ratio",
       "lookups that decode a summary, one pass over the query pool");

  // Lazy decode: a sweep of the (cell) set on a fresh snapshot decodes
  // every summary; a second sweep finds them decoded.
  std::vector<double> cold_ns;
  std::vector<double> warm_ns;
  for (int rep = 0; rep < 7; ++rep) {
    std::shared_ptr<const core::InventorySnapshot> s = fresh();
    double sink = 0.0;
    const auto visit = [&](const core::GroupKey&, const core::CellSummary& summary) {
      sink += static_cast<double>(summary.record_count());
    };
    const double count = static_cast<double>(s->DistinctCells());
    double t0 = Now();
    s->VisitGroupingSet(core::GroupingSet::kCell, visit);
    cold_ns.push_back((Now() - t0) * 1e9 / count);
    t0 = Now();
    s->VisitGroupingSet(core::GroupingSet::kCell, visit);
    warm_ns.push_back((Now() - t0) * 1e9 / count);
    if (sink <= 0.0) std::abort();
  }
  Emit("core.sweep.ns_per_summary", Median(cold_ns), "ns");
  Emit("core.snapshot.first_touch_ns", Median(cold_ns) - Median(warm_ns), "ns",
       "fresh minus warm sweep, per summary");

  // Raw ETA, then through the guard with telemetry off, then on.
  uint64_t levels[4] = {0, 0, 0, 0};
  for (const Query& q : queries) {
    Result<uc::EtaEstimate> e = Estimate(*snap, q);
    ++levels[e.ok() ? 2 - e->grouping_set : 3];
  }
  Emit("usecases.eta.level_route_share", static_cast<double>(levels[0]) / n, "ratio");
  Emit("usecases.eta.level_type_share", static_cast<double>(levels[1]) / n, "ratio");
  Emit("usecases.eta.level_cell_share", static_cast<double>(levels[2]) / n, "ratio");
  Emit("usecases.eta.level_miss_share", static_cast<double>(levels[3]) / n, "ratio");

  core::ServingInventory serving(core::Inventory(res, core::SummaryMap()), snap);
  core::ServingGuardOptions off;
  off.telemetry.enabled = false;
  core::ServingGuard guard_off(&serving, off);
  core::ServingGuard guard_on(&serving);
  uint64_t found = 0;
  const auto pass_ns = [&](auto&& one) {
    std::vector<double> ns;
    for (int pass = 0; pass < 7; ++pass) {
      const double t0 = Now();
      for (size_t i = 0; i < queries.size(); ++i) one(i);
      ns.push_back((Now() - t0) * 1e9 / n);
    }
    return Median(ns);
  };
  const double raw = pass_ns([&](size_t i) { found += Estimate(*snap, queries[i]).ok(); });
  const double guarded_off =
      pass_ns([&](size_t i) { found += GuardedEta(guard_off, queries[i], nullptr).ok(); });
  const double guarded_on =
      pass_ns([&](size_t i) { found += GuardedEta(guard_on, queries[i], nullptr).ok(); });
  // The same raw loop timing every call: the cost of tracing a query.
  std::vector<double> per_call;
  per_call.reserve(queries.size());
  const double traced_raw = pass_ns([&](size_t i) {
    const double t0 = Now();
    found += Estimate(*snap, queries[i]).ok();
    per_call.push_back(Now() - t0);
  });
  if (found == 0) std::abort();
  // Guarded sweeps of the (cell) set on the warm snapshot.
  std::vector<double> sweep_ms;
  for (int i = 0; i < 50; ++i) {
    uint64_t visited = 0;
    const double t0 = Now();
    const Status status = guard_on.VisitGroupingSet(
        core::GroupingSet::kCell, Deadline::AfterSeconds(10.0),
        [&](const core::GroupKey&, const core::CellSummary&) { ++visited; });
    sweep_ms.push_back((Now() - t0) * 1e3);
    operations_.Count(status);
    gate_.Check(visited == snap->DistinctCells(),
                "sweep visited count differs from DistinctCells()");
  }
  Emit("sweep_ms", Median(sweep_ms), "ms", Detail(Summarize(sweep_ms)));
  Emit("usecases.eta.ns_per_query", raw, "ns");
  Emit("core.serving_guard.ns_per_call", guarded_off - raw, "ns",
       "guard (telemetry off) minus raw ETA");
  Emit("core.serving_telemetry.ns_per_call", guarded_on - guarded_off, "ns",
       "guard with telemetry minus without");
  Emit("bench.trace_overhead.query_share", traced_raw / raw - 1.0, "ratio",
       "per-call timed vs untimed raw ETA loop");
  std::printf("serving layers: %zu queries per pass, %zu (cell) summaries\n",
              queries.size(), static_cast<size_t>(snap->DistinctCells()));
}

// ------------------------------------------------------------- output

// Which end-to-end metric (and workload) each layer metric should move.
const char* Moves(const std::string& name) {
  static const std::map<std::string, const char*> kMoves = {
      {"core.cleaning", "build_reports_per_s @ build_global"},
      {"core.enrich", "build_reports_per_s @ build_global"},
      {"core.trips", "build_reports_per_s @ build_global"},
      {"core.projection", "build_reports_per_s @ build_global"},
      {"core.fold", "build_reports_per_s, peak_rss_mb @ build_global"},
      {"core.seal", "build_reports_per_s (small); refresh_s, query_p99_us @ serve_refresh"},
      {"core.merge", "refresh_s, query_p99_us @ serve_refresh"},
      {"core.encode", "store_bytes_per_report; refresh_s"},
      {"store.publish", "build_reports_per_s; refresh_s"},
      {"flow", "build_reports_per_s @ build_global"},
      {"store.open", "cold_start_ms @ serve_steady"},
      {"core.snapshot_open", "cold_start_ms @ serve_steady"},
      {"hexgrid", "query_p50_us @ serve_steady, serve_refresh"},
      {"core.snapshot.lookup", "query_p50_us, query_qps @ serve_steady"},
      {"core.snapshot.first", "query_p99_us, cold_start_ms (eager decode) @ serve_steady"},
      {"core.sweep", "first map draw after a cold start @ serve_steady"},
      {"usecases.eta.ns", "query_p50_us @ serve_steady"},
      {"usecases.eta.level", "(workload property)"},
      {"core.serving_guard", "query_qps, query_p99_us @ serve_steady"},
      {"serving.", "query_qps, query_p99_us @ serve_steady"},
      {"core.serving_telemetry", "query_qps, query_p50_us @ serve_steady"},
      {"core.serving_inventory", "query_p99_us @ serve_refresh"},
      {"bench.", "(benchmark self-check)"},
      {"query_p99_us", "(end-to-end tail, reported per layer: too noisy to bound)"},
      {"sweep_ms", "(end-to-end map redraw, reported per layer: too noisy to bound)"},
  };
  const char* best = "";
  size_t best_len = 0;
  for (const auto& [prefix, moves] : kMoves) {
    if (name.compare(0, prefix.size(), prefix) == 0 && prefix.size() > best_len) {
      best = moves;
      best_len = prefix.size();
    }
  }
  return best;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool Bench::Print(bool trace) {
  std::printf("\n%-40s %18s %-6s %s\n", "metric", "value", "unit",
              trace ? "moves" : "samples");
  for (const Metric& m : metrics_) {
    std::printf("%-40s %18.6f %-6s %s%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), trace ? Moves(m.name) : m.detail.c_str(),
                trace && !m.detail.empty() ? "  | " : "",
                trace ? m.detail.c_str() : "");
  }
  Ledger all = queries_;
  all.Add(operations_);
  std::printf("\nqueries: attempted=%" PRIu64 " ok=%" PRIu64 " not_found=%" PRIu64
              " shed=%" PRIu64 " deadline_exceeded=%" PRIu64 " other=%" PRIu64
              " mismatched=%" PRIu64 "\n",
              queries_.attempted, queries_.ok, queries_.not_found, queries_.shed,
              queries_.deadline_exceeded, queries_.other, queries_.mismatched);
  std::printf("operations (builds, opens, sweeps, refreshes): attempted=%" PRIu64
              " failed=%" PRIu64 "\n",
              operations_.attempted, operations_.failed());
  std::printf("failed share: %.6f of %" PRIu64 " attempted\n",
              all.attempted == 0 ? 0.0
                                 : static_cast<double>(all.failed()) /
                                       static_cast<double>(all.attempted),
              all.attempted);
  gate_.Check(queries_.mismatched == 0, "guarded answers differ from the build side");
  for (const Metric& m : metrics_) {
    gate_.Check(std::isfinite(m.value), "metric " + m.name + " is not finite");
  }
  if (!gate_.failures.empty()) {
    for (const std::string& f : gate_.failures) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
    }
    return false;
  }
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(all.attempted) +
                     ", \"failed\": " + std::to_string(all.failed()) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics_[i].name + "\": {\"value\": " +
            JsonNumber(metrics_[i].value) + ", \"unit\": \"" + metrics_[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return true;
}

int Bench::Run(bool trace) {
  std::filesystem::remove_all(scratch_);
  std::filesystem::create_directories(scratch_);
  Setup();
  if (!trace) {
    const double cycle = seconds_ / kCycles;
    for (int c = 0; c < kCycles; ++c) {
      BuildSlice(w_.build * cycle);
      ColdStartSlice(w_.cold * cycle);
      ClosedLoopSlice(w_.closed * cycle);
      SweepSlice(w_.sweep * cycle);
      OpenLoopSlice(w_.open * cycle, w_.refresh_beside_readers ? w_.refreshes : 0,
                    false);
      if (!w_.refresh_beside_readers) RefreshSlice();
    }
    EmitEndToEnd();
    CheckSteady();
    CheckRefreshed();
  } else {
    TracedBuild();
    TracedServing();
    obs::Registry& registry = obs::Registry::Global();
    const std::string_view counters[] = {
        core::kMetricServingAdmitted, core::kMetricServingQueued,
        core::kMetricServingShed, core::kMetricServingDeadlineExceeded};
    uint64_t before[4];
    for (int i = 0; i < 4; ++i) before[i] = registry.counter(counters[i])->value();
    OpenLoopSlice(w_.open * seconds_ / 2,
                  w_.refresh_beside_readers ? in_.deltas.size() : 0, true);
    for (int i = 0; i < 4; ++i) {
      Emit(std::string(counters[i]),
           static_cast<double>(registry.counter(counters[i])->value() - before[i]),
           "count", "guarded calls of the open-loop slice");
    }
    std::string detail;
    const double p99 = OpenLoopP99(&detail);
    Emit("query_p99_us", p99, "us", detail);
    std::vector<double> late_sorted = late_us_;
    std::sort(late_sorted.begin(), late_sorted.end());
    Emit("bench.generator_late_p99_us", QuantileSorted(late_sorted, 0.99), "us",
         Detail(Summarize(late_us_)));
    Emit("core.serving_inventory.acquire_ns", Median(acquire_ns_), "ns",
         Detail(Summarize(acquire_ns_)) + " batches of 256" +
             (w_.refresh_beside_readers ? ", under refresh" : ""));
    CheckSteady();
    CheckRefreshed();
  }
  std::printf("key sections: %" PRIu64 " B for %" PRIu64
              " summaries (16 B per key)\n",
              summaries_ * 16, summaries_);
  const bool ok = Print(trace);
  std::filesystem::remove_all(scratch_);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace pol::perfbench

int main(int argc, char** argv) {
  using pol::perfbench::kWorkloads;
  std::string workload;
  std::string scratch;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--scratch") {
      scratch = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (scratch.empty() || seconds <= 0.0) {
    std::fprintf(stderr, "usage: polbench --workload <name> --seed <n> "
                         "--seconds <s> --trace <0|1> --scratch <dir>\n");
    return 2;
  }
  for (const pol::perfbench::Workload& w : kWorkloads) {
    if (workload != w.name) continue;
    std::printf("workload %s seed %" PRIu64 " seconds %.0f trace %d\n", w.name,
                seed, seconds, trace);
    pol::perfbench::Bench bench(w, seed, seconds, scratch);
    return bench.Run(trace != 0);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
  return 2;
}
