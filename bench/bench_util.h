#ifndef POL_BENCH_BENCH_UTIL_H_
#define POL_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/inventory.h"
#include "core/pipeline.h"
#include "obs/json.h"
#include "sim/fleet.h"

// Shared plumbing for the reproduction benches: standard simulated
// scenarios and fixtures, wall-clock timing, the machine-readable
// summary, the interleaved A/B bar, and table and ASCII-map rendering.
// Every bench binary prints the paper's reference numbers next to the
// measured ones so the reproduced *shape* is visible at a glance.

namespace pol::bench {

// The standard full-year global scenario (scaled for a single-core run;
// see DESIGN.md section 6 for the scale calibration).
sim::FleetConfig GlobalYearConfig(uint64_t seed = 20221231);

// A denser regional scenario over the Baltic/North-Sea ports only
// (drives the Figure 4 local-patterns bench).
struct RegionalScenario {
  sim::PortDatabase ports;
  sim::RouteNetwork routes;
  sim::FleetConfig config;

  RegionalScenario(std::vector<sim::Port> region_ports,
                   const sim::FleetConfig& base);
};

// Ports of the built-in table within a bounding box.
std::vector<sim::Port> PortsInBox(double lat_min, double lat_max,
                                  double lng_min, double lng_max);

// The single-route corridor of the serving and store benches: one
// container route (kCorridorOrigin -> kCorridorDestination) crossing
// `cells` resolution-6 cells in each of `generations` merged batches,
// keyed into the cell, cell-type and cell-route-type grouping sets.
inline constexpr sim::PortId kCorridorOrigin = 3;
inline constexpr sim::PortId kCorridorDestination = 21;
inline constexpr ais::MarketSegment kCorridorSegment =
    ais::MarketSegment::kContainer;
core::Inventory CorridorInventory(int generations, int cells);

// Wall-clock seconds of a callable.
double TimeSeconds(const std::function<void()>& fn);

// A bench's machine-readable summary: one pol.bench_summary/1 object
// with `schema` and `bench` filled in. It goes to the path given as
// `--report-out=<path>` (default BENCH_<bench>.json; an empty value
// writes no file) and to stdout as a single `BENCH <json>` line.
class Summary {
 public:
  // Takes `--report-out=` out of argv; the rest stays in args().
  Summary(std::string_view bench, int argc, char** argv);

  void Set(std::string_view key, obs::Json value) {
    json_.Set(key, std::move(value));
  }
  const std::string& path() const { return path_; }
  // argv without `--report-out=`, argv[0] first (for google-benchmark).
  std::vector<char*>& args() { return args_; }

  // Prints the BENCH line and writes the file durably
  // (store::WriteFileDurable). Returns the exit code:
  // 0, or 1 when the file cannot be written.
  int Write() const;

 private:
  obs::Json json_ = obs::Json::Object();
  std::string path_;
  std::vector<char*> args_;
};

// Interleaved A/B bars. A round runs every shape once, cut into
// `slices` short slices run shape by shape, and the shape that opens a
// slice rotates, so every shape samples the same stretch of the
// machine in every position. A bar reads one of two ratios (see
// Estimator). The verdict is sequential: a block of rounds that ends
// with a bar missed runs another block into the same estimates, up to
// kMaxBlocks, so a load burst has to outlast every block to fail a bar.
inline constexpr int kMaxBlocks = 3;

struct Shape {
  std::string name;
  // Runs one slice of a round and returns a checksum of its answers;
  // every shape must return the same checksum for a slice.
  std::function<uint64_t()> slice;
};

enum class Estimator {
  // Ratio of the two shapes' minimum round times (a round's time is
  // the sum of its slices). Load only ever adds time, so each minimum
  // converges to the shape's cost when the machine's speed is steady.
  kMinRound,
  // Median over every slice of the shape's time over the baseline's
  // time in the same slice. Adjacent slices share the machine's state,
  // so bursts and speed drift that outlast a slice cancel in each
  // pair; the median drops the pairs that a burst split.
  kMedianPaired,
};

// Met when the estimated shape / baseline time ratio <= max_ratio.
struct Bar {
  size_t shape = 0;
  size_t baseline = 0;
  double max_ratio = 1.0;
  Estimator estimator = Estimator::kMinRound;
};

struct Comparison {
  std::vector<double> min_s;   // Per shape, minimum round time.
  std::vector<double> ratios;  // Per bar, read by its estimator.
  int blocks = 0;
  bool diverged = false;  // Shapes disagreed on a slice's checksum.
  bool met = false;       // No divergence and every bar met.
};

// Seconds one slice of shape `shape` took; the wall clock unless a
// test injects its own timings.
using SliceTimer =
    std::function<double(size_t shape, const std::function<void()>& slice)>;

// One untimed warmup round, then blocks of `rounds` rounds of `slices`
// slices per shape until every bar is met, the shapes diverge, or
// kMaxBlocks blocks have run.
Comparison CompareInterleaved(const std::vector<Shape>& shapes,
                              const std::vector<Bar>& bars, int rounds,
                              int slices, const SliceTimer& timer = {});

// Section header / table row helpers (fixed-width, plain ASCII).
void PrintHeader(const std::string& title);
void PrintRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths);

// Human-readable quantities.
std::string FormatCount(uint64_t n);      // 12,345,678
std::string FormatBytes(uint64_t bytes);  // 1.23 GB
std::string FormatPercent(double fraction, int decimals = 2);

// Renders an ASCII heat map of per-cell values over a lat/lng box.
// `value(cell)` returns NaN for cells without data. Cells are sampled at
// the inventory resolution; each character aggregates the mean of the
// values inside its box. The scale uses the characters " .:-=+*#%@".
void RenderAsciiMap(const std::string& title, double lat_min, double lat_max,
                    double lng_min, double lng_max, int width, int height,
                    int resolution,
                    const std::function<double(hex::CellIndex)>& value);

// As above, but the value is a direction in degrees rendered as one of
// eight arrow-ish characters (the Figure 1 right-panel analogue).
void RenderCourseMap(const std::string& title, double lat_min,
                     double lat_max, double lng_min, double lng_max,
                     int width, int height, int resolution,
                     const std::function<double(hex::CellIndex)>& course);

}  // namespace pol::bench

#endif  // POL_BENCH_BENCH_UTIL_H_
