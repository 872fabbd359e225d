#include "bench/bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <utility>

#include "hexgrid/hexgrid.h"
#include "store/atomic_file.h"

namespace pol::bench {

sim::FleetConfig GlobalYearConfig(uint64_t seed) {
  sim::FleetConfig config;
  config.seed = seed;
  config.commercial_vessels = 100;
  config.noncommercial_vessels = 220;
  config.start_time = 1640995200;  // 2022-01-01.
  config.end_time = 1672531200;    // 2023-01-01.
  config.coastal_interval_s = 600;
  config.ocean_interval_s = 2400;
  return config;
}

RegionalScenario::RegionalScenario(std::vector<sim::Port> region_ports,
                                   const sim::FleetConfig& base)
    : ports(std::move(region_ports)), routes(&ports), config(base) {
  config.ports = &ports;
  config.routes = &routes;
}

std::vector<sim::Port> PortsInBox(double lat_min, double lat_max,
                                  double lng_min, double lng_max) {
  std::vector<sim::Port> selected;
  for (const sim::Port& port : sim::PortDatabase::Global().ports()) {
    if (port.position.lat_deg >= lat_min && port.position.lat_deg <= lat_max &&
        port.position.lng_deg >= lng_min && port.position.lng_deg <= lng_max) {
      selected.push_back(port);
    }
  }
  return selected;
}

core::Inventory CorridorInventory(int generations, int cells) {
  core::SummaryMap summaries;
  for (int g = 0; g < generations; ++g) {
    for (int i = 0; i < cells; ++i) {
      const hex::CellIndex cell =
          hex::LatLngToCell({1.0 + 0.2 * g, 100.0 + 0.4 * i}, 6);
      core::PipelineRecord r;
      r.mmsi = 215000001;
      r.trip_id = static_cast<uint64_t>(g * 1000 + i);
      r.origin = kCorridorOrigin;
      r.destination = kCorridorDestination;
      r.segment = kCorridorSegment;
      r.sog_knots = 13;
      r.cog_deg = 90;
      r.heading_deg = 90;
      r.eto_s = 3600;
      r.ata_s = 7200;
      for (const core::GroupKey& key :
           {core::KeyCell(cell), core::KeyCellType(cell, kCorridorSegment),
            core::KeyCellRouteType(cell, kCorridorOrigin,
                                   kCorridorDestination, kCorridorSegment)}) {
        summaries[key].Add(r);
      }
    }
  }
  return core::Inventory(6, std::move(summaries));
}

double TimeSeconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

Summary::Summary(std::string_view bench, int argc, char** argv)
    : path_("BENCH_" + std::string(bench) + ".json") {
  constexpr std::string_view kFlag = "--report-out=";
  json_.Set("schema", "pol.bench_summary/1");
  json_.Set("bench", bench);
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i > 0 && arg.substr(0, kFlag.size()) == kFlag) {
      path_ = std::string(arg.substr(kFlag.size()));
    } else {
      args_.push_back(argv[i]);
    }
  }
}

int Summary::Write() const {
  std::printf("BENCH %s\n", json_.Dump().c_str());
  std::fflush(stdout);
  if (path_.empty()) return 0;
  const Status written = store::WriteFileDurable(path_, json_.Dump(2) + "\n");
  if (!written.ok()) {
    std::fprintf(stderr, "FAIL: cannot write %s: %s\n", path_.c_str(),
                 written.message().c_str());
    return 1;
  }
  return 0;
}

Comparison CompareInterleaved(const std::vector<Shape>& shapes,
                              const std::vector<Bar>& bars, int rounds,
                              int slices, const SliceTimer& timer) {
  Comparison out;
  out.min_s.assign(shapes.size(), 1e300);
  out.ratios.assign(bars.size(), 1e300);
  for (int i = 0; i < slices; ++i) {
    for (const Shape& shape : shapes) shape.slice();  // Untimed warmup.
  }
  std::vector<uint64_t> checksums(shapes.size());
  std::vector<double> slice_s(shapes.size());
  std::vector<double> round_s(shapes.size());
  std::vector<std::vector<double>> paired(bars.size());
  size_t first = 0;  // Shape that opens the next slice; rotates.
  while (out.blocks < kMaxBlocks) {
    ++out.blocks;
    for (int round = 0; round < rounds; ++round) {
      std::fill(round_s.begin(), round_s.end(), 0.0);
      for (int i = 0; i < slices; ++i) {
        for (size_t k = 0; k < shapes.size(); ++k) {
          const size_t s = (first + k) % shapes.size();
          const std::function<void()> run = [&] {
            checksums[s] = shapes[s].slice();
          };
          slice_s[s] = timer ? timer(s, run) : TimeSeconds(run);
          round_s[s] += slice_s[s];
        }
        first = (first + 1) % shapes.size();
        if (std::adjacent_find(checksums.begin(), checksums.end(),
                               std::not_equal_to<>()) != checksums.end()) {
          out.diverged = true;
          return out;
        }
        for (size_t b = 0; b < bars.size(); ++b) {
          paired[b].push_back(slice_s[bars[b].shape] /
                              slice_s[bars[b].baseline]);
        }
      }
      for (size_t s = 0; s < shapes.size(); ++s) {
        out.min_s[s] = std::min(out.min_s[s], round_s[s]);
      }
    }
    out.met = true;
    for (size_t b = 0; b < bars.size(); ++b) {
      const Bar& bar = bars[b];
      if (bar.estimator == Estimator::kMinRound) {
        out.ratios[b] = out.min_s[bar.shape] / out.min_s[bar.baseline];
      } else {
        std::vector<double>& pairs = paired[b];
        std::nth_element(pairs.begin(), pairs.begin() + pairs.size() / 2,
                         pairs.end());
        out.ratios[b] = pairs[pairs.size() / 2];
      }
      if (out.ratios[b] <= bar.max_ratio) continue;
      out.met = false;
      std::printf("%s/%s at %.4f, over the %.4f bar after block %d\n",
                  shapes[bar.shape].name.c_str(),
                  shapes[bar.baseline].name.c_str(), out.ratios[b],
                  bar.max_ratio, out.blocks);
    }
    if (out.met) break;
  }
  return out;
}

void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

void PrintRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths) {
  std::string line;
  for (size_t i = 0; i < cells.size(); ++i) {
    const int width = i < widths.size() ? widths[i] : 16;
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%-*s", width, cells[i].c_str());
    line += buf;
  }
  std::printf("%s\n", line.c_str());
}

std::string FormatCount(uint64_t n) {
  std::string digits = std::to_string(n);
  std::string out;
  int counter = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (counter > 0 && counter % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++counter;
  }
  return std::string(out.rbegin(), out.rend());
}

std::string FormatBytes(uint64_t bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  double value = static_cast<double>(bytes);
  int unit = 0;
  while (value >= 1024.0 && unit < 4) {
    value /= 1024.0;
    ++unit;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f %s", value, units[unit]);
  return buf;
}

std::string FormatPercent(double fraction, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, fraction * 100.0);
  return buf;
}

namespace {

// Collects the per-character aggregate for a map box.
template <typename CellValue>
void ForEachMapChar(double lat_min, double lat_max, double lng_min,
                    double lng_max, int width, int height, int resolution,
                    const CellValue& value,
                    const std::function<void(int, int, double, bool)>& emit) {
  const double dlat = (lat_max - lat_min) / height;
  const double dlng = (lng_max - lng_min) / width;
  // Sample a few points per character box (enough to hit res-6 cells).
  const int subsamples = 3;
  for (int row = 0; row < height; ++row) {
    for (int col = 0; col < width; ++col) {
      double sum = 0.0;
      int hits = 0;
      for (int sy = 0; sy < subsamples; ++sy) {
        for (int sx = 0; sx < subsamples; ++sx) {
          const double lat = lat_max - (row + (sy + 0.5) / subsamples) * dlat;
          const double lng = lng_min + (col + (sx + 0.5) / subsamples) * dlng;
          const hex::CellIndex cell = hex::LatLngToCell({lat, lng}, resolution);
          const double v = value(cell);
          if (!std::isnan(v)) {
            sum += v;
            ++hits;
          }
        }
      }
      emit(row, col, hits > 0 ? sum / hits : 0.0, hits > 0);
    }
  }
}

}  // namespace

void RenderAsciiMap(const std::string& title, double lat_min, double lat_max,
                    double lng_min, double lng_max, int width, int height,
                    int resolution,
                    const std::function<double(hex::CellIndex)>& value) {
  // First pass: range.
  double lo = 1e300;
  double hi = -1e300;
  std::vector<std::vector<double>> grid(
      static_cast<size_t>(height),
      std::vector<double>(static_cast<size_t>(width), std::nan("")));
  ForEachMapChar(lat_min, lat_max, lng_min, lng_max, width, height,
                 resolution, value,
                 [&](int row, int col, double v, bool has) {
                   if (!has) return;
                   grid[static_cast<size_t>(row)][static_cast<size_t>(col)] = v;
                   lo = std::min(lo, v);
                   hi = std::max(hi, v);
                 });
  std::printf("%s", ("\n" + title).c_str());
  if (lo > hi) {
    std::printf(" (no data)\n");
    return;
  }
  std::printf("  [low %.1f .. high %.1f]\n", lo, hi);
  static const char kScale[] = " .:-=+*#%@";
  const double span = hi > lo ? hi - lo : 1.0;
  for (int row = 0; row < height; ++row) {
    std::string line;
    for (int col = 0; col < width; ++col) {
      const double v = grid[static_cast<size_t>(row)][static_cast<size_t>(col)];
      if (std::isnan(v)) {
        line.push_back(' ');
      } else {
        const int idx = 1 + static_cast<int>((v - lo) / span * 8.999);
        line.push_back(kScale[std::min(9, std::max(1, idx))]);
      }
    }
    std::printf("|%s|\n", line.c_str());
  }
}

void RenderCourseMap(const std::string& title, double lat_min,
                     double lat_max, double lng_min, double lng_max,
                     int width, int height, int resolution,
                     const std::function<double(hex::CellIndex)>& course) {
  std::printf("%s", ("\n" + title + "\n").c_str());
  // Eight compass sectors rendered with distinct glyphs.
  static const char kGlyphs[8] = {'^', '/', '>', 'L', 'v', 'J', '<', '\\'};
  // One centre sample per character: directions are circular, so the
  // box-mean used for scalar maps would corrupt values near north.
  std::vector<std::vector<char>> grid(
      static_cast<size_t>(height),
      std::vector<char>(static_cast<size_t>(width), ' '));
  const double dlat = (lat_max - lat_min) / height;
  const double dlng = (lng_max - lng_min) / width;
  for (int row = 0; row < height; ++row) {
    for (int col = 0; col < width; ++col) {
      const double lat = lat_max - (row + 0.5) * dlat;
      const double lng = lng_min + (col + 0.5) * dlng;
      const double deg =
          course(hex::LatLngToCell({lat, lng}, resolution));
      if (std::isnan(deg)) continue;
      const int sector =
          static_cast<int>(std::fmod(deg + 22.5 + 360.0, 360.0) / 45.0) % 8;
      grid[static_cast<size_t>(row)][static_cast<size_t>(col)] =
          kGlyphs[sector];
    }
  }
  for (int row = 0; row < height; ++row) {
    std::printf("|%s|\n",
                std::string(grid[static_cast<size_t>(row)].begin(),
                            grid[static_cast<size_t>(row)].end())
                    .c_str());
  }
  std::printf("(glyphs: ^ north, > east, v south, < west, diagonals /L J\\)\n");
}

}  // namespace pol::bench
