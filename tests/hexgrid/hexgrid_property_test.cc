#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <tuple>

#include "common/rng.h"
#include "geo/geodesic.h"
#include "hexgrid/hexgrid.h"
#include "hexgrid/icosahedron.h"

// Property-based sweeps of the grid invariants across resolutions and
// point distributions (uniform sphere, seam-adjacent, polar).

namespace pol::hex {
namespace {

geo::LatLng RandomSpherePoint(Rng& rng) {
  // Uniform on the sphere: z uniform in [-1,1], lng uniform.
  const double z = rng.Uniform(-1.0, 1.0);
  const double lng = rng.Uniform(-180.0, 180.0);
  return {geo::RadToDeg(std::asin(z)), lng};
}

class GridPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GridPropertyTest, RoundTripExactOnUniformPoints) {
  const int res = GetParam();
  Rng rng(1000 + static_cast<uint64_t>(res));
  for (int n = 0; n < 2000; ++n) {
    const geo::LatLng p = RandomSpherePoint(rng);
    const CellIndex cell = LatLngToCell(p, res);
    ASSERT_NE(cell, kInvalidCell) << p.ToString();
    const CellIndex again = LatLngToCell(CellToLatLng(cell), res);
    EXPECT_EQ(again, cell) << p.ToString() << " cell " << CellToString(cell);
  }
}

TEST_P(GridPropertyTest, AssignmentIsDeterministic) {
  const int res = GetParam();
  Rng rng(2000 + static_cast<uint64_t>(res));
  for (int n = 0; n < 500; ++n) {
    const geo::LatLng p = RandomSpherePoint(rng);
    EXPECT_EQ(LatLngToCell(p, res), LatLngToCell(p, res));
  }
}

TEST_P(GridPropertyTest, CenterWithinOneEdgeLength) {
  const int res = GetParam();
  Rng rng(3000 + static_cast<uint64_t>(res));
  const double limit_km = EdgeLengthKm(res) * 1.6;
  for (int n = 0; n < 1000; ++n) {
    const geo::LatLng p = RandomSpherePoint(rng);
    const CellIndex cell = LatLngToCell(p, res);
    EXPECT_LT(geo::HaversineKm(p, CellToLatLng(cell)), limit_km)
        << p.ToString();
  }
}

TEST_P(GridPropertyTest, SeamPointsStillRoundTrip) {
  const int res = GetParam();
  Rng rng(4000 + static_cast<uint64_t>(res));
  const Icosahedron& ico = Icosahedron::Get();
  // Sample points near face boundaries: midpoints of two face centres,
  // jittered by a couple of cell widths.
  const double jitter_deg = geo::RadToDeg(
      2.0 * LatticeParams::Get(res).hex_size());
  for (int f = 0; f < kNumFaces; ++f) {
    for (int g = f + 1; g < kNumFaces; ++g) {
      // Only face pairs that actually share an edge or vertex; distant
      // pairs have meaningless midpoints (antipodal ones are NaN).
      if (geo::AngleBetween(ico.FaceCenter(f), ico.FaceCenter(g)) > 1.4) {
        continue;
      }
      const geo::Vec3 mid =
          (ico.FaceCenter(f) + ico.FaceCenter(g)).Normalized();
      if (geo::AngleBetween(mid, ico.FaceCenter(f)) >
          ico.FaceCircumradiusRad()) {
        continue;
      }
      for (int n = 0; n < 8; ++n) {
        geo::LatLng p = geo::Vec3ToLatLng(mid);
        p.lat_deg += rng.Uniform(-jitter_deg, jitter_deg);
        p.lng_deg += rng.Uniform(-jitter_deg, jitter_deg);
        p = p.Normalized();
        const CellIndex cell = LatLngToCell(p, res);
        ASSERT_NE(cell, kInvalidCell);
        EXPECT_EQ(LatLngToCell(CellToLatLng(cell), res), cell)
            << p.ToString() << " near faces " << f << "/" << g;
      }
    }
  }
}

TEST_P(GridPropertyTest, PolesAndVerticesAreCovered) {
  const int res = GetParam();
  const Icosahedron& ico = Icosahedron::Get();
  // Poles.
  for (const geo::LatLng p : {geo::LatLng{90, 0}, geo::LatLng{-90, 0}}) {
    const CellIndex cell = LatLngToCell(p, res);
    ASSERT_NE(cell, kInvalidCell);
    EXPECT_EQ(LatLngToCell(CellToLatLng(cell), res), cell);
  }
  // Icosahedron vertices: the worst corners of the projection.
  for (int f = 0; f < kNumFaces; ++f) {
    for (const geo::Vec3& v : ico.FaceVertices(f)) {
      const geo::LatLng p = geo::Vec3ToLatLng(v);
      const CellIndex cell = LatLngToCell(p, res);
      ASSERT_NE(cell, kInvalidCell) << p.ToString();
      EXPECT_EQ(LatLngToCell(CellToLatLng(cell), res), cell) << p.ToString();
    }
  }
}

TEST_P(GridPropertyTest, NeighborsAreMutualEverywhere) {
  const int res = GetParam();
  Rng rng(5000 + static_cast<uint64_t>(res));
  for (int n = 0; n < 60; ++n) {
    const CellIndex cell = LatLngToCell(RandomSpherePoint(rng), res);
    for (const CellIndex nb : Neighbors(cell)) {
      const auto back = Neighbors(nb);
      EXPECT_TRUE(std::find(back.begin(), back.end(), cell) != back.end())
          << CellToString(cell) << " <-> " << CellToString(nb);
    }
  }
}

TEST_P(GridPropertyTest, NeighborCountIsFiveOrSix) {
  const int res = GetParam();
  Rng rng(6000 + static_cast<uint64_t>(res));
  int five_or_less = 0;
  constexpr int kSamples = 300;
  for (int n = 0; n < kSamples; ++n) {
    const CellIndex cell = LatLngToCell(RandomSpherePoint(rng), res);
    const size_t count = Neighbors(cell).size();
    EXPECT_GE(count, 4u) << CellToString(cell);
    EXPECT_LE(count, 6u) << CellToString(cell);
    if (count < 6) ++five_or_less;
  }
  // Seam cells are a vanishing fraction at fine resolutions.
  if (res >= 6) {
    EXPECT_LT(five_or_less, kSamples / 10);
  }
}

TEST_P(GridPropertyTest, ParentChildHierarchyConsistent) {
  const int res = GetParam();
  if (res == 0) return;
  Rng rng(7000 + static_cast<uint64_t>(res));
  for (int n = 0; n < 300; ++n) {
    const geo::LatLng p = RandomSpherePoint(rng);
    const CellIndex child = LatLngToCell(p, res);
    const CellIndex parent = CellToParent(child, res - 1);
    ASSERT_NE(parent, kInvalidCell);
    // The parent centre and child centre must be within one parent edge.
    EXPECT_LT(CellDistanceKm(child, parent), EdgeLengthKm(res - 1) * 1.6);
  }
}

// Exact invariants are guaranteed for res >= 3, where a hexagon is much
// smaller than an icosahedron face (the paper's working range is 5-8).
INSTANTIATE_TEST_SUITE_P(AllResolutions, GridPropertyTest,
                         ::testing::Values(3, 4, 5, 6, 7, 9, 12),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Res" + std::to_string(info.param);
                         });

// Coarse resolutions (0-2): cells are comparable in size to a whole
// icosahedron face, so only the relaxed invariants hold — assignment is
// still a deterministic total function and centres stay within one cell.
class CoarseGridTest : public ::testing::TestWithParam<int> {};

TEST_P(CoarseGridTest, TotalDeterministicAndLocal) {
  const int res = GetParam();
  Rng rng(9000 + static_cast<uint64_t>(res));
  for (int n = 0; n < 1000; ++n) {
    const geo::LatLng p = RandomSpherePoint(rng);
    const CellIndex cell = LatLngToCell(p, res);
    ASSERT_NE(cell, kInvalidCell) << p.ToString();
    EXPECT_EQ(LatLngToCell(p, res), cell);
    EXPECT_LT(geo::HaversineKm(p, CellToLatLng(cell)),
              EdgeLengthKm(res) * 2.0)
        << p.ToString();
    // Round trip may cross to an adjacent ragged cell at these
    // resolutions, but never further than one cell width.
    const CellIndex again = LatLngToCell(CellToLatLng(cell), res);
    EXPECT_LT(CellDistanceKm(cell, again), EdgeLengthKm(res) * 2.0);
  }
}

INSTANTIATE_TEST_SUITE_P(CoarseResolutions, CoarseGridTest,
                         ::testing::Values(0, 1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Res" + std::to_string(info.param);
                         });

TEST(GridCoverageTest, EstimatedCellCountMatchesCalibration) {
  // Monte-Carlo estimate of the number of distinct res-3 cells from
  // uniform sampling; compare the implied cell area to the calibrated
  // mean. With 200k samples over 41162 cells the estimate is coarse but
  // catches gross calibration errors.
  Rng rng(99);
  std::set<CellIndex> seen;
  constexpr int kSamples = 200000;
  for (int n = 0; n < kSamples; ++n) {
    seen.insert(LatLngToCell(RandomSpherePoint(rng), 3));
  }
  const double expected = static_cast<double>(NumCells(3));
  // Coupon-collector correction: with s samples and n cells, the
  // expected number seen is n * (1 - exp(-s/n)).
  const double expected_seen =
      expected * (1.0 - std::exp(-kSamples / expected));
  // Tolerance covers Monte-Carlo noise plus the small (~2%) difference
  // between the exact tiling count and the H3 calibration formula.
  EXPECT_NEAR(static_cast<double>(seen.size()), expected_seen,
              expected_seen * 0.06);
}

TEST(GridCoverageTest, CellAreasLocallyUniform) {
  // The paper's requirement: cells in proximity have near-identical
  // size. Compare neighbour centre spacings around random cells.
  Rng rng(123);
  for (int n = 0; n < 50; ++n) {
    const CellIndex cell = LatLngToCell(RandomSpherePoint(rng), 6);
    const geo::LatLng c = CellToLatLng(cell);
    const auto neighbors = Neighbors(cell);
    if (neighbors.size() < 6) continue;  // Skip seam cells.
    double min_d = 1e18;
    double max_d = 0;
    for (const CellIndex nb : neighbors) {
      const double d = geo::HaversineKm(c, CellToLatLng(nb));
      min_d = std::min(min_d, d);
      max_d = std::max(max_d, d);
    }
    EXPECT_LT(max_d / min_d, 1.35) << CellToString(cell);
  }
}

}  // namespace
}  // namespace pol::hex
