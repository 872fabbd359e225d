// Summary bytes round-trip exactly: Serialize(Deserialize(b)) == b for
// every summary blob of a seeded pipeline-built image, and for every
// Table 3 sketch at its storage boundaries (t-digest at its
// 4 x compression buffer flush, HyperLogLog sparse -> dense,
// SpaceSaving at capacity with count ties, P2 at counts 4 and 5). The
// merge-seal copies the blobs of untouched keys verbatim and decodes
// only shared ones; this is what makes that copy equal a re-seal of the
// decoded image.

#include <cstdint>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "common/time_util.h"
#include "core/cell_summary.h"
#include "core/inventory.h"
#include "core/inventory_snapshot.h"
#include "core/pipeline.h"
#include "core/snapshot_codec.h"
#include "sim/fleet.h"
#include "stats/hyperloglog.h"
#include "stats/p2_quantile.h"
#include "stats/spacesaving.h"
#include "stats/tdigest.h"
#include "store/snapshot_format.h"

namespace pol::core {
namespace {

template <typename Sketch>
std::string Bytes(const Sketch& sketch) {
  std::string out;
  sketch.Serialize(&out);
  return out;
}

// Decodes `bytes` into a fresh `Sketch` and checks it re-encodes to
// exactly `bytes`; returns the decoded copy.
template <typename Sketch>
Sketch RoundTrip(const std::string& bytes, Sketch decoded) {
  std::string_view input = bytes;
  EXPECT_TRUE(decoded.Deserialize(&input).ok());
  EXPECT_TRUE(input.empty());
  EXPECT_EQ(Bytes(decoded), bytes);
  return decoded;
}

TEST(SummaryRoundTripTest, EveryBlobOfAPipelineImage) {
  sim::FleetConfig fleet;
  fleet.seed = 101;
  fleet.commercial_vessels = 12;
  fleet.noncommercial_vessels = 6;
  fleet.start_time = 1640995200;
  fleet.end_time = fleet.start_time + 30 * kSecondsPerDay;
  fleet.coastal_interval_s = 300;
  fleet.ocean_interval_s = 1200;
  const sim::SimulationOutput output = sim::FleetSimulator(fleet).Run();
  PipelineConfig config;
  config.partitions = 2;
  config.threads = 2;
  config.resolution = 6;
  const PipelineResult result =
      RunPipeline(output.reports, output.fleet, config);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();

  std::string image;
  result.inventory->Seal()->EncodeTo(&image);
  const Result<store::SnapshotFileView> view =
      store::SnapshotFileView::Validate(image);
  ASSERT_TRUE(view.ok());
  uint64_t blobs = 0;
  for (uint32_t set = 0; set < kNumGroupingSets; ++set) {
    const std::string_view offsets =
        *view->Section(kSnapSectionSummaryOffsetsBase + set);
    const std::string_view blob =
        *view->Section(kSnapSectionSummaryBlobBase + set);
    const size_t count = offsets.size() / sizeof(uint64_t) - 1;
    for (size_t i = 0; i < count; ++i) {
      const uint64_t begin = store::LoadU64(offsets.data() + i * 8);
      const uint64_t end = store::LoadU64(offsets.data() + (i + 1) * 8);
      const std::string bytes(blob.substr(begin, end - begin));
      RoundTrip(bytes, CellSummary());
      ++blobs;
    }
  }
  EXPECT_EQ(blobs, result.inventory->size());
  EXPECT_GT(blobs, 1000u);
}

TEST(SummaryRoundTripTest, TDigestAroundItsBufferFlush) {
  // Compression 25 flushes once 100 points are buffered.
  for (const int points : {99, 100, 101, 250}) {
    SCOPED_TRACE(points);
    stats::TDigest digest(25.0);
    for (int i = 0; i < points; ++i) digest.Add((i * 37) % 101 + 0.25 * i);
    const std::string bytes = Bytes(digest);
    stats::TDigest decoded = RoundTrip(bytes, stats::TDigest());
    // Serialize flushed the live digest, so it now merges exactly like
    // its decoded copy.
    stats::TDigest addend(25.0);
    for (int i = 0; i < 30; ++i) addend.Add(i * 3.5);
    digest.Merge(addend);
    decoded.Merge(addend);
    EXPECT_EQ(Bytes(decoded), Bytes(digest));
  }
}

TEST(SummaryRoundTripTest, HyperLogLogSparseToDense) {
  for (const uint64_t keys : {255u, 256u, 257u, 2000u}) {
    SCOPED_TRACE(keys);
    stats::HyperLogLog hll(10);
    for (uint64_t key = 1; key <= keys; ++key) hll.Add(key * 7919);
    EXPECT_EQ(hll.IsSparse(), keys <= 256);  // Dense past 256 hashes.
    const std::string bytes = Bytes(hll);
    stats::HyperLogLog decoded = RoundTrip(bytes, stats::HyperLogLog());
    stats::HyperLogLog addend(10);
    for (uint64_t key = 1; key <= 40; ++key) addend.Add(key * 104729);
    hll.Merge(addend);
    decoded.Merge(addend);
    EXPECT_EQ(Bytes(decoded), Bytes(hll));
  }
}

TEST(SummaryRoundTripTest, SpaceSavingAtCapacityWithCountTies) {
  stats::SpaceSaving sketch(4);
  // Keys 1..4 fill it with tied counts, then newcomers evict.
  for (uint64_t key = 1; key <= 4; ++key) sketch.Add(key, 2);
  sketch.Add(9, 1);
  sketch.Add(8, 2);
  sketch.Add(3, 1);
  EXPECT_EQ(sketch.size(), sketch.capacity());
  const std::string bytes = Bytes(sketch);
  stats::SpaceSaving decoded = RoundTrip(bytes, stats::SpaceSaving());
  // The live sketch keeps insertion order and the decoded one count
  // order; ties break by key, so both merge and evict alike.
  stats::SpaceSaving addend(4);
  addend.Add(5, 3);
  addend.Add(2, 3);
  addend.Add(7, 3);
  sketch.Merge(addend);
  decoded.Merge(addend);
  EXPECT_EQ(Bytes(decoded), Bytes(sketch));
  sketch.Add(11, 1);
  decoded.Add(11, 1);
  EXPECT_EQ(Bytes(decoded), Bytes(sketch));
}

TEST(SummaryRoundTripTest, P2AtCountsFourAndFive) {
  for (const int count : {0, 1, 4, 5, 6, 50}) {
    SCOPED_TRACE(count);
    stats::P2Quantile p2(0.9);
    for (int i = 0; i < count; ++i) p2.Add((i * 13) % 7 + 0.5 * i);
    const std::string bytes = Bytes(p2);
    stats::P2Quantile decoded = RoundTrip(bytes, stats::P2Quantile());
    p2.Add(3.25);
    decoded.Add(3.25);
    EXPECT_EQ(Bytes(decoded), Bytes(p2));
  }
}

}  // namespace
}  // namespace pol::core
