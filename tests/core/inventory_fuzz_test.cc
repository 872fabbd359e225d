// Robustness sweeps of the inventory's byte form, its canonical POLSNAP1
// image: every truncation and random corruption must be detected (or
// decode to a valid inventory), never crash or read out of bounds.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/inventory.h"
#include "hexgrid/hexgrid.h"

namespace pol::core {
namespace {

Inventory BuildSample() {
  SummaryMap summaries;
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const hex::CellIndex cell = hex::LatLngToCell(
        {rng.Uniform(-60, 60), rng.Uniform(-180, 180)}, 6);
    PipelineRecord r;
    r.mmsi = static_cast<ais::Mmsi>(200000000 + i);
    r.trip_id = static_cast<uint64_t>(i + 1);
    r.origin = 3;
    r.destination = 9;
    r.sog_knots = rng.Uniform(5, 20);
    r.cog_deg = rng.Uniform(0, 360);
    r.heading_deg = r.cog_deg;
    r.eto_s = 1000;
    r.ata_s = 2000;
    auto [it, inserted] = summaries.try_emplace(KeyCell(cell));
    (void)inserted;
    for (int k = 0; k < 5; ++k) it->second.Add(r);
  }
  return Inventory(6, std::move(summaries));
}

TEST(InventoryFuzzTest, EveryTruncationIsHandled) {
  const Inventory inv = BuildSample();
  std::string bytes;
  inv.SerializeTo(&bytes);
  for (size_t len = 0; len < bytes.size(); ++len) {
    const auto result = Inventory::DeserializeFrom(bytes.substr(0, len));
    EXPECT_FALSE(result.ok()) << "prefix length " << len;
  }
  EXPECT_TRUE(Inventory::DeserializeFrom(bytes).ok());
}

TEST(InventoryFuzzTest, RandomByteFlipsAreDetected) {
  const Inventory inv = BuildSample();
  std::string bytes;
  inv.SerializeTo(&bytes);
  Rng rng(6);
  int detected = 0;
  constexpr int kTrials = 500;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::string corrupted = bytes;
    const size_t pos = rng.NextBelow(bytes.size());
    corrupted[pos] = static_cast<char>(
        corrupted[pos] ^ static_cast<char>(1 + rng.NextBelow(255)));
    const auto result = Inventory::DeserializeFrom(corrupted);
    if (!result.ok()) ++detected;
  }
  // Section CRCs catch every payload flip, the header CRC every header
  // or table flip, and the padding scan every flip between sections.
  EXPECT_EQ(detected, kTrials);
}

TEST(InventoryFuzzTest, RandomGarbageNeverCrashes) {
  Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string noise = "POLSNAP1";  // Correct magic, garbage body.
    const size_t length = rng.NextBelow(300);
    for (size_t i = 0; i < length; ++i) {
      noise.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    Inventory::DeserializeFrom(noise);
  }
  SUCCEED();
}

TEST(InventoryFuzzTest, AppendedTrailingBytesAreDataLoss) {
  // The image records its own size, so bytes after it (a padded or
  // concatenated file) are damage, not slack.
  const Inventory inv = BuildSample();
  std::string bytes;
  inv.SerializeTo(&bytes);
  bytes += "trailing junk";
  EXPECT_EQ(Inventory::DeserializeFrom(bytes).status().code(),
            StatusCode::kDataLoss);
}

}  // namespace
}  // namespace pol::core
