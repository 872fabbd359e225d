// polinv's inventory commands, run as the binary an operator runs: over
// a snapshot-store directory (the newest readable generation, falling
// back past a corrupt newer one), over one snapshot file, and over a
// path that holds no snapshot (exit code 2); and `polinv snapshots`
// over a store whose newest generation is damaged.

#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/extractor.h"
#include "core/inventory.h"
#include "core/inventory_snapshot.h"
#include "hexgrid/hexgrid.h"
#include "store/snapshot_store.h"

namespace pol::core {
namespace {

#ifndef POLINV_BINARY
#error "POLINV_BINARY must name the polinv executable"
#endif

constexpr double kLat = 1.3;
constexpr double kLng = 103.8;

struct Ran {
  int exit_code = -1;
  std::string output;  // stdout and stderr.
};

Ran Polinv(const std::string& args) {
  const std::string command = std::string(POLINV_BINARY) + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  Ran ran;
  if (pipe == nullptr) return ran;
  char buffer[4096];
  size_t read = 0;
  while ((read = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    ran.output.append(buffer, read);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) ran.exit_code = WEXITSTATUS(status);
  return ran;
}

// An inventory of one cell at (kLat, kLng) holding `records` records.
Inventory OneCell(int records) {
  PipelineRecord r;
  r.mmsi = 215000001;
  r.lat_deg = kLat;
  r.lng_deg = kLng;
  r.sog_knots = 12.0;
  r.cell = hex::LatLngToCell({kLat, kLng}, 6);
  SummaryMap summaries;
  CellSummary& summary = summaries[KeyCell(r.cell)];
  for (int i = 0; i < records; ++i) summary.Add(r);
  return Inventory(6, std::move(summaries));
}

class PolinvCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::path(::testing::TempDir()) / "pol_polinv_cli";
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  std::filesystem::path root_;
};

TEST_F(PolinvCliTest, StoreDirectoryFallsBackPastACorruptNewestGeneration) {
  const std::string dir = (root_ / "store").string();
  store::SnapshotStore store(store::SnapshotStoreOptions{dir, 3});
  uint64_t older = 0;
  uint64_t newest = 0;
  ASSERT_TRUE(OneCell(5).Seal()->WriteTo(&store, &older).ok());
  ASSERT_TRUE(OneCell(9).Seal()->WriteTo(&store, &newest).ok());

  // Intact, the newest generation answers.
  Ran query = Polinv("query " + dir + " 1.3 103.8");
  EXPECT_EQ(query.exit_code, 0) << query.output;
  EXPECT_NE(query.output.find("records:            9\n"), std::string::npos)
      << query.output;

  // One flipped byte in it: the older generation answers instead.
  const std::string newest_path = store.GenerationPath(newest);
  {
    std::fstream file(newest_path,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(200);
    file.put('\x5a');
  }
  const Ran stats = Polinv("stats " + dir);
  EXPECT_EQ(stats.exit_code, 0) << stats.output;
  EXPECT_NE(stats.output.find(store.GenerationPath(older)), std::string::npos)
      << stats.output;
  EXPECT_NE(stats.output.find("summaries:         1\n"), std::string::npos)
      << stats.output;
  query = Polinv("query " + dir + " 1.3 103.8");
  EXPECT_EQ(query.exit_code, 0) << query.output;
  EXPECT_NE(query.output.find("records:            5\n"), std::string::npos)
      << query.output;
}

// The line of `output` that starts with `prefix`; empty when none does.
std::string LineStarting(const std::string& output, const std::string& prefix) {
  size_t begin = 0;
  while (begin < output.size()) {
    const size_t end = output.find('\n', begin);
    const std::string line = output.substr(
        begin, end == std::string::npos ? std::string::npos : end - begin);
    if (line.rfind(prefix, 0) == 0) return line;
    if (end == std::string::npos) break;
    begin = end + 1;
  }
  return std::string();
}

TEST_F(PolinvCliTest, SnapshotsListsADamagedNewestGeneration) {
  const std::string dir = (root_ / "store").string();
  store::SnapshotStore store(store::SnapshotStoreOptions{dir, 3});
  uint64_t older = 0;
  uint64_t newest = 0;
  ASSERT_TRUE(OneCell(5).Seal()->WriteTo(&store, &older).ok());
  ASSERT_TRUE(OneCell(9).Seal()->WriteTo(&store, &newest).ok());
  ASSERT_EQ(older, 1u);
  ASSERT_EQ(newest, 2u);
  {
    std::fstream file(store.GenerationPath(newest),
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(200);
    file.put('\x5a');
  }

  const Ran snapshots = Polinv("snapshots " + dir);
  EXPECT_EQ(snapshots.exit_code, 0) << snapshots.output;
  EXPECT_NE(snapshots.output.find("2 generation(s)"), std::string::npos)
      << snapshots.output;
  EXPECT_NE(snapshots.output.find("cold start serves: 1\n"),
            std::string::npos)
      << snapshots.output;
  const std::string gen1 = LineStarting(snapshots.output, "gen 1:");
  const std::string gen2 = LineStarting(snapshots.output, "gen 2:");
  EXPECT_NE(gen1.find(", ok, "), std::string::npos) << snapshots.output;
  EXPECT_NE(gen1.find("[cold-start pick]"), std::string::npos)
      << snapshots.output;
  EXPECT_NE(gen2.find("DataLoss"), std::string::npos) << snapshots.output;
  EXPECT_EQ(gen2.find("[cold-start pick]"), std::string::npos)
      << snapshots.output;
  EXPECT_EQ(snapshots.output.find("MANIFEST"), std::string::npos)
      << snapshots.output;
}

TEST_F(PolinvCliTest, SingleGenerationFileIsServed) {
  const std::string dir = (root_ / "store").string();
  store::SnapshotStore store(store::SnapshotStoreOptions{dir, 3});
  uint64_t first = 0;
  uint64_t second = 0;
  ASSERT_TRUE(OneCell(5).Seal()->WriteTo(&store, &first).ok());
  ASSERT_TRUE(OneCell(9).Seal()->WriteTo(&store, &second).ok());

  // An older generation named by its file is served, not the newest.
  const std::string path = store.GenerationPath(first);
  const Ran stats = Polinv("stats " + path);
  EXPECT_EQ(stats.exit_code, 0) << stats.output;
  EXPECT_NE(stats.output.find("source:            " + path + "\n"),
            std::string::npos)
      << stats.output;
  const Ran query = Polinv("query " + path + " 1.3 103.8");
  EXPECT_EQ(query.exit_code, 0) << query.output;
  EXPECT_NE(query.output.find("records:            5\n"), std::string::npos)
      << query.output;

  // Inventory::SerializeTo bytes are a snapshot file too.
  const std::string serialized = (root_ / "inventory.pol").string();
  {
    std::string bytes;
    OneCell(7).SerializeTo(&bytes);
    std::ofstream(serialized, std::ios::binary) << bytes;
  }
  const Ran serialized_query = Polinv("query " + serialized + " 1.3 103.8");
  EXPECT_EQ(serialized_query.exit_code, 0) << serialized_query.output;
  EXPECT_NE(serialized_query.output.find("records:            7\n"),
            std::string::npos)
      << serialized_query.output;
}

TEST_F(PolinvCliTest, NonSnapshotPathExitsTwo) {
  const std::string path = (root_ / "notes.txt").string();
  std::ofstream(path) << "not a snapshot";
  for (const std::string command : {"stats", "query"}) {
    const std::string args =
        command == "query" ? " 1.3 103.8" : std::string();
    Ran ran = Polinv(command + " " + path + args);
    EXPECT_EQ(ran.exit_code, 2) << command << ": " << ran.output;
    EXPECT_NE(ran.output.find("cannot open"), std::string::npos) << ran.output;
    ran = Polinv(command + " " + (root_ / "missing").string() + args);
    EXPECT_EQ(ran.exit_code, 2) << command << ": " << ran.output;
  }
  // An empty store directory has nothing to serve either.
  std::filesystem::create_directories(root_ / "empty");
  EXPECT_EQ(Polinv("stats " + (root_ / "empty").string()).exit_code, 2);
}

}  // namespace
}  // namespace pol::core
