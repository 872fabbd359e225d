// SnapshotStore: atomic generation publish as one durable write,
// retention GC, corrupt-generation fallback on open, torn-temp hygiene,
// OpenSnapshotFile, and the store.* fail points of the faults preset.

#include "store/snapshot_store.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "store/snapshot_format.h"
#include "store/store_metric_names.h"

namespace pol::store {
namespace {

#if defined(POL_FAILPOINTS)
constexpr bool kFailPointsEnabled = true;
#else
constexpr bool kFailPointsEnabled = false;
#endif

uint64_t CounterValue(std::string_view name) {
  return obs::Registry::Global().counter(name)->value();
}

class SnapshotStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    directory_ = (std::filesystem::path(::testing::TempDir()) /
                  ("pol_store_" +
                   std::string(::testing::UnitTest::GetInstance()
                                   ->current_test_info()
                                   ->name())))
                     .string();
    std::filesystem::remove_all(directory_);
  }

  void TearDown() override {
    FailPointRegistry::Global().DisarmAll();
    std::filesystem::remove_all(directory_);
  }

  SnapshotStore Store(int keep = 3) const {
    SnapshotStoreOptions options;
    options.directory = directory_;
    options.keep = keep;
    return SnapshotStore(options);
  }

  std::string directory_;
};

// Distinct valid POLSNAP1 images, distinguishable by their meta bytes.
std::string MakeImage(const std::string& marker) {
  SnapshotFileWriter writer(2);
  writer.BeginSection(0x01)->append(marker);
  writer.BeginSection(0x10)->append(64, 'k');
  return writer.Finish();
}

std::string SectionString(const SnapshotStore::Opened& opened, uint32_t id) {
  const Result<std::string_view> section = opened.view.Section(id);
  EXPECT_TRUE(section.ok()) << section.status().ToString();
  return section.ok() ? std::string(*section) : std::string();
}

TEST_F(SnapshotStoreTest, PublishAndOpenRoundTrip) {
  SnapshotStore store = Store();
  const Result<uint64_t> generation = store.Publish(MakeImage("gen one"));
  ASSERT_TRUE(generation.ok()) << generation.status().ToString();
  EXPECT_EQ(*generation, 1u);

  const Result<SnapshotStore::Opened> opened = store.OpenLatest();
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->generation, 1u);
  EXPECT_EQ(SectionString(*opened, 0x01), "gen one");
}

TEST_F(SnapshotStoreTest, PublishIsOneDurableWrite) {
  if (!kFailPointsEnabled) {
    GTEST_SKIP() << "fail points compiled out (build with POL_FAILPOINTS)";
  }
  // The directory listing is the store's only record, so a publish
  // writes the generation file and nothing else.
  SnapshotStore store = Store();
  for (int i = 1; i <= 3; ++i) {
    const uint64_t writes_before =
        FailPointRegistry::Global().HitCount(kFailPointStoreWrite);
    ASSERT_TRUE(store.Publish(MakeImage("gen " + std::to_string(i))).ok());
    EXPECT_EQ(FailPointRegistry::Global().HitCount(kFailPointStoreWrite),
              writes_before + 1);
  }
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(directory_),
                          std::filesystem::directory_iterator()),
            3);
}

TEST_F(SnapshotStoreTest, GenerationsAreMonotone) {
  SnapshotStore store = Store();
  for (uint64_t expected = 1; expected <= 3; ++expected) {
    const Result<uint64_t> generation =
        store.Publish(MakeImage("gen " + std::to_string(expected)));
    ASSERT_TRUE(generation.ok());
    EXPECT_EQ(*generation, expected);
  }
  EXPECT_EQ(store.ListGenerations(), (std::vector<uint64_t>{1, 2, 3}));
  const Result<SnapshotStore::Opened> opened =
      OpenSnapshotFile(store.GenerationPath(2));
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(SectionString(*opened, 0x01), "gen 2");
}

TEST_F(SnapshotStoreTest, PublishRejectsInvalidImage) {
  SnapshotStore store = Store();
  const uint64_t failures_before =
      CounterValue(kMetricStorePublishFailures);
  const Result<uint64_t> generation = store.Publish("not a POLSNAP1 file");
  EXPECT_EQ(generation.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(store.ListGenerations().empty());
  EXPECT_EQ(CounterValue(kMetricStorePublishFailures),
            failures_before + 1);
}

TEST_F(SnapshotStoreTest, GcKeepsNewestGenerations) {
  SnapshotStore store = Store(/*keep=*/2);
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(store.Publish(MakeImage("gen " + std::to_string(i))).ok());
  }
  EXPECT_EQ(store.ListGenerations(), (std::vector<uint64_t>{3, 4}));
  const Result<SnapshotStore::Opened> opened = store.OpenLatest();
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->generation, 4u);
  EXPECT_EQ(SectionString(*opened, 0x01), "gen 4");
}

TEST_F(SnapshotStoreTest, OpenLatestSkipsCorruptNewest) {
  SnapshotStore store = Store();
  ASSERT_TRUE(store.Publish(MakeImage("good")).ok());
  ASSERT_TRUE(store.Publish(MakeImage("doomed")).ok());
  {
    // Flip one payload byte of generation 2 — a torn or bit-rotted file.
    std::fstream file(store.GenerationPath(2),
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekg(0, std::ios::end);
    const std::streamoff size = file.tellg();
    file.seekp(size - 1);
    file.put('\xFF');
  }
  const uint64_t fallbacks_before = CounterValue(kMetricStoreFallbacks);
  const Result<SnapshotStore::Opened> opened = store.OpenLatest();
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->generation, 1u);
  EXPECT_EQ(SectionString(*opened, 0x01), "good");
  EXPECT_EQ(CounterValue(kMetricStoreFallbacks), fallbacks_before + 1);
}

TEST_F(SnapshotStoreTest, AllGenerationsCorruptIsDataLoss) {
  SnapshotStore store = Store();
  ASSERT_TRUE(store.Publish(MakeImage("a")).ok());
  ASSERT_TRUE(store.Publish(MakeImage("b")).ok());
  for (const uint64_t generation : store.ListGenerations()) {
    std::ofstream file(store.GenerationPath(generation),
                       std::ios::binary | std::ios::trunc);
    file << "shredded";
  }
  const Result<SnapshotStore::Opened> opened = store.OpenLatest();
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
}

TEST_F(SnapshotStoreTest, EmptyDirectoryIsNotFound) {
  SnapshotStore store = Store();
  EXPECT_EQ(store.OpenLatest().status().code(), StatusCode::kNotFound);
}

TEST_F(SnapshotStoreTest, StrayTempFilesAreIgnoredAndSwept) {
  SnapshotStore store = Store();
  ASSERT_TRUE(store.Publish(MakeImage("gen 1")).ok());
  const std::string stray = store.GenerationPath(7) + ".tmp";
  {
    std::ofstream file(stray, std::ios::binary);
    file << "torn half-written image";
  }
  // A torn temp never counts as a generation and never serves.
  EXPECT_EQ(store.ListGenerations(), (std::vector<uint64_t>{1}));
  const Result<SnapshotStore::Opened> opened = store.OpenLatest();
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->generation, 1u);
  // The next successful publish sweeps it.
  ASSERT_TRUE(store.Publish(MakeImage("gen 2")).ok());
  EXPECT_FALSE(std::filesystem::exists(stray));
}

TEST_F(SnapshotStoreTest, WriteFailPointFailsPublishCleanly) {
  if (!kFailPointsEnabled) {
    GTEST_SKIP() << "fail points compiled out (build with POL_FAILPOINTS)";
  }
  SnapshotStore store = Store();
  ASSERT_TRUE(store.Publish(MakeImage("gen 1")).ok());
  FailPointSpec spec;
  spec.code = StatusCode::kIoError;
  FailPointRegistry::Global().Arm(kFailPointStoreWrite, spec);
  EXPECT_FALSE(store.Publish(MakeImage("gen 2")).ok());
  FailPointRegistry::Global().Disarm(kFailPointStoreWrite);
  // Nothing visible changed; the retry publishes the next generation.
  EXPECT_EQ(store.ListGenerations(), (std::vector<uint64_t>{1}));
  const Result<uint64_t> retried = store.Publish(MakeImage("gen 2 retry"));
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(*retried, 2u);
}

TEST_F(SnapshotStoreTest, RenameFailPointLeavesTornTempOnly) {
  if (!kFailPointsEnabled) {
    GTEST_SKIP() << "fail points compiled out (build with POL_FAILPOINTS)";
  }
  SnapshotStore store = Store();
  ASSERT_TRUE(store.Publish(MakeImage("gen 1")).ok());
  FailPointSpec spec;
  spec.code = StatusCode::kIoError;
  FailPointRegistry::Global().Arm(kFailPointStoreRename, spec);
  EXPECT_FALSE(store.Publish(MakeImage("gen 2")).ok());
  FailPointRegistry::Global().Disarm(kFailPointStoreRename);
  // The kill landed between write and rename: a stray .tmp exists, but
  // no new generation, and the old one still serves.
  EXPECT_TRUE(std::filesystem::exists(store.GenerationPath(2) + ".tmp"));
  EXPECT_EQ(store.ListGenerations(), (std::vector<uint64_t>{1}));
  const Result<SnapshotStore::Opened> opened = store.OpenLatest();
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->generation, 1u);
  // Recovery: the retry publishes generation 2 and sweeps the temp.
  const Result<uint64_t> retried = store.Publish(MakeImage("gen 2 retry"));
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(*retried, 2u);
  EXPECT_FALSE(std::filesystem::exists(store.GenerationPath(2) + ".tmp"));
}

TEST_F(SnapshotStoreTest, OpenFailPointExercisesFallback) {
  if (!kFailPointsEnabled) {
    GTEST_SKIP() << "fail points compiled out (build with POL_FAILPOINTS)";
  }
  SnapshotStore store = Store();
  ASSERT_TRUE(store.Publish(MakeImage("gen 1")).ok());
  ASSERT_TRUE(store.Publish(MakeImage("gen 2")).ok());
  // Fire on the next open attempt only: the newest generation fails to
  // open, the walk falls back to its predecessor.
  FailPointSpec spec;
  spec.fire_from = FailPointRegistry::Global().HitCount(kFailPointStoreOpen);
  spec.fire_count = 1;
  spec.code = StatusCode::kIoError;
  FailPointRegistry::Global().Arm(kFailPointStoreOpen, spec);
  const uint64_t fallbacks_before = CounterValue(kMetricStoreFallbacks);
  const Result<SnapshotStore::Opened> opened = store.OpenLatest();
  FailPointRegistry::Global().Disarm(kFailPointStoreOpen);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->generation, 1u);
  EXPECT_EQ(CounterValue(kMetricStoreFallbacks), fallbacks_before + 1);
}

}  // namespace
}  // namespace pol::store
