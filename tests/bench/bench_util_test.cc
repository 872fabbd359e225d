// The bench harness (bench/bench_util): the interleaved A/B verdict
// under injected slice timings, the summary file and its BENCH line,
// and the corridor fixture.

#include "bench/bench_util.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "store/atomic_file.h"

namespace pol::bench {
namespace {

constexpr int kRounds = 5;

// Two shapes that count their slices, log the order they ran in and
// answer `checksums[shape]`.
struct TwoShapes {
  int calls[2] = {0, 0};
  uint64_t checksums[2] = {7, 7};
  std::vector<size_t> order;

  std::vector<Shape> shapes() {
    return {{"base", [this] { return Run(0); }},
            {"candidate", [this] { return Run(1); }}};
  }

 private:
  uint64_t Run(size_t shape) {
    ++calls[shape];
    order.push_back(shape);
    return checksums[shape];
  }
};

// Times every slice of shape s at seconds(s, n), n counting that
// shape's timed slices from 0; the slice itself still runs.
SliceTimer Scripted(std::function<double(size_t, int)> seconds) {
  auto timed = std::make_shared<std::vector<int>>(2, 0);
  return [seconds, timed](size_t shape, const std::function<void()>& slice) {
    slice();
    return seconds(shape, (*timed)[shape]++);
  };
}

const std::vector<Bar> kCandidateWithin2Percent = {{1, 0, 1.02}};

TEST(CompareInterleavedTest, MetBarStopsAfterOneBlock) {
  TwoShapes fixture;
  const Comparison result = CompareInterleaved(
      fixture.shapes(), kCandidateWithin2Percent, kRounds, 1,
      Scripted([](size_t shape, int) { return shape == 0 ? 1.0 : 1.01; }));
  EXPECT_TRUE(result.met);
  EXPECT_FALSE(result.diverged);
  EXPECT_EQ(result.blocks, 1);
  EXPECT_DOUBLE_EQ(result.min_s[0], 1.0);
  EXPECT_DOUBLE_EQ(result.ratios[0], 1.01);
  // One untimed warmup round, then one block (one slice a round).
  EXPECT_EQ(fixture.calls[0], 1 + kRounds);
  EXPECT_EQ(fixture.calls[1], 1 + kRounds);
}

TEST(CompareInterleavedTest, MissedBarExtendsToExactlyThreeBlocks) {
  TwoShapes fixture;
  const Comparison result = CompareInterleaved(
      fixture.shapes(), kCandidateWithin2Percent, kRounds, 1,
      Scripted([](size_t shape, int) { return shape == 0 ? 1.0 : 1.1; }));
  EXPECT_FALSE(result.met);
  EXPECT_FALSE(result.diverged);
  EXPECT_EQ(result.blocks, kMaxBlocks);
  EXPECT_EQ(kMaxBlocks, 3);
  EXPECT_DOUBLE_EQ(result.ratios[0], 1.1);
  EXPECT_EQ(fixture.calls[1], 1 + kMaxBlocks * kRounds);
}

TEST(CompareInterleavedTest, ExtensionRoundsTightenTheSameMinima) {
  // The candidate's first block is inflated by a load burst; the
  // second block's rounds lower its minimum under the bar.
  TwoShapes fixture;
  const Comparison result = CompareInterleaved(
      fixture.shapes(), kCandidateWithin2Percent, kRounds, 1,
      Scripted([](size_t shape, int n) {
        if (shape == 0) return 1.0;
        return n < kRounds ? 1.5 : 1.005;
      }));
  EXPECT_TRUE(result.met);
  EXPECT_EQ(result.blocks, 2);
  EXPECT_DOUBLE_EQ(result.min_s[1], 1.005);
}

TEST(CompareInterleavedTest, SlicesRotateAndSumIntoRounds) {
  // Two slices a round: the opening shape alternates slice by slice,
  // and a round's time is the sum of its slices, so the candidate's
  // rounds are 1.0 + 1.5 and its fastest 2.5 even though each round
  // has a 1.0 slice.
  TwoShapes fixture;
  const Comparison result = CompareInterleaved(
      fixture.shapes(), kCandidateWithin2Percent, kRounds, 2,
      Scripted([](size_t shape, int n) {
        if (shape == 0) return 1.25;
        return n % 2 == 0 ? 1.0 : 1.5;
      }));
  EXPECT_TRUE(result.met);
  EXPECT_EQ(result.blocks, 1);
  EXPECT_DOUBLE_EQ(result.min_s[0], 2.5);
  EXPECT_DOUBLE_EQ(result.min_s[1], 2.5);
  // Warmup: two slices in order; then base opens every other slice.
  ASSERT_EQ(fixture.order.size(), 4u + 4u * kRounds);
  EXPECT_EQ(fixture.order[4], 0u);
  EXPECT_EQ(fixture.order[5], 1u);
  EXPECT_EQ(fixture.order[6], 1u);
  EXPECT_EQ(fixture.order[7], 0u);
  for (size_t i = 4; i + 4 <= fixture.order.size(); i += 2) {
    EXPECT_EQ(fixture.order[i], fixture.order[i + 2] ^ 1u) << "slice " << i;
  }
}

TEST(CompareInterleavedTest, MedianPairedDropsPairsABurstSplit) {
  // Three slices a round and the candidate always 1% slower than the
  // base slice it is paired with, but a burst triples its last slice
  // of every round: every round sum of the candidate is inflated, the
  // median pair is not.
  const std::vector<Bar> paired = {{1, 0, 1.02, Estimator::kMedianPaired}};
  TwoShapes fixture;
  const Comparison result = CompareInterleaved(
      fixture.shapes(), paired, kRounds, 3,
      Scripted([](size_t shape, int n) {
        const double speed = 1.0 + 0.5 * (n % 3);  // Drifts within a round.
        if (shape == 0) return speed;
        return 1.01 * speed * (n % 3 == 2 ? 3.0 : 1.0);
      }));
  EXPECT_TRUE(result.met);
  EXPECT_EQ(result.blocks, 1);
  EXPECT_DOUBLE_EQ(result.ratios[0], 1.01);
  // The minimum round times miss the same bar by far.
  EXPECT_GT(result.min_s[1] / result.min_s[0], 1.5);
}

TEST(CompareInterleavedTest, MedianPairedMissExtendsToThreeBlocks) {
  const std::vector<Bar> paired = {{1, 0, 1.02, Estimator::kMedianPaired}};
  TwoShapes fixture;
  const Comparison result = CompareInterleaved(
      fixture.shapes(), paired, kRounds, 2,
      Scripted([](size_t shape, int n) {
        const double speed = n % 2 == 0 ? 1.0 : 0.5;
        return shape == 0 ? speed : 1.05 * speed;
      }));
  EXPECT_FALSE(result.met);
  EXPECT_EQ(result.blocks, kMaxBlocks);
  EXPECT_DOUBLE_EQ(result.ratios[0], 1.05);
}

TEST(CompareInterleavedTest, DisagreeingShapesReportDivergence) {
  TwoShapes fixture;
  fixture.checksums[1] = 8;
  const Comparison result = CompareInterleaved(
      fixture.shapes(), kCandidateWithin2Percent, kRounds, 1,
      Scripted([](size_t, int) { return 1.0; }));
  EXPECT_TRUE(result.diverged);
  EXPECT_FALSE(result.met);
  // The first timed slice already disagrees; nothing more runs.
  EXPECT_EQ(fixture.calls[1], 2);
}

class SummaryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("pol_bench_util_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    previous_ = std::filesystem::current_path();
    std::filesystem::current_path(dir_);
  }

  void TearDown() override {
    std::filesystem::current_path(previous_);
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
  std::filesystem::path previous_;
};

obs::Json ReadJson(const std::string& path) {
  std::string text;
  const Status read = store::ReadFileToString(path, &text);
  EXPECT_TRUE(read.ok()) << read.ToString();
  std::string error;
  obs::Json json;
  EXPECT_TRUE(obs::Json::Parse(text, &json, &error)) << error;
  return json;
}

TEST_F(SummaryTest, DefaultPathIsBenchNamed) {
  char arg0[] = "bench_harness";
  char* argv[] = {arg0};
  Summary summary("harness", 1, argv);
  EXPECT_EQ(summary.path(), "BENCH_harness.json");
  summary.Set("answer", 42);
  ASSERT_EQ(summary.Write(), 0);
  const obs::Json written = ReadJson("BENCH_harness.json");
  EXPECT_EQ(written.GetString("schema"), "pol.bench_summary/1");
  EXPECT_EQ(written.GetString("bench"), "harness");
  EXPECT_EQ(written.GetUint64("answer"), 42u);
}

TEST_F(SummaryTest, EmptyReportOutWritesNoFile) {
  char arg0[] = "bench_harness";
  char arg1[] = "--report-out=";
  char* argv[] = {arg0, arg1};
  Summary summary("harness", 2, argv);
  EXPECT_EQ(summary.path(), "");
  EXPECT_EQ(summary.Write(), 0);
  EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

TEST_F(SummaryTest, ReportOutIsTakenOutOfArgs) {
  char arg0[] = "bench_harness";
  char arg1[] = "--benchmark_filter=BM_X";
  char arg2[] = "--report-out=out.json";
  char* argv[] = {arg0, arg1, arg2};
  Summary summary("harness", 3, argv);
  EXPECT_EQ(summary.path(), "out.json");
  EXPECT_EQ(summary.args(), (std::vector<char*>{arg0, arg1}));
}

TEST_F(SummaryTest, BenchLineEqualsTheFile) {
  char arg0[] = "bench_harness";
  char* argv[] = {arg0};
  Summary summary("harness", 1, argv);
  summary.Set("ratio", 1.015);
  obs::Json nested = obs::Json::Object();
  nested.Set("ok", true);
  summary.Set("nested", std::move(nested));
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(summary.Write(), 0);
  const std::string out = ::testing::internal::GetCapturedStdout();

  const std::string prefix = "BENCH ";
  ASSERT_EQ(out.rfind(prefix, 0), 0u) << out;
  ASSERT_EQ(out.back(), '\n');
  ASSERT_EQ(out.find('\n'), out.size() - 1) << "more than one line";
  obs::Json line;
  std::string error;
  ASSERT_TRUE(obs::Json::Parse(out.substr(prefix.size()), &line, &error))
      << error;
  EXPECT_EQ(line.Dump(), ReadJson(summary.path()).Dump());
}

TEST_F(SummaryTest, FailedWriteIsNonZero) {
  // The summary's parent directory is a regular file.
  ASSERT_TRUE(std::ofstream("blocker").good());
  char arg0[] = "bench_harness";
  char arg1[] = "--report-out=blocker/summary.json";
  char* argv[] = {arg0, arg1};
  Summary summary("harness", 2, argv);
  EXPECT_NE(summary.Write(), 0);
}

TEST(CorridorInventoryTest, OneRouteAcrossEveryGeneration) {
  const core::Inventory inventory = CorridorInventory(2, 3);
  // Six distinct cells, each in three grouping sets.
  EXPECT_EQ(inventory.size(), 18u);
  EXPECT_EQ(inventory
                .CellsForRoute(kCorridorOrigin, kCorridorDestination,
                               kCorridorSegment)
                .size(),
            6u);
}

}  // namespace
}  // namespace pol::bench
