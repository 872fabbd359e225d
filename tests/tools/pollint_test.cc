// pollint self-tests: every corpus fixture is linted under a virtual
// repo path and must produce exactly the expected (rule, line) set —
// ids and line numbers both, so rule regressions cannot hide behind
// "still finds something on that file".

#include "tools/pollint/pollint.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace pol::tools::pollint {
namespace {

#ifndef POLLINT_CORPUS_DIR
#error "POLLINT_CORPUS_DIR must point at tests/tools/pollint_corpus"
#endif

std::string ReadCorpusFile(const std::string& name) {
  const std::string path = std::string(POLLINT_CORPUS_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing corpus fixture: " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

using RuleLine = std::pair<std::string, int>;

std::vector<RuleLine> Lint(const std::string& fixture,
                           const std::string& virtual_path) {
  std::vector<RuleLine> got;
  for (const Finding& finding :
       LintSource(virtual_path, ReadCorpusFile(fixture))) {
    EXPECT_EQ(finding.path, virtual_path);
    got.emplace_back(finding.rule, finding.line);
  }
  return got;
}

TEST(PollintCorpusTest, BannedCalls) {
  const std::vector<RuleLine> expected = {
      {"banned-call", 6},  {"banned-call", 7},  {"banned-call", 9},
      {"banned-call", 10}, {"banned-call", 12},
  };
  EXPECT_EQ(Lint("banned_calls.cc", "src/corpus/banned_calls.cc"), expected);
}

TEST(PollintCorpusTest, StoreRawWriteBannedInStore) {
  const std::vector<RuleLine> expected = {
      {"banned-call", 9},
      {"banned-call", 10},
      {"banned-call", 11},
  };
  EXPECT_EQ(Lint("store_raw_write.cc", "src/store/store_raw_write.cc"),
            expected);
}

TEST(PollintCorpusTest, StoreRawWriteBannedInCore) {
  const std::vector<RuleLine> expected = {
      {"banned-call", 9},
      {"banned-call", 10},
      {"banned-call", 11},
  };
  EXPECT_EQ(Lint("store_raw_write.cc", "src/core/store_raw_write.cc"),
            expected);
}

TEST(PollintCorpusTest, RawWriteBannedInObs) {
  const std::vector<RuleLine> expected = {{"banned-call", 12}};
  EXPECT_EQ(Lint("obs_raw_write.cc", "src/obs/obs_raw_write.cc"), expected);
}

TEST(PollintCorpusTest, RawWriteAllowedOutsideSrc) {
  EXPECT_TRUE(
      Lint("store_raw_write.cc", "tools/corpus/store_raw_write.cc").empty());
  EXPECT_TRUE(
      Lint("obs_raw_write.cc", "tools/corpus/obs_raw_write.cc").empty());
}

TEST(PollintCorpusTest, StdoutIoInLibraryCode) {
  const std::vector<RuleLine> expected = {
      {"stdout-io", 8},
      {"stdout-io", 9},
      {"stdout-io", 10},
  };
  EXPECT_EQ(Lint("stdout_io.cc", "src/corpus/stdout_io.cc"), expected);
}

TEST(PollintCorpusTest, StdoutIoAllowedInTools) {
  EXPECT_TRUE(Lint("stdout_io.cc", "tools/corpus/stdout_io.cc").empty());
}

TEST(PollintCorpusTest, NakedNewDelete) {
  const std::vector<RuleLine> expected = {
      {"naked-new", 10},
      {"naked-new", 11},
      {"naked-new", 12},
  };
  EXPECT_EQ(Lint("naked_new.cc", "src/corpus/naked_new.cc"), expected);
}

TEST(PollintCorpusTest, FloatCompare) {
  const std::vector<RuleLine> expected = {
      {"float-compare", 4},
      {"float-compare", 5},
      {"float-compare", 6},
      {"float-compare", 7},
  };
  EXPECT_EQ(Lint("float_compare.cc", "src/corpus/float_compare.cc"),
            expected);
}

TEST(PollintCorpusTest, WrongGuardName) {
  const std::vector<RuleLine> expected = {{"include-guard", 1}};
  EXPECT_EQ(Lint("bad_guard.h", "src/corpus/bad_guard.h"), expected);
}

TEST(PollintCorpusTest, MissingGuard) {
  const std::vector<RuleLine> expected = {{"include-guard", 1}};
  EXPECT_EQ(Lint("no_guard.h", "src/corpus/no_guard.h"), expected);
}

TEST(PollintCorpusTest, MismatchedDefine) {
  const std::vector<RuleLine> expected = {{"include-guard", 2}};
  EXPECT_EQ(Lint("mismatched_define.h", "src/corpus/mismatched_define.h"),
            expected);
}

TEST(PollintCorpusTest, CleanHeaderHasNoFindings) {
  EXPECT_TRUE(Lint("good_guard.h", "src/corpus/good_guard.h").empty());
}

TEST(PollintCorpusTest, MutexAnnotations) {
  // Raw std::mutex / std::shared_mutex members fire part (a); the
  // pol::Mutex member guarding nothing fires part (b); the annotated
  // member and the function-local Mutex stay quiet.
  const std::vector<RuleLine> expected = {
      {"mutex-annotation", 18},
      {"mutex-annotation", 19},
      {"mutex-annotation", 20},
  };
  EXPECT_EQ(Lint("mutex_member.h", "src/corpus/mutex_member.h"), expected);
}

TEST(PollintCorpusTest, MutexAnnotationsOnlyInLibraryCode) {
  // Under a tools/ path only the path-derived include-guard rule may
  // fire; the mutex rule is library-code-only.
  for (const RuleLine& finding :
       Lint("mutex_member.h", "tools/corpus/mutex_member.h")) {
    EXPECT_NE(finding.first, "mutex-annotation");
  }
}

TEST(PollintTest, MutexWrapperHeaderIsExempt) {
  // The one legitimate home of a raw std::mutex.
  const auto findings = LintSource(
      "src/common/mutex.h",
      "#ifndef POL_COMMON_MUTEX_H_\n#define POL_COMMON_MUTEX_H_\n"
      "#include <mutex>\nclass Mutex { std::mutex mu_; };\n#endif\n");
  EXPECT_TRUE(findings.empty());
}

TEST(PollintTest, TransitiveStdIncludesSuppressMissingInclude) {
  // The LintOptions overload treats project-propagated std headers as
  // satisfied; the plain overload keeps demanding a direct include.
  const std::string content = "std::vector<int> v;\n";
  ASSERT_EQ(LintSource("src/x/y.cc", content).size(), 1u);
  LintOptions options;
  options.transitive_std_includes.insert("vector");
  EXPECT_TRUE(LintSource("src/x/y.cc", content, options).empty());
}

TEST(PollintCorpusTest, CatchSwallow) {
  // Fires on the empty handler and the cosmetic-only one; rethrow,
  // return, and the NOLINTNEXTLINE-suppressed handler stay clean.
  const std::vector<RuleLine> expected = {
      {"catch-swallow", 6},
      {"catch-swallow", 13},
  };
  EXPECT_EQ(Lint("catch_swallow.cc", "src/corpus/catch_swallow.cc"),
            expected);
}

TEST(PollintCorpusTest, CatchSwallowOnlyInLibraryCode) {
  EXPECT_TRUE(Lint("catch_swallow.cc", "tools/corpus/catch_swallow.cc")
                  .empty());
}

TEST(PollintCorpusTest, DirectTiming) {
  // Raw steady_clock / high_resolution_clock reads fire; suppressed
  // lines and system_clock (calendar time) stay quiet.
  const std::vector<RuleLine> expected = {
      {"direct-timing", 5},
      {"direct-timing", 6},
  };
  EXPECT_EQ(Lint("direct_timing.cc", "src/corpus/direct_timing.cc"),
            expected);
}

TEST(PollintCorpusTest, DirectTimingAllowedInObsAndTools) {
  // src/obs is the timing authority, and non-library code may read the
  // clock directly.
  EXPECT_TRUE(Lint("direct_timing.cc", "src/obs/direct_timing.cc").empty());
  EXPECT_TRUE(
      Lint("direct_timing.cc", "tools/corpus/direct_timing.cc").empty());
}

TEST(PollintCorpusTest, InventoryQueryBoundary) {
  // Direct summaries() iteration fires everywhere outside src/core —
  // library, bench, examples and tools alike; suppressions and
  // identifiers merely ending in "summaries" stay quiet.
  const std::vector<RuleLine> expected = {
      {"inventory-query", 4},
      {"inventory-query", 8},
  };
  EXPECT_EQ(Lint("direct_summaries.cc", "src/usecases/direct_summaries.cc"),
            expected);
  EXPECT_EQ(Lint("direct_summaries.cc", "bench/direct_summaries.cc"),
            expected);
  EXPECT_EQ(Lint("direct_summaries.cc", "tools/direct_summaries.cc"),
            expected);
}

TEST(PollintCorpusTest, InventoryQueryAllowedInCore) {
  // src/core owns the summary map; the rule must not fire there.
  EXPECT_TRUE(
      Lint("direct_summaries.cc", "src/core/direct_summaries.cc").empty());
}

TEST(PollintCorpusTest, ServingWait) {
  // Raw condition variables and every sleep flavor fire inside the
  // serving path; the NOLINTNEXTLINE-suppressed sleep stays quiet.
  const std::vector<RuleLine> expected = {
      {"serving-wait", 7},  {"serving-wait", 8},  {"serving-wait", 12},
      {"serving-wait", 13}, {"serving-wait", 14}, {"serving-wait", 15},
  };
  EXPECT_EQ(Lint("serving_wait.cc", "src/core/serving_wait.cc"), expected);
}

TEST(PollintCorpusTest, ServingWaitScopedToServingPath) {
  // The same text is legal elsewhere — the rule polices the serving
  // path only (other core files, other layers, non-library trees).
  EXPECT_TRUE(Lint("serving_wait.cc", "src/core/inventory_wait.cc").empty());
  EXPECT_TRUE(Lint("serving_wait.cc", "src/flow/serving_wait.cc").empty());
  EXPECT_TRUE(Lint("serving_wait.cc", "tools/serving_wait.cc").empty());
}

TEST(PollintCorpusTest, ServingMetricName) {
  // Ad-hoc "serving.*" name literals fire in the serving path; prose
  // mentioning serving, mid-string occurrences, and the NOLINT'd line
  // stay quiet.
  const std::vector<RuleLine> expected = {
      {"serving-metric-name", 6},
      {"serving-metric-name", 7},
  };
  EXPECT_EQ(Lint("serving_metric_name.cc", "src/core/serving_metric_name.cc"),
            expected);
}

TEST(PollintCorpusTest, ServingMetricNameScopedToServingPath) {
  // Outside src/core/serving* the literals are legal, and the constants
  // header itself — the one place the names are allowed to live as
  // literals — is exempt.
  EXPECT_TRUE(
      Lint("serving_metric_name.cc", "src/core/inventory_names.cc").empty());
  EXPECT_TRUE(
      Lint("serving_metric_name.cc", "src/flow/serving_metric_name.cc")
          .empty());
  EXPECT_TRUE(
      Lint("serving_metric_name.cc", "tools/serving_metric_name.cc").empty());
  // The header path still gets the other rules (include-guard, &c), so
  // only assert the metric-name rule is muted there.
  for (const RuleLine& finding :
       Lint("serving_metric_name.cc", "src/core/serving_metric_names.h")) {
    EXPECT_NE(finding.first, "serving-metric-name") << finding.second;
  }
}

TEST(PollintCorpusTest, MissingDirectInclude) {
  const std::vector<RuleLine> expected = {{"missing-include", 4}};
  EXPECT_EQ(Lint("missing_include.cc", "src/corpus/missing_include.cc"),
            expected);
}

TEST(PollintTest, GuardNamesDeriveFromPath) {
  // Library headers drop the src/ prefix; everything else keeps the
  // full path (bench/bench_util.h -> POL_BENCH_BENCH_UTIL_H_).
  const std::string content =
      "#ifndef POL_BENCH_X_H_\n#define POL_BENCH_X_H_\n#endif\n";
  EXPECT_TRUE(LintSource("bench/x.h", content).empty());
  // Under src/ the prefix is stripped, so the same text expects
  // POL_X_H_ and the bench-style guard is a finding.
  const auto findings = LintSource("src/x.h", content);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "include-guard");
}

TEST(PollintTest, RuleIdsAreSortedAndUnique) {
  const std::vector<std::string>& ids = RuleIds();
  EXPECT_FALSE(ids.empty());
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(PollintTest, FormatFindingIsGrepFriendly) {
  Finding finding;
  finding.path = "src/flow/dataset.h";
  finding.line = 42;
  finding.rule = "naked-new";
  finding.message = "boom";
  EXPECT_EQ(FormatFinding(finding),
            "src/flow/dataset.h:42: pollint:naked-new: boom");
}

TEST(PollintTest, BlanketNolintSuppressesEveryRule) {
  const auto findings = LintSource(
      "src/x/y.cc", "int a = rand();  // NOLINT(pollint)\n");
  EXPECT_TRUE(findings.empty());
}

TEST(PollintTest, CommentsAndStringsDoNotTrigger) {
  const auto findings = LintSource(
      "src/x/y.cc",
      "// rand() gmtime() new delete std::cout 1.0 == 2.0\n"
      "const char* s = \"rand() new std::cout\";\n"
      "/* delete printf(\"x\") */\n");
  EXPECT_TRUE(findings.empty());
}

}  // namespace
}  // namespace pol::tools::pollint
