// QueryLog: process-unique ids, always-on totals reconciliation,
// notable-ring and reservoir retention, and the JSONL export — every
// row must parse back through obs::Json with exact 64-bit ids, escaped
// strings, and no NaN/Infinity leaking into the document.

#include "obs/querylog.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace pol::obs {
namespace {

// Event string fields must be static storage (see obs/querylog.h).
constexpr std::string_view kInteractive = "interactive";
constexpr std::string_view kQueryOp = "query";
constexpr std::string_view kOkStatus = "Ok";
constexpr std::string_view kErrorStatus = "Internal";

QueryEvent OkEvent(uint64_t id, double scan_seconds = 0.001) {
  QueryEvent event;
  event.id = id;
  event.query_class = kInteractive;
  event.op = kQueryOp;
  event.status = kOkStatus;
  event.ok = true;
  event.scan_seconds = scan_seconds;
  return event;
}

QueryEvent ErrorEvent(uint64_t id) {
  QueryEvent event = OkEvent(id);
  event.status = kErrorStatus;
  event.ok = false;
  return event;
}

// Every non-empty line of `jsonl`, parsed; fails the test on a line
// that does not parse.
std::vector<Json> ParseJsonl(const std::string& jsonl) {
  std::vector<Json> rows;
  size_t begin = 0;
  while (begin < jsonl.size()) {
    size_t end = jsonl.find('\n', begin);
    if (end == std::string::npos) end = jsonl.size();
    const std::string line = jsonl.substr(begin, end - begin);
    begin = end + 1;
    if (line.empty()) continue;
    Json row;
    std::string error;
    EXPECT_TRUE(Json::Parse(line, &row, &error)) << error << ": " << line;
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(QueryLogTest, IdsStartAtOneAndIncrement) {
  QueryLog log;
  EXPECT_EQ(log.NextId(), 1u);
  EXPECT_EQ(log.NextId(), 2u);
  EXPECT_EQ(log.NextId(), 3u);
}

TEST(QueryLogTest, TotalsReconcileAcrossOutcomes) {
  QueryLogOptions options;
  options.slow_seconds = 0.1;
  QueryLog log(options);
  log.Record(OkEvent(1));
  log.Record(OkEvent(2));
  log.Record(OkEvent(3));
  log.Record(OkEvent(4, 0.2));  // OK but slow.
  log.Record(ErrorEvent(5));
  QueryEvent slow_error = ErrorEvent(6);
  slow_error.scan_seconds = 0.5;  // Slow counts regardless of status.
  log.Record(slow_error);

  const QueryLog::Totals totals = log.totals();
  EXPECT_EQ(totals.ok, 4u);
  EXPECT_EQ(totals.errors, 2u);
  EXPECT_EQ(totals.events, totals.ok + totals.errors);
  EXPECT_EQ(totals.slow, 2u);
}

TEST(QueryLogTest, NotableRingKeepsFreshestIncidents) {
  QueryLogOptions options;
  options.notable_capacity = 2;
  QueryLog log(options);
  log.Record(ErrorEvent(1));
  log.Record(ErrorEvent(2));
  log.Record(ErrorEvent(3));  // Overwrites the oldest (id 1).

  const std::vector<QueryEvent> notable = log.NotableEvents();
  ASSERT_EQ(notable.size(), 2u);
  EXPECT_EQ(notable[0].id, 2u);  // Sorted by id.
  EXPECT_EQ(notable[1].id, 3u);
  // Totals are independent of ring retention.
  EXPECT_EQ(log.totals().errors, 3u);
}

TEST(QueryLogTest, SlowQueriesAreNotableEvenWhenOk) {
  QueryLogOptions options;
  options.slow_seconds = 0.05;
  QueryLog log(options);
  log.Record(OkEvent(1, 0.001));  // Healthy -> reservoir.
  log.Record(OkEvent(2, 0.08));   // Slow -> notable ring.
  const std::vector<QueryEvent> notable = log.NotableEvents();
  ASSERT_EQ(notable.size(), 1u);
  EXPECT_EQ(notable[0].id, 2u);
  const std::vector<QueryEvent> sampled = log.SampledEvents();
  ASSERT_EQ(sampled.size(), 1u);
  EXPECT_EQ(sampled[0].id, 1u);
}

TEST(QueryLogTest, ReservoirStaysBoundedAndUniformish) {
  constexpr uint64_t kEvents = 1000;
  QueryLogOptions options;
  options.sampled_capacity = 8;
  QueryLog log(options);
  for (uint64_t id = 1; id <= kEvents; ++id) log.Record(OkEvent(id));

  const std::vector<QueryEvent> sampled = log.SampledEvents();
  ASSERT_EQ(sampled.size(), 8u);
  std::set<uint64_t> ids;
  for (const QueryEvent& event : sampled) {
    EXPECT_GE(event.id, 1u);
    EXPECT_LE(event.id, kEvents);
    ids.insert(event.id);
  }
  EXPECT_EQ(ids.size(), sampled.size());  // Distinct slots, sorted set.
  // The stateless draw must keep replacing: with 1000 candidates for 8
  // slots it would be wildly improbable for the sample to still be the
  // first 8 events.
  EXPECT_GT(*ids.rbegin(), 8u);
  EXPECT_EQ(log.totals().ok, kEvents);
}

TEST(QueryLogTest, JsonlRoundTripsExactIdsAndEscapes) {
  constexpr uint64_t kWideId = (uint64_t{1} << 40) + 123;  // Past 32 bits.
  static constexpr std::string_view kTrickyOp = "route \"hot\"\\backslash";
  QueryLog log;
  QueryEvent event = ErrorEvent(kWideId);
  event.op = kTrickyOp;
  event.snapshot_id = (uint64_t{1} << 33) + 7;
  event.summaries_visited = 5760;
  event.queue_wait_seconds = 0.0125;
  event.scan_seconds = 0.75;  // Slow -> notable, so the ring retains it.
  event.deadline_remaining_seconds = 0.25;
  log.Record(event);

  const std::vector<Json> rows = ParseJsonl(log.ExportJsonl());
  ASSERT_EQ(rows.size(), 1u);
  const Json& row = rows[0];
  EXPECT_EQ(row.GetUint64("id"), kWideId);
  EXPECT_EQ(row.GetString("op"), kTrickyOp);
  EXPECT_EQ(row.GetString("class"), "interactive");
  EXPECT_EQ(row.GetString("status"), "Internal");
  ASSERT_NE(row.Find("ok"), nullptr);
  EXPECT_FALSE(row.Find("ok")->AsBool(true));
  EXPECT_EQ(row.GetUint64("snapshot_id"), (uint64_t{1} << 33) + 7);
  EXPECT_EQ(row.GetUint64("summaries_visited"), 5760u);
  EXPECT_DOUBLE_EQ(row.GetDouble("queue_wait_seconds"), 0.0125);
  EXPECT_DOUBLE_EQ(row.GetDouble("scan_seconds"), 0.75);
  EXPECT_DOUBLE_EQ(row.GetDouble("deadline_remaining_seconds"), 0.25);
}

TEST(QueryLogTest, NonFiniteDoublesExportAsSentinel) {
  QueryLog log;
  QueryEvent event = ErrorEvent(1);
  event.queue_wait_seconds = std::numeric_limits<double>::quiet_NaN();
  event.deadline_remaining_seconds =
      std::numeric_limits<double>::infinity();
  log.Record(event);

  // The export must stay parseable — obs::Json has no NaN/Infinity —
  // and the poisoned fields land as the -1.0 "no value" sentinel.
  const std::vector<Json> rows = ParseJsonl(log.ExportJsonl());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].GetDouble("queue_wait_seconds"), -1.0);
  EXPECT_DOUBLE_EQ(rows[0].GetDouble("deadline_remaining_seconds"), -1.0);
}

TEST(QueryLogTest, ExportMergesRingsSortedById) {
  QueryLog log;
  log.Record(OkEvent(4));
  log.Record(ErrorEvent(2));
  log.Record(OkEvent(3));
  log.Record(ErrorEvent(1));

  const std::vector<Json> rows = ParseJsonl(log.ExportJsonl());
  ASSERT_EQ(rows.size(), 4u);
  uint64_t previous = 0;
  for (const Json& row : rows) {
    const uint64_t id = row.GetUint64("id");
    EXPECT_GT(id, previous);  // Strictly ascending across both rings.
    previous = id;
  }
}

}  // namespace
}  // namespace pol::obs
