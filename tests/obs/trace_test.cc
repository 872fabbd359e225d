// Unit tests for the trace recorder and the scoped-span macro. The
// recording tests drive local TraceRecorder instances; the macro tests
// go through the global recorder (cleared per test) because that is
// what POL_TRACE_SPAN records into.

#include "obs/trace.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.h"

namespace pol::obs {
namespace {

Json ParseExport(const TraceRecorder& recorder) {
  Json document;
  std::string error;
  EXPECT_TRUE(Json::Parse(recorder.ExportChromeTraceJson(), &document, &error))
      << error;
  return document;
}

TEST(TraceRecorderTest, RecordsArriveSortedByTimestamp) {
  TraceRecorder recorder;
  recorder.Record("late", 300, 10);
  recorder.Record("early", 100, 5);
  recorder.Record("middle", 200, 7);
  const std::vector<TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "early");
  EXPECT_EQ(events[1].name, "middle");
  EXPECT_EQ(events[2].name, "late");
  EXPECT_EQ(recorder.event_count(), 3u);
}

TEST(TraceRecorderTest, ClearDropsEvents) {
  TraceRecorder recorder;
  recorder.Record("span", 1, 1);
  recorder.Clear();
  EXPECT_EQ(recorder.event_count(), 0u);
}

TEST(TraceRecorderTest, ExportIsWellFormedChromeTrace) {
  TraceRecorder recorder;
  recorder.Record("stage.cleaning", 1000, 250);
  const Json document = ParseExport(recorder);
  EXPECT_EQ(document.GetString("displayTimeUnit"), "ms");
  const Json* events = document.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), 1u);
  const Json& event = events->at(0);
  EXPECT_EQ(event.GetString("name"), "stage.cleaning");
  EXPECT_EQ(event.GetString("ph"), "X");  // Complete event.
  EXPECT_EQ(event.GetUint64("ts"), 1000u);
  EXPECT_EQ(event.GetUint64("dur"), 250u);
  EXPECT_EQ(event.GetUint64("pid"), 1u);
  EXPECT_GE(event.GetUint64("tid"), 1u);
}

TEST(TraceRecorderTest, EmptyExportIsValidJson) {
  // Holds in both builds: a stopped/empty recorder still exports a
  // loadable document.
  TraceRecorder recorder;
  const Json document = ParseExport(recorder);
  ASSERT_NE(document.Find("traceEvents"), nullptr);
  EXPECT_EQ(document.Find("traceEvents")->size(), 0u);
}

TEST(TraceRecorderTest, ThreadsGetDistinctTids) {
  TraceRecorder recorder;
  std::thread a([&] { recorder.Record("a", 1, 1); });
  std::thread b([&] { recorder.Record("b", 2, 1); });
  a.join();
  b.join();
  const std::vector<TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

class ScopedSpanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRecorder::Global().Stop();
    TraceRecorder::Global().Clear();
  }
  void TearDown() override {
    TraceRecorder::Global().Stop();
    TraceRecorder::Global().Clear();
  }
};

TEST_F(ScopedSpanTest, SpanRecordsWhileStarted) {
  TraceRecorder::Global().Start();
  { POL_TRACE_SPAN("test.span"); }
  TraceRecorder::Global().Stop();
  const std::vector<TraceEvent> events = TraceRecorder::Global().Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "test.span");
}

TEST_F(ScopedSpanTest, SpanWhileStoppedRecordsNothing) {
  { POL_TRACE_SPAN("test.silent"); }
  EXPECT_EQ(TraceRecorder::Global().event_count(), 0u);
}

TEST_F(ScopedSpanTest, SpanBegunWhileStoppedStaysSilentAfterStart) {
  // The gate is sampled at construction: starting the recorder mid-span
  // must not retroactively record it.
  {
    POL_TRACE_SPAN("test.preexisting");
    TraceRecorder::Global().Start();
  }
  TraceRecorder::Global().Stop();
  EXPECT_EQ(TraceRecorder::Global().event_count(), 0u);
}

TEST_F(ScopedSpanTest, SpanBegunWhileStartedRecordsAfterStop) {
  // The converse also holds: a span that began while recording lands
  // even if the recorder stops before the span closes. RunPipeline
  // relies on this to close the "pipeline.run" span after Stop().
  TraceRecorder::Global().Start();
  {
    POL_TRACE_SPAN("test.straddler");
    TraceRecorder::Global().Stop();
  }
  EXPECT_EQ(TraceRecorder::Global().event_count(), 1u);
}

TEST_F(ScopedSpanTest, NestedSpansAllRecord) {
  TraceRecorder::Global().Start();
  {
    POL_TRACE_SPAN("outer");
    {
      POL_TRACE_SPAN(std::string("inner.") + "dynamic");
    }
  }
  TraceRecorder::Global().Stop();
  const std::vector<TraceEvent> events = TraceRecorder::Global().Events();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent& outer = events[0].name == "outer" ? events[0] : events[1];
  const TraceEvent& inner =
      events[0].name == "outer" ? events[1] : events[0];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(inner.name, "inner.dynamic");
  // The outer span fully contains the inner one.
  EXPECT_LE(outer.ts_micros, inner.ts_micros);
  EXPECT_GE(outer.ts_micros + outer.dur_micros,
            inner.ts_micros + inner.dur_micros);
}

}  // namespace
}  // namespace pol::obs
