// Query-level serving telemetry (DESIGN.md §3.8): ids flow from
// BeginQuery through the query log and the per-query trace span, the
// admitted == logged-OK + logged-errors reconciliation holds, visited
// counts land in the wide events, window gauges and SLO evaluation
// publish the serving.* gauge set, and TickTelemetry / the exporter
// thread produce a parseable OpenMetrics file.

#include "core/serving_telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "core/inventory.h"
#include "core/serving_guard.h"
#include "core/serving_metric_names.h"
#include "hexgrid/hexgrid.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"
#include "obs/trace.h"

namespace pol::core {
namespace {

constexpr sim::PortId kOrigin = 5;
constexpr sim::PortId kDestination = 33;
constexpr auto kSegment = ais::MarketSegment::kTanker;

Inventory Batch(int generation, int cells) {
  SummaryMap summaries;
  for (int i = 0; i < cells; ++i) {
    const hex::CellIndex cell = hex::LatLngToCell(
        {4.0 + 0.2 * generation, 110.0 + 0.4 * i}, 6);
    PipelineRecord r;
    r.mmsi = 477000002;
    r.trip_id = static_cast<uint64_t>(generation * 1000 + i);
    r.origin = kOrigin;
    r.destination = kDestination;
    r.segment = kSegment;
    r.sog_knots = 11;
    r.cog_deg = 45;
    r.heading_deg = 45;
    r.eto_s = 1800;
    r.ata_s = 5400;
    for (const GroupKey& key :
         {KeyCell(cell), KeyCellType(cell, kSegment),
          KeyCellRouteType(cell, kOrigin, kDestination, kSegment)}) {
      auto [it, inserted] = summaries.try_emplace(key);
      (void)inserted;
      it->second.Add(r);
    }
  }
  return Inventory(6, std::move(summaries));
}

uint64_t CounterValue(std::string_view name) {
  return obs::Registry::Global().counter(name)->value();
}

int64_t GaugeValue(std::string_view name) {
  return obs::Registry::Global().gauge(name)->value();
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return {};
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(ServingTelemetryTest, DisabledByOptionRecordsNothing) {
  ServingTelemetryOptions options;
  options.enabled = false;
  ServingTelemetry telemetry(options);
  EXPECT_FALSE(telemetry.enabled());
  EXPECT_EQ(telemetry.BeginQuery(), 0u);
  telemetry.RecordQuery(1, QueryClass::kInteractive, "query", Status::OK(),
                        0.0, 0.001, -1.0, 1, 0);
  EXPECT_EQ(telemetry.query_log().totals().events, 0u);
}

TEST(ServingTelemetryTest, GuardedQueriesLandInTheLogWithIds) {
  ServingInventory store(Batch(0, 3));
  ServingGuard guard(&store);
  if (!guard.telemetry()->enabled()) GTEST_SKIP() << "obs compiled to no-ops";
  const uint64_t admitted_before = CounterValue(kMetricServingAdmitted);

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(guard
                    .Run(QueryClass::kInteractive, Deadline(),
                         [](const InventorySnapshot&) {
                           return Status::OK();
                         })
                    .ok());
  }
  const Status failed = guard.Run(
      QueryClass::kInteractive, Deadline(),
      [](const InventorySnapshot&) {
        return Status::Internal("synthetic query failure");
      });
  EXPECT_EQ(failed.code(), StatusCode::kInternal);

  const obs::QueryLog& log = guard.telemetry()->query_log();
  const obs::QueryLog::Totals totals = log.totals();
  EXPECT_EQ(totals.ok, 3u);
  EXPECT_EQ(totals.errors, 1u);
  // The reconciliation invariant: every admitted call logged once.
  EXPECT_EQ(CounterValue(kMetricServingAdmitted) - admitted_before,
            totals.ok + totals.errors);

  // The failure is notable; its wide event carries the join fields.
  const std::vector<obs::QueryEvent> notable = log.NotableEvents();
  ASSERT_EQ(notable.size(), 1u);
  EXPECT_GT(notable[0].id, 0u);
  EXPECT_EQ(notable[0].op, "query");
  EXPECT_EQ(notable[0].query_class, "interactive");
  EXPECT_FALSE(notable[0].ok);
  EXPECT_GT(notable[0].snapshot_id, 0u);  // Sealed snapshots number from 1.
  EXPECT_LT(notable[0].deadline_remaining_seconds, 0.0);  // No deadline.
}

TEST(ServingTelemetryTest, SweepAndCorridorRecordVisitedCounts) {
  ServingInventory store(Batch(0, 4));
  ServingGuard guard(&store);
  if (!guard.telemetry()->enabled()) GTEST_SKIP() << "obs compiled to no-ops";

  ASSERT_TRUE(guard
                  .VisitGroupingSet(GroupingSet::kCellRouteType, Deadline(),
                                    [](const GroupKey&, const CellSummary&) {})
                  .ok());
  const auto corridor =
      guard.CellsForRoute(kOrigin, kDestination, kSegment, Deadline());
  ASSERT_TRUE(corridor.ok());
  ASSERT_EQ(corridor.value().size(), 4u);

  bool saw_sweep = false;
  bool saw_route = false;
  for (const obs::QueryEvent& event :
       guard.telemetry()->query_log().SampledEvents()) {
    if (event.op == "visit_grouping_set") {
      saw_sweep = true;
      EXPECT_EQ(event.summaries_visited, 4u);
      EXPECT_EQ(event.query_class, "batch");
    } else if (event.op == "cells_for_route") {
      saw_route = true;
      EXPECT_EQ(event.summaries_visited, 4u);
      EXPECT_EQ(event.query_class, "interactive");
    }
  }
  EXPECT_TRUE(saw_sweep);
  EXPECT_TRUE(saw_route);
}

TEST(ServingTelemetryTest, TraceSpanJoinsLogRowOnId) {
  ServingInventory store(Batch(0, 2));
  ServingGuard guard(&store);
  if (!guard.telemetry()->enabled()) GTEST_SKIP() << "obs compiled to no-ops";

  obs::TraceRecorder::Global().Clear();
  obs::TraceRecorder::Global().Start();
  ASSERT_TRUE(guard
                  .Run(QueryClass::kInteractive, Deadline(),
                       [](const InventorySnapshot&) { return Status::OK(); })
                  .ok());
  obs::TraceRecorder::Global().Stop();

  // The guard's freshest query id names the span.
  uint64_t last_id = 0;
  for (const obs::QueryEvent& event :
       guard.telemetry()->query_log().SampledEvents()) {
    last_id = std::max(last_id, event.id);
  }
  ASSERT_GT(last_id, 0u);
  const std::string expected = std::string(kSpanServingQueryPrefix) +
                               "query#" + std::to_string(last_id);
  bool found = false;
  for (const obs::TraceEvent& event : obs::TraceRecorder::Global().Events()) {
    found = found || event.name == expected;
  }
  EXPECT_TRUE(found) << "missing span " << expected;
  obs::TraceRecorder::Global().Clear();
}

TEST(ServingTelemetryTest, RejectionsFeedRatesButNotTheLog) {
  ServingInventory store(Batch(0, 2));
  ServingGuardOptions options;
  options.max_concurrent_interactive = 1;
  options.max_queue_wait_seconds = 0.0;  // Saturation sheds immediately.
  ServingGuard guard(&store, options);
  if (!guard.telemetry()->enabled()) GTEST_SKIP() << "obs compiled to no-ops";

  std::atomic<bool> inside{false};
  std::atomic<bool> release{false};
  std::thread holder([&guard, &inside, &release] {
    ASSERT_TRUE(guard
                    .Run(QueryClass::kInteractive, Deadline(),
                         [&inside, &release](const InventorySnapshot&) {
                           inside.store(true, std::memory_order_release);
                           while (!release.load(std::memory_order_acquire)) {
                             std::this_thread::yield();
                           }
                           return Status::OK();
                         })
                    .ok());
  });
  while (!inside.load(std::memory_order_acquire)) std::this_thread::yield();

  const Status shed = guard.Run(QueryClass::kInteractive, Deadline(),
                                [](const InventorySnapshot&) {
                                  return Status::OK();
                                });
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  release.store(true, std::memory_order_release);
  holder.join();

  // The shed call fed the error and shed rates but wrote no log row:
  // totals reconcile against admissions, not attempts.
  EXPECT_GE(guard.telemetry()->error_rate().Total(0), 1u);
  EXPECT_GE(guard.telemetry()->shed_rate().Total(0), 1u);
  EXPECT_EQ(guard.telemetry()->query_log().totals().events, 1u);
}

TEST(ServingTelemetryTest, WindowGaugesPublishTrailingState) {
  ServingTelemetryOptions options;
  options.window_seconds = 1.0;
  options.window_count = 64;
  options.gauge_windows = 5;
  ServingTelemetry telemetry(options);
  ASSERT_TRUE(telemetry.enabled());

  // Five OK interactive queries at a constant 1ms scan, all in one
  // 5-window gauge span: QPS = 1/s, p50 = p99 = 1000us, no errors.
  for (int i = 0; i < 5; ++i) {
    telemetry.RecordQueryAt(1000.5, telemetry.BeginQuery(),
                            QueryClass::kInteractive, "query", Status::OK(),
                            0.0, 0.001, -1.0, 1, 0);
  }
  telemetry.UpdateWindowGaugesAt(1000.9);
  EXPECT_EQ(GaugeValue(kMetricServingQueryQpsMilli), 1000);
  EXPECT_EQ(GaugeValue(kMetricServingQueryErrorRateMilli), 0);
  EXPECT_EQ(GaugeValue(kMetricServingInteractiveP50Us), 1000);
  EXPECT_EQ(GaugeValue(kMetricServingInteractiveP99Us), 1000);
  EXPECT_EQ(GaugeValue(kMetricServingQuerylogEvents), 5);
  EXPECT_EQ(GaugeValue(kMetricServingQuerylogOk), 5);
}

TEST(ServingTelemetryTest, SloStormBurnsAndRecovers) {
  ServingTelemetryOptions options;
  options.window_seconds = 1.0;
  options.window_count = 64;
  options.slo_fast_windows = 2;
  options.slo_slow_windows = 20;
  ServingTelemetry telemetry(options);
  ASSERT_TRUE(telemetry.enabled());

  // A pure failure storm: availability burns in both windows.
  for (int i = 0; i < 100; ++i) {
    telemetry.RecordQueryAt(500.5, telemetry.BeginQuery(),
                            QueryClass::kInteractive, "query",
                            Status::Internal("storm"), 0.0, 0.001, -1.0, 1, 0);
  }
  std::vector<obs::SloStatus> statuses = telemetry.EvaluateSlosAt(500.9);
  ASSERT_EQ(statuses.size(), 3u);  // availability + two latency SLOs.
  EXPECT_EQ(statuses[0].name, "availability");
  EXPECT_TRUE(statuses[0].burning);
  EXPECT_EQ(statuses[0].breaches, 1u);
  EXPECT_EQ(statuses[1].name, "interactive_p99");
  EXPECT_EQ(statuses[2].name, "batch_p99");
  EXPECT_EQ(GaugeValue("serving.slo.availability.burning"), 1);

  // The windows drain: the SLO recovers, the breach count sticks.
  statuses = telemetry.EvaluateSlosAt(600.9);
  EXPECT_FALSE(statuses[0].burning);
  EXPECT_EQ(statuses[0].breaches, 1u);
  EXPECT_EQ(GaugeValue("serving.slo.availability.burning"), 0);
}

TEST(ServingTelemetryTest, TickTelemetryWritesOpenMetrics) {
  ServingInventory store(Batch(0, 3));
  ServingGuard guard(&store);
  if (!guard.telemetry()->enabled()) GTEST_SKIP() << "obs compiled to no-ops";
  const uint64_t exports_before = CounterValue(kMetricServingTelemetryExports);

  ASSERT_TRUE(guard
                  .Run(QueryClass::kInteractive, Deadline(),
                       [](const InventorySnapshot&) { return Status::OK(); })
                  .ok());
  const std::string path =
      testing::TempDir() + "serving_telemetry_test_metrics.txt";
  ASSERT_TRUE(guard.TickTelemetry(path).ok());
  EXPECT_EQ(CounterValue(kMetricServingTelemetryExports), exports_before + 1);

  const std::string text = ReadFileOrEmpty(path);
  ASSERT_FALSE(text.empty());
  const std::vector<obs::OpenMetricsSample> samples =
      obs::ParseOpenMetrics(text);
  EXPECT_NE(obs::FindSample(samples, "serving_admitted_total"), nullptr);
  EXPECT_NE(obs::FindSample(samples, "serving_query_qps_milli"), nullptr);
  EXPECT_NE(obs::FindSample(samples, "serving_slo_availability_burning"),
            nullptr);
  const obs::OpenMetricsSample* snapshot_id =
      obs::FindSample(samples, "serving_snapshot_active_id");
  ASSERT_NE(snapshot_id, nullptr);
  EXPECT_GT(snapshot_id->value, 0.0);
  std::remove(path.c_str());
}

TEST(ServingTelemetryTest, TickTelemetryReportsUnwritablePath) {
  ServingInventory store(Batch(0, 2));
  ServingGuard guard(&store);
  // A path whose parent component is a regular file fails for every
  // caller (even root), unlike a missing directory the writer creates.
  const std::string blocker =
      testing::TempDir() + "serving_telemetry_test_blocker";
  ASSERT_TRUE(std::ofstream(blocker).good());
  const uint64_t exports_before = CounterValue(kMetricServingTelemetryExports);
  const uint64_t failures_before =
      CounterValue(kMetricServingTelemetryExportFailures);

  const Status ticked = guard.TickTelemetry(blocker + "/metrics.txt");
  EXPECT_EQ(ticked.code(), StatusCode::kIoError) << ticked.ToString();
  EXPECT_EQ(CounterValue(kMetricServingTelemetryExportFailures),
            failures_before + 1);
  EXPECT_EQ(CounterValue(kMetricServingTelemetryExports), exports_before);
  std::remove(blocker.c_str());
}

TEST(ServingTelemetryTest, ExporterThreadLifecycle) {
  ServingInventory store(Batch(0, 2));
  ServingGuard guard(&store);
  if (!guard.telemetry()->enabled()) GTEST_SKIP() << "obs compiled to no-ops";
  const std::string path =
      testing::TempDir() + "serving_telemetry_test_exporter.txt";
  std::remove(path.c_str());

  TelemetryExporterOptions exporter;
  exporter.openmetrics_path = path;
  exporter.period_seconds = 0.01;
  ASSERT_TRUE(guard.StartTelemetryExporter(exporter).ok());
  EXPECT_TRUE(guard.telemetry_exporter_running());
  EXPECT_FALSE(guard.StartTelemetryExporter(exporter).ok());  // One at a time.

  // The loop must produce a parseable export within a few periods.
  std::string text;
  for (int i = 0; i < 500 && text.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    text = ReadFileOrEmpty(path);
  }
  ASSERT_FALSE(text.empty()) << "exporter never wrote " << path;
  EXPECT_NE(
      obs::FindSample(obs::ParseOpenMetrics(text), "serving_admitted_total"),
      nullptr);

  guard.StopTelemetryExporter();
  EXPECT_FALSE(guard.telemetry_exporter_running());
  guard.StopTelemetryExporter();  // Idempotent.
  std::remove(path.c_str());
}

TEST(ServingTelemetryTest, GuardWithTelemetryDisabledStillServes) {
  ServingInventory store(Batch(0, 2));
  ServingGuardOptions options;
  options.telemetry.enabled = false;
  ServingGuard guard(&store, options);
  EXPECT_FALSE(guard.telemetry()->enabled());
  EXPECT_TRUE(guard
                  .Run(QueryClass::kInteractive, Deadline(),
                       [](const InventorySnapshot&) { return Status::OK(); })
                  .ok());
  EXPECT_EQ(guard.telemetry()->query_log().totals().events, 0u);
}

}  // namespace
}  // namespace pol::core
