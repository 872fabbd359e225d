#include "core/run_report.h"

#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "core/serving_guard.h"
#include "core/serving_metric_names.h"
#include "flow/stage.h"
#include "flow/stage_runner.h"
#include "obs/metrics.h"
#include "store/atomic_file.h"
#include "store/store_metric_names.h"

namespace pol::core {
namespace {

obs::Json StatusToJson(const Status& status) {
  obs::Json out = obs::Json::Object();
  out.Set("ok", status.ok());
  out.Set("code", std::string(StatusCodeName(status.code())));
  out.Set("message", status.message());
  return out;
}

obs::Json ConfigToJson(const PipelineConfig& config) {
  obs::Json out = obs::Json::Object();
  out.Set("partitions", config.partitions);
  out.Set("threads", config.threads);
  out.Set("chunks", config.chunks);
  out.Set("max_in_flight_chunks", config.max_in_flight_chunks);
  out.Set("max_attempts", config.max_attempts);
  out.Set("fail_fast", config.fail_fast);
  out.Set("max_speed_knots", config.max_speed_knots);
  out.Set("commercial_only", config.commercial_only);
  out.Set("resolution", config.resolution);
  out.Set("geofence_resolution", config.geofence_resolution);
  return out;
}

obs::Json CoverageToJson(const PipelineCoverage& coverage) {
  obs::Json out = obs::Json::Object();
  out.Set("chunks_total", static_cast<uint64_t>(coverage.chunks_total));
  out.Set("chunks_folded", static_cast<uint64_t>(coverage.chunks_folded));
  out.Set("chunks_quarantined",
          static_cast<uint64_t>(coverage.chunks_quarantined));
  out.Set("records_quarantined", coverage.records_quarantined);
  out.Set("retries", coverage.retries);
  return out;
}

obs::Json StageToJson(const flow::StageMetrics& stage) {
  obs::Json out = obs::Json::Object();
  out.Set("name", stage.name);
  out.Set("chunks", stage.chunks);
  out.Set("records_in", stage.records_in);
  out.Set("records_out", stage.records_out);
  out.Set("dropped", stage.dropped);
  out.Set("peak_partition", static_cast<uint64_t>(stage.peak_partition));
  out.Set("wall_seconds", stage.wall_seconds);
  out.Set("failures", stage.failures);
  obs::Json by_reason = obs::Json::Object();
  for (const auto& [reason, count] : stage.failures_by_reason) {
    by_reason.Set(reason, count);
  }
  out.Set("failures_by_reason", std::move(by_reason));
  return out;
}

obs::Json FailureToJson(const flow::ChunkFailure& failure) {
  obs::Json out = obs::Json::Object();
  out.Set("chunk_index", static_cast<uint64_t>(failure.chunk_index));
  out.Set("records", failure.records);
  out.Set("attempts", failure.attempts);
  out.Set("code", std::string(StatusCodeName(failure.status.code())));
  out.Set("message", failure.status.message());
  return out;
}

obs::Json CheckpointToJson(const PipelineConfig& config,
                           const PipelineCoverage& coverage) {
  obs::Json out = obs::Json::Object();
  const bool enabled = !config.checkpoint.directory.empty();
  out.Set("enabled", enabled);
  out.Set("directory", config.checkpoint.directory);
  out.Set("interval_chunks", config.checkpoint.interval_chunks);
  out.Set("resumed", coverage.resumed);
  out.Set("resume_cursor", coverage.resume_cursor);
  out.Set("written", coverage.checkpoints_written);
  out.Set("failures", coverage.checkpoint_failures);
  return out;
}

// Serving-resilience summary, distilled from the guard's gauges so the
// report answers "was this run serving degraded?" without digging
// through the metrics block. All-defaults (healthy) when no
// ServingGuard ran.
obs::Json ServingToJson(const obs::MetricsSnapshot& metrics) {
  const auto gauge = [&metrics](std::string_view name) -> int64_t {
    for (const auto& [gauge_name, value] : metrics.gauges) {
      if (gauge_name == name) return value;
    }
    return 0;
  };
  obs::Json out = obs::Json::Object();
  out.Set("degraded", gauge(kMetricServingDegraded) != 0);
  out.Set("breaker_state",
          std::string(BreakerStateName(
              static_cast<BreakerState>(gauge(kMetricServingBreakerState)))));
  out.Set("snapshot_age_refreshes",
          static_cast<uint64_t>(gauge(kMetricServingSnapshotAgeRefreshes)));
  return out;
}

// Snapshot-store summary: the durable-publish and cold-open ledger of
// the run. All zeros when no SnapshotStore was touched (no store
// configured).
obs::Json StoreToJson(const obs::MetricsSnapshot& metrics) {
  const auto counter = [&metrics](std::string_view name) -> uint64_t {
    for (const auto& [counter_name, value] : metrics.counters) {
      if (counter_name == name) return value;
    }
    return 0;
  };
  const auto gauge = [&metrics](std::string_view name) -> int64_t {
    for (const auto& [gauge_name, value] : metrics.gauges) {
      if (gauge_name == name) return value;
    }
    return 0;
  };
  obs::Json out = obs::Json::Object();
  out.Set("publishes", counter(store::kMetricStorePublishes));
  out.Set("publish_failures", counter(store::kMetricStorePublishFailures));
  out.Set("publish_bytes", counter(store::kMetricStorePublishBytes));
  out.Set("opens", counter(store::kMetricStoreOpens));
  out.Set("open_failures", counter(store::kMetricStoreOpenFailures));
  out.Set("fallbacks", counter(store::kMetricStoreFallbacks));
  out.Set("decode_failures", counter(store::kMetricStoreDecodeFailures));
  out.Set("gc_removed", counter(store::kMetricStoreGcRemoved));
  out.Set("generations", gauge(store::kMetricStoreGenerations));
  out.Set("latest_generation", gauge(store::kMetricStoreLatestGeneration));
  return out;
}

// The serving.slo.* gauge set folded back into per-SLO objects:
// {"availability": {"burning": false, "burn_fast_milli": 0, ...}, ...}.
// Empty object when no ServingTelemetry published SLOs (no guard ran,
// or telemetry disabled).
obs::Json ServingSloToJson(const obs::MetricsSnapshot& metrics) {
  struct SloAggregate {
    bool burning = false;
    int64_t burn_fast_milli = 0;
    int64_t burn_slow_milli = 0;
    uint64_t breaches = 0;
  };
  std::map<std::string, SloAggregate> slos;
  const std::string_view prefix = kServingSloGaugePrefix;
  const auto split = [&prefix](std::string_view name, std::string_view* slo,
                               std::string_view* field) {
    if (name.substr(0, prefix.size()) != prefix) return false;
    name.remove_prefix(prefix.size());
    const size_t dot = name.rfind('.');
    if (dot == std::string_view::npos || dot == 0) return false;
    *slo = name.substr(0, dot);
    *field = name.substr(dot + 1);
    return true;
  };
  for (const auto& [name, value] : metrics.gauges) {
    std::string_view slo;
    std::string_view field;
    if (!split(name, &slo, &field)) continue;
    SloAggregate& aggregate = slos[std::string(slo)];
    if (field == "burning") {
      aggregate.burning = value != 0;
    } else if (field == "burn_fast_milli") {
      aggregate.burn_fast_milli = value;
    } else if (field == "burn_slow_milli") {
      aggregate.burn_slow_milli = value;
    }
  }
  for (const auto& [name, value] : metrics.counters) {
    std::string_view slo;
    std::string_view field;
    if (!split(name, &slo, &field)) continue;
    if (field == "breaches") slos[std::string(slo)].breaches = value;
  }
  obs::Json out = obs::Json::Object();
  for (const auto& [name, aggregate] : slos) {
    obs::Json one = obs::Json::Object();
    one.Set("burning", aggregate.burning);
    one.Set("burn_fast_milli", aggregate.burn_fast_milli);
    one.Set("burn_slow_milli", aggregate.burn_slow_milli);
    one.Set("breaches", aggregate.breaches);
    out.Set(name, std::move(one));
  }
  return out;
}

}  // namespace

obs::Json BuildRunReport(const PipelineConfig& config,
                         const PipelineResult& result) {
  obs::Json report = obs::Json::Object();
  report.Set("schema", "pol.run_report/1");
  report.Set("status", StatusToJson(result.status));
  report.Set("wall_seconds", result.wall_seconds);
  report.Set("config", ConfigToJson(config));
  report.Set("coverage", CoverageToJson(result.coverage));
  report.Set("aggregated_records", result.aggregated_records);
  obs::Json stages = obs::Json::Array();
  for (const flow::StageMetrics& stage : result.stage_metrics) {
    stages.Append(StageToJson(stage));
  }
  report.Set("stages", std::move(stages));
  obs::Json quarantined = obs::Json::Array();
  for (const flow::ChunkFailure& failure : result.quarantined) {
    quarantined.Append(FailureToJson(failure));
  }
  report.Set("quarantined", std::move(quarantined));
  report.Set("checkpoint", CheckpointToJson(config, result.coverage));
  const obs::MetricsSnapshot metrics = obs::Registry::Global().Snapshot();
  report.Set("serving", ServingToJson(metrics));
  report.Set("serving_slo", ServingSloToJson(metrics));
  report.Set("store", StoreToJson(metrics));
  report.Set("metrics", obs::MetricsSnapshotToJson(metrics));
  return report;
}

Status WriteRunReport(const std::string& path, const PipelineConfig& config,
                      const PipelineResult& result) {
  return store::WriteFileDurable(
      path, BuildRunReport(config, result).Dump(2) + "\n");
}

}  // namespace pol::core
