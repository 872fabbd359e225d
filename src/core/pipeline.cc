#include "core/pipeline.h"

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/inventory_builder.h"
#include "core/run_report.h"
#include "obs/clock.h"
#include "obs/trace.h"
#include "store/atomic_file.h"

namespace pol::core {

ChunkProcessor::ChunkProcessor(const CleaningConfig& cleaning,
                               const std::vector<ais::VesselInfo>& registry,
                               bool commercial_only,
                               const sim::PortDatabase* ports,
                               int geofence_resolution, int resolution)
    : cleaning_(cleaning),
      enricher_(registry),
      commercial_only_(commercial_only),
      geofencer_(ports, geofence_resolution),
      resolution_(resolution) {}

Result<ProcessedChunk> ChunkProcessor::Run(
    flow::Dataset<ais::PositionReport> chunk,
    flow::StageMetricsCollector* metrics) const {
  using Records = flow::Dataset<PipelineRecord>;
  // Stats of this attempt only: a failed attempt returns before its
  // stats reach the caller.
  CleaningStats cleaning;
  EnrichmentStats enrichment;
  TripStats trips;
  POL_ASSIGN_OR_RETURN(
      Records cleaned,
      flow::RunStage<PipelineRecord>(
          "cleaning", 0, std::move(chunk), metrics,
          [&](const flow::Dataset<ais::PositionReport>& in) {
            return CleanChunk(in, cleaning_, &cleaning);
          }));
  POL_ASSIGN_OR_RETURN(
      Records enriched,
      flow::RunStage<PipelineRecord>(
          "enrichment", 1, std::move(cleaned), metrics,
          [&](const Records& in) {
            return enricher_.Enrich(in, commercial_only_, &enrichment);
          }));
  POL_ASSIGN_OR_RETURN(
      Records tripped,
      flow::RunStage<PipelineRecord>(
          "trips", 2, std::move(enriched), metrics, [&](const Records& in) {
            return ExtractTrips(in, geofencer_, &trips);
          }));
  POL_ASSIGN_OR_RETURN(
      Records projected,
      flow::RunStage<PipelineRecord>(
          "projection", 3, std::move(tripped), metrics,
          [&](const Records& in) { return ProjectToGrid(in, resolution_); }));
  return ProcessedChunk{std::move(projected), cleaning, enrichment, trips};
}

namespace {

// The pipeline proper; RunPipeline wraps it with the run-level
// observability (trace recording, wall clock, report emission).
PipelineResult RunPipelineImpl(
    const std::vector<ais::PositionReport>& reports,
    const std::vector<ais::VesselInfo>& registry,
    const PipelineConfig& config) {
  PipelineResult result;
  const sim::PortDatabase* ports =
      config.ports != nullptr ? config.ports : &sim::PortDatabase::Global();

  flow::ThreadPool pool(config.threads);

  // One processor serves every chunk.
  CleaningConfig cleaning_config;
  cleaning_config.partitions = config.partitions;
  cleaning_config.max_speed_knots = config.max_speed_knots;
  const ChunkProcessor processor(cleaning_config, registry,
                                 config.commercial_only, ports,
                                 config.geofence_resolution,
                                 config.resolution);

  // Chunk source: one global vessel partitioning, sliced into
  // vessel-coherent chunks so per-vessel scans see whole trajectories
  // and chunked folding stays bit-equal to a single-shot build.
  std::vector<flow::Dataset<ais::PositionReport>> chunks;
  {
    POL_TRACE_SPAN("pipeline.split");
    chunks =
        SplitReportsByVessel(reports, config.partitions, config.chunks, &pool);
  }

  // Terminal stage: incremental inventory folding in chunk order.
  ExtractorConfig extractor_config = config.extractor;
  extractor_config.resolution = config.resolution;
  InventoryBuilder builder(extractor_config);

  // Checkpoint/resume. The cursor counts *accounted* chunks — folded or
  // quarantined — and snapshots fire on absolute cursor positions
  // (cursor % K == 0), so a resumed run checkpoints (and flushes
  // t-digest buffers) on exactly the schedule an uninterrupted run
  // does; that shared schedule is what makes the two byte-identical.
  CheckpointManager checkpoints(config.checkpoint);
  std::vector<flow::ChunkFailure> quarantine_ledger;
  size_t start_chunk = 0;
  if (checkpoints.enabled()) {
    POL_TRACE_SPAN("pipeline.resume");
    // The builder state is read in place from the generation's
    // mapping, which `restored` holds until this block ends.
    Result<LoadedCheckpoint> restored = checkpoints.LoadLatest();
    if (restored.ok()) {
      Status restore_status =
          builder.RestoreState(restored->builder_state, restored->folding);
      if (restore_status.ok() &&
          restored->total_chunks != chunks.size()) {
        restore_status = Status::FailedPrecondition(
            "checkpoint chunk count does not match this run");
      }
      if (!restore_status.ok()) {
        // A snapshot that validated but does not fit this run: refuse
        // rather than fold on top of foreign state. (RestoreState
        // commits nothing on failure, so the empty inventory is safe.)
        result.status = std::move(restore_status);
        result.inventory =
            std::make_unique<Inventory>(std::move(builder).Finish());
        return result;
      }
      start_chunk = static_cast<size_t>(restored->cursor);
      quarantine_ledger = std::move(restored->quarantined);
      result.coverage.resumed = true;
      result.coverage.resume_cursor = restored->cursor;
      for (const flow::ChunkFailure& failure : quarantine_ledger) {
        result.quarantined.push_back(failure);
        ++result.coverage.chunks_quarantined;
        result.coverage.records_quarantined += failure.records;
      }
      result.coverage.chunks_folded =
          start_chunk - result.coverage.chunks_quarantined;
      result.cleaning = restored->cleaning;
      result.enrichment = restored->enrichment;
      result.trips = restored->trips;
    }
    // NotFound (no snapshot yet) and unreadable/corrupt snapshots both
    // mean a fresh start; LoadLatest already fell back as far as it
    // could.
  }

  using Runner = flow::StageRunner<ais::PositionReport, ProcessedChunk>;
  Runner::Options options;
  options.max_in_flight = config.max_in_flight_chunks;
  options.max_attempts = config.max_attempts;
  options.fail_fast = config.fail_fast;
  flow::StageMetricsCollector stage_metrics;
  Runner runner(
      [&](flow::Dataset<ais::PositionReport> chunk) {
        return processor.Run(std::move(chunk), &stage_metrics);
      },
      &pool, options);

  const size_t total_chunks = chunks.size();
  size_t cursor = start_chunk;
  const auto maybe_checkpoint = [&]() -> Status {
    if (!checkpoints.enabled()) return Status::OK();
    if (cursor == 0 ||
        cursor % static_cast<size_t>(
                     checkpoints.config().interval_chunks) != 0) {
      return Status::OK();
    }
    CheckpointState state;
    state.cursor = cursor;
    state.total_chunks = total_chunks;
    state.quarantined = quarantine_ledger;
    state.cleaning = result.cleaning;
    state.enrichment = result.enrichment;
    state.trips = result.trips;
    state.folding = builder.accounting();
    builder.SerializeState(&state.builder_state);
    Status written = checkpoints.Write(std::move(state));
    if (written.ok()) {
      ++result.coverage.checkpoints_written;
      return Status::OK();
    }
    ++result.coverage.checkpoint_failures;
    // A failed snapshot only degrades resumability; the run itself is
    // healthy, so only fail_fast runs abort on it.
    return config.fail_fast ? written : Status::OK();
  };

  flow::RunSummary summary = runner.Run(
      std::move(chunks),
      [&](size_t, ProcessedChunk chunk) -> Status {
        // Runs on this thread in chunk order: the stats sum needs no
        // lock and counts each folded chunk once.
        result.cleaning.Accumulate(chunk.cleaning);
        result.enrichment.Accumulate(chunk.enrichment);
        result.trips.Accumulate(chunk.trips);
        builder.Fold(chunk.records);
        ++cursor;
        return maybe_checkpoint();
      },
      start_chunk,
      [&](const flow::ChunkFailure& failure) {
        quarantine_ledger.push_back(failure);
        ++cursor;
        // Status is advisory here: quarantine never happens in
        // fail_fast mode, so a failed snapshot is only counted.
        (void)maybe_checkpoint();
      });

  result.status = summary.status;
  result.coverage.chunks_total = summary.chunks_total;
  result.coverage.chunks_folded += summary.chunks_folded;
  result.coverage.chunks_quarantined += summary.chunks_quarantined;
  result.coverage.records_quarantined += summary.records_quarantined;
  result.coverage.retries = summary.retries;
  for (flow::ChunkFailure& failure : summary.quarantined) {
    result.quarantined.push_back(std::move(failure));
  }

  result.aggregated_records = builder.records_folded();
  result.stage_metrics = stage_metrics.Snapshot();
  result.stage_metrics.push_back(builder.metrics());
  result.inventory =
      std::make_unique<Inventory>(std::move(builder).Finish());
  return result;
}

}  // namespace

PipelineResult RunPipeline(const std::vector<ais::PositionReport>& reports,
                           const std::vector<ais::VesselInfo>& registry,
                           const PipelineConfig& config) {
  const double run_start = obs::NowSeconds();
  const bool tracing = !config.obs.trace_path.empty();
  if (tracing) {
    // One trace file per run: drop anything a previous run left behind.
    obs::TraceRecorder::Global().Clear();
    obs::TraceRecorder::Global().Start();
  }
  PipelineResult result;
  {
    POL_TRACE_SPAN("pipeline.run");
    result = RunPipelineImpl(reports, registry, config);
  }
  result.wall_seconds = obs::NowSeconds() - run_start;
  if (tracing) {
    obs::TraceRecorder::Global().Stop();
    const Status written = store::WriteFileDurable(
        config.obs.trace_path,
        obs::TraceRecorder::Global().ExportChromeTraceJson());
    if (!written.ok()) {
      POL_LOG(Warning) << "cannot write trace to " << config.obs.trace_path
                       << ": " << written.message();
    }
  }
  if (!config.obs.report_path.empty()) {
    const Status written =
        WriteRunReport(config.obs.report_path, config, result);
    if (!written.ok()) {
      POL_LOG(Warning) << "cannot write run report to "
                       << config.obs.report_path << ": " << written.message();
    }
  }
  return result;
}

}  // namespace pol::core
