#ifndef POL_CORE_PIPELINE_H_
#define POL_CORE_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/checkpoint.h"
#include "core/cleaning.h"
#include "core/enrich.h"
#include "core/geofence.h"
#include "core/inventory.h"
#include "core/trips.h"
#include "flow/dataset.h"
#include "flow/stage.h"
#include "flow/stage_runner.h"
#include "flow/threadpool.h"
#include "sim/ports.h"

// The end-to-end Patterns-of-Life pipeline (Figures 2 and 3 of the
// paper): cleaning -> enrichment -> trips -> grid projection -> feature
// extraction -> global inventory.
//
// Execution is one chunk step (ChunkProcessor: clean -> enrich -> trips
// -> project) driven over the archive by a flow::StageRunner, with
// InventoryBuilder::Fold as the sink (see inventory_builder.h): the
// archive is split into `chunks` vessel-coherent chunks, steps overlap
// across chunks on the shared thread pool, and the inventory is folded
// incrementally in ascending chunk order. Any chunk count yields a
// byte-identical serialized inventory (property-tested), so the chunk
// count is purely a peak-memory/overlap knob.
//
// Failure containment (see stage_runner.h and checkpoint.h): a chunk
// whose step errors is retried `max_attempts` times and then
// quarantined — the run continues and PipelineResult::coverage reports
// exactly what was folded, quarantined, and dropped. The cleaning,
// enrichment and trip stats count folded chunks only: a failed attempt's
// stats are dropped with it, so a retried chunk counts once and a
// quarantined one not at all. With checkpointing configured, builder
// state is snapshotted every `interval_chunks` accounted chunks, and a
// rerun over the same input resumes from the newest valid snapshot
// instead of starting over.

namespace pol::core {

// Observability outputs of one RunPipeline call (see DESIGN.md §3.4).
// Both are off while the paths are empty; a failed write degrades to a
// warning log, never the run's status.
struct PipelineObsConfig {
  // When non-empty, a machine-readable run report (JSON, schema
  // "pol.run_report/1"; see core/run_report.h) is written here.
  std::string report_path;
  // When non-empty, trace recording is on for the run and a Chrome
  // trace-event file (chrome://tracing, Perfetto) is written here.
  std::string trace_path;
};

struct PipelineConfig {
  int partitions = 8;
  int threads = 0;  // 0 = hardware concurrency.
  // Vessel-coherent chunks the archive is split into. 1 = single-shot;
  // higher values bound per-stage intermediates to ~partitions/chunks
  // partitions at a time without changing the result.
  int chunks = 1;
  // Chunks allowed in flight at once (>= 1); 2 overlaps stage i on
  // chunk k+1 with stage i+1 on chunk k.
  int max_in_flight_chunks = 2;
  // Total stage-chain attempts per chunk before it is quarantined
  // (>= 1; 1 = no retry and no defensive input copy).
  int max_attempts = 1;
  // Exponential backoff base between chunk retries; 0 retries
  // immediately.
  double retry_backoff_seconds = 0.0;
  // Abort the run on the first exhausted chunk (or failed checkpoint
  // write) instead of quarantining and continuing. Leaves snapshots on
  // disk — the crash-simulation mode of the fault-injection suite.
  bool fail_fast = false;
  // Checkpoint/resume; disabled while `checkpoint.directory` is empty.
  CheckpointConfig checkpoint;
  double max_speed_knots = 50.0;
  bool commercial_only = true;
  int resolution = 6;
  int geofence_resolution = 6;
  ExtractorConfig extractor;  // resolution is overwritten from above.
  const sim::PortDatabase* ports = nullptr;  // Default: the world table.
  PipelineObsConfig obs;  // Run report / trace outputs.
};

// Coverage accounting for one RunPipeline call: what of the input made
// it into the inventory, and what the failure-containment layer did.
struct PipelineCoverage {
  size_t chunks_total = 0;
  size_t chunks_folded = 0;       // Includes chunks restored via resume.
  size_t chunks_quarantined = 0;  // Includes restored quarantine entries.
  uint64_t records_quarantined = 0;
  uint64_t retries = 0;  // Chain attempts beyond each chunk's first.
  bool resumed = false;  // True when a snapshot was restored.
  uint64_t resume_cursor = 0;        // Chunks already accounted at resume.
  uint64_t checkpoints_written = 0;  // Snapshots persisted this run.
  uint64_t checkpoint_failures = 0;  // Snapshot writes that failed.
};

struct PipelineResult {
  // OK unless the run aborted (fail_fast chunk failure, fatal
  // checkpoint write, or a resume/restore error). On abort the
  // inventory is still produced from the chunks folded so far.
  Status status;
  std::unique_ptr<Inventory> inventory;
  // End-to-end wall time of the RunPipeline call, set on every return
  // path (including aborted runs).
  double wall_seconds = 0.0;
  // Step stats of the chunks folded by this call (not of restored or
  // quarantined chunks).
  CleaningStats cleaning;
  EnrichmentStats enrichment;
  TripStats trips;
  uint64_t aggregated_records = 0;  // Records folded into the inventory.
  PipelineCoverage coverage;
  // Dead letters: one entry per quarantined chunk, ascending chunk
  // index, including entries restored from a snapshot.
  std::vector<flow::ChunkFailure> quarantined;
  // Per-stage observability, in stage order: cleaning, enrichment,
  // trips, projection, extraction. Each entry carries chunk attempts,
  // records in/out, drop count, peak partition size, summed wall time
  // and failure counts (see flow::StageMetrics; flow::StageMetricsTable
  // renders it).
  std::vector<flow::StageMetrics> stage_metrics;

  CompressionReport Compression() const {
    return inventory->Compression(aggregated_records);
  }
};

// One chunk after clean -> enrich -> trips -> project: the projected
// records and what each step counted on the way.
struct ProcessedChunk {
  flow::Dataset<PipelineRecord> records;
  CleaningStats cleaning;
  EnrichmentStats enrichment;
  TripStats trips;
};

// The pipeline's chunk step (paper §3.3.1–3.3.3). Built once per run;
// Run is const, so one processor serves every chunk in flight. Chunks
// must come from SplitReportsByVessel (vessel-coherent,
// partition-ordered) for the per-vessel scans to see whole trajectories.
class ChunkProcessor {
 public:
  ChunkProcessor(const CleaningConfig& cleaning,
                 const std::vector<ais::VesselInfo>& registry,
                 bool commercial_only, const sim::PortDatabase* ports,
                 int geofence_resolution, int resolution);

  // Runs cleaning (stage 0), enrichment (1), trips (2) and projection
  // (3) on one chunk, each through flow::RunStage: its "stage.<name>"
  // fail point and span, and its row of `metrics` when non-null. An
  // error names the failing step.
  Result<ProcessedChunk> Run(
      flow::Dataset<ais::PositionReport> chunk,
      flow::StageMetricsCollector* metrics = nullptr) const;

 private:
  CleaningConfig cleaning_;
  Enricher enricher_;
  bool commercial_only_;
  Geofencer geofencer_;
  int resolution_;
};

// Runs the whole pipeline over an AIS archive and a vessel registry:
// one ChunkProcessor over `config.chunks` chunks, folded into one
// InventoryBuilder, with retry/quarantine/checkpoint handling per the
// config.
PipelineResult RunPipeline(const std::vector<ais::PositionReport>& reports,
                           const std::vector<ais::VesselInfo>& registry,
                           const PipelineConfig& config);

}  // namespace pol::core

#endif  // POL_CORE_PIPELINE_H_
