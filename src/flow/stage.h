#ifndef POL_FLOW_STAGE_H_
#define POL_FLOW_STAGE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "flow/dataset.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"

// The stage boundary: what every step of a chunk's chain records.
//
// A pipeline chunk runs a fixed chain of steps (core::ChunkProcessor:
// cleaning -> enrichment -> trips -> projection). Each step goes through
// RunStage, which carries the step's fail point "stage.<name>", its
// trace span "stage.<name>", the stage-annotated error, its
// StageMetricsCollector row and its "stage.<name>.*" registry metrics.
// The StageRunner (stage_runner.h) drives a chunk function over bounded
// chunks, retries and quarantines failed chunks.
//
// Chunks run concurrently, so one StageMetricsCollector is shared by
// every chunk in flight.

namespace pol::flow {

// Accumulated per-stage observability, summed over all chunks the
// stage processed. Failed attempts count into `failures` (by reason)
// and do NOT contribute to records_in/records_out — only completed
// chunk attempts do.
struct StageMetrics {
  std::string name;
  uint64_t chunks = 0;        // Chunk attempts this stage completed.
  uint64_t records_in = 0;    // Records entering the stage.
  uint64_t records_out = 0;   // Records leaving the stage.
  uint64_t dropped = 0;       // max(in - out, 0), summed per chunk.
  size_t peak_partition = 0;  // Largest output partition observed.
  double wall_seconds = 0.0;  // Stage busy time, summed across chunks.
  uint64_t failures = 0;      // Chunk attempts that errored at this stage.
  // Failure counts keyed by StatusCodeName(code) — the per-stage /
  // per-reason quarantine accounting.
  std::map<std::string, uint64_t> failures_by_reason;
};

// Fixed-width ASCII table of per-stage metrics (benches, examples).
std::string StageMetricsTable(const std::vector<StageMetrics>& metrics);

// Thread-safe accumulator for per-stage metrics; shared by every chunk
// in flight.
class StageMetricsCollector {
 public:
  void Record(size_t stage, std::string_view name, uint64_t records_in,
              uint64_t records_out, size_t peak_partition,
              double wall_seconds) {
    MutexLock lock(mutex_);
    StageMetrics& m = Slot(stage, name);
    ++m.chunks;
    m.records_in += records_in;
    m.records_out += records_out;
    if (records_in > records_out) m.dropped += records_in - records_out;
    m.peak_partition = std::max(m.peak_partition, peak_partition);
    m.wall_seconds += wall_seconds;
  }

  void RecordFailure(size_t stage, std::string_view name, StatusCode code) {
    MutexLock lock(mutex_);
    StageMetrics& m = Slot(stage, name);
    ++m.failures;
    ++m.failures_by_reason[std::string(StatusCodeName(code))];
  }

  std::vector<StageMetrics> Snapshot() const {
    MutexLock lock(mutex_);
    return metrics_;
  }

 private:
  StageMetrics& Slot(size_t stage, std::string_view name)
      POL_REQUIRES(mutex_) {
    if (metrics_.size() <= stage) metrics_.resize(stage + 1);
    StageMetrics& m = metrics_[stage];
    if (m.name.empty()) m.name = std::string(name);
    return m;
  }

  mutable Mutex mutex_;
  std::vector<StageMetrics> metrics_ POL_GUARDED_BY(mutex_);
};

namespace internal {

template <typename T>
size_t MaxPartitionSize(const Dataset<T>& dataset) {
  size_t peak = 0;
  for (int p = 0; p < dataset.num_partitions(); ++p) {
    peak = std::max(peak, dataset.partition(p).size());
  }
  return peak;
}

// "stage.<name>" — the fail-point site guarding a stage boundary.
inline std::string StageFailPointName(std::string_view stage_name) {
  return "stage." + std::string(stage_name);
}

// "<stage>: <message>" so quarantine entries name the failing stage.
inline Status AnnotateWithStage(std::string_view stage_name, Status status) {
  return Status(status.code(),
                std::string(stage_name) + ": " + status.message());
}

// Registry metrics of one stage, recorded per completed chunk: the
// wall-time counter named "stage.<name>.wall_micros" (the monotonic
// form of StageMetrics::wall_seconds) and the per-chunk latency
// histogram "stage.<name>.chunk_seconds". Accumulated once per chunk,
// so the registry lookup cost is amortized over whole-stage work.
inline void RecordStageRegistryMetrics(std::string_view stage_name,
                                       double seconds) {
  const std::string prefix = "stage." + std::string(stage_name);
  obs::Registry::Global()
      .counter(prefix + ".wall_micros")
      ->Increment(static_cast<uint64_t>(seconds * 1e6));
  obs::Registry::Global().histogram(prefix + ".chunk_seconds")->Record(seconds);
}

}  // namespace internal

// Runs one step of a chunk's chain and records its metrics (row `index`
// of `metrics`, when non-null) or its failure. `step(const Dataset<In>&)`
// returns Dataset<Out> or Result<Dataset<Out>>; errors come from the
// step or from the armed "stage.<name>" fail point at the boundary, and
// carry the step's name. The input is freed once the step returns.
template <typename Out, typename In, typename Step>
Result<Dataset<Out>> RunStage(std::string_view name, size_t index,
                              Dataset<In> input,
                              StageMetricsCollector* metrics,
                              const Step& step) {
  Status injected = POL_FAILPOINT(internal::StageFailPointName(name));
  if (!injected.ok()) {
    if (metrics != nullptr) {
      metrics->RecordFailure(index, name, injected.code());
    }
    return internal::AnnotateWithStage(name, std::move(injected));
  }
  POL_TRACE_SPAN(internal::StageFailPointName(name));  // "stage.<name>".
  const uint64_t records_in = input.Count();
  const double start = obs::NowSeconds();
  Result<Dataset<Out>> output = step(input);
  { Dataset<In> consumed = std::move(input); }  // Freed inside the span.
  const double seconds = obs::NowSeconds() - start;
  if (!output.ok()) {
    if (metrics != nullptr) {
      metrics->RecordFailure(index, name, output.status().code());
    }
    return internal::AnnotateWithStage(name, output.status());
  }
  if (metrics != nullptr) {
    metrics->Record(index, name, records_in, output->Count(),
                    internal::MaxPartitionSize(*output), seconds);
  }
  internal::RecordStageRegistryMetrics(name, seconds);
  return output;
}

}  // namespace pol::flow

#endif  // POL_FLOW_STAGE_H_
