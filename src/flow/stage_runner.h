#ifndef POL_FLOW_STAGE_RUNNER_H_
#define POL_FLOW_STAGE_RUNNER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "common/status.h"
#include "flow/dataset.h"
#include "flow/threadpool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

// StageRunner: drives a chunk function (one chunk's whole chain of
// steps, e.g. core::ChunkProcessor::Run) over an input split into
// bounded chunks. Up to `max_in_flight` chunks run concurrently as pool
// tasks, so step i works on chunk k+1 while step i+1 works on chunk k
// (the Dataset operations inside each step fan out over the same pool —
// ParallelFor is caller-participating, so a chunk task never deadlocks
// waiting for workers). Outputs are handed to the sink strictly in
// ascending chunk order on the calling thread, which is what makes
// incremental inventory folding deterministic: folding chunk results in
// chunk order reproduces the single-shot merge order bit for bit (see
// dataset.h on the reproducibility contract).
//
// Failure containment. A chunk whose attempt returns a
// *retryable* error (Status::IsRetryable() — transient infrastructure
// faults; caller errors go straight to quarantine) is retried at once,
// up to `max_attempts` times total (the input is defensively copied for
// every attempt except the last, so a retry always sees the original
// bytes). A chunk that exhausts its attempts is *quarantined*: the run
// continues, the failure is recorded as a ChunkFailure dead letter in
// the RunSummary (and reported through `on_quarantine` in ascending
// chunk order). With `fail_fast` set, the first exhausted chunk aborts
// the run instead — the mode the checkpoint/resume layer uses to
// simulate a crash. The sink returns a Status; a non-OK sink (e.g. a
// failed checkpoint write in fail-fast mode) also aborts the run. On
// every abort path — and when the sink throws — all in-flight pool
// tasks are drained before Run returns, so no task is left referencing
// the call's stack frame.

namespace pol::flow {

// One quarantined chunk: the dead-letter record of the chunk the run
// gave up on.
struct ChunkFailure {
  size_t chunk_index = 0;
  uint64_t records = 0;  // Records in the failed input chunk.
  int attempts = 0;      // Attempts made (== Options::max_attempts).
  Status status;         // Final attempt's error, "<stage>: <message>".
};

// Coverage accounting for one Run call: every input chunk is either
// skipped (below the resume cursor), folded, or quarantined — unless
// the run aborted, in which case `status` says why and the remaining
// chunks are unaccounted.
struct RunSummary {
  Status status;  // OK unless the run aborted (fail_fast / sink error).
  size_t chunks_total = 0;
  size_t chunks_skipped = 0;  // Below `start_chunk` (checkpoint resume).
  size_t chunks_folded = 0;
  size_t chunks_quarantined = 0;
  uint64_t records_quarantined = 0;  // Input records in quarantined chunks.
  uint64_t retries = 0;              // Attempts beyond each chunk's first.
  std::vector<ChunkFailure> quarantined;  // Ascending chunk index.
};

// Runs Dataset<In> chunks through a chunk function producing Out.
template <typename In, typename Out>
class StageRunner {
 public:
  // One chunk's trip through its chain. Called concurrently for
  // different chunks, and again with a copy of the same chunk when the
  // runner retries; errors should name the failing step.
  using ChunkFn = std::function<Result<Out>(Dataset<In>)>;

  struct Options {
    // Chunks allowed in flight at once. 1 = strictly sequential chunks;
    // 2 (default) overlaps one chunk's tail stages with the next
    // chunk's head stages while bounding peak memory to ~2 chunks of
    // intermediates.
    int max_in_flight = 2;
    // Total attempts per chunk. 1 = no retry (and no defensive
    // input copy — the historical zero-overhead behavior). With N > 1,
    // attempts 1..N-1 run on a copy of the input chunk, so peak memory
    // gains up to one extra input chunk per in-flight chunk.
    int max_attempts = 1;
    // Abort the run on the first chunk that exhausts its attempts,
    // instead of quarantining it and continuing.
    bool fail_fast = false;
  };

  StageRunner(ChunkFn chunk_fn, ThreadPool* pool,
              Options options = Options())
      : chunk_fn_(std::move(chunk_fn)), pool_(pool), options_(options) {
    POL_CHECK(pool_ != nullptr);
    POL_CHECK(options_.max_in_flight >= 1);
    POL_CHECK(options_.max_attempts >= 1);
  }

  // Runs chunks [start_chunk, chunks.size()) through the chunk function;
  // `sink(chunk_index, output)` is invoked on the calling thread, in
  // ascending chunk order, and may veto the rest of the run by
  // returning a non-OK Status. `on_quarantine` (optional) observes each
  // dead-lettered chunk, also on the calling thread in ascending order
  // — before any later chunk is folded, which is what lets a checkpoint
  // layer persist quarantine decisions in cursor order. Blocks until
  // all processed chunks are folded or quarantined and no task is in
  // flight.
  RunSummary Run(
      std::vector<Dataset<In>> chunks,
      const std::function<Status(size_t, Out)>& sink,
      size_t start_chunk = 0,
      const std::function<void(const ChunkFailure&)>& on_quarantine = {}) {
    POL_TRACE_SPAN("flow.run");
    RunSummary summary;
    summary.chunks_total = chunks.size();
    const size_t total = chunks.size();
    summary.chunks_skipped = std::min(start_chunk, total);
    if (start_chunk >= total) return summary;

    // Outcome of one chunk's (possibly retried) trip through the chain.
    struct Slot {
      std::optional<Out> result;  // Engaged on success.
      Status status;                       // Error of the final attempt.
      uint64_t records = 0;                // Input records (for coverage).
      int attempts = 0;
      bool done = false;
    };
    std::vector<Slot> slots(total);
    Mutex mutex;
    CondVar ready;
    size_t in_flight = 0;
    size_t next_to_submit = start_chunk;
    std::atomic<uint64_t> retries{0};

    // Abort paths must not leave pool tasks referencing this frame.
    const auto drain = [&] {
      MutexLock lock(mutex);
      while (in_flight != 0) ready.Wait(mutex);
    };

    for (size_t next_to_fold = start_chunk; next_to_fold < total;
         ++next_to_fold) {
      {
        MutexLock lock(mutex);
        for (;;) {
          // Keep the window full.
          while (next_to_submit < total &&
                 in_flight < static_cast<size_t>(options_.max_in_flight)) {
            const size_t k = next_to_submit++;
            ++in_flight;
            Dataset<In>* chunk = &chunks[k];
            pool_->Submit([this, k, chunk, &slots, &mutex, &ready,
                           &in_flight, &retries] {
              {
                obs::ScopedSpan span("chunk." + std::to_string(k));
                RunChunkWithRetries(chunk, &slots[k], &retries);
              }
              MutexLock task_lock(mutex);
              slots[k].done = true;
              --in_flight;
              ready.NotifyAll();
            });
          }
          if (slots[next_to_fold].done) break;
          ready.Wait(mutex);
        }
      }
      Slot& slot = slots[next_to_fold];
      if (slot.result.has_value()) {
        Out out = std::move(*slot.result);
        slot.result.reset();
        Status sink_status;
        try {
          sink_status = sink(next_to_fold, std::move(out));
        } catch (...) {
          drain();
          throw;
        }
        if (!sink_status.ok()) {
          summary.status = std::move(sink_status);
          break;
        }
        ++summary.chunks_folded;
        continue;
      }
      // The chunk exhausted its attempts.
      ChunkFailure failure;
      failure.chunk_index = next_to_fold;
      failure.records = slot.records;
      failure.attempts = slot.attempts;
      failure.status = slot.status;
      if (options_.fail_fast) {
        summary.status = failure.status;
        break;
      }
      ++summary.chunks_quarantined;
      summary.records_quarantined += failure.records;
      if (on_quarantine) {
        try {
          on_quarantine(failure);
        } catch (...) {
          drain();
          throw;
        }
      }
      summary.quarantined.push_back(std::move(failure));
    }
    drain();
    summary.retries = retries.load();
    auto& registry = obs::Registry::Global();
    registry.counter("pipeline.chunks_folded")
        ->Increment(summary.chunks_folded);
    registry.counter("pipeline.chunks_quarantined")
        ->Increment(summary.chunks_quarantined);
    registry.counter("pipeline.chunk_retries")->Increment(summary.retries);
    return summary;
  }

 private:
  // Runs one chunk through the chunk function with the retry policy;
  // fills the slot's result/status/attempts. Runs on a pool task; the
  // slot is published under the runner's mutex by the caller.
  template <typename Slot>
  void RunChunkWithRetries(Dataset<In>* chunk, Slot* slot,
                           std::atomic<uint64_t>* retries) {
    slot->records = chunk->Count();
    for (int attempt = 1;; ++attempt) {
      const bool final_attempt = attempt >= options_.max_attempts;
      // Retryable attempts run on a defensive copy: the chunk function
      // consumes its input, and a retry must see the original bytes.
      Result<Out> out = final_attempt ? chunk_fn_(std::move(*chunk))
                                      : chunk_fn_(Dataset<In>(*chunk));
      slot->attempts = attempt;
      if (out.ok()) {
        slot->result.emplace(std::move(out).value());
        return;
      }
      slot->status = out.status();
      if (final_attempt) return;
      // Retryability is centralized in Status::IsRetryable() (shared
      // with the serving-side refresh circuit breaker): a caller error
      // like kInvalidArgument fails identically on every attempt, so
      // burning the remaining attempts on it only delays the quarantine
      // decision.
      if (!slot->status.IsRetryable()) return;
      retries->fetch_add(1);
    }
  }

  ChunkFn chunk_fn_;
  ThreadPool* pool_;
  Options options_;
};

}  // namespace pol::flow

#endif  // POL_FLOW_STAGE_RUNNER_H_
