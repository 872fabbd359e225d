#ifndef POL_OBS_TRACE_H_
#define POL_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/clock.h"

// Scoped trace spans with Chrome trace-event export. Instrumented
// scopes declare
//
//   POL_TRACE_SPAN("stage.trips");
//
// and, while the global TraceRecorder is started, the span's
// begin/duration lands in a per-thread buffer as one complete ("ph":
// "X") event. ExportChromeTraceJson renders everything recorded so far
// as a document chrome://tracing and Perfetto load directly.
//
// Overhead: with the recorder stopped a span is one relaxed atomic
// load; recording appends to a thread-owned buffer under a per-buffer
// mutex that only the exporter ever contends. Span names are copied at
// record time (spans are coarse — stages, chunks, checkpoints — not
// per-record).

namespace pol::obs {

// One completed span.
struct TraceEvent {
  std::string name;
  uint64_t ts_micros = 0;   // Begin, on the obs clock (process epoch).
  uint64_t dur_micros = 0;  // Duration.
  uint32_t tid = 0;         // Recorder-assigned thread id, dense from 1.
};

class TraceRecorder {
 public:
  // The process-wide recorder POL_TRACE_SPAN records into.
  static TraceRecorder& Global();

  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Collection gate. Spans that begin while stopped record nothing,
  // even if the recorder starts before they end.
  void Start() { enabled_.store(true, std::memory_order_relaxed); }
  void Stop() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Appends one complete event to the calling thread's buffer.
  void Record(std::string name, uint64_t ts_micros, uint64_t dur_micros);

  // Drops every recorded event, those of exited threads included
  // (live threads keep their buffers and thread ids).
  void Clear();

  // All events recorded so far, merged across threads in ascending
  // begin-timestamp order.
  std::vector<TraceEvent> Events() const;
  size_t event_count() const;

  // Per-thread buffers held. A thread that records into the global
  // recorder holds one until it exits; its events then move into the
  // recorder and stay until Clear(), so the count is bounded by the
  // live recording threads, not by every thread that ever traced.
  size_t buffer_count() const;

  // Chrome trace-event JSON: {"traceEvents": [{"name", "cat", "ph":
  // "X", "ts", "dur", "pid", "tid"}, ...], "displayTimeUnit": "ms"}.
  // Valid (and empty) when nothing was recorded.
  std::string ExportChromeTraceJson() const;

 private:
  struct ThreadBuffer {
    Mutex mutex;
    std::vector<TraceEvent> events POL_GUARDED_BY(mutex);
    uint32_t tid = 0;  // Written once at creation (under the recorder
                       // mutex), read lock-free by the owning thread.
  };

  // Holds the calling thread's global-recorder buffer; releases it at
  // thread exit.
  struct ThreadHandle;

  ThreadBuffer* BufferForThisThread();
  // Moves an exiting thread's events into retired_ and drops its buffer.
  void ReleaseBuffer(ThreadBuffer* buffer);

  std::atomic<bool> enabled_{false};
  mutable Mutex mutex_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_ POL_GUARDED_BY(mutex_);
  // Events of threads that have exited, kept until Clear().
  std::vector<TraceEvent> retired_ POL_GUARDED_BY(mutex_);
  uint32_t next_tid_ POL_GUARDED_BY(mutex_) = 1;
};

// RAII span: captures the start on construction and records into the
// global recorder on destruction — iff the recorder was started when
// the span began.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name) {
    if (TraceRecorder::Global().enabled()) {
      name_.assign(name.data(), name.size());
      start_micros_ = NowMicros();
      active_ = true;
    }
  }

  ~ScopedSpan() {
    if (active_) {
      const uint64_t end = NowMicros();
      TraceRecorder::Global().Record(
          std::move(name_), start_micros_,
          end > start_micros_ ? end - start_micros_ : 0);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::string name_;
  uint64_t start_micros_ = 0;
  bool active_ = false;
};

}  // namespace pol::obs

#define POL_TRACE_CONCAT_INNER_(a, b) a##b
#define POL_TRACE_CONCAT_(a, b) POL_TRACE_CONCAT_INNER_(a, b)

// Traces the enclosing scope as one complete span named `name` (any
// std::string_view-convertible expression; evaluated once).
#define POL_TRACE_SPAN(name) \
  ::pol::obs::ScopedSpan POL_TRACE_CONCAT_(pol_trace_span_, __LINE__)(name)

#endif  // POL_OBS_TRACE_H_
