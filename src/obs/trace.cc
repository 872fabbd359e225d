#include "obs/trace.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "obs/json.h"

namespace pol::obs {

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* const kGlobal = new TraceRecorder();  // NOLINT(pollint:naked-new): leaked singleton, safe at exit.
  return *kGlobal;
}

struct TraceRecorder::ThreadHandle {
  ThreadBuffer* buffer = nullptr;
  ~ThreadHandle() {
    if (buffer != nullptr) Global().ReleaseBuffer(buffer);
  }
};

TraceRecorder::ThreadBuffer* TraceRecorder::BufferForThisThread() {
  // One buffer per (recorder, thread). The thread_local caches the
  // global recorder's buffer only — other recorder instances (tests)
  // take the slow path every time, which is fine off the hot path.
  thread_local ThreadHandle global_handle;
  const bool is_global = this == &Global();
  if (is_global && global_handle.buffer != nullptr) {
    return global_handle.buffer;
  }
  auto buffer = std::make_shared<ThreadBuffer>();
  {
    MutexLock lock(mutex_);
    buffer->tid = next_tid_++;
    buffers_.push_back(buffer);
  }
  // buffers_ owns it; the handle hands it back when the thread exits.
  if (is_global) global_handle.buffer = buffer.get();
  return buffer.get();
}

void TraceRecorder::ReleaseBuffer(ThreadBuffer* buffer) {
  MutexLock lock(mutex_);
  const auto it = std::find_if(
      buffers_.begin(), buffers_.end(),
      [buffer](const std::shared_ptr<ThreadBuffer>& held) {
        return held.get() == buffer;
      });
  if (it == buffers_.end()) return;
  {
    MutexLock buffer_lock(buffer->mutex);
    retired_.insert(retired_.end(),
                    std::make_move_iterator(buffer->events.begin()),
                    std::make_move_iterator(buffer->events.end()));
  }
  buffers_.erase(it);
}

void TraceRecorder::Record(std::string name, uint64_t ts_micros,
                           uint64_t dur_micros) {
  ThreadBuffer* buffer = BufferForThisThread();
  TraceEvent event;
  event.name = std::move(name);
  event.ts_micros = ts_micros;
  event.dur_micros = dur_micros;
  event.tid = buffer->tid;
  MutexLock lock(buffer->mutex);
  buffer->events.push_back(std::move(event));
}

void TraceRecorder::Clear() {
  MutexLock lock(mutex_);
  std::vector<TraceEvent>().swap(retired_);
  for (const std::shared_ptr<ThreadBuffer>& buffer : buffers_) {
    MutexLock buffer_lock(buffer->mutex);
    buffer->events.clear();
  }
}

size_t TraceRecorder::buffer_count() const {
  MutexLock lock(mutex_);
  return buffers_.size();
}

std::vector<TraceEvent> TraceRecorder::Events() const {
  std::vector<TraceEvent> events;
  {
    MutexLock lock(mutex_);
    events = retired_;
    for (const std::shared_ptr<ThreadBuffer>& buffer : buffers_) {
      MutexLock buffer_lock(buffer->mutex);
      events.insert(events.end(), buffer->events.begin(),
                    buffer->events.end());
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_micros != b.ts_micros) {
                return a.ts_micros < b.ts_micros;
              }
              return a.tid < b.tid;
            });
  return events;
}

size_t TraceRecorder::event_count() const {
  MutexLock lock(mutex_);
  size_t count = retired_.size();
  for (const std::shared_ptr<ThreadBuffer>& buffer : buffers_) {
    MutexLock buffer_lock(buffer->mutex);
    count += buffer->events.size();
  }
  return count;
}

std::string TraceRecorder::ExportChromeTraceJson() const {
  Json document = Json::Object();
  Json trace_events = Json::Array();
  for (const TraceEvent& event : Events()) {
    Json entry = Json::Object();
    entry.Set("name", Json(event.name));
    entry.Set("cat", Json("pol"));
    entry.Set("ph", Json("X"));
    entry.Set("ts", Json(event.ts_micros));
    entry.Set("dur", Json(event.dur_micros));
    entry.Set("pid", Json(int64_t{1}));
    entry.Set("tid", Json(uint64_t{event.tid}));
    trace_events.Append(std::move(entry));
  }
  document.Set("traceEvents", std::move(trace_events));
  document.Set("displayTimeUnit", Json("ms"));
  return document.Dump();
}

}  // namespace pol::obs
