#include "obs/querylog.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pol::obs {
namespace {

// Doubles in a wide event may legitimately be inf (no deadline math
// gone wrong) or NaN under fault storms; the JSON model carries
// neither, so they export as the "no value" sentinel.
double Finite(double value) { return std::isfinite(value) ? value : -1.0; }

}  // namespace

Json QueryEventToJson(const QueryEvent& event) {
  Json out = Json::Object();
  out.Set("id", Json(event.id));
  out.Set("class", Json(event.query_class));
  out.Set("op", Json(event.op));
  out.Set("status", Json(event.status));
  out.Set("ok", Json(event.ok));
  out.Set("queue_wait_seconds", Json(Finite(event.queue_wait_seconds)));
  out.Set("scan_seconds", Json(Finite(event.scan_seconds)));
  out.Set("deadline_remaining_seconds",
          Json(Finite(event.deadline_remaining_seconds)));
  out.Set("snapshot_id", Json(event.snapshot_id));
  out.Set("summaries_visited", Json(event.summaries_visited));
  return out;
}

QueryLog::QueryLog(QueryLogOptions options)
    : options_([options]() mutable {
        if (options.notable_capacity == 0) options.notable_capacity = 1;
        if (options.sampled_capacity == 0) options.sampled_capacity = 1;
        return options;
      }()) {
  // Reserved up front so recording never allocates: any one stripe may
  // end up holding all of the newest notable_capacity events.
  for (NotableRing& ring : notable_) {
    MutexLock lock(ring.mutex);
    ring.events.reserve(options_.notable_capacity);
  }
  MutexLock lock(mutex_);
  sampled_.reserve(options_.sampled_capacity);
}

uint64_t QueryLog::NextId() {
  return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
}

uint64_t QueryLog::Mix(uint64_t value) {
  uint64_t z = value * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void QueryLog::Record(const QueryEvent& event) {
  if (event.ok) {
    ok_.Increment();
  } else {
    errors_.Increment();
  }
  const bool slow = event.scan_seconds >= options_.slow_seconds;
  if (slow) slow_.Increment();

  if (!event.ok || slow) {
    // This thread's notable ring: overwrite the oldest once full, so the
    // freshest incidents always survive.
    NotableRing& ring = notable_[ThisThreadStripe()];
    MutexLock lock(ring.mutex);
    if (ring.events.size() < options_.notable_capacity) {
      ring.events.push_back(event);
    } else {
      ring.events[ring.next] = event;
    }
    ring.next = (ring.next + 1) % options_.notable_capacity;
    return;
  }

  // Healthy queries flow through a uniform reservoir: the counter is
  // claimed outside the lock, so the decision which slot (if any) an
  // event lands in never serializes recording threads that lose the
  // draw.
  const uint64_t seen = sampled_seen_.fetch_add(1, std::memory_order_relaxed);
  if (seen < options_.sampled_capacity) {
    MutexLock lock(mutex_);
    if (sampled_.size() <= static_cast<size_t>(seen)) {
      sampled_.resize(static_cast<size_t>(seen) + 1);
    }
    sampled_[static_cast<size_t>(seen)] = event;
    return;
  }
  // Lemire bounded mapping of the mixed draw into [0, seen]: a 128-bit
  // multiply-shift instead of a hardware divide on the hot path.
  const uint64_t draw = static_cast<uint64_t>(
      (static_cast<unsigned __int128>(Mix(seen)) * (seen + 1)) >> 64);
  if (draw < options_.sampled_capacity) {
    MutexLock lock(mutex_);
    if (static_cast<size_t>(draw) < sampled_.size()) {
      sampled_[static_cast<size_t>(draw)] = event;
    }
  }
}

QueryLog::Totals QueryLog::totals() const {
  Totals totals;
  totals.ok = ok_.value();
  totals.errors = errors_.value();
  totals.slow = slow_.value();
  totals.events = totals.ok + totals.errors;
  return totals;
}

namespace {

void SortById(std::vector<QueryEvent>* events) {
  std::sort(events->begin(), events->end(),
            [](const QueryEvent& a, const QueryEvent& b) {
              return a.id < b.id;
            });
}

}  // namespace

std::vector<QueryEvent> QueryLog::NotableEvents() const {
  std::vector<QueryEvent> out;
  for (const NotableRing& ring : notable_) {
    MutexLock lock(ring.mutex);
    out.insert(out.end(), ring.events.begin(), ring.events.end());
  }
  SortById(&out);
  const size_t capacity = options_.notable_capacity;
  if (out.size() > capacity) {
    out.erase(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(
                                             out.size() - capacity));
  }
  return out;
}

std::vector<QueryEvent> QueryLog::SampledEvents() const {
  std::vector<QueryEvent> out;
  {
    MutexLock lock(mutex_);
    out = sampled_;
  }
  SortById(&out);
  return out;
}

std::string QueryLog::ExportJsonl() const {
  std::vector<QueryEvent> all = NotableEvents();
  const std::vector<QueryEvent> sampled = SampledEvents();
  all.insert(all.end(), sampled.begin(), sampled.end());
  SortById(&all);
  std::string out;
  for (const QueryEvent& event : all) {
    out += QueryEventToJson(event).Dump();
    out += '\n';
  }
  return out;
}

}  // namespace pol::obs
