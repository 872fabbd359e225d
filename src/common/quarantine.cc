#include "common/quarantine.h"

#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace pol {

namespace {
constexpr size_t kMaxPayloadBytes = 256;
}  // namespace

void QuarantineStore::Record(std::string_view source, const Status& status,
                             std::string_view payload, uint64_t sequence) {
  // Dead letters are rare, so the per-source name lookup is fine here.
  auto& registry = obs::Registry::Global();
  registry.counter("quarantine.dead_letters")->Increment();
  registry.counter("quarantine." + std::string(source) + ".dead_letters")
      ->Increment();
  MutexLock lock(mutex_);
  ++counters_[{std::string(source), status.code()}];
  if (letters_.size() >= max_retained_) return;
  DeadLetter letter;
  letter.source = std::string(source);
  letter.status = status;
  letter.payload = std::string(payload.substr(0, kMaxPayloadBytes));
  letter.sequence = sequence;
  letters_.push_back(std::move(letter));
}

uint64_t QuarantineStore::total() const {
  MutexLock lock(mutex_);
  uint64_t total = 0;
  for (const auto& [key, count] : counters_) total += count;
  return total;
}

uint64_t QuarantineStore::CountForSource(std::string_view source) const {
  MutexLock lock(mutex_);
  uint64_t total = 0;
  for (const auto& [key, count] : counters_) {
    if (key.first == source) total += count;
  }
  return total;
}

std::map<std::pair<std::string, StatusCode>, uint64_t>
QuarantineStore::Counters() const {
  MutexLock lock(mutex_);
  return counters_;
}

std::vector<DeadLetter> QuarantineStore::Letters() const {
  MutexLock lock(mutex_);
  return letters_;
}

std::string QuarantineStore::CountersToString() const {
  MutexLock lock(mutex_);
  std::string out;
  for (const auto& [key, count] : counters_) {
    out += key.first;
    out += '/';
    out += std::string(StatusCodeName(key.second));
    out += ": ";
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

}  // namespace pol
