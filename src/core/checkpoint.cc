#include "core/checkpoint.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/varint.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/atomic_file.h"

namespace pol::core {
namespace {

constexpr char kMagic[] = "POLCKP01";
constexpr size_t kMagicLen = 8;
constexpr uint64_t kVersion = 1;
constexpr char kPrefix[] = "pol-ckpt-";
constexpr char kSuffix[] = ".snap";

// "pol-ckpt-<8-digit seq>.snap" -> sequence; 0 when the name does not
// match the snapshot pattern.
uint64_t ParseSequence(const std::string& filename) {
  const std::string_view name(filename);
  const std::string_view prefix(kPrefix);
  const std::string_view suffix(kSuffix);
  if (name.size() <= prefix.size() + suffix.size()) return 0;
  if (name.substr(0, prefix.size()) != prefix) return 0;
  if (name.substr(name.size() - suffix.size()) != suffix) return 0;
  const std::string_view digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  uint64_t sequence = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return 0;
    sequence = sequence * 10 + static_cast<uint64_t>(c - '0');
  }
  return sequence;
}

std::string SnapshotPath(const std::string& directory, uint64_t sequence) {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%08llu%s", kPrefix,
                static_cast<unsigned long long>(sequence), kSuffix);
  return (std::filesystem::path(directory) / name).string();
}

// Sequence numbers of snapshots present in `directory`, ascending.
std::vector<uint64_t> ListSequences(const std::string& directory) {
  std::vector<uint64_t> sequences;
  std::error_code ec;
  std::filesystem::directory_iterator it(directory, ec);
  if (ec) return sequences;
  for (const auto& entry : it) {
    const uint64_t sequence = ParseSequence(entry.path().filename().string());
    if (sequence != 0) sequences.push_back(sequence);
  }
  std::sort(sequences.begin(), sequences.end());
  return sequences;
}

Result<std::string> ReadFileBytes(const std::string& path) {
  POL_RETURN_IF_ERROR(POL_FAILPOINT("checkpoint.read"));
  std::string bytes;
  POL_RETURN_IF_ERROR(store::ReadFileToString(path, &bytes));
  return bytes;
}

}  // namespace

CheckpointManager::CheckpointManager(CheckpointConfig config)
    : config_(std::move(config)) {
  if (config_.interval_chunks < 1) config_.interval_chunks = 1;
  if (config_.keep < 1) config_.keep = 1;
  if (enabled()) {
    const std::vector<uint64_t> sequences = ListSequences(config_.directory);
    if (!sequences.empty()) next_sequence_ = sequences.back() + 1;
  }
}

void CheckpointManager::Encode(const CheckpointState& state,
                               std::string* out) {
  out->append(kMagic, kMagicLen);
  std::string body;
  PutVarint64(&body, kVersion);
  PutVarint64(&body, state.cursor);
  PutVarint64(&body, state.total_chunks);
  PutVarint64(&body, state.quarantined.size());
  for (const CheckpointQuarantineEntry& entry : state.quarantined) {
    PutVarint64(&body, entry.chunk_index);
    PutVarint64(&body, entry.records);
    PutVarint64(&body, entry.attempts);
    PutVarint64(&body, static_cast<uint64_t>(entry.code));
    PutLengthPrefixed(&body, entry.message);
  }
  PutLengthPrefixed(&body, state.builder_state);
  PutVarint64(out, body.size());
  out->append(body);
  const uint32_t crc = Crc32(body);
  out->push_back(static_cast<char>(crc & 0xff));
  out->push_back(static_cast<char>((crc >> 8) & 0xff));
  out->push_back(static_cast<char>((crc >> 16) & 0xff));
  out->push_back(static_cast<char>((crc >> 24) & 0xff));
}

Result<CheckpointState> CheckpointManager::Decode(std::string_view input) {
  if (input.size() < kMagicLen ||
      input.substr(0, kMagicLen) != std::string_view(kMagic, kMagicLen)) {
    return Status::Corruption("bad checkpoint magic");
  }
  input.remove_prefix(kMagicLen);
  uint64_t body_size = 0;
  POL_RETURN_IF_ERROR(GetVarint64(&input, &body_size));
  if (input.size() < body_size + 4) {
    return Status::Corruption("truncated checkpoint body");
  }
  const std::string_view body_bytes = input.substr(0, body_size);
  const std::string_view crc_bytes = input.substr(body_size, 4);
  uint32_t declared = 0;
  for (int i = 3; i >= 0; --i) {
    declared = (declared << 8) |
               static_cast<uint8_t>(crc_bytes[static_cast<size_t>(i)]);
  }
  if (Crc32(body_bytes) != declared) {
    return Status::Corruption("checkpoint checksum mismatch");
  }

  std::string_view body = body_bytes;
  uint64_t version = 0;
  POL_RETURN_IF_ERROR(GetVarint64(&body, &version));
  if (version != kVersion) {
    return Status::Corruption("unsupported checkpoint version");
  }
  CheckpointState state;
  POL_RETURN_IF_ERROR(GetVarint64(&body, &state.cursor));
  POL_RETURN_IF_ERROR(GetVarint64(&body, &state.total_chunks));
  uint64_t quarantine_count = 0;
  POL_RETURN_IF_ERROR(GetVarint64(&body, &quarantine_count));
  for (uint64_t i = 0; i < quarantine_count; ++i) {
    CheckpointQuarantineEntry entry;
    uint64_t code = 0;
    POL_RETURN_IF_ERROR(GetVarint64(&body, &entry.chunk_index));
    POL_RETURN_IF_ERROR(GetVarint64(&body, &entry.records));
    POL_RETURN_IF_ERROR(GetVarint64(&body, &entry.attempts));
    POL_RETURN_IF_ERROR(GetVarint64(&body, &code));
    if (code > static_cast<uint64_t>(kMaxStatusCode)) {
      return Status::Corruption("bad status code in checkpoint");
    }
    entry.code = static_cast<StatusCode>(code);
    std::string_view message;
    POL_RETURN_IF_ERROR(GetLengthPrefixed(&body, &message));
    entry.message = std::string(message);
    state.quarantined.push_back(std::move(entry));
  }
  std::string_view builder_state;
  POL_RETURN_IF_ERROR(GetLengthPrefixed(&body, &builder_state));
  state.builder_state = std::string(builder_state);
  if (!body.empty()) {
    return Status::Corruption("trailing bytes in checkpoint body");
  }
  return state;
}

Status CheckpointManager::Write(const CheckpointState& state) {
  POL_TRACE_SPAN("checkpoint.write");
  const double start = obs::kEnabled ? obs::NowSeconds() : 0.0;
  uint64_t bytes_written = 0;
  Status status = [&]() -> Status {
    if (!enabled()) {
      return Status::FailedPrecondition("checkpointing is disabled");
    }
    POL_RETURN_IF_ERROR(POL_FAILPOINT("checkpoint.write"));

    std::error_code ec;
    std::filesystem::create_directories(config_.directory, ec);
    if (ec) {
      return Status::IoError("cannot create checkpoint directory: " +
                             config_.directory);
    }

    std::string bytes;
    Encode(state, &bytes);
    const uint64_t sequence = next_sequence_++;
    POL_RETURN_IF_ERROR(store::WriteFileDurable(
        SnapshotPath(config_.directory, sequence), bytes));
    bytes_written = bytes.size();

    // Rotate: drop everything but the newest `keep` snapshots.
    std::vector<uint64_t> sequences = ListSequences(config_.directory);
    const size_t keep = static_cast<size_t>(config_.keep);
    if (sequences.size() > keep) {
      for (size_t i = 0; i + keep < sequences.size(); ++i) {
        std::filesystem::remove(SnapshotPath(config_.directory, sequences[i]),
                                ec);
      }
    }
    return Status::OK();
  }();
  if constexpr (obs::kEnabled) {
    auto& registry = obs::Registry::Global();
    registry.histogram("checkpoint.write_seconds")
        ->Record(obs::NowSeconds() - start);
    if (status.ok()) {
      registry.counter("checkpoint.writes")->Increment();
      registry.counter("checkpoint.bytes_written")->Increment(bytes_written);
    } else {
      registry.counter("checkpoint.write_failures")->Increment();
    }
  }
  return status;
}

Result<CheckpointState> CheckpointManager::LoadLatest() const {
  POL_TRACE_SPAN("checkpoint.load");
  const double start = obs::kEnabled ? obs::NowSeconds() : 0.0;
  Result<CheckpointState> result = [&]() -> Result<CheckpointState> {
    if (!enabled()) {
      return Status::FailedPrecondition("checkpointing is disabled");
    }
    const std::vector<uint64_t> sequences = ListSequences(config_.directory);
    for (auto it = sequences.rbegin(); it != sequences.rend(); ++it) {
      const std::string path = SnapshotPath(config_.directory, *it);
      Result<std::string> bytes = ReadFileBytes(path);
      if (!bytes.ok()) continue;  // Unreadable: fall back to an older one.
      Result<CheckpointState> state = Decode(*bytes);
      if (state.ok()) return state;
      // Corrupt (e.g. crash mid-rotation, disk fault): fall back.
    }
    return Status::NotFound("no loadable checkpoint in " + config_.directory);
  }();
  if constexpr (obs::kEnabled) {
    obs::Registry::Global()
        .histogram("checkpoint.read_seconds")
        ->Record(obs::NowSeconds() - start);
  }
  return result;
}

std::vector<std::string> CheckpointManager::ListSnapshots() const {
  std::vector<std::string> paths;
  if (!enabled()) return paths;
  for (const uint64_t sequence : ListSequences(config_.directory)) {
    paths.push_back(SnapshotPath(config_.directory, sequence));
  }
  return paths;
}

}  // namespace pol::core
