#include "core/checkpoint.h"

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/varint.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/snapshot_format.h"

namespace pol::core {
namespace {

Status BadMeta(std::string why) {
  return Status::DataLoss("checkpoint meta: " + std::move(why));
}

Status ReadVarint(std::string_view* meta, uint64_t* value,
                  std::string_view field) {
  if (!GetVarint64(meta, value).ok()) {
    return BadMeta("truncated at " + std::string(field));
  }
  return Status::OK();
}

// The stage stats' fields in their persisted order, as pointers into
// `meta` (const for encoding, mutable for decoding).
template <typename Meta>
auto StatFields(Meta& meta) {
  auto& c = meta.cleaning;
  auto& e = meta.enrichment;
  auto& t = meta.trips;
  return std::array{&c.input, &c.invalid_fields, &c.duplicates,
                    &c.infeasible_jumps, &c.kept, &e.input,
                    &e.unknown_vessel, &e.non_commercial, &e.kept,
                    &t.input, &t.trips, &t.annotated, &t.excluded};
}

std::string EncodeMeta(const CheckpointState& state) {
  std::string out;
  PutVarint64(&out, kCheckpointVersion);
  PutVarint64(&out, state.cursor);
  PutVarint64(&out, state.total_chunks);
  PutVarint64(&out, state.quarantined.size());
  for (const flow::ChunkFailure& failure : state.quarantined) {
    PutVarint64(&out, failure.chunk_index);
    PutVarint64(&out, failure.records);
    PutVarint64(&out, static_cast<uint64_t>(failure.attempts));
    PutVarint64(&out, static_cast<uint64_t>(failure.status.code()));
    PutLengthPrefixed(&out, failure.status.message());
  }
  for (const uint64_t* field : StatFields(state)) PutVarint64(&out, *field);
  PutVarint64(&out, state.folding.chunks);
  PutVarint64(&out, state.folding.records);
  PutVarint64(&out, state.folding.peak_partition);
  PutDouble(&out, state.folding.wall_seconds);
  return out;
}

// Decodes a validated generation. Beyond framing, the state must be one
// a run could have written: the pipeline derives its coverage from
// these fields (chunks folded = cursor - quarantined), so an
// inconsistent but CRC-valid checkpoint is data loss, not a resume.
Result<LoadedCheckpoint> DecodeCheckpoint(
    const store::SnapshotFileView& view) {
  POL_ASSIGN_OR_RETURN(std::string_view meta,
                       view.Section(kCheckpointSectionMeta));
  uint64_t version = 0;
  POL_RETURN_IF_ERROR(ReadVarint(&meta, &version, "version"));
  if (version != kCheckpointVersion) {
    return BadMeta("unsupported version " + std::to_string(version));
  }
  LoadedCheckpoint state;
  POL_RETURN_IF_ERROR(ReadVarint(&meta, &state.cursor, "cursor"));
  POL_RETURN_IF_ERROR(ReadVarint(&meta, &state.total_chunks, "total chunks"));
  if (state.cursor > state.total_chunks) {
    return BadMeta("cursor past the chunk count");
  }
  uint64_t quarantine_count = 0;
  POL_RETURN_IF_ERROR(ReadVarint(&meta, &quarantine_count, "ledger size"));
  if (quarantine_count > state.cursor) {
    return BadMeta("more quarantined chunks than accounted ones");
  }
  for (uint64_t i = 0; i < quarantine_count; ++i) {
    flow::ChunkFailure failure;
    uint64_t chunk_index = 0;
    uint64_t attempts = 0;
    uint64_t code = 0;
    POL_RETURN_IF_ERROR(ReadVarint(&meta, &chunk_index, "chunk index"));
    POL_RETURN_IF_ERROR(ReadVarint(&meta, &failure.records, "records"));
    POL_RETURN_IF_ERROR(ReadVarint(&meta, &attempts, "attempts"));
    POL_RETURN_IF_ERROR(ReadVarint(&meta, &code, "status code"));
    if (chunk_index >= state.cursor) {
      return BadMeta("quarantined chunk at or past the cursor");
    }
    if (!state.quarantined.empty() &&
        chunk_index <= state.quarantined.back().chunk_index) {
      return BadMeta("quarantined chunk indices not increasing");
    }
    if (attempts < 1 ||
        attempts > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
      return BadMeta("bad attempts " + std::to_string(attempts));
    }
    if (code > static_cast<uint64_t>(kMaxStatusCode)) {
      return BadMeta("bad status code " + std::to_string(code));
    }
    std::string_view message;
    if (!GetLengthPrefixed(&meta, &message).ok()) {
      return BadMeta("truncated at message");
    }
    failure.chunk_index = static_cast<size_t>(chunk_index);
    failure.attempts = static_cast<int>(attempts);
    failure.status =
        Status(static_cast<StatusCode>(code), std::string(message));
    state.quarantined.push_back(std::move(failure));
  }
  for (uint64_t* field : StatFields(state)) {
    POL_RETURN_IF_ERROR(ReadVarint(&meta, field, "stage stats"));
  }
  FoldAccounting& folding = state.folding;
  POL_RETURN_IF_ERROR(ReadVarint(&meta, &folding.chunks, "fold chunks"));
  POL_RETURN_IF_ERROR(ReadVarint(&meta, &folding.records, "fold records"));
  POL_RETURN_IF_ERROR(
      ReadVarint(&meta, &folding.peak_partition, "fold peak partition"));
  if (!GetDouble(&meta, &folding.wall_seconds).ok()) {
    return BadMeta("truncated at fold wall seconds");
  }
  if (!meta.empty()) return BadMeta("trailing bytes");
  POL_ASSIGN_OR_RETURN(state.builder_state,
                       view.Section(kCheckpointSectionBuilderState));
  return state;
}

}  // namespace

CheckpointManager::CheckpointManager(CheckpointConfig config)
    : config_(std::move(config)),
      store_(store::SnapshotStoreOptions{config_.directory, config_.keep}) {
  if (config_.interval_chunks < 1) config_.interval_chunks = 1;
  if (config_.keep < 1) config_.keep = 1;
}

Status CheckpointManager::Write(CheckpointState state) {
  POL_TRACE_SPAN("checkpoint.write");
  const double start = obs::NowSeconds();
  uint64_t bytes_written = 0;
  Status status = [&]() -> Status {
    if (!enabled()) {
      return Status::FailedPrecondition("checkpointing is disabled");
    }
    POL_RETURN_IF_ERROR(POL_FAILPOINT("checkpoint.write"));
    const std::string meta = EncodeMeta(state);
    store::SnapshotFileWriter writer(2,
                                     meta.size() + state.builder_state.size());
    writer.BeginSection(kCheckpointSectionMeta)->append(meta);
    writer.BeginSection(kCheckpointSectionBuilderState)
        ->append(state.builder_state);
    // The image holds its copy now; free the state before publishing.
    std::string().swap(state.builder_state);
    const std::string image = writer.Finish();
    POL_RETURN_IF_ERROR(store_.Publish(image).status());
    bytes_written = image.size();
    return Status::OK();
  }();
  auto& registry = obs::Registry::Global();
  registry.histogram("checkpoint.write_seconds")
      ->Record(obs::NowSeconds() - start);
  if (status.ok()) {
    registry.counter("checkpoint.writes")->Increment();
    registry.counter("checkpoint.bytes_written")->Increment(bytes_written);
  } else {
    registry.counter("checkpoint.write_failures")->Increment();
  }
  return status;
}

Result<LoadedCheckpoint> CheckpointManager::LoadLatest() const {
  POL_TRACE_SPAN("checkpoint.load");
  const double start = obs::NowSeconds();
  Result<LoadedCheckpoint> result = [&]() -> Result<LoadedCheckpoint> {
    if (!enabled()) {
      return Status::FailedPrecondition("checkpointing is disabled");
    }
    LoadedCheckpoint state;
    const auto accept = [&state](store::SnapshotStore::Opened* opened)
        -> Status {
      POL_RETURN_IF_ERROR(POL_FAILPOINT("checkpoint.read"));
      POL_ASSIGN_OR_RETURN(state, DecodeCheckpoint(opened->view));
      // The builder view points into this mapping: keep it with it.
      state.file = std::move(opened->file);
      return Status::OK();
    };
    POL_RETURN_IF_ERROR(store_.OpenLatest(accept).status());
    return state;
  }();
  obs::Registry::Global()
      .histogram("checkpoint.read_seconds")
      ->Record(obs::NowSeconds() - start);
  return result;
}

std::vector<std::string> CheckpointManager::ListSnapshots() const {
  std::vector<std::string> paths;
  if (!enabled()) return paths;
  for (const uint64_t generation : store_.ListGenerations()) {
    paths.push_back(store_.GenerationPath(generation));
  }
  return paths;
}

}  // namespace pol::core
