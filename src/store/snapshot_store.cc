#include "store/snapshot_store.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/status.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/atomic_file.h"
#include "store/mapped_file.h"
#include "store/snapshot_format.h"
#include "store/store_metric_names.h"

namespace pol::store {
namespace {

constexpr char kGenPrefix[] = "snap-";
constexpr char kGenSuffix[] = ".pol";
constexpr std::string_view kManifestMagic = "POLSNAPMF1";

// "snap-<digits>.pol" -> generation; 0 when the name does not match
// (generations start at 1, so 0 doubles as the sentinel).
uint64_t ParseGeneration(const std::string& filename) {
  const std::string_view name(filename);
  const std::string_view prefix(kGenPrefix);
  const std::string_view suffix(kGenSuffix);
  if (name.size() <= prefix.size() + suffix.size()) return 0;
  if (name.substr(0, prefix.size()) != prefix) return 0;
  if (name.substr(name.size() - suffix.size()) != suffix) return 0;
  const std::string_view digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  uint64_t generation = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return 0;
    generation = generation * 10 + static_cast<uint64_t>(c - '0');
  }
  return generation;
}

}  // namespace

SnapshotStore::SnapshotStore(SnapshotStoreOptions options)
    : options_(std::move(options)) {
  if (options_.keep < 1) options_.keep = 1;
}

std::string SnapshotStore::GenerationPath(uint64_t generation) const {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%08llu%s", kGenPrefix,
                static_cast<unsigned long long>(generation), kGenSuffix);
  return (std::filesystem::path(options_.directory) / name).string();
}

std::string SnapshotStore::ManifestPath() const {
  return (std::filesystem::path(options_.directory) / "MANIFEST").string();
}

std::vector<uint64_t> SnapshotStore::ListGenerations() const {
  std::vector<uint64_t> generations;
  std::error_code ec;
  std::filesystem::directory_iterator it(options_.directory, ec);
  if (ec) return generations;
  for (const auto& entry : it) {
    const uint64_t generation =
        ParseGeneration(entry.path().filename().string());
    if (generation != 0) generations.push_back(generation);
  }
  std::sort(generations.begin(), generations.end());
  return generations;
}

Result<uint64_t> SnapshotStore::Publish(std::string_view file_image) {
  POL_TRACE_SPAN(kSpanStorePublish);
  obs::Registry& registry = obs::Registry::Global();
  const double started = obs::NowSeconds();
  // Validate before anything touches disk: a store directory only ever
  // contains images that validated at publish time, so a later open
  // failure always means storage damage, never a writer bug.
  {
    Result<SnapshotFileView> view = SnapshotFileView::Validate(file_image);
    if (!view.ok()) {
      registry.counter(kMetricStorePublishFailures)->Increment();
      return Status::InvalidArgument("refusing to publish invalid image: " +
                                     view.status().message());
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(options_.directory, ec);
  if (ec) {
    registry.counter(kMetricStorePublishFailures)->Increment();
    return Status::IoError("cannot create store directory " +
                           options_.directory + ": " + ec.message());
  }
  const std::vector<uint64_t> existing = ListGenerations();
  const uint64_t generation = existing.empty() ? 1 : existing.back() + 1;
  Status written = WriteFileDurable(GenerationPath(generation), file_image);
  if (!written.ok()) {
    registry.counter(kMetricStorePublishFailures)->Increment();
    return written;
  }
  // The generation is durable from here on. A manifest failure leaves
  // it on disk (OpenLatest scans the directory, so it is served after
  // a restart) but reports the publish as failed so the caller's
  // retry/breaker machinery engages; the retry publishes the next
  // generation and re-sweeps.
  Status manifest = POL_FAILPOINT(kFailPointStoreManifest);
  if (manifest.ok()) {
    std::string body(kManifestMagic);
    body += "\ncurrent ";
    body += std::to_string(generation);
    body += "\n";
    manifest = WriteFileDurable(ManifestPath(), body);
  }
  if (!manifest.ok()) {
    registry.counter(kMetricStorePublishFailures)->Increment();
    return manifest;
  }
  // GC: keep the newest `keep` generations, sweep older ones plus any
  // stray temp files from torn publishes.
  std::vector<uint64_t> generations = ListGenerations();
  const size_t keep = static_cast<size_t>(options_.keep);
  uint64_t removed = 0;
  if (generations.size() > keep) {
    for (size_t i = 0; i + keep < generations.size(); ++i) {
      if (std::filesystem::remove(GenerationPath(generations[i]), ec)) {
        ++removed;
      }
    }
  }
  std::filesystem::directory_iterator it(options_.directory, ec);
  if (!ec) {
    for (const auto& entry : it) {
      if (entry.path().extension() == ".tmp") {
        std::error_code remove_ec;
        std::filesystem::remove(entry.path(), remove_ec);
      }
    }
  }
  if (removed > 0) {
    registry.counter(kMetricStoreGcRemoved)->Increment(removed);
    generations = ListGenerations();
  }
  registry.counter(kMetricStorePublishes)->Increment();
  registry.counter(kMetricStorePublishBytes)
      ->Increment(static_cast<uint64_t>(file_image.size()));
  registry.histogram(kMetricStorePublishSeconds)
      ->Record(obs::NowSeconds() - started);
  registry.gauge(kMetricStoreGenerations)
      ->Set(static_cast<int64_t>(generations.size()));
  registry.gauge(kMetricStoreLatestGeneration)
      ->Set(static_cast<int64_t>(generation));
  return generation;
}

Result<SnapshotStore::Opened> SnapshotStore::OpenPath(
    const std::string& path, uint64_t generation) const {
  POL_RETURN_IF_ERROR(POL_FAILPOINT(kFailPointStoreOpen));
  Opened opened;
  opened.generation = generation;
  POL_ASSIGN_OR_RETURN(opened.file, MappedFile::Open(path));
  POL_ASSIGN_OR_RETURN(opened.view,
                       SnapshotFileView::Validate(opened.file.bytes()));
  return opened;
}

Result<SnapshotStore::Opened> SnapshotStore::OpenLatest(
    const AcceptFn& accept) const {
  POL_TRACE_SPAN(kSpanStoreOpen);
  obs::Registry& registry = obs::Registry::Global();
  const double started = obs::NowSeconds();
  const std::vector<uint64_t> generations = ListGenerations();
  if (generations.empty()) {
    return Status::NotFound("no generations in " + options_.directory);
  }
  std::string failures;
  for (size_t i = generations.size(); i-- > 0;) {
    const uint64_t generation = generations[i];
    Result<Opened> opened = OpenPath(GenerationPath(generation), generation);
    if (opened.ok() && accept) {
      Status accepted = accept(&*opened);
      if (!accepted.ok()) opened = std::move(accepted);
    }
    if (opened.ok()) {
      registry.counter(kMetricStoreOpens)->Increment();
      registry.histogram(kMetricStoreOpenSeconds)
          ->Record(obs::NowSeconds() - started);
      return opened;
    }
    // This generation is torn, damaged or rejected — fall back to the
    // previous one.
    registry.counter(kMetricStoreFallbacks)->Increment();
    if (!failures.empty()) failures += "; ";
    failures += "gen " + std::to_string(generation) + ": " +
                opened.status().ToString();
  }
  registry.counter(kMetricStoreOpenFailures)->Increment();
  return Status::DataLoss("all " + std::to_string(generations.size()) +
                          " generations unreadable: " + failures);
}

Result<SnapshotStore::Opened> SnapshotStore::OpenGeneration(
    uint64_t generation) const {
  POL_TRACE_SPAN(kSpanStoreOpen);
  obs::Registry& registry = obs::Registry::Global();
  Result<Opened> opened =
      OpenPath(GenerationPath(generation), generation);
  if (opened.ok()) {
    registry.counter(kMetricStoreOpens)->Increment();
  } else {
    registry.counter(kMetricStoreOpenFailures)->Increment();
  }
  return opened;
}

Result<uint64_t> SnapshotStore::ManifestCurrent() const {
  std::string body;
  POL_RETURN_IF_ERROR(ReadFileToString(ManifestPath(), &body));
  std::string_view rest(body);
  if (rest.substr(0, kManifestMagic.size()) != kManifestMagic) {
    return Status::DataLoss("MANIFEST: bad magic");
  }
  rest.remove_prefix(kManifestMagic.size());
  const std::string_view key = "\ncurrent ";
  if (rest.substr(0, key.size()) != key) {
    return Status::DataLoss("MANIFEST: missing current line");
  }
  rest.remove_prefix(key.size());
  uint64_t generation = 0;
  size_t digits = 0;
  while (digits < rest.size() && rest[digits] >= '0' && rest[digits] <= '9') {
    generation = generation * 10 + static_cast<uint64_t>(rest[digits] - '0');
    ++digits;
  }
  if (digits == 0 || generation == 0) {
    return Status::DataLoss("MANIFEST: bad generation number");
  }
  return generation;
}

}  // namespace pol::store
