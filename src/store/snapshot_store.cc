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

// One listing of a store directory: its generations, ascending, and
// the stray temp files that torn publishes left. A missing or
// unreadable directory lists as empty.
struct DirectoryListing {
  std::vector<uint64_t> generations;
  std::vector<std::filesystem::path> temps;
};

DirectoryListing ListDirectory(const std::string& directory) {
  DirectoryListing listing;
  std::error_code ec;
  std::filesystem::directory_iterator it(directory, ec);
  if (ec) return listing;
  for (const auto& entry : it) {
    const std::filesystem::path& path = entry.path();
    const uint64_t generation = ParseGeneration(path.filename().string());
    if (generation != 0) {
      listing.generations.push_back(generation);
    } else if (path.extension() == ".tmp") {
      listing.temps.push_back(path);
    }
  }
  std::sort(listing.generations.begin(), listing.generations.end());
  return listing;
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

std::vector<uint64_t> SnapshotStore::ListGenerations() const {
  return ListDirectory(options_.directory).generations;
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
  // The one listing: the next generation number, the GC victims and
  // the stray temps all come from it. WriteFileDurable creates (and
  // syncs) a missing store directory.
  const DirectoryListing listing = ListDirectory(options_.directory);
  const std::vector<uint64_t>& existing = listing.generations;
  const uint64_t generation = existing.empty() ? 1 : existing.back() + 1;
  Status written = WriteFileDurable(GenerationPath(generation), file_image);
  if (!written.ok()) {
    registry.counter(kMetricStorePublishFailures)->Increment();
    return written;
  }
  // The generation is durable and the publish has succeeded; GC is
  // best effort. Keep the newest `keep` generations (the new one
  // included) and sweep the temps of earlier torn publishes.
  const size_t total = existing.size() + 1;
  const size_t keep = static_cast<size_t>(options_.keep);
  const size_t stale = total > keep ? total - keep : 0;
  uint64_t removed = 0;
  std::error_code ec;
  for (size_t i = 0; i < stale; ++i) {
    if (std::filesystem::remove(GenerationPath(existing[i]), ec)) ++removed;
  }
  for (const std::filesystem::path& temp : listing.temps) {
    std::filesystem::remove(temp, ec);
  }
  if (removed > 0) registry.counter(kMetricStoreGcRemoved)->Increment(removed);
  registry.counter(kMetricStorePublishes)->Increment();
  registry.counter(kMetricStorePublishBytes)
      ->Increment(static_cast<uint64_t>(file_image.size()));
  registry.histogram(kMetricStorePublishSeconds)
      ->Record(obs::NowSeconds() - started);
  registry.gauge(kMetricStoreGenerations)
      ->Set(static_cast<int64_t>(total - removed));
  registry.gauge(kMetricStoreLatestGeneration)
      ->Set(static_cast<int64_t>(generation));
  return generation;
}

Result<SnapshotStore::Opened> OpenSnapshotFile(const std::string& path) {
  POL_RETURN_IF_ERROR(POL_FAILPOINT(kFailPointStoreOpen));
  SnapshotStore::Opened opened;
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
    Result<Opened> opened = OpenSnapshotFile(GenerationPath(generation));
    if (opened.ok()) {
      opened->generation = generation;
      if (accept) {
        Status accepted = accept(&*opened);
        if (!accepted.ok()) opened = std::move(accepted);
      }
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

}  // namespace pol::store
