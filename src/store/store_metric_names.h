#ifndef POL_STORE_STORE_METRIC_NAMES_H_
#define POL_STORE_STORE_METRIC_NAMES_H_

#include <string_view>

// The central name table of the persistence layer: every `store.*`
// metric, trace-span and fail-point name used by src/store/ lives here,
// mirroring core/serving_metric_names.h, so the run-report "store"
// block and `polinv snapshots` never chase a typo'd literal.

namespace pol::store {

// --- SnapshotStore publish path (snapshot_store.cc). ---
inline constexpr std::string_view kMetricStorePublishes = "store.publishes";
inline constexpr std::string_view kMetricStorePublishFailures =
    "store.publish_failures";
inline constexpr std::string_view kMetricStorePublishBytes =
    "store.publish_bytes";
inline constexpr std::string_view kMetricStorePublishSeconds =
    "store.publish_seconds";
inline constexpr std::string_view kMetricStoreGcRemoved = "store.gc_removed";

// --- SnapshotStore open path. ---
inline constexpr std::string_view kMetricStoreOpens = "store.opens";
inline constexpr std::string_view kMetricStoreOpenFailures =
    "store.open_failures";
// Generations skipped over (torn, truncated, CRC-failing or rejected by
// the payload's accept check) before OpenLatest found a good one. The
// store.* totals are layer-wide: checkpoint generations count here too.
// The chaos tests assert this increments.
inline constexpr std::string_view kMetricStoreFallbacks = "store.fallbacks";
inline constexpr std::string_view kMetricStoreOpenSeconds =
    "store.open_seconds";
// Summary blobs that failed lazy decode at query time on a mapped
// snapshot. Unreachable when section CRCs validated at open; counted
// anyway so a logic bug surfaces as telemetry, never a crash.
inline constexpr std::string_view kMetricStoreDecodeFailures =
    "store.decode_failures";

// --- Directory state gauges. ---
inline constexpr std::string_view kMetricStoreGenerations =
    "store.generations";
inline constexpr std::string_view kMetricStoreLatestGeneration =
    "store.latest_generation";

// --- Trace spans. ---
inline constexpr std::string_view kSpanStorePublish = "store.publish";
inline constexpr std::string_view kSpanStoreOpen = "store.open";

// --- Fail points (see common/failpoint.h; faults preset only). ---
// "store.write" fires before the temp-file write, "store.rename"
// between write and the atomic rename (the torn-publish window),
// "store.open" on each OpenSnapshotFile call (a fired open makes that
// generation unreadable, so fallback is exercised).
inline constexpr std::string_view kFailPointStoreWrite = "store.write";
inline constexpr std::string_view kFailPointStoreRename = "store.rename";
inline constexpr std::string_view kFailPointStoreOpen = "store.open";

}  // namespace pol::store

#endif  // POL_STORE_STORE_METRIC_NAMES_H_
