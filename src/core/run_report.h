#ifndef POL_CORE_RUN_REPORT_H_
#define POL_CORE_RUN_REPORT_H_

#include <string>

#include "common/status.h"
#include "core/pipeline.h"
#include "obs/json.h"

// The machine-readable run report: one JSON document per RunPipeline
// call, assembled from PipelineResult plus a snapshot of the metrics
// registry. Schema
// "pol.run_report/1" (see DESIGN.md §3.4):
//
//   {
//     "schema": "pol.run_report/1",
//     "status": {"ok", "code", "message"},
//     "wall_seconds": <run wall clock>,
//     "config": {...},           // The knobs that shaped the run.
//     "coverage": {...},         // Fold/quarantine/retry counts.
//     "aggregated_records": N,
//     "stages": [{name, chunks, records_in, records_out, dropped,
//                 peak_partition, wall_seconds, failures,
//                 failures_by_reason: {code: count}}, ...],
//     "quarantined": [{chunk_index, records, attempts, code, message}],
//     "checkpoint": {enabled, directory, interval_chunks, resumed,
//                    resume_cursor, written, failures},
//     "serving": {degraded, breaker_state,      // Guard health (all
//                 snapshot_age_refreshes},      // healthy defaults when
//                                               // no guard ran).
//     "metrics": {counters, gauges, histograms}  // Registry snapshot.
//   }
//
// `polinv report <file>` pretty-prints a report; tests parse it back
// with obs::Json::Parse and check it against the PipelineResult.

namespace pol::core {

// Builds the report document. Pure: reads only its arguments and the
// global metrics registry.
obs::Json BuildRunReport(const PipelineConfig& config,
                         const PipelineResult& result);

// Builds and writes the report to `path` (durable, pretty-printed).
Status WriteRunReport(const std::string& path, const PipelineConfig& config,
                      const PipelineResult& result);

}  // namespace pol::core

#endif  // POL_CORE_RUN_REPORT_H_
