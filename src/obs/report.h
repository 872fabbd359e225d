#ifndef POL_OBS_REPORT_H_
#define POL_OBS_REPORT_H_

#include <string>
#include <string_view>

#include "obs/json.h"

// File emission for telemetry: the periodic OpenMetrics export and the
// bench summaries land on disk through these. Writes are atomic (tmp
// file + rename) so a poller never sees a half-document, but not
// durable (no fsync): obs sits below store in the layering, so it
// cannot reach store::WriteFileDurable, and a telemetry tick torn by a
// power cut costs nothing — the next tick replaces it. Run reports and
// trace exports are run artifacts and go through the durable writer
// instead (core/run_report.h). Error reporting is bool + message rather
// than pol::Status because obs sits below common in the layering.

namespace pol::obs {

// Writes `text` to `path` atomically. Returns false and describes the
// failure in *error (when non-null) on any I/O problem.
bool WriteTextFileAtomic(const std::string& path, std::string_view text,
                         std::string* error);

// Pretty-prints `value` (2-space indent, trailing newline) to `path`
// atomically.
bool WriteJsonFile(const std::string& path, const Json& value,
                   std::string* error);

// Reads a whole file into *out. Returns false (with *error) when
// unreadable.
bool ReadTextFile(const std::string& path, std::string* out,
                  std::string* error);

}  // namespace pol::obs

#endif  // POL_OBS_REPORT_H_
