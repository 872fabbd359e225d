#include "tools/pollint/pollint.h"

#include <algorithm>
#include <cctype>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace pol::tools::pollint {
namespace {

// ---------------------------------------------------------------------------
// Lexing: split each physical line into its code part and its comment
// part, with string/char literal contents blanked out of the code part.
// This is the substrate every rule scans, so rules never fire on text
// inside comments or literals.

struct SplitLine {
  std::string code;     // Comments and literal contents removed.
  std::string comment;  // Text of // and /* */ comments on this line.
  // Contents of the string literals on this line, each prefixed by a
  // '\x01' start marker (char literals are skipped). Rules that care
  // what a literal *says* — serving-metric-name — scan this, since the
  // code part deliberately blanks literal contents.
  std::string literals;
};

std::vector<SplitLine> SplitLines(std::string_view content) {
  enum class State {
    kCode,
    kString,
    kChar,
    kLineComment,
    kBlockComment,
    kRawString,
  };
  std::vector<SplitLine> lines;
  SplitLine current;
  State state = State::kCode;
  std::string raw_delimiter;  // For R"delim( ... )delim".
  const size_t n = content.size();
  for (size_t i = 0; i < n; ++i) {
    const char c = content[i];
    if (c == '\n') {
      if (state == State::kLineComment) state = State::kCode;
      lines.push_back(std::move(current));
      current = SplitLine();
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && i + 1 < n && content[i + 1] == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && i + 1 < n && content[i + 1] == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == 'R' && i + 1 < n && content[i + 1] == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   content[i - 1])) &&
                               content[i - 1] != '_'))) {
          // Raw string: remember the delimiter up to '('.
          raw_delimiter.clear();
          size_t j = i + 2;
          while (j < n && content[j] != '(') raw_delimiter += content[j++];
          current.code += "\"\"";
          current.literals += '\x01';
          i = j;  // Position at '('.
          state = State::kRawString;
        } else if (c == '"') {
          current.code += '"';
          current.literals += '\x01';
          state = State::kString;
        } else if (c == '\'') {
          current.code += '\'';
          state = State::kChar;
        } else {
          current.code += c;
        }
        break;
      case State::kString:
        if (c == '\\' && i + 1 < n) {
          current.literals += content[i + 1];
          ++i;
        } else if (c == '"') {
          current.code += '"';
          state = State::kCode;
        } else {
          current.literals += c;
        }
        break;
      case State::kChar:
        if (c == '\\' && i + 1 < n) {
          ++i;
        } else if (c == '\'') {
          current.code += '\'';
          state = State::kCode;
        }
        break;
      case State::kLineComment:
        current.comment += c;
        break;
      case State::kBlockComment:
        if (c == '*' && i + 1 < n && content[i + 1] == '/') {
          state = State::kCode;
          ++i;
        } else {
          current.comment += c;
        }
        break;
      case State::kRawString: {
        const std::string close = ")" + raw_delimiter + "\"";
        if (content.compare(i, close.size(), close) == 0) {
          i += close.size() - 1;
          state = State::kCode;
        } else {
          current.literals += c;
        }
        break;
      }
    }
  }
  lines.push_back(std::move(current));
  return lines;
}

// ---------------------------------------------------------------------------
// Path classification.

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

// Library code gets the strictest rule set.
bool IsLibraryPath(std::string_view path) { return StartsWith(path, "src/"); }

bool IsHeaderPath(std::string_view path) { return EndsWith(path, ".h"); }

// POL_<PATH>_H_ with the leading "src/" dropped for library headers
// (src/flow/dataset.h -> POL_FLOW_DATASET_H_; bench/bench_util.h ->
// POL_BENCH_BENCH_UTIL_H_).
std::string ExpectedIncludeGuard(std::string_view path) {
  std::string_view rel = path;
  if (IsLibraryPath(rel)) rel.remove_prefix(4);
  std::string guard = "POL_";
  for (const char c : rel) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      guard += static_cast<char>(
          std::toupper(static_cast<unsigned char>(c)));
    } else {
      guard += '_';
    }
  }
  guard += '_';
  return guard;
}

// ---------------------------------------------------------------------------
// Suppressions: NOLINT(pollint:<rule>) or NOLINT(pollint) in the
// finding line's comment, or the NOLINTNEXTLINE equivalents on the
// line above.

bool CommentSuppresses(const std::string& comment, std::string_view marker,
                       std::string_view rule) {
  size_t pos = comment.find(std::string(marker) + "(");
  while (pos != std::string::npos) {
    const size_t open = pos + marker.size() + 1;
    const size_t close = comment.find(')', open);
    if (close == std::string::npos) break;
    std::stringstream list(comment.substr(open, close - open));
    std::string entry;
    while (std::getline(list, entry, ',')) {
      const size_t begin = entry.find_first_not_of(" \t");
      const size_t end = entry.find_last_not_of(" \t");
      if (begin == std::string::npos) continue;
      const std::string trimmed = entry.substr(begin, end - begin + 1);
      if (trimmed == "pollint" ||
          trimmed == "pollint:" + std::string(rule)) {
        return true;
      }
    }
    pos = comment.find(std::string(marker) + "(", close);
  }
  return false;
}

// ---------------------------------------------------------------------------
// Per-file rule context.

class Linter {
 public:
  Linter(std::string_view path, std::string_view content,
         const LintOptions& options)
      : path_(path), options_(options), lines_(SplitLines(content)) {}

  std::vector<Finding> Run() {
    if (IsHeaderPath(path_)) CheckIncludeGuard();
    if (IsLibraryPath(path_)) {
      CheckBannedCalls();
      CheckStdoutIo();
      CheckNakedNewDelete();
      CheckMutexAnnotations();
      CheckMissingIncludes();
      CheckCatchSwallow();
      // src/obs is the one layer allowed to touch the raw clock; it is
      // what everything else times through.
      if (!StartsWith(path_, "src/obs/")) CheckDirectTiming();
      // The serving path may block only through the annotated,
      // deadline-bounded vocabulary.
      if (StartsWith(path_, "src/core/serving")) {
        CheckServingWait();
        // ... and may spell "serving."-prefixed metric/span/fail-point
        // names only through the central constants table (which is, of
        // course, exempt from its own rule).
        if (path_ != "src/core/serving_metric_names.h") {
          CheckServingMetricNames();
        }
      }
    }
    CheckFloatCompares();
    // The serving-side boundary applies to every linted tree (bench,
    // examples, tools included); only src/core may touch the map.
    if (!StartsWith(path_, "src/core/")) CheckInventoryQuery();
    std::sort(findings_.begin(), findings_.end(),
              [](const Finding& a, const Finding& b) {
                return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
              });
    return std::move(findings_);
  }

 private:
  void Report(size_t index, std::string_view rule, std::string message) {
    if (CommentSuppresses(lines_[index].comment, "NOLINT", rule)) return;
    if (index > 0 && CommentSuppresses(lines_[index - 1].comment,
                                       "NOLINTNEXTLINE", rule)) {
      return;
    }
    findings_.push_back(Finding{std::string(path_),
                                static_cast<int>(index + 1),
                                std::string(rule), std::move(message)});
  }

  static std::string Trim(const std::string& text) {
    const size_t begin = text.find_first_not_of(" \t");
    if (begin == std::string::npos) return "";
    const size_t end = text.find_last_not_of(" \t");
    return text.substr(begin, end - begin + 1);
  }

  // --- include-guard ------------------------------------------------------
  void CheckIncludeGuard() {
    static const std::regex kIfndef(R"(^\s*#\s*ifndef\s+(\w+))");
    static const std::regex kDefine(R"(^\s*#\s*define\s+(\w+))");
    const std::string expected = ExpectedIncludeGuard(path_);
    for (size_t i = 0; i < lines_.size(); ++i) {
      std::smatch match;
      if (!std::regex_search(lines_[i].code, match, kIfndef)) continue;
      if (match[1] != expected) {
        Report(i, "include-guard",
               "include guard '" + match[1].str() + "' should be '" +
                   expected + "'");
        return;
      }
      // The guard name is right; the next code line must define it.
      for (size_t j = i + 1; j < lines_.size(); ++j) {
        if (Trim(lines_[j].code).empty()) continue;
        std::smatch define;
        if (!std::regex_search(lines_[j].code, define, kDefine) ||
            define[1] != expected) {
          Report(j, "include-guard",
                 "#ifndef " + expected +
                     " must be followed by #define " + expected);
        }
        return;
      }
      return;
    }
    Report(0, "include-guard",
           "header has no include guard (expected #ifndef " + expected + ")");
  }

  // --- banned-call --------------------------------------------------------
  void CheckBannedCalls() {
    static const std::regex kBanned(
        R"((^|[^\w.:>])(::|std::)?(rand|srand|strtok|gmtime|localtime)\s*\()");
    for (size_t i = 0; i < lines_.size(); ++i) {
      std::smatch match;
      if (std::regex_search(lines_[i].code, match, kBanned)) {
        // std::string first operand: char* + string&& front-inserts,
        // which GCC 12 -O3 flags with a bogus -Wrestrict.
        Report(i, "banned-call",
               std::string("'") + match[3].str() +
                   "' is banned in library code (non-reentrant or "
                   "non-deterministic); use common/rng or common/time_util");
      }
    }
    // Library code never writes through buffered stream APIs: a torn
    // ofstream write is exactly the corruption class the store exists
    // to rule out. Every file src/ writes (generations, checkpoints,
    // run reports, traces, the OpenMetrics export) goes through the
    // temp + fsync + rename writer.
    if (StartsWith(path_, "src/")) {
      static const std::regex kRawWrite(
          R"((^|[^\w.:>])((std::)?(ofstream|fstream)\b|fopen\s*\())");
      static const std::regex kInclude(R"(^\s*#\s*include\b)");
      for (size_t i = 0; i < lines_.size(); ++i) {
        // `#include <fstream>` names the header, not a write.
        if (std::regex_search(lines_[i].code, kInclude)) continue;
        std::smatch match;
        if (std::regex_search(lines_[i].code, match, kRawWrite)) {
          Report(i, "banned-call",
                 "raw file output is banned in src/; every write goes "
                 "through store/atomic_file.h (WriteFileDurable: temp + "
                 "fsync + rename)");
        }
      }
    }
  }

  // --- stdout-io ----------------------------------------------------------
  void CheckStdoutIo() {
    static const std::regex kCout(R"((^|[^\w])std::cout\b)");
    static const std::regex kPrintf(R"((^|[^\w.:>])(std::)?printf\s*\()");
    for (size_t i = 0; i < lines_.size(); ++i) {
      std::smatch match;
      if (std::regex_search(lines_[i].code, match, kCout) ||
          std::regex_search(lines_[i].code, match, kPrintf)) {
        Report(i, "stdout-io",
               "library code must not write to stdout; report via "
               "pol::Status or common/logging (tools/examples/bench may)");
      }
    }
  }

  // --- naked-new ----------------------------------------------------------
  void CheckNakedNewDelete() {
    static const std::regex kNew(R"((^|[^\w])new\b)");
    static const std::regex kDelete(R"((^|[^\w])delete\b)");
    for (size_t i = 0; i < lines_.size(); ++i) {
      const std::string& code = lines_[i].code;
      std::smatch match;
      if (std::regex_search(code, match, kNew)) {
        Report(i, "naked-new",
               "naked 'new' in library code; use std::make_unique / "
               "std::make_shared or a container");
        continue;
      }
      auto begin = code.cbegin();
      while (std::regex_search(begin, code.cend(), match, kDelete)) {
        // `= delete;` (deleted special member) is not a deallocation.
        const auto keyword =
            begin + (match.position(0) + match.length(1));
        auto prev = keyword;
        while (prev != code.cbegin() &&
               std::isspace(static_cast<unsigned char>(*(prev - 1)))) {
          --prev;
        }
        if (prev == code.cbegin() || *(prev - 1) != '=') {
          Report(i, "naked-new",
                 "naked 'delete' in library code; prefer RAII ownership");
          break;
        }
        begin += match.position(0) + match.length(0);
      }
    }
  }

  // --- float-compare ------------------------------------------------------
  static bool IsFloatLiteral(const std::string& token) {
    static const std::regex kFloat(
        R"(^[+-]?(\d+\.\d*|\.\d+|\d+\.?\d*[eE][+-]?\d+)[fFlL]?$)");
    return std::regex_match(token, kFloat);
  }

  void CheckFloatCompares() {
    for (size_t i = 0; i < lines_.size(); ++i) {
      const std::string& code = lines_[i].code;
      for (size_t pos = 0; pos + 1 < code.size(); ++pos) {
        const bool eq = code[pos] == '=' && code[pos + 1] == '=';
        const bool ne = code[pos] == '!' && code[pos + 1] == '=';
        if (!eq && !ne) continue;
        // Skip <=, >=, ==(second char of ===? not C++), and compound
        // assignment lookalikes by requiring the previous char not be
        // one of <>=!+-*/%&|^.
        if (pos > 0 && std::string("<>=!+-*/%&|^").find(code[pos - 1]) !=
                           std::string::npos) {
          ++pos;
          continue;
        }
        // operator==/operator!= definitions are fine.
        const std::string before = code.substr(0, pos);
        const size_t op = before.find_last_not_of(" \t");
        if (op != std::string::npos && op + 1 >= 8 &&
            before.compare(op - 7, 8, "operator") == 0) {
          ++pos;
          continue;
        }
        const std::string prev = TokenBefore(code, pos);
        const std::string next = TokenAfter(code, pos + 2);
        if (IsFloatLiteral(prev) || IsFloatLiteral(next)) {
          Report(i, "float-compare",
                 "floating-point ==/!= comparison; use an epsilon or "
                 "suppress if the exact compare is intentional");
          break;
        }
        ++pos;
      }
    }
  }

  static bool IsTokenChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.';
  }

  // An exponent sign is part of the literal token (1e-9, 2.5E+3).
  static bool IsExponentSign(char sign, char before) {
    return (sign == '+' || sign == '-') && (before == 'e' || before == 'E');
  }

  static std::string TokenBefore(const std::string& code, size_t pos) {
    size_t end = pos;
    while (end > 0 &&
           std::isspace(static_cast<unsigned char>(code[end - 1]))) {
      --end;
    }
    size_t begin = end;
    while (begin > 0 &&
           (IsTokenChar(code[begin - 1]) ||
            (begin > 1 && IsExponentSign(code[begin - 1], code[begin - 2])))) {
      --begin;
    }
    return code.substr(begin, end - begin);
  }

  static std::string TokenAfter(const std::string& code, size_t pos) {
    size_t begin = pos;
    while (begin < code.size() &&
           std::isspace(static_cast<unsigned char>(code[begin]))) {
      ++begin;
    }
    size_t end = begin;
    if (end < code.size() && (code[end] == '+' || code[end] == '-')) ++end;
    while (end < code.size() &&
           (IsTokenChar(code[end]) ||
            (end > 0 && IsExponentSign(code[end], code[end - 1])))) {
      ++end;
    }
    return code.substr(begin, end - begin);
  }

  // --- mutex-annotation ---------------------------------------------------
  // Library code locks through the annotated vocabulary in
  // common/mutex.h so Clang's -Wthread-safety analysis (the `analyze`
  // preset) can see every acquisition. Two checks:
  //   (a) raw std::mutex family types are banned in src/ outside the
  //       wrapper itself — an unannotated mutex is invisible to the
  //       analysis;
  //   (b) a pol::Mutex *member* (trailing-underscore name, so function
  //       locals stay out of scope) must have at least one field in the
  //       same file annotated POL_GUARDED_BY / POL_PT_GUARDED_BY with
  //       its name — a capability that guards nothing is either dead or
  //       undocumented.
  void CheckMutexAnnotations() {
    if (path_ == "src/common/mutex.h") return;  // The wrapper itself.
    static const std::regex kStdMutex(
        R"((^|[^\w])std::(shared_|recursive_|timed_|shared_timed_)?mutex\b)");
    static const std::regex kMutexMember(
        R"(^\s*(mutable\s+)?(pol::)?Mutex\s+(\w+_)\s*;)");
    for (size_t i = 0; i < lines_.size(); ++i) {
      std::smatch match;
      if (std::regex_search(lines_[i].code, match, kStdMutex)) {
        Report(i, "mutex-annotation",
               "raw std::" + match[2].str() +
                   "mutex in library code; use pol::Mutex + POL_GUARDED_BY "
                   "(common/mutex.h) so -Wthread-safety can analyze it");
        continue;
      }
      if (!std::regex_search(lines_[i].code, match, kMutexMember)) continue;
      const std::string name = match[3].str();
      bool guarded = false;
      for (const SplitLine& line : lines_) {
        if (line.code.find("POL_GUARDED_BY(" + name + ")") !=
                std::string::npos ||
            line.code.find("POL_PT_GUARDED_BY(" + name + ")") !=
                std::string::npos) {
          guarded = true;
          break;
        }
      }
      if (!guarded) {
        Report(i, "mutex-annotation",
               "mutex member '" + name +
                   "' guards no field; annotate what it protects with "
                   "POL_GUARDED_BY(" + name + ")");
      }
    }
  }

  // --- catch-swallow ------------------------------------------------------
  // A catch handler in library code must do *something* with the fault:
  // rethrow, return, convert to pol::Status, log, or abort. An empty
  // (or purely cosmetic) handler silently swallows the failure — the
  // exact anti-pattern the failure-containment layer exists to prevent.
  void CheckCatchSwallow() {
    static const std::regex kCatch(R"((^|[^\w])catch\s*\()");
    static const std::regex kHandled(
        R"((^|[^\w])(throw|return|abort|exit|Status|status|POL_LOG|POL_CHECK)\b)");
    for (size_t i = 0; i < lines_.size(); ++i) {
      std::smatch match;
      if (!std::regex_search(lines_[i].code, match, kCatch)) continue;
      // Collect the handler body: from the '{' after the catch clause to
      // its matching '}' (the split-line code already has comments and
      // literal contents blanked, so braces in those cannot confuse the
      // depth count).
      size_t line = i;
      size_t pos = static_cast<size_t>(match.position(0) + match.length(0));
      int depth = 0;
      bool opened = false;
      bool closed = false;
      std::string body;
      while (line < lines_.size() && !closed) {
        const std::string& code = lines_[line].code;
        while (pos < code.size()) {
          const char c = code[pos++];
          if (c == '{') {
            if (opened) body += c;
            ++depth;
            opened = true;
          } else if (c == '}') {
            --depth;
            if (opened && depth == 0) {
              closed = true;
              break;
            }
            body += c;
          } else if (opened) {
            body += c;
          }
        }
        body += '\n';
        ++line;
        pos = 0;
      }
      if (opened && closed && !std::regex_search(body, kHandled)) {
        Report(i, "catch-swallow",
               "catch handler swallows the exception; rethrow, return, "
               "convert to pol::Status, or log it");
      }
    }
  }

  // --- direct-timing ------------------------------------------------------
  // Library code must measure time through obs/clock.h (obs::NowSeconds,
  // obs::ScopedTimer, POL_TRACE_SPAN) rather than reading the monotonic
  // clocks directly: that keeps one timing authority with one epoch, so
  // metric durations, trace spans and run-report seconds line up and the
  // trace/metrics layer sees every timed region. (system_clock is out of
  // scope — wall-calendar time is common/time_util's business.)
  void CheckDirectTiming() {
    static const std::regex kClockNow(
        R"((^|[^\w])(std::chrono::)?(steady_clock|high_resolution_clock)\s*::\s*now\s*\()");
    for (size_t i = 0; i < lines_.size(); ++i) {
      std::smatch match;
      if (std::regex_search(lines_[i].code, match, kClockNow)) {
        Report(i, "direct-timing",
               std::string("'") + match[3].str() +
                   "::now' in library code; time through obs/clock.h "
                   "(obs::NowSeconds / POL_TRACE_SPAN) instead");
      }
    }
  }

  // --- inventory-query ----------------------------------------------------
  // src/core owns the raw summary map; every other layer queries the
  // inventory through core::InventoryQuery (point lookups, CellsForRoute,
  // VisitGroupingSet). Direct `summaries()` iteration outside src/core
  // bypasses the serving-side indexes and pins callers to the build-side
  // container type.
  void CheckInventoryQuery() {
    static const std::regex kSummaries(R"((^|[^\w])summaries\s*\(\s*\))");
    for (size_t i = 0; i < lines_.size(); ++i) {
      std::smatch match;
      if (std::regex_search(lines_[i].code, match, kSummaries)) {
        Report(i, "inventory-query",
               "direct summaries() access outside src/core; query through "
               "core::InventoryQuery (VisitGroupingSet / point lookups) "
               "instead");
      }
    }
  }

  // --- serving-wait -------------------------------------------------------
  // The serving path (src/core/serving*) blocks only through the
  // annotated pol::CondVar, whose WaitFor bounds every wait by a
  // deadline: a raw std::condition_variable escapes the Clang
  // thread-safety analysis, and sleep-polling (sleep_for / usleep /
  // nanosleep) turns deadline misses into fixed latency floors that no
  // Release() can cut short.
  void CheckServingWait() {
    static const std::regex kCondVar(R"(std::condition_variable(_any)?\b)");
    static const std::regex kSleep(
        R"((^|[^\w])(sleep_for|sleep_until|usleep|nanosleep)\s*\()");
    for (size_t i = 0; i < lines_.size(); ++i) {
      std::smatch match;
      if (std::regex_search(lines_[i].code, match, kCondVar)) {
        Report(i, "serving-wait",
               "raw std::condition_variable in the serving path; wait on "
               "the annotated pol::CondVar so every block is "
               "deadline-bounded (WaitFor) and analyzable");
      } else if (std::regex_search(lines_[i].code, match, kSleep)) {
        Report(i, "serving-wait",
               std::string("'") + match[2].str() +
                   "' sleep-based waiting in the serving path; use "
                   "pol::CondVar::WaitFor with a deadline so a Release() "
                   "can wake the waiter early");
      }
    }
  }

  // --- serving-metric-name ------------------------------------------------
  // Every "serving."-prefixed name in src/core/serving* — metric, trace
  // span, fail point — must come from core/serving_metric_names.h, so
  // dashboards, `polinv watch` and the run-report scanners never chase
  // a typo'd ad-hoc literal. Scans the captured literal contents: the
  // `code` part blanks them, so this is the one rule reading
  // SplitLine::literals. Only the literal's *start* is tested — a
  // message like "serving last good snapshot" (no dot) or an embedded
  // mention does not trip it.
  void CheckServingMetricNames() {
    constexpr std::string_view kPrefix = "serving.";
    for (size_t i = 0; i < lines_.size(); ++i) {
      const std::string& literals = lines_[i].literals;
      size_t pos = 0;
      while ((pos = literals.find('\x01', pos)) != std::string::npos) {
        ++pos;
        if (literals.compare(pos, kPrefix.size(), kPrefix) == 0) {
          Report(i, "serving-metric-name",
                 "ad-hoc \"serving.*\" name literal in the serving path; "
                 "use the constants in core/serving_metric_names.h");
          break;  // One finding per line.
        }
      }
    }
  }

  // --- missing-include ----------------------------------------------------
  void CheckMissingIncludes() {
    struct Entry {
      const char* header;
      std::regex use;
    };
    static const std::vector<Entry>* const kEntries = new std::vector<Entry>{
        {"vector", std::regex(R"(std::vector\b)")},
        {"string", std::regex(R"(std::(string\b|to_string\b))")},
        {"string_view", std::regex(R"(std::string_view\b)")},
        {"unordered_map", std::regex(R"(std::unordered_map\b)")},
        {"unordered_set", std::regex(R"(std::unordered_set\b)")},
        {"deque", std::regex(R"(std::deque\b)")},
        {"optional", std::regex(R"(std::(optional\b|nullopt\b))")},
        {"functional", std::regex(R"(std::function\b)")},
        {"thread", std::regex(R"(std::(thread\b|this_thread\b))")},
        {"atomic", std::regex(R"(std::atomic\b)")},
        {"mutex",
         std::regex(
             R"(std::(mutex\b|lock_guard\b|unique_lock\b|scoped_lock\b))")},
        {"condition_variable", std::regex(R"(std::condition_variable\b)")},
        {"memory",
         std::regex(
             R"(std::(shared_ptr\b|unique_ptr\b|weak_ptr\b|make_shared\b|make_unique\b))")},
        {"chrono", std::regex(R"(std::chrono\b)")},
    };
    static const std::regex kInclude(R"(^\s*#\s*include\s*<([^>]+)>)");
    std::set<std::string> included;
    for (const SplitLine& line : lines_) {
      std::smatch match;
      if (std::regex_search(line.code, match, kInclude)) {
        included.insert(match[1].str());
      }
    }
    for (const Entry& entry : *kEntries) {
      if (included.count(entry.header) != 0) continue;
      // Visible through a transitively included project header (poldeps
      // computes the closure in --project mode): not a missing include.
      if (options_.transitive_std_includes.count(entry.header) != 0) continue;
      for (size_t i = 0; i < lines_.size(); ++i) {
        if (!std::regex_search(lines_[i].code, entry.use)) continue;
        Report(i, "missing-include",
               std::string("uses std identifiers from <") + entry.header +
                   "> without including it directly");
        break;  // One finding per missing header.
      }
    }
  }

  std::string_view path_;
  const LintOptions& options_;
  std::vector<SplitLine> lines_;
  std::vector<Finding> findings_;
};

}  // namespace

const std::vector<std::string>& RuleIds() {
  static const std::vector<std::string>* const kIds =
      new std::vector<std::string>{
          "banned-call", "catch-swallow", "direct-timing",
          "float-compare", "include-guard", "inventory-query",
          "missing-include", "mutex-annotation", "naked-new",
          "serving-metric-name", "serving-wait", "stdout-io",
      };
  return *kIds;
}

std::vector<Finding> LintSource(std::string_view path,
                                std::string_view content) {
  return LintSource(path, content, LintOptions());
}

std::vector<Finding> LintSource(std::string_view path,
                                std::string_view content,
                                const LintOptions& options) {
  return Linter(path, content, options).Run();
}

std::string FormatFinding(const Finding& finding) {
  std::ostringstream out;
  out << finding.path << ":" << finding.line << ": pollint:" << finding.rule
      << ": " << finding.message;
  return out.str();
}

}  // namespace pol::tools::pollint
