#ifndef POL_PERFBENCH_HARNESS_H_
#define POL_PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

// The benchmark's own arithmetic, kept apart from polbench.cc so that
// harness_test.cc can check it without running a workload:
//
//  - timing summaries: median, and the highest percentile that still
//    has at least ten samples beyond it (the reporting rule);
//  - the open-loop generator: requests are due on a fixed schedule and
//    each latency is measured from its due time, so a stall is charged
//    to every request it delays, not only to the one it hit;
//  - span self-time: a layer's self time is its duration minus the part
//    covered by its child spans; the root's self time is what no layer
//    accounts for.
namespace pol::perfbench {

// Samples a percentile must leave beyond it before it may be reported.
inline constexpr size_t kMinSamplesBeyond = 10;

// Samples strictly above the nearest-rank q-quantile of n samples.
size_t SamplesBeyond(size_t n, double q);

// Nearest-rank q-quantile (q in [0, 1]) of `sorted`, which must be
// ascending and non-empty.
double QuantileSorted(const std::vector<double>& sorted, double q);

double Median(std::vector<double> values);

struct TimingSummary {
  size_t n = 0;
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  // The highest of p99.9 / p99 / p90 / p50 that leaves at least
  // kMinSamplesBeyond samples beyond it (p50 when none does), with its
  // value and the samples beyond it.
  double tail_q = 0.5;
  double tail = 0.0;
  size_t tail_beyond = 0;
};

TimingSummary Summarize(std::vector<double> samples);

// True when the q-quantile of n samples may be reported under the
// rule above.
bool PercentileReportable(size_t n, double q);

// A latency sample tagged with the time its request was due.
struct TimedSample {
  double due = 0.0;
  double value = 0.0;
};

// Cuts `samples` into consecutive windows of `window_seconds` by due
// time, takes the q-quantile of every window in which it is reportable,
// and returns the median of those (0 when none is). `*windows` receives
// how many windows counted. A stall of the host inflates the windows it
// falls in, not the median window; a cost the program pays throughout
// the run shows in every window.
double MedianWindowQuantile(std::vector<TimedSample> samples,
                            double window_seconds, double q, size_t* windows);

// Open-loop load generation against an injected clock.
//
// Request i is due at start + i * interval. The generator waits until
// a request is due (never sends early), sends it, and records
//   latency_i = completion_i - due_i   (includes any backlog), and
//   late_i    = send_i - due_i         (how far the generator trailed).
// `Clock` is `double()` returning seconds; `Wait` is `void(double due)`
// and must not return before `clock() >= due`; `Op` is `void(size_t i)`;
// `Stop` is `bool()`, checked before each request, and ends the run
// early when it returns true.
struct OpenLoopResult {
  std::vector<double> due_seconds;
  std::vector<double> latency_seconds;
  std::vector<double> late_seconds;
};

template <typename Clock, typename Wait, typename Op, typename Stop>
OpenLoopResult RunOpenLoop(size_t count, double start, double interval,
                           Clock&& clock, Wait&& wait, Op&& op, Stop&& stop) {
  OpenLoopResult result;
  for (size_t i = 0; i < count && !stop(); ++i) {
    const double due = start + static_cast<double>(i) * interval;
    double now = clock();
    if (now < due) {
      wait(due);
      now = clock();
    }
    result.due_seconds.push_back(due);
    result.late_seconds.push_back(now - due);
    op(i);
    result.latency_seconds.push_back(clock() - due);
  }
  return result;
}

// A traced interval. `parent` indexes the enclosing span in the same
// vector, -1 for a root.
struct Span {
  std::string name;
  int parent = -1;
  double start = 0.0;
  double end = 0.0;
};

// Records spans around calls made from the benchmark's own code.
class SpanRecorder {
 public:
  explicit SpanRecorder(double (*clock)()) : clock_(clock) {}
  int Begin(std::string name, int parent);
  void End(int id);
  const std::vector<Span>& spans() const { return spans_; }
  void Clear() { spans_.clear(); }

 private:
  double (*clock_)();
  std::vector<Span> spans_;
};

// Duration of span `id` minus the union of its direct children's
// intervals (clipped to the span).
double SelfSeconds(const std::vector<Span>& spans, int id);

// Summed self time of every span named `name`.
double SelfSecondsByName(const std::vector<Span>& spans,
                         const std::string& name);

// Share of root span `id`'s duration that no child span covers.
double UnattributedShare(const std::vector<Span>& spans, int id);

}  // namespace pol::perfbench

#endif  // POL_PERFBENCH_HARNESS_H_
