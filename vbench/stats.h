// Host-clock helpers for the two-clock benchmark: summary statistics over
// per-request samples, peak resident memory, and the in-memory span log the
// traced run records around every call it makes into a layer.

#ifndef VBENCH_STATS_H_
#define VBENCH_STATS_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/support/json.h"

namespace vbench {

// Host monotonic time in nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Nearest-rank percentile, q in (0, 1]. Failed requests enter `values` as
// +infinity, so they count as slower than every completed request.
std::optional<double> Percentile(std::vector<double> values, double q);
std::optional<double> Median(std::vector<double> values);
std::optional<double> Mean(const std::vector<double>& values);
// Mean of the middle half: the lowest and highest quarter (rounded down)
// are dropped first.
std::optional<double> InterquartileMean(std::vector<double> values);

// Peak resident set size of this process, in MiB.
double PeakRssMiB();

// One host-clock span around a call into a layer.
struct Span {
  std::string name;      // the call: "Plot", "Refresh", "TickCpu", ...
  std::string tag;       // figure id or call variant; "" if none
  int64_t start_ns = 0;  // host steady clock
  int64_t end_ns = 0;
  int64_t parent = -1;   // index of the enclosing span in the same log
  uint64_t request = 0;  // request id shared by a request's spans; 0 = none

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

// Spans stay in memory while the workload runs and are written out once at
// the end. A disabled log records nothing and costs one branch per call.
// Not thread-safe: each client thread records into its own log.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  // Opens a span and returns its index, or -1 when the log is disabled.
  int64_t Begin(std::string name, std::string tag, uint64_t request, int64_t parent = -1);
  void End(int64_t index);
  // Appends another log's spans, re-basing their parent indices.
  void Append(const SpanLog& other);

  const std::vector<Span>& spans() const { return spans_; }
  // The name of span `index`'s parent, or "" for a root span.
  const std::string& ParentName(const Span& span) const;
  vl::Json ToJson() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// RAII span: Begin at construction, End at destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::string tag, uint64_t request,
             int64_t parent = -1)
      : log_(log), index_(log->Begin(std::move(name), std::move(tag), request, parent)) {}
  ~ScopedSpan() { log_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t index() const { return index_; }

 private:
  SpanLog* log_;
  int64_t index_;
};

}  // namespace vbench

#endif  // VBENCH_STATS_H_
