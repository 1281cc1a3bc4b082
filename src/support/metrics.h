// Typed process-wide metrics: counters, gauges, and log2-bucketed histograms.
//
// Metrics complement the span tracer (trace.h) with cheap scalar aggregates
// that survive ring-buffer eviction: per-struct-type read counters, read-size
// and latency distributions, and graph-build totals. Everything is
// deterministic — values derive from virtual-clock charges and object counts,
// never from wall-clock time — so two identical runs report identical metrics.
//
// Updates are gated by the tracer's enabled flag at the instrumentation sites,
// not here; the registry itself is always usable. With tracing off nothing
// records into it except Server::PublishMetrics, which sets gauges on export;
// counts that must hold without tracing live on the objects that produce them.
// It is reset only whole, with the trace (`vctrl trace clear`): no per-object
// reset (Target::ResetStats, Server::ResetStats) touches it.

#ifndef SRC_SUPPORT_METRICS_H_
#define SRC_SUPPORT_METRICS_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/support/json.h"

namespace vl {

class Counter {
 public:
  void Add(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(int64_t v) { value_ = v; }
  int64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  int64_t value_ = 0;
};

// Power-of-two bucketed histogram. Bucket 0 holds the value 0; bucket i
// (1 <= i <= 64) holds values in [2^(i-1), 2^i).
class Histogram {
 public:
  static constexpr int kBuckets = 65;

  // The bucket index a value falls into.
  static int BucketOf(uint64_t value) {
    int bits = 0;
    while (value != 0) {
      ++bits;
      value >>= 1;
    }
    return bits;
  }
  // Inclusive upper edge of bucket i: 0, 1, 3, 7, 15, ...
  static uint64_t BucketUpperEdge(int bucket) {
    if (bucket <= 0) {
      return 0;
    }
    if (bucket >= 64) {
      return ~0ull;
    }
    return (1ull << bucket) - 1;
  }

  void Record(uint64_t value) {
    buckets_[BucketOf(value)]++;
    count_++;
    sum_ += value;
    if (count_ == 1 || value < min_) {
      min_ = value;
    }
    if (value > max_) {
      max_ = value;
    }
  }

  uint64_t bucket(int i) const { return buckets_[i]; }
  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return min_; }
  uint64_t max() const { return max_; }
  double mean() const { return count_ > 0 ? static_cast<double>(sum_) / count_ : 0.0; }

  // Approximate quantile (q in [0, 1]) by linear interpolation inside the
  // log2 bucket holding the q-th rank, clamped to the observed [min, max].
  // Exact when the bucket holds one distinct value; otherwise within the
  // bucket's span (a factor of 2).
  double ApproxQuantile(double q) const;

  // {"count", "sum", "min", "max", "p50", "p90", "p99",
  //  "buckets": [[upper_edge, count], ...]} — the shape MetricsRegistry uses
  // for registered histograms, also available to free-standing ones (vflight's
  // queue/service decomposition).
  Json ToJson() const;

  void Reset() {
    for (uint64_t& b : buckets_) {
      b = 0;
    }
    count_ = sum_ = min_ = max_ = 0;
  }

 private:
  uint64_t buckets_[kBuckets] = {};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

// Name -> metric maps with deterministic (sorted) iteration order.
class MetricsRegistry {
 public:
  static MetricsRegistry& Instance();

  Counter* GetCounter(const std::string& name) { return &counters_[name]; }
  Gauge* GetGauge(const std::string& name) { return &gauges_[name]; }
  Histogram* GetHistogram(const std::string& name) { return &histograms_[name]; }

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const { return histograms_; }

  // Zeroes every metric (names persist so pointers stay valid).
  void Reset();

  // {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
  // min, max, p50, p90, p99, buckets: [[upper_edge, count], ...]}}}
  Json ToJson() const;

  // Human-readable dump, one metric per line, sorted by name.
  std::string TextReport() const;

  // Prometheus text exposition (version 0.0.4): counters as `vl_<name>_total`,
  // gauges as `vl_<name>`, histograms as `vl_<name>_bucket{le="..."}` with
  // cumulative buckets plus `_sum`/`_count`. Names are sanitized to
  // [a-zA-Z0-9_:]; output is deterministic (sorted by name).
  std::string ToPrometheus() const;

 private:
  MetricsRegistry() = default;

  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace vl

#endif  // SRC_SUPPORT_METRICS_H_
