// A log2-bucketed histogram of deterministic values (virtual-clock charges,
// byte counts). Its owners keep it next to the counts it summarizes: the
// tracer's read statistics (trace.h) and vflight's per-session and per-shard
// queue/service decomposition (serve/flight.h).

#ifndef SRC_SUPPORT_HISTOGRAM_H_
#define SRC_SUPPORT_HISTOGRAM_H_

#include <cstdint>

#include "src/support/json.h"

namespace vl {

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
  //  "buckets": [[upper_edge, count], ...]}, empty buckets skipped. The
  // Prometheus export renders this shape as a cumulative `le` histogram.
  Json ToJson() const;

 private:
  uint64_t buckets_[kBuckets] = {};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

}  // namespace vl

#endif  // SRC_SUPPORT_HISTOGRAM_H_
