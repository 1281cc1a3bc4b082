#include "src/support/histogram.h"

namespace vl {

double Histogram::ApproxQuantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  if (q < 0.0) {
    q = 0.0;
  }
  if (q > 1.0) {
    q = 1.0;
  }
  // 0-based fractional rank of the requested quantile.
  double rank = q * static_cast<double>(count_ - 1);
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    uint64_t c = buckets_[i];
    if (c == 0) {
      continue;
    }
    if (rank < static_cast<double>(seen + c)) {
      double lo = i == 0 ? 0.0 : static_cast<double>(1ull << (i - 1));
      double hi = static_cast<double>(BucketUpperEdge(i));
      double pos = c > 1 ? (rank - static_cast<double>(seen)) / static_cast<double>(c - 1)
                         : 0.0;
      double v = lo + pos * (hi - lo);
      if (v < static_cast<double>(min_)) {
        v = static_cast<double>(min_);
      }
      if (v > static_cast<double>(max_)) {
        v = static_cast<double>(max_);
      }
      return v;
    }
    seen += c;
  }
  return static_cast<double>(max_);
}

Json Histogram::ToJson() const {
  Json h = Json::Object();
  h["count"] = Json::Int(static_cast<int64_t>(count()));
  h["sum"] = Json::Int(static_cast<int64_t>(sum()));
  h["min"] = Json::Int(static_cast<int64_t>(min()));
  h["max"] = Json::Int(static_cast<int64_t>(max()));
  h["p50"] = Json::Number(ApproxQuantile(0.50));
  h["p90"] = Json::Number(ApproxQuantile(0.90));
  h["p99"] = Json::Number(ApproxQuantile(0.99));
  Json buckets = Json::Array();
  for (int i = 0; i < kBuckets; ++i) {
    if (bucket(i) == 0) {
      continue;
    }
    Json pair = Json::Array();
    pair.Append(Json::Int(static_cast<int64_t>(BucketUpperEdge(i))));
    pair.Append(Json::Int(static_cast<int64_t>(bucket(i))));
    buckets.Append(std::move(pair));
  }
  h["buckets"] = std::move(buckets);
  return h;
}

}  // namespace vl
