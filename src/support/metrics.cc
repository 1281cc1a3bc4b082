#include "src/support/metrics.h"

#include "src/support/str.h"

namespace vl {

MetricsRegistry& MetricsRegistry::Instance() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

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

void MetricsRegistry::Reset() {
  for (auto& [name, counter] : counters_) {
    counter.Reset();
  }
  for (auto& [name, gauge] : gauges_) {
    gauge.Reset();
  }
  for (auto& [name, histogram] : histograms_) {
    histogram.Reset();
  }
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

Json MetricsRegistry::ToJson() const {
  Json root = Json::Object();
  Json counters = Json::Object();
  for (const auto& [name, counter] : counters_) {
    counters[name] = Json::Int(static_cast<int64_t>(counter.value()));
  }
  root["counters"] = std::move(counters);
  Json gauges = Json::Object();
  for (const auto& [name, gauge] : gauges_) {
    gauges[name] = Json::Int(gauge.value());
  }
  root["gauges"] = std::move(gauges);
  Json histograms = Json::Object();
  for (const auto& [name, histogram] : histograms_) {
    histograms[name] = histogram.ToJson();
  }
  root["histograms"] = std::move(histograms);
  return root;
}

std::string MetricsRegistry::TextReport() const {
  std::string out;
  for (const auto& [name, counter] : counters_) {
    if (counter.value() == 0) {
      continue;
    }
    out += StrFormat("counter   %-36s %llu\n", name.c_str(),
                     static_cast<unsigned long long>(counter.value()));
  }
  for (const auto& [name, gauge] : gauges_) {
    if (gauge.value() == 0) {
      continue;
    }
    out += StrFormat("gauge     %-36s %lld\n", name.c_str(),
                     static_cast<long long>(gauge.value()));
  }
  for (const auto& [name, histogram] : histograms_) {
    if (histogram.count() == 0) {
      continue;
    }
    out += StrFormat(
        "histogram %-36s count=%llu mean=%.1f min=%llu max=%llu "
        "p50=%.1f p90=%.1f p99=%.1f\n",
        name.c_str(), static_cast<unsigned long long>(histogram.count()),
        histogram.mean(), static_cast<unsigned long long>(histogram.min()),
        static_cast<unsigned long long>(histogram.max()), histogram.ApproxQuantile(0.50),
        histogram.ApproxQuantile(0.90), histogram.ApproxQuantile(0.99));
  }
  return out;
}

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:]; everything else (our dots)
// becomes '_'. A leading digit gets an extra '_' (cannot happen with the
// "vl_" prefix, but keep the sanitizer total).
std::string PromName(const std::string& name) {
  std::string out = "vl_";
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::ToPrometheus() const {
  std::string out;
  for (const auto& [name, counter] : counters_) {
    std::string prom = PromName(name) + "_total";
    out += "# TYPE " + prom + " counter\n";
    out += StrFormat("%s %llu\n", prom.c_str(),
                     static_cast<unsigned long long>(counter.value()));
  }
  for (const auto& [name, gauge] : gauges_) {
    std::string prom = PromName(name);
    out += "# TYPE " + prom + " gauge\n";
    out += StrFormat("%s %lld\n", prom.c_str(), static_cast<long long>(gauge.value()));
  }
  for (const auto& [name, histogram] : histograms_) {
    std::string prom = PromName(name);
    out += "# TYPE " + prom + " histogram\n";
    // Cumulative `le` buckets over our inclusive log2 upper edges; empty
    // buckets are elided (a sparse but valid exposition) and `+Inf` always
    // closes the series at the total count.
    uint64_t cumulative = 0;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      if (histogram.bucket(i) == 0) {
        continue;
      }
      cumulative += histogram.bucket(i);
      out += StrFormat("%s_bucket{le=\"%llu\"} %llu\n", prom.c_str(),
                       static_cast<unsigned long long>(Histogram::BucketUpperEdge(i)),
                       static_cast<unsigned long long>(cumulative));
    }
    out += StrFormat("%s_bucket{le=\"+Inf\"} %llu\n", prom.c_str(),
                     static_cast<unsigned long long>(histogram.count()));
    out += StrFormat("%s_sum %llu\n", prom.c_str(),
                     static_cast<unsigned long long>(histogram.sum()));
    out += StrFormat("%s_count %llu\n", prom.c_str(),
                     static_cast<unsigned long long>(histogram.count()));
  }
  return out;
}

}  // namespace vl
