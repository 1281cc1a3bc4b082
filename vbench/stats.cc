#include "vbench/stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <string>

namespace vbench {

std::optional<double> Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return std::nullopt;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

std::optional<double> Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

std::optional<double> Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return std::nullopt;
  }
  double sum = 0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

std::optional<double> InterquartileMean(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t quarter = values.size() / 4;
  return Mean(std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(quarter),
                                  values.end() - static_cast<std::ptrdiff_t>(quarter)));
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

int64_t SpanLog::Begin(std::string name, std::string tag, uint64_t request, int64_t parent) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = std::move(name);
  span.tag = std::move(tag);
  span.parent = parent;
  span.request = request;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanLog::End(int64_t index) {
  if (index >= 0) {
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
  }
}

void SpanLog::Append(const SpanLog& other) {
  const int64_t base = static_cast<int64_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) {
      span.parent += base;
    }
    spans_.push_back(std::move(span));
  }
}

const std::string& SpanLog::ParentName(const Span& span) const {
  static const std::string kNone;
  return span.parent >= 0 ? spans_[static_cast<size_t>(span.parent)].name : kNone;
}

vl::Json SpanLog::ToJson() const {
  vl::Json out = vl::Json::Array();
  for (const Span& span : spans_) {
    vl::Json j = vl::Json::Object();
    j["name"] = vl::Json::Str(span.name);
    j["tag"] = vl::Json::Str(span.tag);
    j["start_ns"] = vl::Json::Int(span.start_ns);
    j["end_ns"] = vl::Json::Int(span.end_ns);
    j["parent"] = vl::Json::Int(span.parent);
    j["request"] = vl::Json::Int(static_cast<int64_t>(span.request));
    out.Append(std::move(j));
  }
  return out;
}

}  // namespace vbench
