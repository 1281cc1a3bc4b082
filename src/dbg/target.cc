#include "src/dbg/target.h"

#include <cstring>

#include "src/support/str.h"
#include "src/support/trace.h"

namespace dbg {

Target::Target(const MemoryDomain* memory, LatencyModel model)
    : memory_(memory),
      model_(std::move(model)),
      trace_flag_(vl::Tracer::Instance().enabled_flag()) {}

void Target::set_model(LatencyModel model) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  FlushModelStatsLocked();
  model_ = std::move(model);
}

void Target::ResetStats() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  clock_.Reset();
  reads_.store(0, std::memory_order_relaxed);
  bytes_read_.store(0, std::memory_order_relaxed);
  dirty_stats_ = DirtyStats{};
  by_model_.clear();
  model_nanos_base_ = model_reads_base_ = model_bytes_base_ = 0;
}

size_t Target::ReadVector(std::vector<ReadSpan>& spans) {
  if (spans.empty()) {
    return 0;
  }
  size_t ok_count = 0;
  size_t ok_bytes = 0;
  for (ReadSpan& span : spans) {
    span.ok = span.len != 0 && span.out != nullptr &&
              memory_->ReadBytes(span.addr, span.out, span.len);
    if (span.ok) {
      ++ok_count;
      ok_bytes += span.len;
    }
  }
  // One batched round trip: base latency once for the whole request, payload
  // per successfully transferred byte. The batch counts as a single read so
  // the classic invariant clock == reads * per_access + bytes * per_byte
  // keeps holding exactly.
  uint64_t cost = model_.per_access_ns + model_.per_byte_ns * ok_bytes;
  clock_.AdvanceNanos(cost);
  reads_.store(reads_.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  bytes_read_.store(bytes_read_.load(std::memory_order_relaxed) + ok_bytes,
                    std::memory_order_relaxed);
  if (trace_flag_->load(std::memory_order_relaxed)) {
    RecordVector(spans, ok_count, ok_bytes, cost);  // tracing slow path, out of line
  }
  return ok_count;
}

void Target::RecordVector(const std::vector<ReadSpan>& spans, size_t ok_count,
                          size_t ok_bytes, uint64_t cost) {
  // The batch is one read in the size/latency histograms; its spans count
  // under the tag each was recorded with.
  vl::Tracer& tracer = vl::Tracer::Instance();
  tracer.RecordRead(ok_bytes, cost);
  for (const ReadSpan& span : spans) {
    if (span.ok) {
      const char* tag = span.tag != nullptr   ? span.tag
                        : read_tag_ != nullptr ? read_tag_
                                               : "untyped";
      tracer.CountTaggedRead(tag, span.len);
    }
  }
  tracer.CompleteEvent(
      "dbg.read_vector", cost,
      {{"spans", static_cast<int64_t>(ok_count)}, {"bytes", static_cast<int64_t>(ok_bytes)}});
}

DirtyPageInfo Target::DirtyPagesSince(uint64_t since_generation) {
  DirtyPageInfo info = memory_->DirtyPagesSince(since_generation);
  if (!info.supported) {
    return info;
  }
  // One dirty-log round trip plus the bitmap payload (one bit per page).
  uint64_t bitmap_bytes = (info.pages_total + 7) / 8;
  uint64_t cost = model_.dirty_query_ns + model_.per_byte_ns * bitmap_bytes;
  clock_.AdvanceNanos(cost);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    dirty_stats_.queries++;
    dirty_stats_.pages_scanned += info.pages_scanned;
    dirty_stats_.pages_dirty += info.dirty_pages.size();
    dirty_stats_.charged_ns += cost;
  }
  if (trace_flag_->load(std::memory_order_relaxed)) {
    RecordDirtyQuery(info, cost);  // tracing slow path, out of line
  }
  return info;
}

void Target::RecordDirtyQuery(const DirtyPageInfo& info, uint64_t cost) {
  vl::Tracer& tracer = vl::Tracer::Instance();
  // Attribute the query to whatever the pipeline was doing (the leaf below
  // charges the open span; this surfaces it as an argument in the explain
  // tree).
  tracer.Annotate("dirty.query_ns", static_cast<int64_t>(cost));
  tracer.Annotate("dirty.pages_dirty", static_cast<int64_t>(info.dirty_pages.size()));
  tracer.CompleteEvent("dbg.dirty_query", cost,
                       {{"pages_dirty", static_cast<int64_t>(info.dirty_pages.size())},
                        {"pages_scanned", static_cast<int64_t>(info.pages_scanned)}});
}

vl::Json Target::DirtyStats::ToJson() const {
  vl::Json j = vl::Json::Object();
  j["queries"] = vl::Json::Int(static_cast<int64_t>(queries));
  j["pages_scanned"] = vl::Json::Int(static_cast<int64_t>(pages_scanned));
  j["pages_dirty"] = vl::Json::Int(static_cast<int64_t>(pages_dirty));
  j["charged_ns"] = vl::Json::Int(static_cast<int64_t>(charged_ns));
  return j;
}

Target::DirtyStats Target::dirty_stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return dirty_stats_;
}

std::map<std::string, TransportStats> Target::per_model_stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  FlushModelStatsLocked();
  return by_model_;
}

void Target::FlushModelStatsLocked() const {
  TransportStats& stats = by_model_[model_.name];
  stats.charged_ns += clock_.nanos() - model_nanos_base_;
  stats.reads += reads() - model_reads_base_;
  stats.bytes += bytes_read() - model_bytes_base_;
  model_nanos_base_ = clock_.nanos();
  model_reads_base_ = reads();
  model_bytes_base_ = bytes_read();
}

void Target::RecordRead(size_t len, uint64_t cost) {
  vl::Tracer& tracer = vl::Tracer::Instance();
  tracer.RecordRead(len, cost);
  tracer.CountTaggedRead(read_tag_ != nullptr ? read_tag_ : "untyped", len);
  tracer.CompleteEvent("dbg.read", cost, {{"bytes", static_cast<int64_t>(len)}});
}

vl::Json TransportStats::ToJson() const {
  vl::Json j = vl::Json::Object();
  j["charged_ns"] = vl::Json::Int(static_cast<int64_t>(charged_ns));
  j["reads"] = vl::Json::Int(static_cast<int64_t>(reads));
  j["bytes"] = vl::Json::Int(static_cast<int64_t>(bytes));
  return j;
}

vl::Json Target::StatsToJson() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  FlushModelStatsLocked();
  vl::Json j = vl::Json::Object();
  j["charged_ns"] = vl::Json::Int(static_cast<int64_t>(clock_.nanos()));
  j["reads"] = vl::Json::Int(static_cast<int64_t>(reads()));
  j["bytes"] = vl::Json::Int(static_cast<int64_t>(bytes_read()));
  j["model"] = vl::Json::Str(model_.name);
  j["dirty"] = dirty_stats_.ToJson();
  vl::Json per_model = vl::Json::Object();
  for (const auto& [name, stats] : by_model_) {
    per_model[name] = stats.ToJson();
  }
  j["per_model"] = std::move(per_model);
  return j;
}

vl::Status Target::ReadBytes(uint64_t addr, void* out, size_t len) {
  if (!memory_->ReadBytes(addr, out, len)) {
    return vl::MemoryFaultError(
        vl::StrFormat("cannot read %zu bytes at 0x%llx", len,
                      static_cast<unsigned long long>(addr)));
  }
  Charge(len);
  return vl::Status::Ok();
}

vl::StatusOr<uint64_t> Target::ReadUnsigned(uint64_t addr, size_t size) {
  if (size == 0 || size > 8) {
    return vl::InvalidArgumentError(vl::StrFormat("bad scalar width %zu", size));
  }
  uint64_t value = 0;
  VL_RETURN_IF_ERROR(ReadBytes(addr, &value, size));  // little-endian host
  return value;
}

vl::StatusOr<int64_t> Target::ReadSigned(uint64_t addr, size_t size) {
  VL_ASSIGN_OR_RETURN(uint64_t raw, ReadUnsigned(addr, size));
  if (size < 8) {
    uint64_t sign_bit = 1ull << (size * 8 - 1);
    if ((raw & sign_bit) != 0) {
      raw |= ~((sign_bit << 1) - 1);
    }
  }
  return static_cast<int64_t>(raw);
}

vl::StatusOr<std::string> Target::ReadCString(uint64_t addr, size_t max_len) {
  std::string out;
  // Model a single string-fetch request (GDB reads strings in one or few
  // packets); we charge per chunk of 64 bytes.
  char chunk[64];
  while (out.size() < max_len) {
    size_t want = std::min(sizeof(chunk), max_len - out.size());
    if (!memory_->ReadBytes(addr + out.size(), chunk, want)) {
      // Retry byte-wise up to the boundary.
      size_t ok = 0;
      while (ok < want && memory_->ReadBytes(addr + out.size() + ok, chunk + ok, 1)) {
        ++ok;
      }
      if (ok == 0) {
        return vl::MemoryFaultError(vl::StrFormat(
            "cannot read string at 0x%llx", static_cast<unsigned long long>(addr)));
      }
      want = ok;
    }
    Charge(want);
    for (size_t i = 0; i < want; ++i) {
      if (chunk[i] == '\0') {
        return out;
      }
      out.push_back(chunk[i]);
    }
  }
  return out;
}

}  // namespace dbg
