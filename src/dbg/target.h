// The debugger target: raw memory access with transport-latency accounting.
//
// Every read models one debugger transport round trip (a GDB remote-protocol
// `m` packet) plus per-byte transfer cost, charged to a virtual clock. Two
// calibrated presets mirror the paper's Table 4 platforms.
//
// Charges are attributed to the latency model that incurred them, so a run
// that swaps models mid-flight (bench_table4 measures both transports on one
// target) can still report time per transport. When tracing is enabled
// (support/trace.h) each read additionally reports its charge to the tracer
// as a `dbg.read` leaf span and feeds the tracer's read statistics
// (size/latency histograms, per-struct-type counts); the disabled fast path
// is one relaxed atomic flag load.

#ifndef SRC_DBG_TARGET_H_
#define SRC_DBG_TARGET_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/support/json.h"
#include "src/support/status.h"
#include "src/support/vclock.h"

namespace dbg {

// Result of one dirty-page query (MemoryDomain::DirtyPagesSince). Models
// QEMU's live-migration dirty log: the domain reports which pages changed
// after the caller's epoch so caching layers can invalidate block-wise
// instead of flushing everything (docs/caching.md#incremental-invalidation).
struct DirtyPageInfo {
  bool supported = false;      // domain has no dirty log → treat all as dirty
  uint64_t page_size = 0;      // dirty granule in bytes
  uint64_t pages_total = 0;    // pages in the tracked region
  uint64_t pages_scanned = 0;  // pages the domain hashed to answer (host work)
  std::vector<uint64_t> dirty_pages;  // base addresses of dirty pages
};

// Abstracts "the machine being debugged" — implemented by the simulated
// kernel's arena.
class MemoryDomain {
 public:
  virtual ~MemoryDomain() = default;
  // Copies len bytes at addr into out; false if out of bounds.
  virtual bool ReadBytes(uint64_t addr, void* out, size_t len) const = 0;
  // Monotonic mutation epoch of the underlying memory. Caching layers
  // (dbg::ReadSession) drop stale data whenever this moves. The default (a
  // constant) means "never changes"; the simulated kernel's arena overrides
  // it with the kernel's generation counter.
  virtual uint64_t generation() const { return 0; }
  // Dirty-page log: pages whose content changed after `since_generation`.
  // The default is unsupported — callers must assume every page is dirty.
  virtual DirtyPageInfo DirtyPagesSince(uint64_t since_generation) const {
    (void)since_generation;
    return {};
  }
  // The address ranges [first, second) this domain can read, sorted and
  // disjoint (GDB learns them with qXfer:memory-map:read at attach). Empty
  // means unknown. Block caches use them to fetch a block that straddles the
  // edge of readable memory clipped to its readable part.
  virtual std::vector<std::pair<uint64_t, uint64_t>> ReadableRanges() const { return {}; }
};

// One span of a vectored read request (Target::ReadVector). The caller owns
// `out` (must hold `len` bytes); `ok` reports per-span success after the
// batch completes. `tag` attributes the span in the per-type read counters
// (nullptr: the target's current read tag).
struct ReadSpan {
  uint64_t addr = 0;
  size_t len = 0;
  void* out = nullptr;
  bool ok = false;
  const char* tag = nullptr;
};

// Per-access cost model for a debugger transport.
struct LatencyModel {
  std::string name;
  uint64_t per_access_ns = 0;  // round-trip cost of one memory request
  uint64_t per_byte_ns = 0;    // payload transfer cost
  // One dirty-log round trip (QEMU: a KVM_GET_DIRTY_LOG-style sync+fetch
  // behind a monitor command). The dirty bitmap payload is charged on top at
  // per_byte_ns, one bit per tracked page.
  uint64_t dirty_query_ns = 0;

  // Localhost GDB-remote into QEMU (TCG): ~100 us per request round trip
  // (packet handling + TCG pause), calibrated so the KGDB/QEMU per-object
  // gap matches the paper's ~50x.
  static LatencyModel GdbQemu() { return {"GDB (QEMU)", 100'000, 15, 100'000}; }
  // Serial KGDB on a Raspberry Pi 400: ~5 ms per request (the paper reports a
  // single uint64 fetch costing ~5 ms), slow per-byte transfer. KGDB has no
  // dirty log; the cost stands in for one extra serial round trip when a
  // harness layers page tracking on top.
  static LatencyModel KgdbRpi400() { return {"KGDB (rpi-400)", 5'000'000, 2'000, 5'000'000}; }
  // No accounting (unit tests).
  static LatencyModel Free() { return {"free", 0, 0, 0}; }
};

// Accumulated charges for one latency model (transport).
struct TransportStats {
  uint64_t charged_ns = 0;
  uint64_t reads = 0;
  uint64_t bytes = 0;

  // {"charged_ns", "reads", "bytes"} — see docs/observability.md#stats-schema.
  vl::Json ToJson() const;
};

class Target {
 public:
  Target(const MemoryDomain* memory, LatencyModel model);

  Target(const Target&) = delete;
  Target& operator=(const Target&) = delete;

  // --- raw reads (each charges one transport round trip) ---
  vl::Status ReadBytes(uint64_t addr, void* out, size_t len);
  vl::StatusOr<uint64_t> ReadUnsigned(uint64_t addr, size_t size);
  vl::StatusOr<int64_t> ReadSigned(uint64_t addr, size_t size);
  // Reads a NUL-terminated string of at most max_len bytes.
  vl::StatusOr<std::string> ReadCString(uint64_t addr, size_t max_len = 256);

  // --- vectored read (one batched transport round trip) ---
  // Services every span against the memory domain in ONE transport request,
  // with GDB-remote-style batching semantics: the model's per_access_ns base
  // latency is charged once for the whole batch, plus per_byte_ns for every
  // successfully transferred byte. Per-span failures are tolerated (the
  // span's `ok` stays false and its bytes are skipped) — a batch that mixes
  // readable and unreadable memory still delivers the readable spans.
  // Returns the number of spans read successfully. An empty batch charges
  // nothing. Batch counts live with the issuer (CacheStats::vector_batches,
  // WalkStats::batches), not in a process-wide counter.
  size_t ReadVector(std::vector<ReadSpan>& spans);

  // --- dirty-page log (incremental refresh) ---
  // Queries the memory domain for pages changed after `since_generation`.
  // Supported domains charge one dirty-log round trip
  // (model().dirty_query_ns) plus the bitmap payload (one bit per tracked
  // page at per_byte_ns) to the virtual clock; when tracing, the charge is
  // recorded into whatever span is open, so explain trees keep reconciling
  // exactly.
  // Unsupported domains return {supported: false} and charge nothing.
  DirtyPageInfo DirtyPagesSince(uint64_t since_generation);

  // Accumulated dirty-log accounting for this target.
  struct DirtyStats {
    uint64_t queries = 0;
    uint64_t pages_scanned = 0;  // host-side pages hashed by the domain
    uint64_t pages_dirty = 0;    // dirty pages reported across all queries
    uint64_t charged_ns = 0;     // transport ns charged for the queries

    // {"queries", "pages_scanned", "pages_dirty", "charged_ns"}
    vl::Json ToJson() const;
  };
  // Snapshot (by value): safe to call while another thread is mid-refresh.
  DirtyStats dirty_stats() const;

  // --- accounting ---
  const vl::VirtualClock& clock() const { return clock_; }
  uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }
  uint64_t bytes_read() const { return bytes_read_.load(std::memory_order_relaxed); }
  // Resets this target's clock, totals, dirty-log stats and per-model
  // attribution, and nothing another owner holds: the tracer's read
  // statistics are tracing data, cleared with the trace (`vctrl trace
  // clear`). Safe to call while readers snapshot stats concurrently (they see
  // either pre- or post-reset values, never a torn map).
  void ResetStats();

  // Charges attributed per latency-model name, snapshotted by value so a
  // concurrent ResetStats()/set_model() can't invalidate the result under the
  // caller. Charges since the last model swap are folded in lazily.
  std::map<std::string, TransportStats> per_model_stats() const;

  // {"charged_ns", "reads", "bytes", "model", "per_model": {name: {...}}}
  vl::Json StatsToJson() const;

  const LatencyModel& model() const { return model_; }
  // The memory domain's mutation epoch (see MemoryDomain::generation).
  uint64_t memory_generation() const { return memory_->generation(); }
  // The memory domain's readable ranges (see MemoryDomain::ReadableRanges).
  std::vector<std::pair<uint64_t, uint64_t>> readable_ranges() const {
    return memory_->ReadableRanges();
  }
  // Swapping the latency model closes out the outgoing model's charge window
  // (totals stay on the shared clock, per-model attribution stays correct).
  void set_model(LatencyModel model);

  // --- read attribution tag (per-struct-type counters when tracing) ---
  // The interpreter tags reads with the kernel type being instantiated; the
  // tag keys the tracer's per-type read counts on the tracing slow path.
  class TagScope {
   public:
    TagScope(Target* target, const char* tag) : target_(target), prev_(target->read_tag_) {
      target_->read_tag_ = tag;
    }
    ~TagScope() { target_->read_tag_ = prev_; }
    TagScope(const TagScope&) = delete;
    TagScope& operator=(const TagScope&) = delete;

   private:
    Target* target_;
    const char* prev_;
  };
  const char* read_tag() const { return read_tag_; }

 private:
  // Single-writer counters: reads are serialized by the target's owner (the
  // shard extraction mutex in vserve), so relaxed load+store compiles to a
  // plain add — no locked RMW — while concurrent stat snapshots stay
  // race-free (ThreadSanitizer-clean).
  void Charge(size_t len) {
    uint64_t cost = model_.per_access_ns + model_.per_byte_ns * len;
    clock_.AdvanceNanos(cost);
    reads_.store(reads_.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    bytes_read_.store(bytes_read_.load(std::memory_order_relaxed) + len,
                      std::memory_order_relaxed);
    if (trace_flag_->load(std::memory_order_relaxed)) {
      RecordRead(len, cost);  // tracing slow path, out of line
    }
  }
  void RecordRead(size_t len, uint64_t cost);
  void RecordVector(const std::vector<ReadSpan>& spans, size_t ok_count, size_t ok_bytes,
                    uint64_t cost);
  void RecordDirtyQuery(const DirtyPageInfo& info, uint64_t cost);
  // Attributes charges since the last swap/flush to the current model.
  // Caller must hold stats_mu_.
  void FlushModelStatsLocked() const;

  const MemoryDomain* memory_;
  LatencyModel model_;
  vl::VirtualClock clock_;
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> bytes_read_{0};
  DirtyStats dirty_stats_;  // guarded by stats_mu_ (cold path only)
  const std::atomic<bool>* trace_flag_;  // Tracer's enabled flag (cached)
  const char* read_tag_ = nullptr;

  // Guards dirty_stats_, by_model_, and the model bases so stat snapshots and
  // ResetStats() can interleave with an in-flight refresh.
  mutable std::mutex stats_mu_;

  // Per-model attribution: totals snapshotted at the last model swap; the
  // delta since then belongs to the current model. Zero cost on the read path.
  mutable std::map<std::string, TransportStats> by_model_;
  mutable uint64_t model_nanos_base_ = 0;
  mutable uint64_t model_reads_base_ = 0;
  mutable uint64_t model_bytes_base_ = 0;
};

}  // namespace dbg

#endif  // SRC_DBG_TARGET_H_
