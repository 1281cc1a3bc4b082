// ReadSession: the debugger front-end's read API, with a transport-aware
// block cache.
//
// The paper's central cost model is that every target round trip is brutally
// expensive (a single uint64 over serial KGDB costs ~5 ms), yet the extract
// pipeline naturally reads one field at a time. A ReadSession amortizes those
// round trips: on a miss it fetches a whole aligned block (default 256 B), so
// neighboring struct fields ride one transport request, and repeated pane
// refreshes over unchanged memory cost nothing at all.
//
// Correctness contract (epoch invalidation): the MemoryDomain under the
// Target reports a monotonically increasing `generation()`; the simulated
// kernel bumps it on every mutation entry point (`TickCpu`, workload steps,
// `QueueMmPercpuWork`). A ReadSession revalidates the generation before every
// read and drops all cached blocks when it changed (with delta invalidation:
// re-reads the sectors readers used of each stale block still in use, leaves
// the block's other sectors stale, and drops the other stale blocks), so a
// pane refresh after a kernel step never renders stale memory. A read that
// needs a stale sector refills its block first. Code that mutates kernel
// memory out-of-band (tests poking subsystems directly) must either bump the
// kernel generation or call InvalidateAll(). See docs/caching.md.
//
// Blocks at the edge of readable memory (the session learns the target's
// readable ranges at attach) are fetched clipped to their readable bytes, so
// they cache like any other block.
//
// All extract-pipeline consumers (ViewCL interpreter, ViewQL raw-field WHERE
// fallback, the C-expression engine, decorators) read through a ReadSession;
// Target's raw API remains for tests and benches that need exact per-request
// accounting.

#ifndef SRC_DBG_READ_SESSION_H_
#define SRC_DBG_READ_SESSION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/dbg/target.h"
#include "src/dbg/type.h"
#include "src/support/json.h"
#include "src/support/status.h"

namespace dbg {

// NOTE: clients configure the cache through vserve::SessionOptions
// (src/serve/options.h), which lowers to this struct (ToCacheConfig) and
// validates it together with the serving knobs. Construct a CacheConfig
// directly only to wire a bare KernelDebugger without the serving layer.
struct CacheConfig {
  // Aligned fetch granularity in bytes (rounded up to a power of two).
  // 0 disables caching entirely: the session becomes a passthrough whose
  // charges are identical to raw Target reads.
  size_t block_bytes = 256;
  // LRU capacity in blocks (default 4096 blocks = 1 MiB at 256 B).
  size_t capacity_blocks = 4096;
  // Delta invalidation (docs/caching.md#incremental-invalidation): on an
  // epoch change, query the target's dirty-page log and refresh only the
  // blocks overlapping dirty pages (re-read the sectors read since each
  // one's fetch in one vectored round trip, evict the blocks nobody touched).
  // Falls back to a whole-cache flush when the domain has no dirty log or
  // more than half its pages are dirty (ReadSession::kMaxDirtyRatio).
  // Off by default, so the classic contract (full flush per epoch) stays
  // exact for existing sessions. NOTE: code that mutates target memory
  // out-of-band must bump the memory generation — a bare InvalidateAll() is
  // not enough once page-epoch consumers (viewcl memoization) are attached.
  bool delta_invalidation = false;

  static CacheConfig Disabled() { return CacheConfig{0, 0}; }
  // Block cache + dirty-log delta invalidation (incremental refresh).
  static CacheConfig Incremental() {
    CacheConfig config;
    config.delta_invalidation = true;
    return config;
  }

  // The form a ReadSession runs (and config() reports): block_bytes rounded
  // up to a power of two, and a block cache holds at least one block.
  // Compare configs in this form.
  CacheConfig Normalized() const;
  bool operator==(const CacheConfig&) const = default;
};

// Byte-level hit/miss accounting for one session. Field names follow the
// stats schema in docs/observability.md: `*_ns`, `reads`, `bytes`, `hits`,
// `misses`.
struct CacheStats {
  uint64_t hits = 0;            // block lookups served from cache
  // Block lookups that paid a round trip: a fetch or refill of their own, or
  // the first read of a block a FetchDeferred batch fetched or refilled.
  uint64_t misses = 0;
  uint64_t hit_bytes = 0;       // requested bytes served without a round trip
  uint64_t miss_bytes = 0;      // requested bytes of the misses
  uint64_t block_fetches = 0;   // transport round trips issued for blocks
  uint64_t fetched_bytes = 0;   // bytes pulled over the transport for blocks
  // Bytes of sectors a read returned for the first time since their block was
  // fetched: fetched_bytes / used_bytes is the overfetch.
  uint64_t used_bytes = 0;
  uint64_t evictions = 0;       // blocks dropped by LRU pressure
  uint64_t invalidations = 0;   // whole-cache epoch flushes
  uint64_t uncached_reads = 0;  // direct fallback reads (unreadable blocks)
  uint64_t prefetches = 0;      // PrefetchObject calls
  // Incremental-refresh accounting (docs/caching.md#incremental-invalidation).
  uint64_t delta_invalidations = 0;      // epoch changes absorbed block-wise
  uint64_t invalidated_bytes_full = 0;   // cached bytes dropped by full flushes
  uint64_t invalidated_bytes_delta = 0;  // cached bytes dropped by delta eviction
  uint64_t refreshed_blocks = 0;         // stale blocks whose used sectors were re-read
  uint64_t refreshed_bytes = 0;          // bytes those re-reads pulled
  uint64_t refills = 0;                  // cached blocks re-read for sectors a read lacked
  uint64_t refilled_bytes = 0;           // bytes those re-reads pulled
  // Vectored-fetch accounting (docs/caching.md#vectored-reads).
  uint64_t vector_batches = 0;  // Target::ReadVector batches issued
  uint64_t vector_blocks = 0;   // blocks filled by those batches

  double HitRate() const {
    uint64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }

  // {"hits", "misses", "hit_bytes", "miss_bytes", "block_fetches",
  //  "fetched_bytes", "used_bytes", "evictions", "invalidations",
  //  "uncached_reads", "prefetches", "delta_invalidations",
  //  "invalidated_bytes_full", "invalidated_bytes_delta", "refreshed_blocks",
  //  "refreshed_bytes", "refills", "refilled_bytes", "vector_batches",
  //  "vector_blocks"}
  vl::Json ToJson() const;
};

class ReadSession {
 public:
  explicit ReadSession(Target* target, CacheConfig config = CacheConfig{});

  ReadSession(const ReadSession&) = delete;
  ReadSession& operator=(const ReadSession&) = delete;

  // --- reads (mirror Target's API; blocks are fetched on miss) ---
  vl::Status ReadBytes(uint64_t addr, void* out, size_t len);
  vl::StatusOr<uint64_t> ReadUnsigned(uint64_t addr, size_t size);
  vl::StatusOr<int64_t> ReadSigned(uint64_t addr, size_t size);
  // Reads a NUL-terminated string of at most max_len bytes.
  vl::StatusOr<std::string> ReadCString(uint64_t addr, size_t max_len = 256);

  // Prefetch hint: pulls the whole object into the cache in
  // ceil(size/block) aligned requests before the interpreter walks its
  // members. Failures are ignored (partially readable objects still
  // benefit); a no-op when caching is disabled.
  void PrefetchObject(uint64_t addr, const Type* type);
  void Prefetch(uint64_t addr, size_t len);

  // What one FetchDeferred issued.
  struct SpanFetch {
    size_t batches = 0;         // vectored transport requests issued (0 or 1)
    size_t fetched_blocks = 0;  // blocks the batch pulled into the cache or refilled
  };

  // --- deferred-miss mode (docs/caching.md#the-extraction-walker) ---
  // While deferring, a read that misses the block cache, or needs sectors a
  // cached block lacks, pays no round trip: it records the blocks it needs,
  // bumps deferrals(), and fails with a status IsDeferred() recognizes.
  // Prefetches record their missing blocks without failing anything.
  // FetchDeferred() then fetches every recorded missing block and refills
  // every recorded cached one in ONE Target::ReadVector batch
  // (docs/caching.md#vectored-reads), so a whole level of independent reads
  // costs one base latency. A deferred read is not a failed read: a block the
  // batch cannot read is remembered as unreadable until the epoch moves, and
  // blocks known unreadable (or outside the readable ranges) are never
  // deferred — reads of them take the exact-range fallback. The first read a
  // block serves after a batch fetched or refilled it counts as the miss it
  // deferred (CacheStats::misses/miss_bytes), not as a hit.
  void set_deferring(bool on) { deferring_ = on && cache_enabled(); }
  uint64_t deferrals() const { return deferrals_; }
  size_t deferred_blocks() const { return deferred_.size(); }
  // True when a block of [addr, addr+len) is missing and would defer now: a
  // prefetch of the range joins the batch. (A cached block that lacks sectors
  // defers only the reads that need them.)
  bool WouldDefer(uint64_t addr, size_t len) const;
  SpanFetch FetchDeferred();
  static bool IsDeferred(const vl::Status& status);

  // What one level of a RunLevels loop reports.
  struct Level {
    bool stopped = false;   // some work stopped on a deferred read: run it again
    bool advanced = false;  // some work got further, batch or not
    bool abort = false;     // give up now
  };
  // What a RunLevels loop did.
  struct LevelStats {
    uint64_t levels = 0;
    uint64_t batches = 0;   // FetchDeferred batches issued
    uint64_t batch_ns = 0;  // their virtual-clock charge
  };
  // The level loop of deferred-miss mode, shared by the extraction walker
  // and the vcheck sweep: runs `level` with the session deferring, then
  // fetches what it recorded in one FetchDeferred batch (both inside a span
  // named `span`), and repeats while the level reports stopped work. Adds
  // what it did to *stats. Returns false when it gave up with work stopped:
  // the level aborted, a level with stopped work neither fetched a block nor
  // advanced (it stalled), or a batch evicted blocks (a stopped reader may
  // wait for one of them). Deferring is off again on return.
  bool RunLevels(const char* span, const std::function<Level()>& level, LevelStats* stats);

  // Drops every cached block (does not touch stats counters except nothing).
  void InvalidateAll();
  // Swaps the cache configuration, dropping all cached blocks.
  void Reconfigure(CacheConfig config);

  // --- incremental refresh (delta invalidation + page epochs) ---
  // Revalidates the epoch now, running the same delta/full invalidation a
  // read would trigger, and returns the current epoch. Memoization layers
  // call this before consulting RangeCleanSince.
  uint64_t SyncEpoch();
  uint64_t epoch() const { return epoch_; }
  // True when this session is configured for dirty-log delta invalidation.
  bool delta_enabled() const { return config_.delta_invalidation && cache_enabled(); }
  // True iff no byte of [addr, addr+len) has been reported dirty after
  // `epoch` by the target's dirty log. Conservative: history this session
  // has not observed (epochs before its first dirty query, or any epoch
  // transition handled by a blind full flush) reports dirty.
  bool RangeCleanSince(uint64_t addr, size_t len, uint64_t epoch) const;

  // The page log (viewcl memoization): while one is set, every ReadBytes,
  // deferred or not, appends the granules of its range to it, skipping a
  // repeat of the last entry. The log's owner dedupes it. Returns the log
  // it replaces (nullptr: none), for the caller to restore.
  std::vector<uint64_t>* set_page_log(std::vector<uint64_t>* log) {
    return std::exchange(page_log_, log);
  }

  bool cache_enabled() const { return config_.block_bytes != 0; }
  const CacheConfig& config() const { return config_; }
  size_t cached_blocks() const { return blocks_.size(); }
  Target* target() const { return target_; }

  const CacheStats& cache_stats() const { return stats_; }
  void ResetCacheStats() { stats_ = CacheStats{}; }
  // Cache-side stats only; Target::StatsToJson() has the transport side.
  vl::Json StatsToJson() const;

 private:
  struct Block {
    std::vector<uint8_t> bytes;
    std::list<uint64_t>::iterator lru_it;  // position in lru_ (front = hottest)
    // Readable part [lo, hi) of the block: the whole block except at the
    // edge of readable memory, where it is clipped to the readable bytes.
    size_t lo = 0;
    size_t hi = 0;
    // Read or prefetched since it was last fetched or refreshed; a delta
    // refresh re-reads only touched blocks and clears the mark.
    bool touched = false;
    // Sectors some read has returned since the block was fetched (a prefetch
    // uses none), over the block's kSectors sectors: bit i covers bytes
    // [i, i+1) * block_bytes / kSectors. A delta refresh re-reads exactly
    // these.
    uint64_t used = 0;
    // Set by a delta refresh: only the used sectors hold current bytes, so a
    // read that needs another sector first refills the rest of the readable
    // part, which clears the mark. Clear: the whole readable part is current.
    bool refreshed = false;
    // Fetched or refilled by a FetchDeferred batch and not read since: the
    // next read it serves is the miss that deferred, and clears the mark.
    bool batched = false;
  };

  // Sectors per block: one bit each in Block::used (4 B sectors at the 256 B
  // default; 1 B sectors in blocks under 64 B).
  static constexpr size_t kSectors = 64;

  // Above this fraction of dirty pages, a block-wise refresh walks most of
  // the cache for nothing; one flush is cheaper and just as correct.
  static constexpr double kMaxDirtyRatio = 0.5;

  // Granularity of page-epoch bookkeeping (RangeCleanSince, the page log).
  // Dirty pages a domain reports at another page size are expanded/aligned
  // to these granules.
  static constexpr uint64_t kPageGranule = 4096;

  // Invalidates stale cache state if the memory domain's generation moved:
  // a delta (dirty-page) refresh when configured and supported, else a full
  // flush.
  void CheckEpoch();
  // Delta path: records dirty-page epochs, then refreshes block-wise (or
  // falls back to a full flush past the dirty-ratio threshold).
  void ApplyDirtyInfo(const DirtyPageInfo& info, uint64_t now);
  // Re-reads the used sectors of the touched blocks among `stale` in one
  // Target::ReadVector, leaving their other sectors to a refill, and evicts
  // the untouched ones and those the batch cannot read.
  void RefreshStale(const std::vector<uint64_t>& stale);
  // Full flush with accounting (the classic epoch contract).
  void FullInvalidate();
  // Appends the granules of [addr, addr+len) (len > 0) to the page log.
  void LogPages(uint64_t addr, size_t len);
  // Returns the cached block with base address `base`, fetching it on miss.
  // nullptr if the block cannot be read (caller falls back to a direct
  // ranged read). `hit` reports whether the block was already present.
  Block* LookupOrFetch(uint64_t base, bool* hit);
  // The block at `base` holding current bytes for [offset, offset+len) of
  // it, fetched on a miss and refilled when it lacks a sector of the range,
  // with those sectors marked used. nullptr when the range cannot be served
  // from the cache (the block is unreadable, its refill failed, or the range
  // reaches past its readable part): the caller falls back to an exact-range
  // read. `hit` reports whether the read is a hit: it paid no round trip, and
  // no batch fetched or refilled the block for it.
  Block* ServeBlock(uint64_t base, size_t offset, size_t len, bool* hit);
  // Counts the read a block serves first after a batch fetched or refilled it
  // as a miss (*hit = false), clearing the block's mark.
  void ServeBatched(Block* block, bool* hit);
  // The sectors covering [offset, offset+len) of a block (len > 0).
  uint64_t SectorMask(size_t offset, size_t len) const;
  // The sectors of the block's readable part.
  uint64_t ReadableSectors(const Block& block) const;
  // Appends one span per run of `sectors` of the block at `base`, clipped to
  // its readable part, reading into the block's bytes.
  void AppendRuns(uint64_t base, Block* block, uint64_t sectors, const char* tag,
                  std::vector<ReadSpan>* spans);
  // Accounts the refill of the block at `base` (the readable sectors no read
  // has used, `bytes` of them) once read: the whole readable part is current
  // again. When a span failed (`!ok`), evicts the block instead and
  // remembers it unreadable until the epoch moves, so reads of it take the
  // exact-range fallback instead of refilling or deferring again. Returns
  // `ok`.
  bool FinishRefill(uint64_t base, bool ok, uint64_t bytes);
  // Drops the block at `base` (not counted as an LRU eviction).
  void EraseBlock(uint64_t base);
  // The readable part [*lo, *hi) of the block at `base`, as offsets into it:
  // the whole block when the readable ranges are unknown. False when no
  // byte of the block is readable.
  bool ClipBlock(uint64_t base, size_t* lo, size_t* hi) const;
  // True when the block at `base` is missing and may be deferred (not known
  // unreadable).
  bool Deferrable(uint64_t base) const;
  // Records the deferrable blocks of [addr, addr+len) the cache misses and,
  // for a read (`refill`), the cached ones it must refill; true if there
  // were any.
  bool DeferMisses(uint64_t addr, size_t len, bool refill);
  // Inserts a fetched block, evicting LRU blocks past capacity.
  void InsertBlock(uint64_t base, std::vector<uint8_t> bytes, size_t lo, size_t hi);

  Target* target_;
  const std::atomic<bool>* trace_flag_;  // Tracer's enabled flag (cached)
  CacheConfig config_;
  size_t block_shift_ = 0;
  size_t sector_shift_ = 0;  // log2(block_bytes / kSectors), at least 0
  uint64_t epoch_ = 0;
  CacheStats stats_;
  std::unordered_map<uint64_t, Block> blocks_;  // keyed by block base address
  std::list<uint64_t> lru_;                     // front = most recently used
  // The target's readable ranges, learned at attach (empty = unknown).
  std::vector<std::pair<uint64_t, uint64_t>> readable_;

  // --- deferred-miss state ---
  bool deferring_ = false;
  uint64_t deferrals_ = 0;
  // Recorded blocks in order, with the read tag each was recorded under.
  std::vector<std::pair<uint64_t, const char*>> deferred_;
  std::unordered_set<uint64_t> deferred_set_;
  // Blocks a batch could not read, until the epoch moves.
  std::unordered_set<uint64_t> unreadable_;

  // --- incremental refresh state ---
  // Last epoch each granule was reported dirty at (granule base -> epoch).
  std::unordered_map<uint64_t, uint64_t> page_last_dirty_;
  // Epochs below this have unknown page history (RangeCleanSince reports
  // dirty): the session's start epoch, raised past any transition handled
  // without dirty info.
  uint64_t dirty_floor_ = 0;
  std::vector<uint64_t>* page_log_ = nullptr;  // not owned; see set_page_log
};

}  // namespace dbg

#endif  // SRC_DBG_READ_SESSION_H_
