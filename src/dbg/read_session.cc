#include "src/dbg/read_session.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/support/str.h"
#include "src/support/trace.h"

namespace dbg {

namespace {

// Short enough to stay inline in the status string: deferrals are frequent.
constexpr const char* kDeferredMessage = "deferred";

// Read tag of a delta refresh's spans: the refresh is charged to the cache,
// not to whichever type's read noticed the epoch change.
constexpr const char* kRefreshTag = "cache.refresh";

// Smallest power of two >= n (n > 0), capped to keep shifts sane.
size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n && p < (size_t{1} << 30)) {
    p <<= 1;
  }
  return p;
}

size_t Log2(size_t pow2) {
  size_t shift = 0;
  while ((size_t{1} << shift) < pow2) {
    ++shift;
  }
  return shift;
}

// One block's spans of a read batch, once read: whether every one of them
// read and how many bytes they read.
struct BlockRead {
  uint64_t base = 0;
  bool ok = true;
  uint64_t bytes = 0;
};

// Groups spans[from..] by the block of 2^block_shift bytes they read, in
// order (a block's spans are adjacent in a batch).
std::vector<BlockRead> ByBlock(const std::vector<ReadSpan>& spans, size_t from,
                               size_t block_shift) {
  std::vector<BlockRead> out;
  for (size_t i = from; i < spans.size(); ++i) {
    const uint64_t base = (spans[i].addr >> block_shift) << block_shift;
    if (out.empty() || out.back().base != base) {
      out.push_back(BlockRead{base});
    }
    out.back().ok = out.back().ok && spans[i].ok;
    out.back().bytes += spans[i].len;
  }
  return out;
}

}  // namespace

CacheConfig CacheConfig::Normalized() const {
  CacheConfig config = *this;
  if (config.block_bytes != 0) {
    config.block_bytes = RoundUpPow2(config.block_bytes);
    if (config.capacity_blocks == 0) {
      config.capacity_blocks = 1;
    }
  }
  return config;
}

vl::Json CacheStats::ToJson() const {
  vl::Json j = vl::Json::Object();
  j["hits"] = vl::Json::Int(static_cast<int64_t>(hits));
  j["misses"] = vl::Json::Int(static_cast<int64_t>(misses));
  j["hit_bytes"] = vl::Json::Int(static_cast<int64_t>(hit_bytes));
  j["miss_bytes"] = vl::Json::Int(static_cast<int64_t>(miss_bytes));
  j["block_fetches"] = vl::Json::Int(static_cast<int64_t>(block_fetches));
  j["fetched_bytes"] = vl::Json::Int(static_cast<int64_t>(fetched_bytes));
  j["used_bytes"] = vl::Json::Int(static_cast<int64_t>(used_bytes));
  j["evictions"] = vl::Json::Int(static_cast<int64_t>(evictions));
  j["invalidations"] = vl::Json::Int(static_cast<int64_t>(invalidations));
  j["uncached_reads"] = vl::Json::Int(static_cast<int64_t>(uncached_reads));
  j["prefetches"] = vl::Json::Int(static_cast<int64_t>(prefetches));
  j["delta_invalidations"] = vl::Json::Int(static_cast<int64_t>(delta_invalidations));
  j["invalidated_bytes_full"] = vl::Json::Int(static_cast<int64_t>(invalidated_bytes_full));
  j["invalidated_bytes_delta"] = vl::Json::Int(static_cast<int64_t>(invalidated_bytes_delta));
  j["refreshed_blocks"] = vl::Json::Int(static_cast<int64_t>(refreshed_blocks));
  j["refreshed_bytes"] = vl::Json::Int(static_cast<int64_t>(refreshed_bytes));
  j["refills"] = vl::Json::Int(static_cast<int64_t>(refills));
  j["refilled_bytes"] = vl::Json::Int(static_cast<int64_t>(refilled_bytes));
  j["vector_batches"] = vl::Json::Int(static_cast<int64_t>(vector_batches));
  j["vector_blocks"] = vl::Json::Int(static_cast<int64_t>(vector_blocks));
  return j;
}

ReadSession::ReadSession(Target* target, CacheConfig config)
    : target_(target),
      trace_flag_(vl::Tracer::Instance().enabled_flag()),
      readable_(target->readable_ranges()) {
  epoch_ = target_->memory_generation();
  Reconfigure(config);
}

bool ReadSession::IsDeferred(const vl::Status& status) {
  return status.code() == vl::StatusCode::kMemoryFault && status.message() == kDeferredMessage;
}

void ReadSession::Reconfigure(CacheConfig config) {
  config_ = config.Normalized();
  block_shift_ = config_.block_bytes != 0 ? Log2(config_.block_bytes) : 0;
  const size_t sector_bits = Log2(kSectors);
  sector_shift_ = block_shift_ > sector_bits ? block_shift_ - sector_bits : 0;
  blocks_.clear();
  lru_.clear();
  page_last_dirty_.clear();
  unreadable_.clear();
  deferred_.clear();
  deferred_set_.clear();
  deferring_ = deferring_ && cache_enabled();
  dirty_floor_ = epoch_;
  if (delta_enabled()) {
    // Prime the domain's dirty log (QEMU: enabling dirty logging at attach).
    // This baselines page tracking at the current epoch, so the first epoch
    // change reports only genuinely-dirtied pages instead of "history
    // unknown, everything dirty" — which would force a full flush.
    (void)target_->DirtyPagesSince(epoch_);
  }
}

void ReadSession::InvalidateAll() {
  blocks_.clear();
  lru_.clear();
}

void ReadSession::FullInvalidate() {
  if (blocks_.empty()) {
    return;
  }
  stats_.invalidations++;
  stats_.invalidated_bytes_full += static_cast<uint64_t>(blocks_.size()) * config_.block_bytes;
  InvalidateAll();
}

void ReadSession::CheckEpoch() {
  uint64_t now = target_->memory_generation();
  if (now == epoch_) {
    return;
  }
  uint64_t since = epoch_;
  epoch_ = now;
  // What a batch could not read, or had yet to read, belongs to the old
  // memory.
  unreadable_.clear();
  deferred_.clear();
  deferred_set_.clear();
  if (config_.delta_invalidation) {
    DirtyPageInfo info = target_->DirtyPagesSince(since);
    if (info.supported) {
      ApplyDirtyInfo(info, now);
      return;
    }
  }
  // Classic contract: no dirty log, so the whole cache is presumed stale and
  // this transition leaves no per-page history behind.
  dirty_floor_ = now;
  FullInvalidate();
}

void ReadSession::ApplyDirtyInfo(const DirtyPageInfo& info, uint64_t now) {
  // Page history first: memoization validity survives even a ratio fallback
  // below, because we know exactly which pages moved.
  uint64_t page_size = info.page_size != 0 ? info.page_size : kPageGranule;
  for (uint64_t page : info.dirty_pages) {
    uint64_t first = page & ~(kPageGranule - 1);
    for (uint64_t granule = first; granule < page + page_size; granule += kPageGranule) {
      uint64_t& last = page_last_dirty_[granule];
      if (last < now) {
        last = now;
      }
    }
  }
  double ratio = info.pages_total != 0
                     ? static_cast<double>(info.dirty_pages.size()) /
                           static_cast<double>(info.pages_total)
                     : 1.0;
  if (ratio > kMaxDirtyRatio) {
    // Too much moved: a block-wise refresh would walk most of the cache for
    // nothing. One flush is cheaper and just as correct.
    FullInvalidate();
    return;
  }
  stats_.delta_invalidations++;
  if (blocks_.empty()) {
    return;
  }
  std::vector<uint64_t> stale;
  for (uint64_t page : info.dirty_pages) {
    uint64_t first_block = (page >> block_shift_) << block_shift_;
    for (uint64_t base = first_block; base < page + page_size; base += config_.block_bytes) {
      if (blocks_.count(base) != 0) {
        stale.push_back(base);
      }
    }
  }
  // A block larger than a page overlaps several dirty pages.
  std::sort(stale.begin(), stale.end());
  stale.erase(std::unique(stale.begin(), stale.end()), stale.end());
  RefreshStale(stale);
}

void ReadSession::RefreshStale(const std::vector<uint64_t>& stale) {
  // A block touched since its last fetch or refresh is likely read again:
  // re-read the sectors reads have used in place (same readable part, same
  // LRU position), every run of them of every such block in one round trip.
  // Its other sectors wait for a read that needs one to refill the block. A
  // block nobody touched is evicted, so a block nobody reads again is
  // re-read at most once.
  std::vector<ReadSpan> batch;
  std::vector<uint64_t> evict;
  for (uint64_t base : stale) {
    Block& block = blocks_.find(base)->second;
    if (!block.touched) {
      evict.push_back(base);
      continue;
    }
    block.touched = false;
    block.refreshed = true;
    AppendRuns(base, &block, block.used, kRefreshTag, &batch);
  }
  if (!batch.empty()) {
    (void)target_->ReadVector(batch);
    for (const BlockRead& read : ByBlock(batch, 0, block_shift_)) {
      if (!read.ok) {
        // Later reads of it take the exact-range fallback until the epoch
        // moves, as after a miss batch.
        evict.push_back(read.base);
        unreadable_.insert(read.base);
        continue;
      }
      stats_.refreshed_blocks++;
      stats_.refreshed_bytes += read.bytes;
    }
  }
  for (uint64_t base : evict) {
    EraseBlock(base);
  }
  stats_.invalidated_bytes_delta += static_cast<uint64_t>(evict.size()) * config_.block_bytes;
}

uint64_t ReadSession::SyncEpoch() {
  if (cache_enabled()) {
    CheckEpoch();
  } else {
    epoch_ = target_->memory_generation();
  }
  return epoch_;
}

bool ReadSession::RangeCleanSince(uint64_t addr, size_t len, uint64_t epoch) const {
  if (epoch == epoch_) {
    return true;  // nothing has moved since
  }
  if (epoch < dirty_floor_) {
    return false;  // history not observed — presume dirty
  }
  uint64_t first = addr & ~(kPageGranule - 1);
  for (uint64_t granule = first; granule < addr + len; granule += kPageGranule) {
    auto it = page_last_dirty_.find(granule);
    if (it != page_last_dirty_.end() && it->second > epoch) {
      return false;
    }
  }
  return true;
}

void ReadSession::LogPages(uint64_t addr, size_t len) {
  uint64_t first = addr & ~(kPageGranule - 1);
  for (uint64_t granule = first; granule < addr + len; granule += kPageGranule) {
    if (page_log_->empty() || page_log_->back() != granule) {
      page_log_->push_back(granule);
    }
  }
}

bool ReadSession::ClipBlock(uint64_t base, size_t* lo, size_t* hi) const {
  *lo = 0;
  *hi = config_.block_bytes;
  if (readable_.empty()) {
    return true;  // unknown: try the whole block
  }
  uint64_t end = base + config_.block_bytes;
  for (const auto& [first, last] : readable_) {
    if (first < end && last > base) {
      *lo = static_cast<size_t>(std::max(first, base) - base);
      *hi = static_cast<size_t>(std::min(last, end) - base);
      return true;
    }
  }
  return false;
}

void ReadSession::InsertBlock(uint64_t base, std::vector<uint8_t> bytes, size_t lo,
                              size_t hi) {
  while (blocks_.size() >= config_.capacity_blocks && !lru_.empty()) {
    blocks_.erase(lru_.back());
    lru_.pop_back();
    stats_.evictions++;
  }
  lru_.push_front(base);
  Block& block = blocks_[base];
  block.bytes = std::move(bytes);
  block.lru_it = lru_.begin();
  block.lo = lo;
  block.hi = hi;
  block.touched = true;
  block.used = 0;
  block.refreshed = false;
  block.batched = false;
}

void ReadSession::EraseBlock(uint64_t base) {
  auto it = blocks_.find(base);
  lru_.erase(it->second.lru_it);
  blocks_.erase(it);
}

uint64_t ReadSession::SectorMask(size_t offset, size_t len) const {
  const size_t first = offset >> sector_shift_;
  const size_t last = (offset + len - 1) >> sector_shift_;
  return (~uint64_t{0} >> (kSectors - 1 - last)) & (~uint64_t{0} << first);
}

uint64_t ReadSession::ReadableSectors(const Block& block) const {
  return SectorMask(block.lo, block.hi - block.lo);
}

void ReadSession::AppendRuns(uint64_t base, Block* block, uint64_t sectors, const char* tag,
                             std::vector<ReadSpan>* spans) {
  while (sectors != 0) {
    const size_t first = static_cast<size_t>(std::countr_zero(sectors));
    const size_t count = static_cast<size_t>(std::countr_one(sectors >> first));
    sectors &= sectors + (sectors & (~sectors + 1));  // clears the lowest run
    const size_t from = std::max(block->lo, first << sector_shift_);
    const size_t to = std::min(block->hi, (first + count) << sector_shift_);
    if (from < to) {
      spans->push_back(ReadSpan{base + from, to - from, block->bytes.data() + from, false, tag});
    }
  }
}

bool ReadSession::FinishRefill(uint64_t base, bool ok, uint64_t bytes) {
  if (!ok) {
    EraseBlock(base);
    unreadable_.insert(base);
    return false;
  }
  blocks_.find(base)->second.refreshed = false;
  stats_.refills++;
  stats_.refilled_bytes += bytes;
  return true;
}

ReadSession::Block* ReadSession::LookupOrFetch(uint64_t base, bool* hit) {
  auto it = blocks_.find(base);
  if (it != blocks_.end()) {
    *hit = true;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // move to front
    it->second.touched = true;
    return &it->second;
  }
  *hit = false;
  // One transport round trip for the block's readable part. If it cannot be
  // read the caller falls back to a direct read.
  size_t lo = 0;
  size_t hi = 0;
  if (unreadable_.count(base) != 0 || !ClipBlock(base, &lo, &hi)) {
    return nullptr;
  }
  std::vector<uint8_t> bytes(config_.block_bytes);
  if (!target_->ReadBytes(base + lo, bytes.data() + lo, hi - lo).ok()) {
    return nullptr;
  }
  stats_.block_fetches++;
  stats_.fetched_bytes += hi - lo;
  InsertBlock(base, std::move(bytes), lo, hi);
  return &blocks_.find(base)->second;
}

ReadSession::Block* ReadSession::ServeBlock(uint64_t base, size_t offset, size_t len,
                                            bool* hit) {
  Block* block = LookupOrFetch(base, hit);
  if (block == nullptr || offset < block->lo || offset + len > block->hi) {
    return nullptr;
  }
  const uint64_t fresh = SectorMask(offset, len) & ~block->used;
  if (fresh == 0) {
    ServeBatched(block, hit);
    return block;  // used sectors are current
  }
  if (block->refreshed) {
    // Refill: one round trip for every readable sector no read has used.
    *hit = false;
    std::vector<ReadSpan> spans;
    AppendRuns(base, block, ReadableSectors(*block) & ~block->used, nullptr, &spans);
    (void)target_->ReadVector(spans);
    const BlockRead read = ByBlock(spans, 0, block_shift_).front();
    if (!FinishRefill(base, read.ok, read.bytes)) {
      return nullptr;
    }
  }
  ServeBatched(block, hit);
  block->used |= fresh;
  stats_.used_bytes += static_cast<uint64_t>(std::popcount(fresh)) << sector_shift_;
  return block;
}

void ReadSession::ServeBatched(Block* block, bool* hit) {
  if (block->batched) {
    block->batched = false;
    *hit = false;
  }
}

bool ReadSession::Deferrable(uint64_t base) const {
  size_t lo = 0;
  size_t hi = 0;
  return blocks_.count(base) == 0 && unreadable_.count(base) == 0 && ClipBlock(base, &lo, &hi);
}

bool ReadSession::WouldDefer(uint64_t addr, size_t len) const {
  uint64_t first = (addr >> block_shift_) << block_shift_;
  for (uint64_t base = first; deferring_ && len != 0 && base < addr + len;
       base += config_.block_bytes) {
    if (Deferrable(base)) {
      return true;
    }
  }
  return false;
}

bool ReadSession::DeferMisses(uint64_t addr, size_t len, bool refill) {
  bool missed = false;
  const uint64_t end = addr + len;
  uint64_t first = (addr >> block_shift_) << block_shift_;
  for (uint64_t base = first; base < end; base += config_.block_bytes) {
    auto it = blocks_.find(base);
    bool defer = false;
    if (it == blocks_.end()) {
      defer = Deferrable(base);
    } else if (refill) {
      // A cached block the read must refill; a range past its readable
      // part takes the exact-range fallback instead.
      const Block& block = it->second;
      const size_t from = static_cast<size_t>(std::max(addr, base) - base);
      const size_t to = static_cast<size_t>(std::min(end, base + config_.block_bytes) - base);
      defer = block.refreshed && from >= block.lo && to <= block.hi &&
              (SectorMask(from, to - from) & ~block.used) != 0;
    }
    if (defer) {
      missed = true;
      if (deferred_set_.insert(base).second) {
        deferred_.emplace_back(base, target_->read_tag());
      }
    }
  }
  return missed;
}

vl::Status ReadSession::ReadBytes(uint64_t addr, void* out, size_t len) {
  if (page_log_ != nullptr && len != 0) {
    LogPages(addr, len);
  }
  if (!cache_enabled() || len == 0) {
    return target_->ReadBytes(addr, out, len);
  }
  CheckEpoch();
  if (deferring_ && DeferMisses(addr, len, /*refill=*/true)) {
    deferrals_++;  // pay for none of the read's blocks now
    return vl::MemoryFaultError(kDeferredMessage);
  }
  uint8_t* dst = static_cast<uint8_t*>(out);
  uint64_t pos = addr;
  size_t remaining = len;
  while (remaining > 0) {
    uint64_t base = (pos >> block_shift_) << block_shift_;
    size_t offset = static_cast<size_t>(pos - base);
    size_t take = std::min(remaining, config_.block_bytes - offset);
    bool hit = false;
    const Block* block = ServeBlock(base, offset, take, &hit);
    if (block == nullptr) {
      // The bytes are not cacheable (the block is unreadable, or the read
      // reaches past the readable part of an edge block): fall through to an
      // exact-range read, charged like a raw Target read.
      stats_.uncached_reads++;
      VL_RETURN_IF_ERROR(target_->ReadBytes(pos, dst, take));
      if (trace_flag_->load(std::memory_order_relaxed)) {
        vl::Tracer::Instance().Annotate("cache.miss_bytes",
                                        static_cast<int64_t>(take));
      }
    } else {
      std::memcpy(dst, block->bytes.data() + offset, take);
      if (hit) {
        stats_.hits++;
        stats_.hit_bytes += take;
      } else {
        stats_.misses++;
        stats_.miss_bytes += take;
      }
      if (trace_flag_->load(std::memory_order_relaxed)) {
        vl::Tracer::Instance().Annotate(hit ? "cache.hit_bytes" : "cache.miss_bytes",
                                        static_cast<int64_t>(take));
      }
    }
    dst += take;
    pos += take;
    remaining -= take;
  }
  return vl::Status::Ok();
}

vl::StatusOr<uint64_t> ReadSession::ReadUnsigned(uint64_t addr, size_t size) {
  if (size == 0 || size > 8) {
    return vl::InvalidArgumentError(vl::StrFormat("bad scalar width %zu", size));
  }
  uint64_t value = 0;
  VL_RETURN_IF_ERROR(ReadBytes(addr, &value, size));  // little-endian host
  return value;
}

vl::StatusOr<int64_t> ReadSession::ReadSigned(uint64_t addr, size_t size) {
  VL_ASSIGN_OR_RETURN(uint64_t raw, ReadUnsigned(addr, size));
  if (size < 8) {
    uint64_t sign_bit = 1ull << (size * 8 - 1);
    if ((raw & sign_bit) != 0) {
      raw |= ~((sign_bit << 1) - 1);
    }
  }
  return static_cast<int64_t>(raw);
}

vl::StatusOr<std::string> ReadSession::ReadCString(uint64_t addr, size_t max_len) {
  if (!cache_enabled()) {
    return target_->ReadCString(addr, max_len);
  }
  // Same chunked contract as Target::ReadCString (64-byte chunks, byte-wise
  // retry at unreadable boundaries), but each chunk flows through the block
  // cache so repeated name fetches are free.
  std::string out;
  char chunk[64];
  while (out.size() < max_len) {
    size_t want = std::min(sizeof(chunk), max_len - out.size());
    vl::Status status = ReadBytes(addr + out.size(), chunk, want);
    if (IsDeferred(status)) {
      return status;  // the byte-wise retry would only defer again
    }
    if (!status.ok()) {
      size_t ok = 0;
      while (ok < want && ReadBytes(addr + out.size() + ok, chunk + ok, 1).ok()) {
        ++ok;
      }
      if (ok == 0) {
        return vl::MemoryFaultError(vl::StrFormat(
            "cannot read string at 0x%llx", static_cast<unsigned long long>(addr)));
      }
      want = ok;
    }
    for (size_t i = 0; i < want; ++i) {
      if (chunk[i] == '\0') {
        return out;
      }
      out.push_back(chunk[i]);
    }
  }
  return out;
}

void ReadSession::Prefetch(uint64_t addr, size_t len) {
  if (!cache_enabled() || len == 0) {
    return;
  }
  CheckEpoch();
  if (deferring_) {
    (void)DeferMisses(addr, len, /*refill=*/false);  // joins the next batch
    return;
  }
  uint64_t base = (addr >> block_shift_) << block_shift_;
  uint64_t end = addr + len;
  for (uint64_t b = base; b < end; b += config_.block_bytes) {
    bool hit = false;
    (void)LookupOrFetch(b, &hit);  // best effort; failures fall back at read
  }
}

ReadSession::SpanFetch ReadSession::FetchDeferred() {
  std::vector<std::pair<uint64_t, const char*>> deferred;
  deferred.swap(deferred_);
  deferred_set_.clear();
  SpanFetch out;
  if (!cache_enabled()) {
    return out;
  }
  CheckEpoch();
  // The readable part of every recorded block still missing, and the refill
  // of every recorded refreshed one, each attributed to the read tag it was
  // recorded under.
  std::vector<uint64_t> missing;
  std::vector<std::vector<uint8_t>> buffers;
  std::vector<ReadSpan> batch;
  std::vector<std::pair<uint64_t, const char*>> cached;
  for (const auto& [base, tag] : deferred) {
    size_t lo = 0;
    size_t hi = 0;
    if (blocks_.count(base) != 0) {
      cached.emplace_back(base, tag);
    } else if (Deferrable(base) && ClipBlock(base, &lo, &hi)) {
      missing.push_back(base);
      buffers.emplace_back(config_.block_bytes);
      batch.push_back(ReadSpan{base + lo, hi - lo, nullptr, false, tag});
    }
  }
  for (size_t i = 0; i < missing.size(); ++i) {
    batch[i].out = buffers[i].data() + (batch[i].addr - missing[i]);
  }
  const size_t refills = batch.size();  // the spans from here on refill cached blocks
  for (const auto& [base, tag] : cached) {
    Block& block = blocks_.find(base)->second;
    if (block.refreshed) {
      AppendRuns(base, &block, ReadableSectors(block) & ~block.used, tag, &batch);
    }
  }
  if (batch.empty()) {
    return out;
  }
  // One vectored transport request for every missing block and every refill.
  (void)target_->ReadVector(batch);
  out.batches = 1;
  stats_.vector_batches++;
  // Refills first: inserting the new blocks below may evict LRU blocks. The
  // read each block serves next is the miss it deferred, counted then.
  for (const BlockRead& read : ByBlock(batch, refills, block_shift_)) {
    if (!FinishRefill(read.base, read.ok, read.bytes)) {
      continue;
    }
    out.fetched_blocks++;
    blocks_.find(read.base)->second.batched = true;
  }
  for (size_t i = 0; i < missing.size(); ++i) {
    if (!batch[i].ok) {
      // Unreadable: later reads of it fall back to exact ranges instead of
      // deferring again.
      unreadable_.insert(missing[i]);
      continue;
    }
    out.fetched_blocks++;
    stats_.vector_blocks++;
    stats_.fetched_bytes += batch[i].len;
    size_t lo = static_cast<size_t>(batch[i].addr - missing[i]);
    InsertBlock(missing[i], std::move(buffers[i]), lo, lo + batch[i].len);
    blocks_.find(missing[i])->second.batched = true;
  }
  return out;
}

bool ReadSession::RunLevels(const char* span, const std::function<Level()>& level,
                            LevelStats* stats) {
  set_deferring(true);
  const uint64_t evictions = stats_.evictions;
  bool complete = true;
  for (bool stopped = true; complete && stopped;) {
    vl::ScopedSpan level_span(span);
    stats->levels++;
    const Level run = level();
    const uint64_t ns0 = target_->clock().nanos();
    const SpanFetch fetch = FetchDeferred();
    stats->batch_ns += target_->clock().nanos() - ns0;
    stats->batches += fetch.batches;
    // A level that fetched nothing and got nowhere has stalled; one that
    // evicted blocks may have dropped what a stopped reader waits for.
    complete = !run.abort && stats_.evictions == evictions &&
               (!run.stopped || fetch.fetched_blocks != 0 || run.advanced);
    stopped = run.stopped;
  }
  set_deferring(false);
  return complete;
}

void ReadSession::PrefetchObject(uint64_t addr, const Type* type) {
  if (type == nullptr || type->size == 0) {
    return;
  }
  stats_.prefetches++;
  Prefetch(addr, type->size);
}

vl::Json ReadSession::StatsToJson() const {
  vl::Json j = stats_.ToJson();
  j["enabled"] = vl::Json::Bool(cache_enabled());
  j["block_bytes"] = vl::Json::Int(static_cast<int64_t>(config_.block_bytes));
  j["capacity_blocks"] = vl::Json::Int(static_cast<int64_t>(config_.capacity_blocks));
  j["cached_blocks"] = vl::Json::Int(static_cast<int64_t>(blocks_.size()));
  j["hit_rate"] = vl::Json::Number(stats_.HitRate());
  j["delta_enabled"] = vl::Json::Bool(delta_enabled());
  return j;
}

}  // namespace dbg
