// ReadSession block-cache correctness: hit/miss accounting, LRU eviction,
// block-boundary reads, epoch invalidation on kernel mutation, fallback at
// unreadable boundaries, and the determinism contract — cached and uncached
// extractions must produce byte-identical render output.

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "src/dbg/kernel_introspect.h"
#include "src/dbg/read_session.h"
#include "src/viewcl/interp.h"
#include "src/vision/figures.h"
#include "src/vision/render.h"
#include "src/vkern/kernel.h"
#include "tests/test_util.h"

namespace dbg {
namespace {

// A flat buffer memory domain with a controllable generation counter.
class FlatMemory : public MemoryDomain {
 public:
  explicit FlatMemory(size_t size) : bytes_(size) {
    for (size_t i = 0; i < size; ++i) {
      bytes_[i] = static_cast<uint8_t>(i * 31 + 7);
    }
  }
  bool ReadBytes(uint64_t addr, void* out, size_t len) const override {
    if (addr + len > bytes_.size()) {
      return false;
    }
    std::memcpy(out, bytes_.data() + addr, len);
    return true;
  }
  uint64_t generation() const override { return generation_; }

  void Poke(uint64_t addr, uint8_t value) { bytes_[addr] = value; }
  void Bump() { ++generation_; }
  size_t size() const { return bytes_.size(); }

 private:
  std::vector<uint8_t> bytes_;
  uint64_t generation_ = 0;
};

class CacheTest : public ::testing::Test {
 protected:
  CacheTest() : memory_(1 << 16), target_(&memory_, LatencyModel::GdbQemu()) {}

  FlatMemory memory_;
  Target target_;
};

TEST_F(CacheTest, MissFetchesBlockThenHitsAreFree) {
  ReadSession session(&target_, CacheConfig{256, 64});
  uint64_t before = target_.clock().nanos();

  // First read: one 256-byte block fetch (one transport round trip).
  auto v1 = session.ReadUnsigned(0x100, 8);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(target_.reads(), 1u);
  EXPECT_EQ(target_.bytes_read(), 256u);
  uint64_t after_miss = target_.clock().nanos();
  EXPECT_GT(after_miss, before);

  // Every field in the same block [0x100, 0x200): zero additional charges.
  for (uint64_t off = 0; off < 256; off += 8) {
    ASSERT_TRUE(session.ReadUnsigned(0x100 + off, 8).ok());
  }
  EXPECT_EQ(target_.reads(), 1u);
  EXPECT_EQ(target_.clock().nanos(), after_miss);

  const CacheStats& stats = session.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 32u);
  EXPECT_EQ(stats.hit_bytes, 32u * 8u);
  EXPECT_EQ(stats.block_fetches, 1u);
  EXPECT_EQ(stats.fetched_bytes, 256u);
}

TEST_F(CacheTest, CachedBytesMatchDirectReads) {
  ReadSession session(&target_, CacheConfig{256, 64});
  for (uint64_t addr : {0ull, 1ull, 255ull, 256ull, 300ull, 511ull, 1000ull}) {
    for (size_t len : {1, 2, 4, 8}) {
      uint64_t via_cache = 0;
      uint64_t direct = 0;
      ASSERT_TRUE(session.ReadBytes(addr, &via_cache, len).ok());
      ASSERT_TRUE(target_.ReadBytes(addr, &direct, len).ok());
      EXPECT_EQ(via_cache, direct) << "addr=" << addr << " len=" << len;
    }
  }
}

TEST_F(CacheTest, BlockBoundaryReadSpansTwoBlocks) {
  ReadSession session(&target_, CacheConfig{256, 64});
  uint8_t buf[16];
  // [0xf8, 0x108) straddles the 0x100 block boundary.
  ASSERT_TRUE(session.ReadBytes(0xf8, buf, sizeof(buf)).ok());
  EXPECT_EQ(target_.reads(), 2u);  // one fetch per block
  EXPECT_EQ(session.cache_stats().misses, 2u);
  uint8_t direct[16];
  ASSERT_TRUE(target_.ReadBytes(0xf8, direct, sizeof(direct)).ok());
  EXPECT_EQ(std::memcmp(buf, direct, sizeof(buf)), 0);
}

TEST_F(CacheTest, LruEvictsColdestBlockAtCapacity) {
  ReadSession session(&target_, CacheConfig{256, 2});
  ASSERT_TRUE(session.ReadUnsigned(0 * 256, 8).ok());    // block 0
  ASSERT_TRUE(session.ReadUnsigned(1 * 256, 8).ok());    // block 1
  EXPECT_EQ(session.cached_blocks(), 2u);
  ASSERT_TRUE(session.ReadUnsigned(0 * 256, 8).ok());    // touch 0: 1 is coldest
  ASSERT_TRUE(session.ReadUnsigned(2 * 256, 8).ok());    // block 2 evicts 1
  EXPECT_EQ(session.cached_blocks(), 2u);
  EXPECT_EQ(session.cache_stats().evictions, 1u);

  uint64_t reads_before = target_.reads();
  ASSERT_TRUE(session.ReadUnsigned(0 * 256, 8).ok());    // still cached
  EXPECT_EQ(target_.reads(), reads_before);
  ASSERT_TRUE(session.ReadUnsigned(1 * 256, 8).ok());    // was evicted: refetch
  EXPECT_EQ(target_.reads(), reads_before + 1);
}

TEST_F(CacheTest, EpochBumpDropsStaleBlocks) {
  ReadSession session(&target_, CacheConfig{256, 64});
  ASSERT_TRUE(session.ReadUnsigned(0x40, 1).ok());
  memory_.Poke(0x40, 0xEE);

  // Without a generation bump the stale cached byte is served (the contract:
  // out-of-band mutators must bump or invalidate).
  auto stale = session.ReadUnsigned(0x40, 1);
  ASSERT_TRUE(stale.ok());
  EXPECT_NE(*stale, 0xEEu);

  memory_.Bump();
  auto fresh = session.ReadUnsigned(0x40, 1);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*fresh, 0xEEu);
  EXPECT_EQ(session.cache_stats().invalidations, 1u);
  EXPECT_EQ(session.cached_blocks(), 1u);  // refetched after the flush
}

TEST_F(CacheTest, UnreadableBlockFallsBackToDirectRead) {
  // 1000 bytes of memory: the block containing the tail ([768, 1024)) runs
  // off the edge, so the block fetch fails and the session must fall back to
  // an exact-range read.
  FlatMemory memory(1000);
  Target target(&memory, LatencyModel::GdbQemu());
  ReadSession session(&target, CacheConfig{256, 64});
  auto v = session.ReadUnsigned(992, 8);
  ASSERT_TRUE(v.ok());
  uint64_t direct = 0;
  ASSERT_TRUE(target.ReadBytes(992, &direct, 8).ok());
  EXPECT_EQ(*v, direct);
  EXPECT_EQ(session.cache_stats().uncached_reads, 1u);
  EXPECT_EQ(session.cached_blocks(), 0u);
  // Fully out-of-bounds reads still error.
  EXPECT_FALSE(session.ReadUnsigned(4096, 8).ok());
}

TEST_F(CacheTest, DisabledConfigIsPassthrough) {
  ReadSession session(&target_, CacheConfig::Disabled());
  EXPECT_FALSE(session.cache_enabled());
  ASSERT_TRUE(session.ReadUnsigned(0x100, 8).ok());
  ASSERT_TRUE(session.ReadUnsigned(0x100, 8).ok());
  EXPECT_EQ(target_.reads(), 2u);          // every read hits the transport
  EXPECT_EQ(target_.bytes_read(), 16u);    // exact sizes, no block rounding
  EXPECT_EQ(session.cache_stats().hits, 0u);
  EXPECT_EQ(session.cache_stats().misses, 0u);
}

TEST_F(CacheTest, ReconfigureSwapsGranularityAndDropsBlocks) {
  ReadSession session(&target_, CacheConfig{256, 64});
  ASSERT_TRUE(session.ReadUnsigned(0x100, 8).ok());
  EXPECT_EQ(session.cached_blocks(), 1u);
  session.Reconfigure(CacheConfig{64, 8});
  EXPECT_EQ(session.cached_blocks(), 0u);
  ASSERT_TRUE(session.ReadUnsigned(0x100, 8).ok());
  EXPECT_EQ(target_.bytes_read(), 256u + 64u);
  // Non-power-of-two block sizes round up.
  session.Reconfigure(CacheConfig{100, 8});
  EXPECT_EQ(session.config().block_bytes, 128u);
}

TEST_F(CacheTest, PrefetchObjectPullsWholeStructInBlockRequests) {
  vkern::Kernel kernel;
  KernelDebugger debugger(&kernel, LatencyModel::GdbQemu());
  const Type* task = debugger.types().FindByName("task_struct");
  ASSERT_NE(task, nullptr);
  uint64_t addr = reinterpret_cast<uint64_t>(kernel.procs().init_task());

  debugger.target().ResetStats();
  debugger.session().InvalidateAll();
  debugger.session().PrefetchObject(addr, task);
  size_t block = debugger.session().config().block_bytes;
  size_t expected = (addr + task->size + block - 1) / block - addr / block;
  EXPECT_EQ(debugger.target().reads(), expected);  // ceil over spanned blocks

  // Walking every scalar field afterwards costs nothing extra.
  uint64_t reads_after_prefetch = debugger.target().reads();
  for (const Field& field : task->fields) {
    if (field.type->IsScalar()) {
      ASSERT_TRUE(debugger.session().ReadUnsigned(addr + field.offset,
                                                  field.type->size).ok());
    }
  }
  EXPECT_EQ(debugger.target().reads(), reads_after_prefetch);
  EXPECT_EQ(debugger.session().cache_stats().prefetches, 1u);
}

TEST_F(CacheTest, CStringReadsThroughCache) {
  vkern::Kernel kernel;
  KernelDebugger debugger(&kernel, LatencyModel::GdbQemu());
  vkern::task_struct* init = kernel.procs().init_task();
  uint64_t comm_addr = reinterpret_cast<uint64_t>(init->comm);

  auto direct = debugger.target().ReadCString(comm_addr, sizeof(init->comm));
  ASSERT_TRUE(direct.ok());
  auto cached = debugger.session().ReadCString(comm_addr, sizeof(init->comm));
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(*cached, *direct);

  // Re-reading the same string is free.
  uint64_t reads_before = debugger.target().reads();
  ASSERT_TRUE(debugger.session().ReadCString(comm_addr, sizeof(init->comm)).ok());
  EXPECT_EQ(debugger.target().reads(), reads_before);
}

// --- deferred-miss mode (the batched extraction walker) ----------------------

// A deferred read charges nothing: it records the blocks it needs and fails
// with a status IsDeferred() recognizes.
TEST_F(CacheTest, DeferredReadChargesNothingAndRecordsBlocks) {
  ReadSession session(&target_, CacheConfig{256, 64});
  session.set_deferring(true);
  uint64_t value = 0;
  vl::Status status = session.ReadBytes(0x1f8, &value, 16);  // spans two blocks
  EXPECT_TRUE(ReadSession::IsDeferred(status)) << status.ToString();
  EXPECT_EQ(session.deferrals(), 1u);
  EXPECT_EQ(session.deferred_blocks(), 2u);
  EXPECT_EQ(target_.reads(), 0u);
  EXPECT_EQ(target_.clock().nanos(), 0u);
  // Recording the same blocks again adds nothing to the batch.
  EXPECT_TRUE(ReadSession::IsDeferred(session.ReadBytes(0x200, &value, 8)));
  EXPECT_EQ(session.deferred_blocks(), 2u);
  // Prefetches record without failing anything.
  session.Prefetch(0x400, 512);
  EXPECT_EQ(session.deferred_blocks(), 4u);
  EXPECT_EQ(session.deferrals(), 2u);
  EXPECT_EQ(target_.reads(), 0u);
}

// One FetchDeferred fetches every recorded block in one vectored round trip;
// the deferred reads then hit.
TEST_F(CacheTest, FetchDeferredFetchesThemAllInOneBatch) {
  ReadSession session(&target_, CacheConfig{256, 64});
  session.set_deferring(true);
  uint64_t value = 0;
  for (uint64_t addr : {0x100, 0x900, 0x3000}) {
    EXPECT_TRUE(ReadSession::IsDeferred(session.ReadBytes(addr, &value, 8)));
  }
  ReadSession::SpanFetch fetch = session.FetchDeferred();
  EXPECT_EQ(fetch.batches, 1u);
  EXPECT_EQ(fetch.fetched_blocks, 3u);
  EXPECT_EQ(session.deferred_blocks(), 0u);
  EXPECT_EQ(target_.reads(), 1u);
  EXPECT_EQ(target_.bytes_read(), 3u * 256);
  const LatencyModel& model = target_.model();
  EXPECT_EQ(target_.clock().nanos(), model.per_access_ns + 3 * 256 * model.per_byte_ns);
  for (uint64_t addr : {0x100, 0x900, 0x3000}) {
    uint64_t direct = 0;
    ASSERT_TRUE(memory_.ReadBytes(addr, &direct, 8));
    ASSERT_TRUE(session.ReadBytes(addr, &value, 8).ok());
    EXPECT_EQ(value, direct);
  }
  EXPECT_EQ(target_.reads(), 1u);
  // Nothing recorded, nothing fetched.
  EXPECT_EQ(session.FetchDeferred().batches, 0u);
}

// A batch pays the round trip the deferred read would have paid: the first
// read of each block it fetched is that miss, the next one a hit.
TEST_F(CacheTest, FirstReadOfABatchedBlockIsTheMiss) {
  ReadSession session(&target_, CacheConfig{256, 64});
  session.set_deferring(true);
  uint64_t value = 0;
  for (uint64_t addr : {0x100, 0x900}) {
    EXPECT_TRUE(ReadSession::IsDeferred(session.ReadBytes(addr, &value, 8)));
  }
  ASSERT_EQ(session.FetchDeferred().fetched_blocks, 2u);
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t addr : {0x100, 0x900}) {
      ASSERT_TRUE(session.ReadBytes(addr, &value, 8).ok());
    }
  }
  const CacheStats& stats = session.cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.miss_bytes, 16u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.hit_bytes, 16u);
  EXPECT_EQ(target_.reads(), 1u);
}

// A string read that defers returns the deferral at once: retrying it byte by
// byte would only defer again.
TEST_F(CacheTest, DeferredCStringDefersOnce) {
  ReadSession session(&target_, CacheConfig{256, 64});
  session.set_deferring(true);
  vl::StatusOr<std::string> name = session.ReadCString(0x100, 32);
  EXPECT_TRUE(ReadSession::IsDeferred(name.status())) << name.status().ToString();
  EXPECT_EQ(session.deferrals(), 1u);
  EXPECT_EQ(target_.reads(), 0u);
}

// A block a batch could not read is not deferred again: later reads of it
// take the exact-range fallback, so a walker retrying them makes progress.
TEST_F(CacheTest, UnreadableBlockDoesNotDeferForever) {
  FlatMemory memory(1000);
  Target target(&memory, LatencyModel::GdbQemu());
  ReadSession session(&target, CacheConfig{256, 64});
  session.set_deferring(true);
  uint64_t value = 0;
  EXPECT_TRUE(ReadSession::IsDeferred(session.ReadBytes(992, &value, 8)));
  ReadSession::SpanFetch fetch = session.FetchDeferred();
  EXPECT_EQ(fetch.batches, 1u);
  EXPECT_EQ(fetch.fetched_blocks, 0u);
  // Retried: the exact-range fallback, charged like a raw read.
  uint64_t deferrals = session.deferrals();
  ASSERT_TRUE(session.ReadBytes(992, &value, 8).ok());
  EXPECT_EQ(session.deferrals(), deferrals);
  EXPECT_EQ(session.cache_stats().uncached_reads, 1u);
  uint64_t direct = 0;
  ASSERT_TRUE(memory.ReadBytes(992, &direct, 8));
  EXPECT_EQ(value, direct);
  EXPECT_EQ(session.deferred_blocks(), 0u);
}

// The unreadable set belongs to one epoch: once memory moves, the block is
// worth a batch again.
TEST_F(CacheTest, EpochChangeClearsTheUnreadableSet) {
  FlatMemory memory(1000);
  Target target(&memory, LatencyModel::GdbQemu());
  ReadSession session(&target, CacheConfig{256, 64});
  session.set_deferring(true);
  uint64_t value = 0;
  EXPECT_TRUE(ReadSession::IsDeferred(session.ReadBytes(992, &value, 8)));
  (void)session.FetchDeferred();
  ASSERT_TRUE(session.ReadBytes(992, &value, 8).ok());  // fallback, no deferral

  memory.Bump();
  EXPECT_TRUE(ReadSession::IsDeferred(session.ReadBytes(992, &value, 8)));
  EXPECT_EQ(session.deferred_blocks(), 1u);
}

// --- the page log (memo page tracking) --------------------------------------

// While a log is set, every read appends the 4 KiB granules of its range,
// deferred reads included, skipping a repeat of the last entry.
TEST_F(CacheTest, PageLogAppendsTheGranulesOfEachRead) {
  constexpr uint64_t kGranule = 4096;
  ReadSession session(&target_, CacheConfig{256, 64});
  std::vector<uint64_t> log;
  EXPECT_EQ(session.set_page_log(&log), nullptr);
  uint64_t value = 0;
  ASSERT_TRUE(session.ReadBytes(kGranule - 4, &value, 8).ok());  // spans two granules
  EXPECT_EQ(log, (std::vector<uint64_t>{0, kGranule}));
  ASSERT_TRUE(session.ReadBytes(kGranule + 8, &value, 8).ok());
  ASSERT_TRUE(session.ReadBytes(kGranule + 16, &value, 8).ok());
  EXPECT_EQ(log, (std::vector<uint64_t>{0, kGranule}));

  session.set_deferring(true);
  EXPECT_TRUE(ReadSession::IsDeferred(session.ReadBytes(5 * kGranule, &value, 8)));
  EXPECT_EQ(log, (std::vector<uint64_t>{0, kGranule, 5 * kGranule}));
  session.set_deferring(false);

  // With no log set, reads log nothing.
  EXPECT_EQ(session.set_page_log(nullptr), &log);
  ASSERT_TRUE(session.ReadBytes(9 * kGranule, &value, 8).ok());
  EXPECT_EQ(log, (std::vector<uint64_t>{0, kGranule, 5 * kGranule}));
}

// A flat memory that reports its readable range, like the kernel arena.
class RangedMemory : public FlatMemory {
 public:
  RangedMemory(size_t size, uint64_t first) : FlatMemory(size), first_(first) {}
  bool ReadBytes(uint64_t addr, void* out, size_t len) const override {
    return addr >= first_ && FlatMemory::ReadBytes(addr, out, len);
  }
  std::vector<std::pair<uint64_t, uint64_t>> ReadableRanges() const override {
    return {{first_, size()}};
  }

 private:
  uint64_t first_;
};

// A block at the edge of readable memory is fetched clipped to its readable
// bytes and cached like any other; reads past the edge still fail.
TEST_F(CacheTest, EdgeBlocksCacheTheirReadableBytes) {
  RangedMemory memory(1000, 16);  // readable [16, 1000): both edges mid-block
  Target target(&memory, LatencyModel::GdbQemu());
  ReadSession session(&target, CacheConfig{256, 64});
  uint64_t value = 0;
  ASSERT_TRUE(session.ReadBytes(16, &value, 8).ok());
  ASSERT_TRUE(session.ReadBytes(992, &value, 8).ok());
  EXPECT_EQ(session.cache_stats().uncached_reads, 0u);
  EXPECT_EQ(session.cached_blocks(), 2u);
  EXPECT_EQ(target.reads(), 2u);
  EXPECT_EQ(target.bytes_read(), (256u - 16) + (1000u - 768));
  // Cached: re-reads are free, and agree with memory.
  uint64_t direct = 0;
  ASSERT_TRUE(memory.ReadBytes(24, &direct, 8));
  ASSERT_TRUE(session.ReadBytes(24, &value, 8).ok());
  EXPECT_EQ(value, direct);
  EXPECT_EQ(target.reads(), 2u);
  // Past either edge: an error, as a raw read gives.
  EXPECT_FALSE(session.ReadBytes(8, &value, 8).ok());
  EXPECT_FALSE(session.ReadBytes(996, &value, 8).ok());
  EXPECT_FALSE(target.ReadBytes(996, &value, 8).ok());

  // Batched the same way.
  ReadSession batched(&target, CacheConfig{256, 64});
  batched.set_deferring(true);
  EXPECT_TRUE(ReadSession::IsDeferred(batched.ReadBytes(16, &value, 8)));
  EXPECT_EQ(batched.FetchDeferred().fetched_blocks, 1u);
  ASSERT_TRUE(batched.ReadBytes(16, &value, 8).ok());
  EXPECT_EQ(batched.cache_stats().uncached_reads, 0u);
}

// --- end-to-end: cache on vs off over real extractions ----------------------

class CacheKernelTest : public vltest::WorkloadKernelTest {};

// The determinism contract in one assertion: for every figure, a cached
// extraction renders byte-identically to an uncached one.
TEST_F(CacheKernelTest, CachedAndUncachedRendersAreByteIdentical) {
  KernelDebugger cached(kernel_.get(), LatencyModel::GdbQemu());
  KernelDebugger uncached(kernel_.get(), LatencyModel::GdbQemu(),
                          CacheConfig::Disabled());
  vision::RegisterFigureSymbols(&cached, workload_.get());
  vision::RegisterFigureSymbols(&uncached, workload_.get());
  vision::AsciiRenderer renderer;

  for (const vision::FigureDef& figure : vision::AllFigures()) {
    viewcl::Interpreter interp_cached(&cached);
    auto graph_cached = interp_cached.RunProgram(figure.viewcl);
    viewcl::Interpreter interp_uncached(&uncached);
    auto graph_uncached = interp_uncached.RunProgram(figure.viewcl);
    ASSERT_EQ(graph_cached.ok(), graph_uncached.ok()) << figure.id;
    if (!graph_cached.ok()) {
      continue;
    }
    EXPECT_EQ(renderer.Render(**graph_cached), renderer.Render(**graph_uncached))
        << figure.id;
  }
  EXPECT_GT(cached.session().cache_stats().hits, 0u);
  EXPECT_LT(cached.target().clock().nanos(), uncached.target().clock().nanos());
}

// A pane refresh after TickCpu must not render stale memory: the kernel's
// generation bump flushes the cache.
TEST_F(CacheKernelTest, TickCpuInvalidatesCachedExtraction) {
  KernelDebugger debugger(kernel_.get(), LatencyModel::Free());
  vision::RegisterFigureSymbols(&debugger, workload_.get());
  const vision::FigureDef* figure = vision::FindFigure("fig7_1");
  ASSERT_NE(figure, nullptr);

  viewcl::Interpreter interp1(&debugger);
  ASSERT_TRUE(interp1.RunProgram(figure->viewcl).ok());
  ASSERT_GT(debugger.session().cached_blocks(), 0u);

  // Mutate through the kernel's official entry point...
  for (int cpu = 0; cpu < vkern::kNrCpus; ++cpu) {
    kernel_->TickCpu(cpu);
  }
  // ...and verify the refreshed extraction matches a cold-cache debugger's.
  viewcl::Interpreter interp2(&debugger);
  auto refreshed = interp2.RunProgram(figure->viewcl);
  ASSERT_TRUE(refreshed.ok());
  EXPECT_GT(debugger.session().cache_stats().invalidations, 0u);

  KernelDebugger fresh(kernel_.get(), LatencyModel::Free());
  vision::RegisterFigureSymbols(&fresh, workload_.get());
  viewcl::Interpreter interp3(&fresh);
  auto cold = interp3.RunProgram(figure->viewcl);
  ASSERT_TRUE(cold.ok());
  vision::AsciiRenderer renderer;
  EXPECT_EQ(renderer.Render(**refreshed), renderer.Render(**cold));
}

// fig8_2's zone descriptor sits in the arena's first block, which starts
// before readable memory. Learned at attach, the arena's range lets that
// block cache: a cold paint reads nothing outside the cache, renders like the
// raw transport, and a second paint over unchanged memory reads nothing.
TEST_F(CacheKernelTest, ArenaEdgeBlockCachesOnACachedSession) {
  KernelDebugger cached(kernel_.get(), LatencyModel::GdbQemu());
  KernelDebugger raw(kernel_.get(), LatencyModel::GdbQemu(), CacheConfig::Disabled());
  vision::RegisterFigureSymbols(&cached, workload_.get());
  vision::RegisterFigureSymbols(&raw, workload_.get());
  const vision::FigureDef* figure = vision::FindFigure("fig8_2");
  ASSERT_NE(figure, nullptr);
  vision::AsciiRenderer renderer;

  viewcl::Interpreter interp(&cached);
  ASSERT_TRUE(interp.Load(figure->viewcl).ok());
  auto cold = interp.Run();
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cached.session().cache_stats().uncached_reads, 0u);
  viewcl::Interpreter raw_interp(&raw);
  auto expected = raw_interp.RunProgram(figure->viewcl);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(renderer.Render(**cold), renderer.Render(**expected));

  uint64_t reads = cached.target().reads();
  auto warm = interp.Run();
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(cached.target().reads(), reads);
  EXPECT_EQ(renderer.Render(**warm), renderer.Render(**expected));
}

}  // namespace
}  // namespace dbg
