// Incremental refresh correctness: the dirty-page journal over the arena,
// Target's charged dirty-log queries, ReadSession delta invalidation (the
// one-batch refresh of touched stale blocks, with the all-dirty fallback),
// viewcl memo replay, the pane render-digest cache — and the end-to-end
// contract that incremental refreshes render byte-identically to cold-cache
// extractions for every figure, across epoch skew, including a randomized
// differential test of a served dashboard against a raw reference.

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <csignal>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/analysis/check.h"
#include "src/dbg/kernel_introspect.h"
#include "src/dbg/read_session.h"
#include "src/dbg/target.h"
#include "src/serve/server.h"
#include "src/support/rng.h"
#include "src/support/trace.h"
#include "src/viewcl/interp.h"
#include "src/vision/figures.h"
#include "src/vision/panes.h"
#include "src/vision/render.h"
#include "src/vkern/kernel.h"
#include "src/vkern/page_journal.h"
#include "src/vkern/workload.h"
#include "tests/served_shell.h"
#include "tests/test_util.h"

namespace dbg {
namespace {

constexpr uint64_t kPage = 4096;

// --- the page-hash journal over the kernel arena ----------------------------

TEST(PageJournalTest, CleanAtAttachDirtyAfterMutation) {
  vkern::Kernel kernel;
  vkern::PageJournal journal(&kernel.arena(), kernel.generation());
  EXPECT_GT(journal.page_count(), 0u);

  // Attaching baselines every page at the attach generation: nothing is
  // dirty relative to it.
  EXPECT_TRUE(journal.DirtyPagesSince(kernel.generation(), kernel.generation()).empty());

  uint64_t attach_gen = kernel.generation();
  for (int cpu = 0; cpu < vkern::kNrCpus; ++cpu) {
    kernel.TickCpu(cpu);
  }
  std::vector<uint32_t> dirty = journal.DirtyPagesSince(attach_gen, kernel.generation());
  EXPECT_GT(dirty.size(), 0u) << "a tick mutates scheduler/timer pages";
  EXPECT_LT(dirty.size(), journal.page_count()) << "a tick must not touch everything";
}

TEST(PageJournalTest, RescansLazilyOncePerGeneration) {
  vkern::Kernel kernel;
  vkern::PageJournal journal(&kernel.arena(), kernel.generation());
  uint64_t scans_after_attach = journal.scans();

  // Same generation: answers come from the existing hashes, no rescan.
  (void)journal.DirtyPagesSince(0, kernel.generation());
  (void)journal.DirtyPagesSince(0, kernel.generation());
  EXPECT_EQ(journal.scans(), scans_after_attach);

  uint64_t attach_gen = kernel.generation();
  kernel.TickCpu(0);
  (void)journal.DirtyPagesSince(attach_gen, kernel.generation());
  EXPECT_EQ(journal.scans(), scans_after_attach + 1);
  (void)journal.DirtyPagesSince(attach_gen, kernel.generation());
  EXPECT_EQ(journal.scans(), scans_after_attach + 1);
}

// --- the journal against an independent oracle ------------------------------

// The journal's contract computed the slow way, sharing no code with the
// journal or the arena's write log: a byte snapshot of the arena as of the
// previous query, compared page by page at the next query that sees a new
// generation. A page that differs is stamped with that generation.
class SnapshotOracle {
 public:
  SnapshotOracle(const vkern::Arena& arena, uint64_t generation)
      : arena_(arena),
        snapshot_(arena.base(), arena.base() + arena.size()),
        last_changed_(arena.size() / kPage, generation),
        synced_gen_(generation) {}

  std::vector<uint32_t> DirtyPagesSince(uint64_t since_generation, uint64_t current_generation) {
    if (current_generation != synced_gen_) {
      for (size_t p = 0; p < last_changed_.size(); ++p) {
        uint8_t* then = snapshot_.data() + p * kPage;
        const uint8_t* now = arena_.base() + p * kPage;
        if (std::memcmp(then, now, kPage) != 0) {
          std::memcpy(then, now, kPage);
          last_changed_[p] = current_generation;
        }
      }
      synced_gen_ = current_generation;
    }
    std::vector<uint32_t> dirty;
    for (size_t p = 0; p < last_changed_.size(); ++p) {
      if (last_changed_[p] > since_generation) {
        dirty.push_back(static_cast<uint32_t>(p));
      }
    }
    return dirty;
  }

 private:
  const vkern::Arena& arena_;
  std::vector<uint8_t> snapshot_;
  std::vector<uint64_t> last_changed_;
  uint64_t synced_gen_;
};

// A journal and its oracle, attached to a kernel at the same generation.
struct OracleJournal {
  explicit OracleJournal(vkern::Kernel* kernel)
      : kernel(kernel),
        attach_gen(kernel->generation()),
        journal(&kernel->arena(), attach_gen),
        oracle(kernel->arena(), attach_gen) {}

  // Compares the dirty sets against every earlier generation.
  ::testing::AssertionResult MatchesOracle() {
    uint64_t now = kernel->generation();
    for (uint64_t since = attach_gen - 1; since <= now; ++since) {
      std::vector<uint32_t> got = journal.DirtyPagesSince(since, now);
      std::vector<uint32_t> want = oracle.DirtyPagesSince(since, now);
      if (got != want) {
        return ::testing::AssertionFailure()
               << "generation " << now << ", since " << since << ": journal reports "
               << got.size() << " dirty pages, oracle " << want.size();
      }
    }
    return ::testing::AssertionSuccess();
  }

  vkern::Kernel* kernel;
  uint64_t attach_gen;
  vkern::PageJournal journal;
  SnapshotOracle oracle;
};

// A small kernel driven by a seeded random mix of CPU ticks, workload steps,
// queued mm_percpu_wq work and raw pokes. Pokes that change a byte land in
// pages the test took from the buddy allocator, so the kernel never reads
// them; same-value rewrites land anywhere. Half the pokes hit the last 16
// bytes of an arena page, which sit on the next host page.
class KernelMutator {
 public:
  explicit KernelMutator(uint64_t seed) : rng_(seed) {
    vkern::KernelConfig config;
    config.arena_bytes = 16ull << 20;
    config.seed = seed;
    kernel_ = std::make_unique<vkern::Kernel>(config);
    vkern::WorkloadConfig workload_config;
    workload_config.steps = 4;
    workload_config.seed = seed;
    workload_ = std::make_unique<vkern::Workload>(kernel_.get(), workload_config);
    workload_->Run();
    constexpr int kOrder = 2;
    uint64_t spare = reinterpret_cast<uint64_t>(
        kernel_->buddy().PageAddress(kernel_->buddy().AllocPages(kOrder)));
    uint64_t base = kernel_->arena().base_addr();
    first_spare_page_ = (spare - base + kPage - 1) / kPage;
    end_spare_page_ = (spare + (kPage << kOrder) - base) / kPage;
  }

  vkern::Kernel* kernel() { return kernel_.get(); }
  vkern::Workload* workload() { return workload_.get(); }

  void Step() {
    int cpu = static_cast<int>(rng_.NextBelow(vkern::kNrCpus));
    switch (rng_.NextBelow(6)) {
      case 0:
        kernel_->TickCpu(cpu);
        break;
      case 1:
        workload_->Step();
        break;
      case 2:
        kernel_->QueueMmPercpuWork(cpu);
        break;
      case 3:
        Poke(rng_.NextInRange(first_spare_page_, end_spare_page_ - 1), /*change=*/true);
        kernel_->BumpGeneration();
        break;
      case 4:
        Poke(rng_.NextBelow(kernel_->arena().size() / kPage), /*change=*/false);
        kernel_->BumpGeneration();
        break;
      default:
        // No bump: the next scan attributes the write to a later generation.
        Poke(rng_.NextInRange(first_spare_page_, end_spare_page_ - 1), /*change=*/true);
        break;
    }
  }

 private:
  void Poke(uint64_t page, bool change) {
    uint64_t offset = rng_.NextChance(1, 2) ? kPage - 16 + rng_.NextBelow(16)
                                            : rng_.NextBelow(kPage - 16);
    volatile uint8_t* byte = kernel_->arena().base() + page * kPage + offset;
    uint8_t value = *byte;
    *byte = change ? static_cast<uint8_t>(value + 1 + rng_.NextBelow(255)) : value;
  }

  vl::Rng rng_;
  std::unique_ptr<vkern::Kernel> kernel_;
  std::unique_ptr<vkern::Workload> workload_;
  uint64_t first_spare_page_ = 0;
  uint64_t end_spare_page_ = 0;
};

// After every step, every journal answers exactly as the oracle does, for
// every earlier generation: one attached before the sequence, one attached
// mid-sequence and queried every other step, while short-lived journals come
// and go — some only baselining (vbench's probe), some collecting the write
// log before the others query it.
TEST(PageJournalTest, MatchesSnapshotOracleOverRandomMutations) {
  constexpr int kSteps = 60;
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    KernelMutator mutator(seed);
    vkern::Kernel* kernel = mutator.kernel();
    OracleJournal first(kernel);
    std::unique_ptr<OracleJournal> second;
    for (int step = 0; step < kSteps; ++step) {
      std::optional<vkern::PageJournal> probe;
      if (step % 3 != 0) {
        probe.emplace(&kernel->arena(), kernel->generation());
      }
      uint64_t before = kernel->generation();
      mutator.Step();
      if (probe && step % 3 == 1) {
        (void)probe->DirtyPagesSince(before, kernel->generation());
      }
      probe.reset();
      if (step == kSteps / 3) {
        second = std::make_unique<OracleJournal>(kernel);
      }
      ASSERT_TRUE(first.MatchesOracle()) << "step " << step;
      if (second != nullptr && step % 2 == 0) {
        ASSERT_TRUE(second->MatchesOracle()) << "step " << step;
      }
    }
    // The write log did the work: rescans hashed only a fraction of the arena.
    const vkern::PageJournal& journal = first.journal;
    EXPECT_LT(journal.pages_hashed() - journal.page_count(),
              (journal.scans() - 1) * journal.page_count() / 4);
  }
}

// Two kernels alive at once keep separate write logs: writes to one never
// show up in the other's journal, and each matches its own oracle.
TEST(PageJournalTest, TwoKernelsKeepSeparateWriteLogs) {
  KernelMutator left(11);
  KernelMutator right(12);
  OracleJournal left_journal(left.kernel());
  OracleJournal right_journal(right.kernel());
  for (int step = 0; step < 40; ++step) {
    (step % 3 == 0 ? right : left).Step();
    ASSERT_TRUE(left_journal.MatchesOracle()) << "step " << step;
    ASSERT_TRUE(right_journal.MatchesOracle()) << "step " << step;
  }
}

// A rescan rehashes only what was written since the previous scan: with
// 4 KiB host pages, a byte poked into a host page costs the two arena pages
// that host page overlaps, and a same-value rewrite is rehashed but not
// reported dirty.
TEST(PageJournalTest, RescanHashesOnlyWrittenPages) {
  vkern::KernelConfig config;
  config.arena_bytes = 16ull << 20;
  vkern::Kernel kernel(config);
  auto* spare =
      static_cast<uint8_t*>(kernel.buddy().PageAddress(kernel.buddy().AllocPages(2)));
  vkern::PageJournal journal(&kernel.arena(), kernel.generation());

  struct Poke {
    size_t offset;
    uint8_t value;
    size_t dirty_pages;
  };
  for (Poke poke : {Poke{100, 7, 1}, Poke{kPage + 100, 7, 1}, Poke{kPage + 100, 7, 0}}) {
    uint64_t hashed_before = journal.pages_hashed();
    spare[poke.offset] = poke.value;
    kernel.BumpGeneration();
    std::vector<uint32_t> dirty =
        journal.DirtyPagesSince(kernel.generation() - 1, kernel.generation());
    EXPECT_EQ(journal.pages_hashed() - hashed_before, 2u);
    EXPECT_EQ(dirty.size(), poke.dirty_pages);
  }
}

// The arena starts 16 bytes into a host page, where operator new[] used to
// put it: every object keeps its page offset, so every figure keeps reading
// the same 256 B blocks.
TEST(PageJournalTest, ArenaBaseSitsSixteenBytesIntoAPage) {
  vkern::Kernel kernel;
  EXPECT_EQ(kernel.arena().base_addr() % vkern::kPageSize, 16u);
  // And 16 bytes past a boundary of the largest buddy block, so the buddy
  // allocator's absolute-pfn alignment lays every kernel out alike.
  EXPECT_EQ(kernel.arena().base_addr() % (uint64_t{4} << 20), 16u);
}

// Arming the write log installs a process-wide SIGSEGV handler; it forwards
// every fault it does not own, so a stray write outside every arena still
// crashes.
void WriteToReadOnlyPageAfterArming() {
  vkern::KernelConfig config;
  config.arena_bytes = 16ull << 20;
  vkern::Kernel kernel(config);
  vkern::PageJournal journal(&kernel.arena(), kernel.generation());
  void* page = mmap(nullptr, kPage, PROT_READ, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(page, MAP_FAILED);
  *static_cast<volatile uint8_t*>(page) = 1;
}

TEST(PageJournalDeathTest, StrayWriteStillCrashes) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  // The sanitizer's handler, installed first, reports the fault and exits.
  EXPECT_DEATH(WriteToReadOnlyPageAfterArming(), "SEGV on unknown address");
#else
  EXPECT_EXIT(WriteToReadOnlyPageAfterArming(), ::testing::KilledBySignal(SIGSEGV), "");
#endif
}

// --- a flat memory domain with an exact dirty log ---------------------------

// FlatMemory plus a precise per-page dirty log, so delta invalidation can be
// unit-tested without a kernel: Mutate() is one epoch + one dirtied page.
class FlatDirtyMemory : public MemoryDomain {
 public:
  explicit FlatDirtyMemory(size_t size) : bytes_(size) {
    for (size_t i = 0; i < size; ++i) {
      bytes_[i] = static_cast<uint8_t>(i * 31 + 7);
    }
  }
  bool ReadBytes(uint64_t addr, void* out, size_t len) const override {
    if (addr + len > bytes_.size()) {
      return false;
    }
    for (const auto& [first, last] : holes_) {
      if (addr < last && addr + len > first) {
        return false;
      }
    }
    std::memcpy(out, bytes_.data() + addr, len);
    return true;
  }
  uint64_t generation() const override { return generation_; }
  DirtyPageInfo DirtyPagesSince(uint64_t since_generation) const override {
    DirtyPageInfo info;
    info.supported = true;
    info.page_size = kPage;
    info.pages_total = bytes_.size() / kPage;
    info.pages_scanned = info.pages_total;
    for (const auto& [page, gen] : dirty_) {
      if (gen > since_generation) {
        info.dirty_pages.push_back(page * kPage);
      }
    }
    return info;
  }

  void Mutate(uint64_t addr, uint8_t value) {
    ++generation_;
    bytes_[addr] = value;
    dirty_[addr / kPage] = generation_;
  }
  // Makes [addr, addr+len) unreadable: one epoch, its page dirtied.
  void Unmap(uint64_t addr, size_t len) {
    ++generation_;
    holes_.emplace_back(addr, addr + len);
    dirty_[addr / kPage] = generation_;
  }
  void MutateAllPages() {
    ++generation_;
    for (uint64_t page = 0; page < bytes_.size() / kPage; ++page) {
      bytes_[page * kPage] ^= 0xFF;
      dirty_[page] = generation_;
    }
  }

 private:
  std::vector<uint8_t> bytes_;
  uint64_t generation_ = 0;
  std::map<uint64_t, uint64_t> dirty_;  // page index -> last dirty generation
  std::vector<std::pair<uint64_t, uint64_t>> holes_;  // unreadable [first, last)
};

TEST(DeltaInvalidationTest, EvictsOnlyBlocksOnDirtyPages) {
  FlatDirtyMemory memory(16 * kPage);
  Target target(&memory, LatencyModel::Free());
  ReadSession session(&target, CacheConfig::Incremental());
  ASSERT_TRUE(session.delta_enabled());
  const uint64_t block = session.config().block_bytes;

  ASSERT_TRUE(session.ReadUnsigned(0, 8).ok());          // page 0, first block
  ASSERT_TRUE(session.ReadUnsigned(block, 8).ok());      // page 0, second block
  ASSERT_TRUE(session.ReadUnsigned(2 * kPage, 8).ok());  // page 2
  EXPECT_EQ(target.reads(), 3u);

  memory.Mutate(0, 0xEE);

  // The epoch change re-reads the dirty page's two blocks in one batch; the
  // clean page survives as it was.
  ASSERT_TRUE(session.ReadUnsigned(2 * kPage, 8).ok());
  EXPECT_EQ(target.reads(), 4u);
  EXPECT_EQ(session.cache_stats().delta_invalidations, 1u);
  EXPECT_EQ(session.cache_stats().invalidations, 0u);
  EXPECT_EQ(session.cache_stats().refreshed_blocks, 2u);
  EXPECT_EQ(session.cache_stats().invalidated_bytes_delta, 0u);
  EXPECT_EQ(session.cache_stats().invalidated_bytes_full, 0u);

  // The refreshed block serves the new byte with no further read.
  auto fresh = session.ReadUnsigned(0, 1);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*fresh, 0xEEu);
  EXPECT_EQ(target.reads(), 4u);

  // Nobody touched the second block since its refresh fetched it: the next
  // dirtying of page 0 evicts it and re-reads only the first.
  memory.Mutate(1, 0xDD);
  EXPECT_EQ(session.SyncEpoch(), memory.generation());
  EXPECT_EQ(target.reads(), 5u);
  EXPECT_EQ(session.cache_stats().refreshed_blocks, 3u);
  EXPECT_EQ(session.cache_stats().invalidated_bytes_delta, block);
  EXPECT_EQ(session.cached_blocks(), 2u);
}

TEST(DeltaInvalidationTest, AllPagesDirtyFallsBackToFullFlush) {
  FlatDirtyMemory memory(16 * kPage);
  Target target(&memory, LatencyModel::Free());
  ReadSession session(&target, CacheConfig::Incremental());

  for (uint64_t page = 0; page < 16; ++page) {
    ASSERT_TRUE(session.ReadUnsigned(page * kPage, 8).ok());
  }
  memory.MutateAllPages();

  // Dirty ratio 1.0 > the 0.5 threshold: one flush, not 16 pages of block
  // walking — and the legacy `invalidations` counter keeps its meaning.
  ASSERT_TRUE(session.ReadUnsigned(0, 1).ok());
  EXPECT_EQ(session.cache_stats().invalidations, 1u);
  EXPECT_EQ(session.cache_stats().delta_invalidations, 0u);
  EXPECT_GT(session.cache_stats().invalidated_bytes_full, 0u);

  // Every page refetches fresh bytes.
  auto v = session.ReadUnsigned(5 * kPage, 1);
  ASSERT_TRUE(v.ok());
  uint64_t direct = 0;
  ASSERT_TRUE(target.ReadBytes(5 * kPage, &direct, 1).ok());
  EXPECT_EQ(*v, direct);
}

TEST(DeltaInvalidationTest, DomainWithoutDirtyLogFallsBackToFullFlush) {
  // FlatDirtyMemory minus the override: DirtyPagesSince is unsupported.
  class PlainMemory : public MemoryDomain {
   public:
    bool ReadBytes(uint64_t addr, void* out, size_t len) const override {
      std::memset(out, static_cast<int>(addr & 0xFF), len);
      return true;
    }
    uint64_t generation() const override { return generation_; }
    void Bump() { ++generation_; }

   private:
    uint64_t generation_ = 0;
  };

  PlainMemory memory;
  Target target(&memory, LatencyModel::Free());
  ReadSession session(&target, CacheConfig::Incremental());
  ASSERT_TRUE(session.ReadUnsigned(0, 8).ok());
  memory.Bump();
  ASSERT_TRUE(session.ReadUnsigned(0, 8).ok());
  EXPECT_EQ(session.cache_stats().invalidations, 1u);
  EXPECT_EQ(session.cache_stats().delta_invalidations, 0u);
}

TEST(DeltaInvalidationTest, RangeCleanSinceTracksDirtyHistory) {
  FlatDirtyMemory memory(16 * kPage);
  Target target(&memory, LatencyModel::Free());
  ReadSession session(&target, CacheConfig::Incremental());
  uint64_t attach_epoch = session.epoch();

  memory.Mutate(3 * kPage + 100, 0xAB);
  EXPECT_EQ(session.SyncEpoch(), memory.generation());

  EXPECT_FALSE(session.RangeCleanSince(3 * kPage, 8, attach_epoch));
  EXPECT_TRUE(session.RangeCleanSince(5 * kPage, 8, attach_epoch));
  // A range straddling into the dirty page is dirty.
  EXPECT_FALSE(session.RangeCleanSince(3 * kPage - 4, 8, attach_epoch));
  // Relative to the current epoch everything is clean again.
  EXPECT_TRUE(session.RangeCleanSince(3 * kPage, 8, session.epoch()));
}

TEST(DeltaInvalidationTest, RePrefetchOfRefreshedObjectReadsNothing) {
  FlatDirtyMemory memory(16 * kPage);
  Target target(&memory, LatencyModel::Free());
  ReadSession session(&target, CacheConfig::Incremental());
  const uint64_t blocks_per_page = kPage / session.config().block_bytes;

  // A fake 2-page object type.
  Type object;
  object.name = "two_pages";
  object.size = 2 * kPage;

  session.PrefetchObject(0, &object);
  EXPECT_EQ(target.reads(), 2 * blocks_per_page);

  // Dirty only the second page: no read has used a sector of the object, so
  // the epoch change re-reads nothing and keeps its blocks, and
  // re-prefetching the object finds every block cached.
  memory.Mutate(kPage + 8, 0x55);
  session.SyncEpoch();
  EXPECT_EQ(target.reads(), 2 * blocks_per_page);
  EXPECT_EQ(session.cache_stats().refreshed_blocks, 0u);
  EXPECT_EQ(session.cached_blocks(), 2 * blocks_per_page);
  session.PrefetchObject(0, &object);
  EXPECT_EQ(target.reads(), 2 * blocks_per_page);
  // The first read of the dirtied block refills it.
  auto fresh = session.ReadUnsigned(kPage + 8, 1);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*fresh, 0x55u);
  EXPECT_EQ(target.reads(), 2 * blocks_per_page + 1);
  EXPECT_EQ(session.cache_stats().refills, 1u);
}

// --- the delta refresh --------------------------------------------------------

TEST(DeltaRefreshTest, RefreshIsOneChargedRead) {
  FlatDirtyMemory memory(16 * kPage);
  LatencyModel model{"test", 1000, 10, 50'000};
  Target target(&memory, model);
  ReadSession session(&target, CacheConfig::Incremental());
  const uint64_t block = session.config().block_bytes;

  // Three blocks on two pages that will be dirtied, one on a clean page; each
  // read uses 8 bytes of its block.
  for (uint64_t addr : {uint64_t{0}, block, kPage, 5 * kPage}) {
    ASSERT_TRUE(session.ReadUnsigned(addr, 8).ok());
  }
  const CacheStats before = session.cache_stats();
  EXPECT_EQ(before.used_bytes, 4 * 8u);
  memory.Mutate(4, 0x11);
  memory.Mutate(kPage + 4, 0x22);

  const uint64_t clock = target.clock().nanos();
  const uint64_t reads = target.reads();
  const uint64_t bytes = target.bytes_read();
  session.SyncEpoch();
  // The stale blocks' used bytes only, not the blocks.
  const uint64_t used = 3 * 8;
  const uint64_t query = model.dirty_query_ns + model.per_byte_ns * ((16 + 7) / 8);
  EXPECT_EQ(target.reads() - reads, 1u);
  EXPECT_EQ(target.bytes_read() - bytes, used);
  EXPECT_EQ(target.clock().nanos() - clock,
            query + model.per_access_ns + model.per_byte_ns * used);

  const CacheStats& after = session.cache_stats();
  EXPECT_EQ(after.refreshed_blocks, 3u);
  EXPECT_EQ(after.refreshed_bytes, used);
  EXPECT_EQ(after.refills, 0u);
  // The miss counters stay with miss-driven fetches.
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.block_fetches, before.block_fetches);
  EXPECT_EQ(after.fetched_bytes, before.fetched_bytes);
  EXPECT_EQ(after.vector_batches, before.vector_batches);
  EXPECT_EQ(after.vector_blocks, before.vector_blocks);

  // Fresh bytes, served with no further read.
  auto first = session.ReadUnsigned(4, 1);
  auto second = session.ReadUnsigned(kPage + 4, 1);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(*first, 0x11u);
  EXPECT_EQ(*second, 0x22u);
  EXPECT_EQ(target.reads() - reads, 1u);
}

TEST(DeltaRefreshTest, RefreshIsChargedToTheCacheNotTheReader) {
  FlatDirtyMemory memory(16 * kPage);
  Target target(&memory, LatencyModel::Free());
  ReadSession session(&target, CacheConfig::Incremental());
  vl::Tracer& tracer = vl::Tracer::Instance();
  tracer.Clear();
  tracer.Enable();
  {
    Target::TagScope tag(&target, "task_struct");
    ASSERT_TRUE(session.ReadUnsigned(0, 8).ok());
    memory.Mutate(8, 0x33);
    ASSERT_TRUE(session.ReadUnsigned(0, 8).ok());  // notices the epoch change
  }
  tracer.Disable();
  const auto& by_tag = tracer.read_stats().by_tag;
  ASSERT_EQ(by_tag.count("task_struct"), 1u);
  ASSERT_EQ(by_tag.count("cache.refresh"), 1u);
  EXPECT_EQ(by_tag.find("task_struct")->second.reads, 1u);
  EXPECT_EQ(by_tag.find("cache.refresh")->second.reads, 1u);
  // The refresh re-read the 8 bytes the first read used, not the block.
  EXPECT_EQ(by_tag.find("cache.refresh")->second.bytes, 8u);
  EXPECT_EQ(session.cache_stats().refreshed_bytes, 8u);
  tracer.Clear();
}

TEST(DeltaRefreshTest, UnreadRefreshedBlockIsReadAtMostOnce) {
  FlatDirtyMemory memory(16 * kPage);
  Target target(&memory, LatencyModel::Free());
  ReadSession session(&target, CacheConfig::Incremental());
  const uint64_t block = session.config().block_bytes;
  ASSERT_TRUE(session.ReadUnsigned(0, 8).ok());
  EXPECT_EQ(target.reads(), 1u);

  // Read once, so the first dirtying refreshes it; nobody reads it after
  // that, so the second evicts it and later ones find nothing to do.
  for (uint8_t value : {0x01, 0x02, 0x03}) {
    memory.Mutate(8, value);
    session.SyncEpoch();
    EXPECT_EQ(target.reads(), 2u) << "value " << int{value};
  }
  EXPECT_EQ(session.cache_stats().refreshed_blocks, 1u);
  EXPECT_EQ(session.cache_stats().invalidated_bytes_delta, block);
  EXPECT_EQ(session.cached_blocks(), 0u);

  // A later read misses and fetches the current bytes.
  auto value = session.ReadUnsigned(8, 1);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 0x03u);
  EXPECT_EQ(target.reads(), 3u);
}

TEST(DeltaRefreshTest, UnreadableSpanIsEvictedAndReadsFallBack) {
  FlatDirtyMemory memory(16 * kPage);
  Target target(&memory, LatencyModel::Free());
  ReadSession session(&target, CacheConfig::Incremental());
  const uint64_t block = session.config().block_bytes;
  const uint64_t base = 3 * kPage;
  ASSERT_TRUE(session.ReadUnsigned(base, 8).ok());
  ASSERT_TRUE(session.ReadUnsigned(base + block - 8, 8).ok());

  // The block's upper half goes away: the refresh batch cannot read the
  // sectors used there.
  memory.Unmap(base + block / 2, block / 2);
  session.SyncEpoch();
  EXPECT_EQ(target.reads(), 2u);
  EXPECT_EQ(session.cache_stats().refreshed_blocks, 0u);
  EXPECT_EQ(session.cache_stats().invalidated_bytes_delta, block);
  EXPECT_EQ(session.cached_blocks(), 0u);

  // The later read takes the exact-range fallback, even while deferring.
  session.set_deferring(true);
  EXPECT_FALSE(session.WouldDefer(base, 8));
  auto value = session.ReadUnsigned(base, 8);
  session.set_deferring(false);
  ASSERT_TRUE(value.ok());
  uint64_t direct = 0;
  ASSERT_TRUE(target.ReadBytes(base, &direct, 8).ok());
  EXPECT_EQ(*value, direct);
  EXPECT_EQ(session.deferrals(), 0u);
  EXPECT_EQ(session.cache_stats().uncached_reads, 1u);
  EXPECT_EQ(session.cache_stats().block_fetches, 1u);  // the first read only
}

// No read used the block's upper half before it went away, so the refresh
// succeeds; the first read that needs the upper half then fails to refill
// the block, which is evicted and remembered unreadable: that read and the
// later ones take the exact-range fallback. Deferring, the failed refill
// rides the batch and the retry does not defer again, so a walker's next
// level has nothing left to fetch.
TEST(DeltaRefreshTest, FailedRefillIsEvictedAndReadsFallBack) {
  for (bool deferring : {false, true}) {
    SCOPED_TRACE(deferring ? "deferring" : "direct");
    FlatDirtyMemory memory(16 * kPage);
    Target target(&memory, LatencyModel::Free());
    ReadSession session(&target, CacheConfig::Incremental());
    const uint64_t block = session.config().block_bytes;
    const uint64_t base = 3 * kPage;
    ASSERT_TRUE(session.ReadUnsigned(base, 8).ok());

    memory.Unmap(base + block / 2, block / 2);
    session.SyncEpoch();
    EXPECT_EQ(session.cache_stats().refreshed_blocks, 1u);
    EXPECT_EQ(session.cached_blocks(), 1u);

    uint64_t value = 0;
    session.set_deferring(deferring);
    if (deferring) {
      EXPECT_TRUE(ReadSession::IsDeferred(session.ReadBytes(base + block - 8, &value, 8)));
      const ReadSession::SpanFetch fetch = session.FetchDeferred();
      EXPECT_EQ(fetch.batches, 1u);
      EXPECT_EQ(fetch.fetched_blocks, 0u);
    }
    const vl::Status upper = session.ReadBytes(base + block - 8, &value, 8);
    EXPECT_FALSE(upper.ok());
    EXPECT_FALSE(ReadSession::IsDeferred(upper));
    EXPECT_EQ(session.cached_blocks(), 0u);
    // A never-read sector of the readable half, through the same fallback.
    auto lower = session.ReadUnsigned(base + 16, 8);
    ASSERT_TRUE(lower.ok());
    uint64_t direct = 0;
    ASSERT_TRUE(memory.ReadBytes(base + 16, &direct, 8));
    EXPECT_EQ(*lower, direct);
    EXPECT_EQ(session.deferrals(), deferring ? 1u : 0u);
    EXPECT_EQ(session.FetchDeferred().batches, 0u);
    session.set_deferring(false);

    const CacheStats& stats = session.cache_stats();
    EXPECT_EQ(stats.refills, 0u);
    EXPECT_EQ(stats.refilled_bytes, 0u);
    EXPECT_EQ(stats.uncached_reads, 2u);
    EXPECT_EQ(stats.block_fetches, 1u);  // the first read only
  }
}

// The refresh re-reads the runs of sectors reads used, not the block.
TEST(DeltaRefreshTest, RefreshReReadsOnlyUsedSectors) {
  FlatDirtyMemory memory(16 * kPage);
  Target target(&memory, LatencyModel::Free());
  ReadSession session(&target, CacheConfig::Incremental());

  // Two fields of one block, apart: two runs of used sectors.
  ASSERT_TRUE(session.ReadUnsigned(0, 8).ok());
  ASSERT_TRUE(session.ReadUnsigned(64, 4).ok());
  EXPECT_EQ(session.cache_stats().used_bytes, 12u);
  // Reading a used sector again uses nothing new.
  ASSERT_TRUE(session.ReadUnsigned(4, 4).ok());
  EXPECT_EQ(session.cache_stats().used_bytes, 12u);

  memory.Mutate(64, 0x42);
  session.SyncEpoch();
  EXPECT_EQ(target.reads(), 2u);
  EXPECT_EQ(target.bytes_read(), session.config().block_bytes + 12);
  EXPECT_EQ(session.cache_stats().refreshed_blocks, 1u);
  EXPECT_EQ(session.cache_stats().refreshed_bytes, 12u);

  auto fresh = session.ReadUnsigned(64, 1);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*fresh, 0x42u);
  EXPECT_EQ(target.reads(), 2u);
  EXPECT_EQ(session.cache_stats().refills, 0u);
}

// A sector no read used before the refresh is invalid after it: the first
// read of it refills the block in one round trip and sees the fresh byte.
TEST(DeltaRefreshTest, NeverReadSectorRefillsInOneRoundTrip) {
  FlatDirtyMemory memory(16 * kPage);
  LatencyModel model{"test", 1000, 10, 50'000};
  Target target(&memory, model);
  ReadSession session(&target, CacheConfig::Incremental());
  const uint64_t block = session.config().block_bytes;
  ASSERT_TRUE(session.ReadUnsigned(0, 8).ok());

  memory.Mutate(100, 0x77);
  session.SyncEpoch();
  EXPECT_EQ(target.reads(), 2u);  // the fetch, then the refresh of [0, 8)

  const uint64_t clock = target.clock().nanos();
  auto fresh = session.ReadUnsigned(100, 1);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*fresh, 0x77u);
  EXPECT_EQ(target.reads(), 3u);
  EXPECT_EQ(target.clock().nanos() - clock, model.per_access_ns + model.per_byte_ns * (block - 8));
  const CacheStats& stats = session.cache_stats();
  EXPECT_EQ(stats.refills, 1u);
  EXPECT_EQ(stats.refilled_bytes, block - 8);
  EXPECT_EQ(stats.misses, 2u);         // the cold read and the refilling one
  EXPECT_EQ(stats.block_fetches, 1u);  // a refill is not a block fetch

  // The block is whole again.
  for (uint64_t addr : {uint64_t{101}, uint64_t{200}, block - 1}) {
    auto value = session.ReadUnsigned(addr, 1);
    ASSERT_TRUE(value.ok());
    uint64_t direct = 0;
    ASSERT_TRUE(memory.ReadBytes(addr, &direct, 1));
    EXPECT_EQ(*value, direct) << addr;
  }
  EXPECT_EQ(target.reads(), 3u);
  EXPECT_EQ(session.cache_stats().refills, 1u);
}

// FlatDirtyMemory readable only from `first` on, and saying so, as the kernel
// arena does: the blocks around `first` are edge blocks.
class EdgeDirtyMemory : public FlatDirtyMemory {
 public:
  EdgeDirtyMemory(size_t size, uint64_t first)
      : FlatDirtyMemory(size), size_(size), first_(first) {}
  bool ReadBytes(uint64_t addr, void* out, size_t len) const override {
    return addr >= first_ && FlatDirtyMemory::ReadBytes(addr, out, len);
  }
  std::vector<std::pair<uint64_t, uint64_t>> ReadableRanges() const override {
    return {{first_, size_}};
  }

 private:
  size_t size_;
  uint64_t first_;
};

// An edge block keeps its clipping through a refresh and its refills, on
// their own or in a batch, and a read past its readable part still takes
// the exact-range fallback.
TEST(DeltaRefreshTest, EdgeBlockKeepsItsClippingAndFallback) {
  EdgeDirtyMemory memory(16 * kPage, 18);  // readable [18, end): mid-block, mid-sector
  Target target(&memory, LatencyModel::Free());
  ReadSession session(&target, CacheConfig::Incremental());
  const uint64_t block = session.config().block_bytes;
  ASSERT_TRUE(session.ReadUnsigned(24, 8).ok());
  EXPECT_EQ(target.bytes_read(), block - 18);

  memory.Mutate(40, 0x66);
  session.SyncEpoch();
  EXPECT_EQ(session.cache_stats().refreshed_bytes, 8u);
  auto fresh = session.ReadUnsigned(40, 1);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*fresh, 0x66u);
  // The refill read the rest of the readable part: [18, 24) and [32, block).
  EXPECT_EQ(target.reads(), 3u);
  EXPECT_EQ(session.cache_stats().refills, 1u);
  EXPECT_EQ(session.cache_stats().refilled_bytes, block - 18 - 8);
  // The first readable bytes share a sector with unreadable ones.
  auto edge = session.ReadUnsigned(18, 2);
  ASSERT_TRUE(edge.ok());
  uint64_t direct = 0;
  ASSERT_TRUE(memory.ReadBytes(18, &direct, 2));
  EXPECT_EQ(*edge, direct);
  EXPECT_EQ(target.reads(), 3u);
  // Past the readable part: the exact-range fallback, failing as a raw read.
  uint64_t value = 0;
  EXPECT_FALSE(session.ReadBytes(16, &value, 4).ok());
  EXPECT_EQ(session.cache_stats().uncached_reads, 1u);
  EXPECT_EQ(session.cached_blocks(), 1u);

  // The refresh re-reads the used sectors [18, 20), [24, 32) and [40, 44);
  // a deferred read of another sector refills the block in the batch.
  memory.Mutate(200, 0x99);
  session.SyncEpoch();
  EXPECT_EQ(session.cache_stats().refreshed_bytes, 8u + 14u);
  session.set_deferring(true);
  EXPECT_TRUE(ReadSession::IsDeferred(session.ReadUnsigned(200, 1).status()));
  const ReadSession::SpanFetch fetch = session.FetchDeferred();
  EXPECT_EQ(fetch.batches, 1u);
  EXPECT_EQ(fetch.fetched_blocks, 1u);
  auto batched = session.ReadUnsigned(200, 1);
  EXPECT_FALSE(ReadSession::IsDeferred(session.ReadBytes(16, &value, 4)));
  session.set_deferring(false);
  ASSERT_TRUE(batched.ok());
  EXPECT_EQ(*batched, 0x99u);
  EXPECT_EQ(session.cache_stats().refills, 2u);
  EXPECT_EQ(session.cache_stats().refilled_bytes, (block - 18 - 8) + (block - 18 - 14));
  EXPECT_EQ(session.cache_stats().uncached_reads, 2u);
  EXPECT_EQ(session.cache_stats().vector_blocks, 0u);  // a refill fetches no block
}

// --- charged dirty-log queries ----------------------------------------------

TEST(DirtyQueryTest, ChargesModelCostWithoutCountingReads) {
  FlatDirtyMemory memory(16 * kPage);
  LatencyModel model{"test", 1000, 10, 50'000};
  Target target(&memory, model);

  uint64_t before = target.clock().nanos();
  DirtyPageInfo info = target.DirtyPagesSince(0);
  ASSERT_TRUE(info.supported);
  EXPECT_EQ(info.pages_total, 16u);

  // One dirty-log round trip plus the bitmap payload (one bit per page).
  uint64_t bitmap_bytes = (info.pages_total + 7) / 8;
  EXPECT_EQ(target.clock().nanos() - before,
            model.dirty_query_ns + model.per_byte_ns * bitmap_bytes);
  EXPECT_EQ(target.reads(), 0u) << "dirty queries are not memory reads";
  EXPECT_EQ(target.dirty_stats().queries, 1u);
  EXPECT_EQ(target.dirty_stats().charged_ns,
            model.dirty_query_ns + model.per_byte_ns * bitmap_bytes);
}

TEST(DirtyQueryTest, UnsupportedDomainChargesNothing) {
  class PlainMemory : public MemoryDomain {
   public:
    bool ReadBytes(uint64_t, void* out, size_t len) const override {
      std::memset(out, 0, len);
      return true;
    }
    uint64_t generation() const override { return 0; }
  };
  PlainMemory memory;
  Target target(&memory, LatencyModel::GdbQemu());
  DirtyPageInfo info = target.DirtyPagesSince(0);
  EXPECT_FALSE(info.supported);
  EXPECT_EQ(target.clock().nanos(), 0u);
  EXPECT_EQ(target.dirty_stats().queries, 0u);
}

// --- workload epoch coalescing ----------------------------------------------

TEST(MutationBatchTest, OneWorkloadStepCostsOneEpoch) {
  vkern::Kernel kernel;
  vkern::WorkloadConfig config;
  config.steps = 1;
  vkern::Workload workload(&kernel, config);
  workload.Run();  // spawn + one step

  uint64_t before = kernel.generation();
  workload.Step();
  EXPECT_EQ(kernel.generation(), before + 1)
      << "a step's ops + per-CPU ticks must coalesce into one epoch";

  // Standalone TickCpu still bumps (the classic cache contract).
  before = kernel.generation();
  kernel.TickCpu(0);
  EXPECT_EQ(kernel.generation(), before + 1);
}

// --- end-to-end: incremental refresh vs cold cache --------------------------

class IncrementalKernelTest : public vltest::WorkloadKernelTest {};

// The headline contract: a long-lived incremental debugger (delta
// invalidation + memo replay), refreshed across workload steps, renders
// byte-identically to a cold-cache extraction — for every figure.
TEST_F(IncrementalKernelTest, IncrementalRendersMatchColdCacheForAllFigures) {
  KernelDebugger incremental(kernel_.get(), LatencyModel::Free(),
                             CacheConfig::Incremental());
  vision::RegisterFigureSymbols(&incremental, workload_.get());
  vision::AsciiRenderer renderer;

  // One persistent interpreter per figure, so memo snapshots carry across
  // refreshes exactly like a pane's shared interpreter does.
  std::map<std::string, std::unique_ptr<viewcl::Interpreter>> interps;
  for (const vision::FigureDef& figure : vision::AllFigures()) {
    auto interp = std::make_unique<viewcl::Interpreter>(&incremental);
    ASSERT_TRUE(interp->Load(figure.viewcl).ok()) << figure.id;
    interps[figure.id] = std::move(interp);
  }

  for (int round = 0; round < 2; ++round) {
    if (round > 0) {
      workload_->Step();
    }
    KernelDebugger cold(kernel_.get(), LatencyModel::Free(), CacheConfig::Disabled());
    vision::RegisterFigureSymbols(&cold, workload_.get());
    for (const vision::FigureDef& figure : vision::AllFigures()) {
      auto inc_graph = interps[figure.id]->Run();
      viewcl::Interpreter cold_interp(&cold);
      auto cold_graph = cold_interp.RunProgram(figure.viewcl);
      ASSERT_EQ(inc_graph.ok(), cold_graph.ok()) << figure.id << " round " << round;
      if (!inc_graph.ok()) {
        continue;
      }
      EXPECT_EQ(renderer.Render(**inc_graph), renderer.Render(**cold_graph))
          << figure.id << " round " << round;
    }
  }
  // The steady-state rounds must actually exercise the incremental paths.
  EXPECT_GT(incremental.session().cache_stats().delta_invalidations, 0u);
  EXPECT_EQ(incremental.session().cache_stats().invalidations, 0u)
      << "a workload step dirties a small fraction of the arena";
}

TEST_F(IncrementalKernelTest, MemoReplaysCleanSubtreesOnRefresh) {
  KernelDebugger debugger(kernel_.get(), LatencyModel::Free(),
                          CacheConfig::Incremental());
  vision::RegisterFigureSymbols(&debugger, workload_.get());
  const vision::FigureDef* figure = vision::FindFigure("fig3_4");
  ASSERT_NE(figure, nullptr);

  viewcl::Interpreter interp(&debugger);
  ASSERT_TRUE(interp.Load(figure->viewcl).ok());
  auto first = interp.Run();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(interp.walk_stats().memo_replays, 0u);
  EXPECT_GT(interp.walk_stats().memo_misses, 0u);

  // Nothing mutated: the whole graph replays from memo snapshots.
  auto second = interp.Run();
  ASSERT_TRUE(second.ok());
  EXPECT_GT(interp.walk_stats().memo_replays, 0u);
  vision::AsciiRenderer renderer;
  EXPECT_EQ(renderer.Render(**first), renderer.Render(**second));
}

// Memo coverage: a box's memo holds the pages of its whole subtree, so a write
// to a page only a grandchild reads makes the root's memo miss. The chain is
// an ext4 file's dentry -> its inode -> the super_block, and only the
// super_block box reads s_id. With `recapture`, a write to the inode first
// re-captures the root and the inode while the super_block replays from its
// clean memo, so the s_id write reaches the root only through that replay.
// With `recursive`, an unreferenced box whose view inherits an unknown view
// keeps the program on the recursive walk.
void ExpectRootMemoCoversGrandchild(vkern::Kernel* kernel, bool recapture, bool recursive) {
  vkern::super_block* sb = kernel->ext4_sb();
  // The dirty log reports the arena page a write lands on, which straddles
  // two granules: the dentry and the inode must sit two pages or more from
  // s_id.
  auto far = [&](const void* p) {
    const uint64_t page = reinterpret_cast<uint64_t>(p) / kPage;
    const uint64_t s_id_page = reinterpret_cast<uint64_t>(sb->s_id) / kPage;
    return page + 1 < s_id_page || page > s_id_page + 1;
  };
  vkern::dentry* root = nullptr;
  VKERN_LIST_FOR_EACH(node, &sb->s_root->d_subdirs) {
    auto* child = VKERN_CONTAINER_OF(node, vkern::dentry, d_child);
    vkern::inode* child_ino = child->d_inode;
    if (root == nullptr && child_ino != nullptr && child_ino->i_sb == sb && far(child) &&
        far(child + 1) && far(child_ino) && far(child_ino + 1)) {
      root = child;
    }
  }
  ASSERT_NE(root, nullptr) << "no ext4 file sits two pages from its super_block";
  vkern::inode* ino = root->d_inode;

  char program[768];
  std::snprintf(program, sizeof(program), R"(
    define Sb as Box<super_block> [ Text<string> s_id ]
    define Ino as Box<inode> [
      Text i_ino
      Link i_sb -> Sb(${@this.i_sb})
    ]
    define Den as Box<dentry> [
      Text<string> d_name
      Link d_inode -> Ino(${@this.d_inode})
    ]
    %s
    plot Den(${(dentry*)0x%llx})
  )",
                recursive ? "define Stray as Box<dentry> { :nowhere => :stray [ Text d_count ] }"
                          : "",
                static_cast<unsigned long long>(reinterpret_cast<uint64_t>(root)));
  KernelDebugger debugger(kernel, LatencyModel::Free(), CacheConfig::Incremental());
  viewcl::Interpreter interp(&debugger);
  ASSERT_TRUE(interp.Load(program).ok());
  ASSERT_TRUE(interp.Run().ok());
  EXPECT_EQ(interp.walk_stats().memo_misses, 3u);
  if (recapture) {
    ino->i_ino++;
    kernel->BumpGeneration();
    interp.ResetWalkStats();
    ASSERT_TRUE(interp.Run().ok());
    EXPECT_EQ(interp.walk_stats().memo_misses, 2u);
    EXPECT_EQ(interp.walk_stats().memo_replays, 1u);  // the super_block
  }

  const uint64_t before_write = debugger.session().SyncEpoch();
  sb->s_id[0] = 'X';
  kernel->BumpGeneration();
  debugger.session().SyncEpoch();
  ASSERT_TRUE(debugger.session().RangeCleanSince(reinterpret_cast<uint64_t>(root),
                                                 sizeof(*root), before_write));
  ASSERT_TRUE(debugger.session().RangeCleanSince(reinterpret_cast<uint64_t>(ino),
                                                 sizeof(*ino), before_write));
  interp.ResetWalkStats();
  auto graph = interp.Run();
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(interp.walk_stats().runs, recursive ? 0u : 1u);
  EXPECT_EQ(interp.walk_stats().memo_replays, 0u);
  EXPECT_EQ(interp.walk_stats().memo_misses, 3u);

  KernelDebugger cold(kernel, LatencyModel::Free(), CacheConfig::Disabled());
  viewcl::Interpreter cold_interp(&cold);
  auto cold_graph = cold_interp.RunProgram(program);
  ASSERT_TRUE(cold_graph.ok());
  vision::AsciiRenderer renderer;
  const std::string render = renderer.Render(**graph);
  EXPECT_EQ(render, renderer.Render(**cold_graph));
  EXPECT_NE(render.find("Xda1"), std::string::npos) << render;
}

TEST_F(IncrementalKernelTest, RootMemoCoversAGrandchildWalkerTask) {
  ExpectRootMemoCoversGrandchild(kernel_.get(), /*recapture=*/false, /*recursive=*/false);
}

TEST_F(IncrementalKernelTest, RootMemoCoversAGrandchildReplayedInsideARecapturedParent) {
  ExpectRootMemoCoversGrandchild(kernel_.get(), /*recapture=*/true, /*recursive=*/false);
}

TEST_F(IncrementalKernelTest, RootMemoCoversAGrandchildOnTheRecursiveWalk) {
  ExpectRootMemoCoversGrandchild(kernel_.get(), /*recapture=*/false, /*recursive=*/true);
}

// Epoch skew: multiple mutation epochs between refreshes (a pane left unre-
// freshed while the kernel runs) must still converge to the cold render.
TEST_F(IncrementalKernelTest, RefreshAfterMultipleEpochBumpsMatchesCold) {
  KernelDebugger debugger(kernel_.get(), LatencyModel::Free(),
                          CacheConfig::Incremental());
  vision::RegisterFigureSymbols(&debugger, workload_.get());
  const vision::FigureDef* figure = vision::FindFigure("fig7_1");
  ASSERT_NE(figure, nullptr);

  viewcl::Interpreter interp(&debugger);
  ASSERT_TRUE(interp.Load(figure->viewcl).ok());
  ASSERT_TRUE(interp.Run().ok());

  uint64_t epoch_before = debugger.target().memory_generation();
  for (int i = 0; i < 3; ++i) {
    workload_->Step();
  }
  ASSERT_EQ(debugger.target().memory_generation(), epoch_before + 3);

  auto refreshed = interp.Run();
  ASSERT_TRUE(refreshed.ok());

  KernelDebugger cold(kernel_.get(), LatencyModel::Free(), CacheConfig::Disabled());
  vision::RegisterFigureSymbols(&cold, workload_.get());
  viewcl::Interpreter cold_interp(&cold);
  auto cold_graph = cold_interp.RunProgram(figure->viewcl);
  ASSERT_TRUE(cold_graph.ok());
  vision::AsciiRenderer renderer;
  EXPECT_EQ(renderer.Render(**refreshed), renderer.Render(**cold_graph));
}

// --- pane render-digest cache -----------------------------------------------

class RenderDigestTest : public vltest::WorkloadKernelTest {
 protected:
  void SetUp() override {
    vltest::WorkloadKernelTest::SetUp();
    debugger_ = std::make_unique<KernelDebugger>(kernel_.get());
    vision::RegisterFigureSymbols(debugger_.get(), workload_.get());
    interp_ = std::make_unique<viewcl::Interpreter>(debugger_.get());
  }

  std::unique_ptr<KernelDebugger> debugger_;
  std::unique_ptr<viewcl::Interpreter> interp_;
};

TEST_F(RenderDigestTest, UnchangedGraphSkipsReRender) {
  vision::PaneManager panes(debugger_.get());
  const vision::FigureDef* figure = vision::FindFigure("fig3_4");
  ASSERT_NE(figure, nullptr);
  ASSERT_TRUE(interp_->Load(figure->viewcl).ok());
  auto graph = interp_->Run();
  ASSERT_TRUE(graph.ok());
  ASSERT_TRUE(panes.SetGraph(1, std::move(graph).value(), figure->viewcl).ok());

  auto replot = [this](const std::string& source)
      -> vl::StatusOr<std::unique_ptr<viewcl::ViewGraph>> {
    viewcl::Interpreter fresh(debugger_.get());
    return fresh.RunProgram(source);
  };

  // First refresh renders (empty cache); the second reproduces the same
  // graph, so its digest matches and the cached output is reused.
  auto r1 = panes.RefreshPane(1, replot);
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1->render_reused);
  auto r2 = panes.RefreshPane(1, replot);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->render_reused);
  EXPECT_EQ(panes.render_digest_hits(), 1u);

  // Identical output either way.
  std::string direct = panes.RenderPane(1);
  EXPECT_TRUE(panes.render_digest_hits() >= 2u);
  EXPECT_NE(direct.find("pid ="), std::string::npos);
}

TEST_F(RenderDigestTest, ViewQlUpdateChangesDigestAndReRenders) {
  vision::PaneManager panes(debugger_.get());
  const vision::FigureDef* figure = vision::FindFigure("fig3_4");
  ASSERT_NE(figure, nullptr);
  ASSERT_TRUE(interp_->Load(figure->viewcl).ok());
  auto graph = interp_->Run();
  ASSERT_TRUE(graph.ok());
  ASSERT_TRUE(panes.SetGraph(1, std::move(graph).value(), figure->viewcl).ok());

  (void)panes.RenderPane(1);
  uint64_t misses_before = panes.render_digest_misses();

  // Mutating display attributes through ViewQL changes the digest: the next
  // render must not serve the stale cached output.
  ASSERT_TRUE(panes
                  .ApplyViewQl(1,
                               "a = SELECT task_struct FROM * WHERE pid == 1\n"
                               "UPDATE a WITH collapsed: true")
                  .ok());
  (void)panes.RenderPane(1);
  EXPECT_EQ(panes.render_digest_misses(), misses_before + 1);

  // Unchanged again: cached.
  uint64_t hits_before = panes.render_digest_hits();
  (void)panes.RenderPane(1);
  EXPECT_EQ(panes.render_digest_hits(), hits_before + 1);
}

TEST_F(RenderDigestTest, DifferentBackendsAndOptionsCacheSeparately) {
  vision::PaneManager panes(debugger_.get());
  const vision::FigureDef* figure = vision::FindFigure("fig3_4");
  ASSERT_NE(figure, nullptr);
  ASSERT_TRUE(interp_->Load(figure->viewcl).ok());
  auto graph = interp_->Run();
  ASSERT_TRUE(graph.ok());
  ASSERT_TRUE(panes.SetGraph(1, std::move(graph).value(), figure->viewcl).ok());

  std::string ascii = panes.RenderPane(1);
  std::string dot = panes.RenderPane(1, vision::RenderOptions{}, "dot");
  vision::RenderOptions with_addrs;
  with_addrs.show_addresses = true;
  std::string addrs = panes.RenderPane(1, with_addrs);
  EXPECT_EQ(panes.render_digest_misses(), 3u) << "three distinct cache keys";
  EXPECT_NE(ascii, dot);
  EXPECT_NE(ascii, addrs);

  // Each key replays from its own slot.
  EXPECT_EQ(panes.RenderPane(1), ascii);
  EXPECT_EQ(panes.RenderPane(1, vision::RenderOptions{}, "dot"), dot);
  EXPECT_EQ(panes.render_digest_hits(), 2u);
}

// --- the refresh under a sweep ---------------------------------------------

class DeltaRefreshSweepTest : public vltest::WorkloadKernelTest {};

// After a warm sweep, one CPU tick dirties blocks the sweep reads. The
// refresh re-reads the sectors sweeps used in one batch, so the sweep that
// follows drops none of the blocks, fetches singly only blocks no sweep had
// cached, and refills only for sectors no sweep had read.
TEST_F(DeltaRefreshSweepTest, IncrementalSweepAfterTickRefetchesNoBlockTheLastSweepRead) {
  KernelDebugger debugger(kernel_.get(), LatencyModel::GdbQemu(),
                          vserve::SessionOptions{}.ToCacheConfig());
  vision::RegisterFigureSymbols(&debugger, workload_.get());
  vserve::Server server;
  ASSERT_TRUE(server.AddShard("local", &debugger).ok());
  ReadSession& session = debugger.session();
  ASSERT_TRUE(server.Sweep().ok());  // cold
  const uint64_t cold_used = session.cache_stats().used_bytes;
  ASSERT_TRUE(server.Sweep().ok());  // warm: every block it reads is cached
  const CacheStats warm = session.cache_stats();
  const size_t cached = session.cached_blocks();
  // The warm sweep read no sector the cold one had not.
  EXPECT_EQ(warm.used_bytes, cold_used);
  EXPECT_EQ(warm.refills, 0u);

  kernel_->TickCpu(0);
  auto sweep = server.Sweep("");
  ASSERT_TRUE(sweep.ok());
  ASSERT_TRUE(sweep->reconciled());
  EXPECT_GT(sweep->rules_run(), 0u);
  const CacheStats& now = session.cache_stats();
  EXPECT_GT(now.refreshed_blocks, warm.refreshed_blocks);
  // No block the warm sweep read was dropped...
  EXPECT_EQ(now.invalidated_bytes_delta, warm.invalidated_bytes_delta);
  EXPECT_EQ(now.invalidated_bytes_full, warm.invalidated_bytes_full);
  EXPECT_EQ(now.evictions, warm.evictions);
  // ...so every fetch brought in a block that was not cached before...
  EXPECT_EQ(session.cached_blocks() - cached, (now.block_fetches - warm.block_fetches) +
                                                  (now.vector_blocks - warm.vector_blocks));
  // ...and every refill was paid by a first read of a sector since its block
  // was fetched: the sectors earlier sweeps read were all refreshed.
  EXPECT_LE(now.refills - warm.refills, now.used_bytes - warm.used_bytes);
}

class DeltaRefreshShellTest : public vltest::WorkloadKernelTest {};

// A refill shows on every surface that reads the fleet snapshot: the
// `vctrl stats` delta: line, `vctrl stats json` and the Prometheus export.
TEST_F(DeltaRefreshShellTest, StatsAndPromExportCarryRefills) {
  KernelDebugger debugger(kernel_.get(), LatencyModel::GdbQemu(),
                          vserve::SessionOptions{}.ToCacheConfig());
  vision::RegisterFigureSymbols(&debugger, workload_.get());
  vltest::ServedShell shell(&debugger);
  ASSERT_NE(shell.Execute("vplot 1 define T as Box<task_struct> [ Text pid ] "
                          "plot T(${&init_task})")
                .find("plotted"),
            std::string::npos);
  // The rename dirties the task's page: the refresh re-reads the pid sector
  // and the next plot refills the block for comm.
  vkern::task_struct* task = kernel_->procs().init_task();
  task->comm[0] = task->comm[0] == 'x' ? 'y' : 'x';
  kernel_->BumpGeneration();
  ASSERT_NE(shell.Execute("vplot 1 define T as Box<task_struct> [ Text pid, comm ] "
                          "plot T(${&init_task})")
                .find("plotted"),
            std::string::npos);
  const CacheStats& stats = debugger.session().cache_stats();
  ASSERT_EQ(stats.refills, 1u);
  ASSERT_GT(stats.refilled_bytes, 0u);
  ASSERT_GT(stats.used_bytes, 0u);

  const std::string text = shell.Execute("vctrl stats");
  EXPECT_NE(text.find("1 refills (" + std::to_string(stats.refilled_bytes) + " B), " +
                      std::to_string(stats.used_bytes) + " B used"),
            std::string::npos)
      << text;
  auto json = vl::Json::Parse(shell.Execute("vctrl stats json"));
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  const vl::Json* cache = json->Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->Find("refills")->AsInt(), 1);
  EXPECT_EQ(cache->Find("refilled_bytes")->AsInt(), static_cast<int64_t>(stats.refilled_bytes));
  EXPECT_EQ(cache->Find("used_bytes")->AsInt(), static_cast<int64_t>(stats.used_bytes));
  const std::string prom = shell.Execute("vctrl export prom");
  EXPECT_NE(prom.find("vl_serve_shard_cache_refills{shard=\"local\"} 1\n"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("vl_serve_shard_cache_used_bytes{shard=\"local\"} " +
                      std::to_string(stats.used_bytes) + "\n"),
            std::string::npos);
}

// --- randomized differential staleness test ---------------------------------

// vbench's step_dashboard panes.
const char* const kDashboard[] = {"fig3_4", "fig7_1", "fig8_2", "fig12_3", "fig14_3", "fig15_1"};

const char* ObjectiveFor(const std::string& figure_id) {
  for (const vision::ObjectiveDef& objective : vision::AllObjectives()) {
    if (figure_id == objective.figure_id) {
      return objective.viewql;
    }
  }
  return nullptr;
}

// Renders and sweeps from scratch on every call: raw transport
// (block_bytes = 0), a private engine, no dedup, no render cache, a fresh
// check engine. Built before the served debugger, as vbench's oracle is, so
// that the served dirty-log baseline covers the reference's construction
// writes (its in-arena state-string table).
class RawReference {
 public:
  RawReference(vkern::Kernel* kernel, vkern::Workload* workload)
      : debugger_(kernel, LatencyModel::Free(), CacheConfig::Disabled()) {
    vision::RegisterFigureSymbols(&debugger_, workload);
    (void)server_.AddShard("reference", &debugger_);
  }

  // Plots `figure` and applies `viewql` in order, as a pane replays it.
  vl::StatusOr<std::string> Render(const vision::FigureDef& figure,
                                   const std::vector<std::string>& viewql) {
    vserve::SessionOptions raw;
    raw.block_bytes = 0;
    raw.incremental = false;
    raw.shared_engines = false;
    raw.coalesce = false;
    raw.render_cache = false;
    VL_ASSIGN_OR_RETURN(vserve::Client client, server_.Connect(raw));
    VL_RETURN_IF_ERROR(client->Plot(1, figure.viewcl).status());
    for (const std::string& program : viewql) {
      VL_RETURN_IF_ERROR(client->Apply(1, program));
    }
    return client->Render(1);
  }

  analysis::CheckReport Sweep() {
    analysis::CheckEngine engine(&debugger_.types(), &debugger_.symbols(), &debugger_.session());
    return engine.RunAll();
  }

 private:
  KernelDebugger debugger_;
  vserve::Server server_;  // destroyed before the debugger it fronts
};

// Every violation of a sweep, as "rule@addr: message".
std::vector<std::string> Verdicts(const analysis::CheckReport& report) {
  std::vector<std::string> out;
  for (const analysis::CheckRuleReport& rule : report.rules) {
    for (const analysis::CheckViolation& v : rule.violations) {
      out.push_back(rule.id + "@" + std::to_string(v.addr) + ": " + v.diagnostic.message);
    }
  }
  return out;
}

// One pane of the served dashboard: its figure and the ViewQL it replays.
struct DashboardPane {
  int pane = 0;
  const vision::FigureDef* figure = nullptr;
  std::vector<std::string> viewql;
};

// Plots `figure` into the pane with its objective, as the dashboard does.
::testing::AssertionResult PlotPane(vserve::Session* client, const vision::FigureDef* figure,
                                    DashboardPane* pane) {
  pane->figure = figure;
  pane->viewql.clear();
  if (vl::Status plotted = client->Plot(pane->pane, figure->viewcl).status(); !plotted.ok()) {
    return ::testing::AssertionFailure() << figure->id << ": " << plotted.ToString();
  }
  if (const char* objective = ObjectiveFor(figure->id)) {
    pane->viewql.push_back(objective);
    if (vl::Status applied = client->Apply(pane->pane, objective); !applied.ok()) {
      return ::testing::AssertionFailure() << figure->id << ": " << applied.ToString();
    }
  }
  return ::testing::AssertionSuccess();
}

// A served dashboard of kDashboard's six panes and a seventh, every reuse
// layer on, is refreshed and swept after each random step; every pane must
// render exactly as the raw reference does, and the served sweep must reach
// the reference's verdicts. Besides KernelMutator's steps, the test renames
// tasks (the bytes a pane shows) and corrupts then repairs an RCU callback
// count (a verdict VC008 must follow), each with a generation bump. Two more
// steps change which fields are read: one re-prioritizes a task and refines
// a task pane with a raw-field WHERE on `static_prio`, which no pane
// displays, so that reads reach sectors of refreshed blocks that no earlier
// read used; the other re-plots the seventh pane between the two task
// figures (fig3_4 <-> fig7_1). After every step the shard's flights
// reconcile with its clock.
TEST(IncrementalFuzzTest, ServedDashboardMatchesRawReference) {
  // Six of ten steps are KernelMutator's: 24 a seed in expectation.
  constexpr int kSteps = 40;
  for (uint64_t seed : {101u, 202u, 303u}) {
    KernelMutator mutator(seed);
    vkern::Kernel* kernel = mutator.kernel();
    vkern::Workload* workload = mutator.workload();
    vl::Rng rng(seed);
    RawReference reference(kernel, workload);
    KernelDebugger debugger(kernel, LatencyModel::GdbQemu());
    vision::RegisterFigureSymbols(&debugger, workload);
    vserve::Server server;
    ASSERT_TRUE(server.AddShard("served", &debugger).ok());
    auto client = server.Connect();
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    // kDashboard's panes (the first two show task_struct figures), then a
    // seventh that re-plots between them.
    std::vector<const char*> ids(std::begin(kDashboard), std::end(kDashboard));
    const size_t replotted = ids.size();
    ids.push_back("fig3_4");
    std::vector<DashboardPane> panes;
    for (const char* id : ids) {
      const vision::FigureDef* figure = vision::FindFigure(id);
      ASSERT_NE(figure, nullptr) << id;
      DashboardPane pane;
      pane.pane = 1;
      if (!panes.empty()) {
        auto split = (*client)->Split(panes.back().pane, 'h');
        ASSERT_TRUE(split.ok()) << id;
        pane.pane = *split;
      }
      ASSERT_TRUE(PlotPane(client->session(), figure, &pane));
      panes.push_back(std::move(pane));
    }
    ASSERT_TRUE(server.Sweep().ok());

    std::optional<int> corrupted_cpu;
    for (int step = 0; step < kSteps; ++step) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << ", step " << step);
      switch (rng.NextBelow(10)) {
        case 0: {
          const std::vector<vkern::task_struct*>& tasks = workload->user_tasks();
          vkern::task_struct* task = tasks[rng.NextBelow(tasks.size())];
          size_t len = std::strlen(task->comm);
          if (len != 0) {
            task->comm[rng.NextBelow(len)] = static_cast<char>('a' + rng.NextBelow(26));
          }
          kernel->BumpGeneration();
          break;
        }
        case 1: {
          int cpu = corrupted_cpu.value_or(static_cast<int>(rng.NextBelow(vkern::kNrCpus)));
          vkern::rcu_data& rdp = kernel->rcu_data_array()[cpu];
          rdp.cblist_len = corrupted_cpu ? rdp.cblist_len - 2 : rdp.cblist_len + 2;
          corrupted_cpu = corrupted_cpu ? std::nullopt : std::optional<int>(cpu);
          kernel->BumpGeneration();
          break;
        }
        case 2: {
          const std::vector<vkern::task_struct*>& tasks = workload->user_tasks();
          vkern::task_struct* task = tasks[rng.NextBelow(tasks.size())];
          task->static_prio = 100 + static_cast<int>(rng.NextBelow(40));
          kernel->BumpGeneration();
          // An attribute that hides nothing, so every box stays compared.
          const size_t task_panes[] = {0, 1, replotted};
          DashboardPane& pane = panes[task_panes[rng.NextBelow(3)]];
          pane.viewql.push_back("r = SELECT task_struct FROM * WHERE static_prio == " +
                                std::to_string(task->static_prio) +
                                "\nUPDATE r WITH direction: vertical\n");
          ASSERT_TRUE((*client)->Apply(pane.pane, pane.viewql.back()).ok());
          break;
        }
        case 3: {
          DashboardPane& pane = panes[replotted];
          const bool fig3_4 = std::string(pane.figure->id) == "fig3_4";
          ASSERT_TRUE(
              PlotPane(client->session(), vision::FindFigure(fig3_4 ? "fig7_1" : "fig3_4"), &pane));
          break;
        }
        default:
          mutator.Step();
          break;
      }
      for (const DashboardPane& pane : panes) {
        const char* id = pane.figure->id;
        auto served = (*client)->Refresh(pane.pane);
        ASSERT_TRUE(served.ok()) << id << ": " << served.status().ToString();
        auto want = reference.Render(*pane.figure, pane.viewql);
        ASSERT_TRUE(want.ok()) << id << ": " << want.status().ToString();
        ASSERT_TRUE(served->render == *want)
            << id << " differs from the raw reference:\n"
            << served->render << "\n--- reference ---\n"
            << *want;
      }
      auto sweep = server.Sweep("");
      ASSERT_TRUE(sweep.ok());
      ASSERT_TRUE(sweep->reconciled());
      ASSERT_EQ(Verdicts(sweep->shards.front().report), Verdicts(reference.Sweep()));
      // Flight reconciliation: sweeps are control-plane work, so the shard's
      // charge is its control charge plus its flights' service time.
      vl::Json fleet = server.StatsToJson();
      for (const auto& [name, shard] : fleet["shards"].entries()) {
        ASSERT_EQ(shard.Find("charged_ns")->AsInt(),
                  shard.Find("control_ns")->AsInt() +
                      shard.Find("flights")->Find("service_sum_ns")->AsInt())
            << name;
      }
    }
    // The steps exercised the refresh, the refills after it and the sweep's
    // batches.
    EXPECT_GT(debugger.session().cache_stats().refreshed_blocks, 0u);
    EXPECT_GT(debugger.session().cache_stats().refills, 0u);
    EXPECT_GT(server.StatsToJson()["check"]["batches"].AsInt(), 0);
  }
}

}  // namespace
}  // namespace dbg
