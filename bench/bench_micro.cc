// Google-benchmark microbenchmarks for the hot paths: the kernel substrate's
// data structures, the debugger's C-expression engine, and ViewCL/ViewQL
// evaluation. These quantify the *host-side* costs the paper's Table 4
// footnote calls negligible next to transport latency.
//
// After the benchmarks, main() runs a tracing-overhead guard: with tracing
// disabled, the instrumented Target read path (one cached relaxed atomic flag
// load + branch) must stay close to an uninstrumented replica — the budget is
// a noise-floor tripwire (see CheckTracingOverhead) that catches slow-path
// work leaking onto the hot read path. A second guard holds the vexplain
// side-cars to a 1% bar (resolvable there: renders are ~10 us, not ~8 ns): a
// pane render with a time-series recorder and budget registry attached but
// disabled must stay within 1% of a detached pane manager.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "bench/bench_util.h"
#include "bench/walk_ceilings.h"
#include "src/analysis/check.h"
#include "src/dbg/target.h"
#include "src/serve/server.h"
#include "src/support/budget.h"
#include "src/support/str.h"
#include "src/support/timeseries.h"
#include "src/support/trace.h"
#include "src/viewcl/interp.h"
#include "src/viewql/query.h"
#include "src/vision/panes.h"
#include "src/vision/render.h"

namespace {

vlbench::BenchEnv* Env() {
  static auto* env = new vlbench::BenchEnv(60, dbg::LatencyModel::Free());
  return env;
}

// A fresh kernel for one guard, booted like Env()'s. The BM_* loops churn
// Env()'s slab and RCU state, so a guard on the shared kernel would measure
// whatever ran before it.
std::unique_ptr<vlbench::BenchEnv> GuardEnv() {
  return std::make_unique<vlbench::BenchEnv>(60, dbg::LatencyModel::Free());
}

void BM_MapleStoreErase(benchmark::State& state) {
  vlbench::BenchEnv* env = Env();
  vkern::maple_tree tree;
  env->kernel->maple().Init(&tree, vkern::MT_FLAGS_ALLOC_RANGE);
  vkern::kmem_cache* cache = env->kernel->slabs().FindCache("vm_area_struct");
  void* entry = env->kernel->slabs().Alloc(cache);
  uint64_t n = static_cast<uint64_t>(state.range(0));
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t start = 0x100000 + i * 0x2000;
    env->kernel->maple().StoreRange(&tree, start, start + 0xfff, entry);
  }
  uint64_t cursor = 0;
  for (auto _ : state) {
    uint64_t start = 0x100000 + (n + cursor) * 0x2000;
    benchmark::DoNotOptimize(env->kernel->maple().StoreRange(&tree, start, start + 0xfff,
                                                             entry));
    benchmark::DoNotOptimize(env->kernel->maple().Erase(&tree, start));
    env->kernel->rcu().Synchronize();
    ++cursor;
  }
  env->kernel->maple().Destroy(&tree);
  env->kernel->rcu().Synchronize();
  vkern::SlabAllocator::Free(cache, entry);
}
BENCHMARK(BM_MapleStoreErase)->Arg(16)->Arg(256)->Arg(1024);

void BM_MapleFind(benchmark::State& state) {
  vlbench::BenchEnv* env = Env();
  vkern::mm_struct* mm = env->workload->process(0)->mm;
  uint64_t probe = mm->start_stack;
  for (auto _ : state) {
    benchmark::DoNotOptimize(env->kernel->maple().Find(&mm->mm_mt, probe));
  }
}
BENCHMARK(BM_MapleFind);

void BM_SlabAllocFree(benchmark::State& state) {
  vlbench::BenchEnv* env = Env();
  vkern::kmem_cache* cache = env->kernel->slabs().FindCache("vm_area_struct");
  for (auto _ : state) {
    void* obj = env->kernel->slabs().Alloc(cache);
    benchmark::DoNotOptimize(obj);
    vkern::SlabAllocator::Free(cache, obj);
  }
}
BENCHMARK(BM_SlabAllocFree);

void BM_SchedTick(benchmark::State& state) {
  vlbench::BenchEnv* env = Env();
  for (auto _ : state) {
    benchmark::DoNotOptimize(env->kernel->sched().Tick(0));
  }
}
BENCHMARK(BM_SchedTick);

void BM_ExprMemberChain(benchmark::State& state) {
  vlbench::BenchEnv* env = Env();
  for (auto _ : state) {
    auto v = env->debugger->Eval("init_task.se.vruntime");
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_ExprMemberChain);

void BM_ExprHelperCall(benchmark::State& state) {
  vlbench::BenchEnv* env = Env();
  for (auto _ : state) {
    auto v = env->debugger->Eval("cpu_rq(0)->cfs.nr_running + mte_node_type(0x1010)");
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_ExprHelperCall);

void BM_ViewClPlotRunqueue(benchmark::State& state) {
  vlbench::BenchEnv* env = Env();
  const vision::FigureDef* figure = vision::FindFigure("fig7_1");
  for (auto _ : state) {
    viewcl::Interpreter interp(env->debugger.get());
    auto graph = interp.RunProgram(figure->viewcl);
    benchmark::DoNotOptimize(graph);
  }
}
BENCHMARK(BM_ViewClPlotRunqueue);

void BM_ViewQlSelectUpdate(benchmark::State& state) {
  vlbench::BenchEnv* env = Env();
  viewcl::Interpreter interp(env->debugger.get());
  auto graph = interp.RunProgram(vision::FindFigure("fig3_4")->viewcl);
  if (!graph.ok()) {
    state.SkipWithError("plot failed");
    return;
  }
  for (auto _ : state) {
    viewql::QueryEngine engine(graph->get(), env->debugger.get());
    benchmark::DoNotOptimize(
        engine.Execute("a = SELECT task_struct FROM * WHERE mm != NULL\n"
                       "UPDATE a WITH collapsed: true"));
  }
}
BENCHMARK(BM_ViewQlSelectUpdate);

void BM_TargetRead(benchmark::State& state) {
  vlbench::BenchEnv* env = Env();
  uint64_t addr = reinterpret_cast<uint64_t>(env->kernel->procs().init_task());
  for (auto _ : state) {
    benchmark::DoNotOptimize(env->debugger->target().ReadUnsigned(addr, 8));
  }
}
BENCHMARK(BM_TargetRead);

// --- tracing-overhead guard -------------------------------------------------

// A flat buffer standing in for the kernel arena.
class FlatMemory : public dbg::MemoryDomain {
 public:
  explicit FlatMemory(size_t size) : bytes_(size, 0xab) {}
  bool ReadBytes(uint64_t addr, void* out, size_t len) const override {
    if (addr + len > bytes_.size()) {
      return false;
    }
    std::memcpy(out, bytes_.data() + addr, len);
    return true;
  }

 private:
  std::vector<uint8_t> bytes_;
};

// Replica of the pre-instrumentation read path: the same two-level
// ReadUnsigned → ReadBytes → Charge structure and Status plumbing as
// dbg::Target, minus the tracing flag check. The counters mirror Target's
// single-writer relaxed atomics exactly, so the only delta the guard measures
// is the tracing instrumentation itself. noinline mirrors the real methods
// being out-of-line in the library.
struct BaselineTarget {
  const dbg::MemoryDomain* memory;
  dbg::LatencyModel model;
  vl::VirtualClock clock;
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> bytes_read{0};

  void Charge(size_t len) {
    clock.AdvanceNanos(model.per_access_ns + model.per_byte_ns * len);
    reads.store(reads.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    bytes_read.store(bytes_read.load(std::memory_order_relaxed) + len,
                     std::memory_order_relaxed);
  }

  __attribute__((noinline)) vl::Status ReadBytes(uint64_t addr, void* out,
                                                 size_t len) {
    if (!memory->ReadBytes(addr, out, len)) {
      return vl::MemoryFaultError(
          vl::StrFormat("cannot read %zu bytes at 0x%llx", len,
                        static_cast<unsigned long long>(addr)));
    }
    Charge(len);
    return vl::Status::Ok();
  }

  __attribute__((noinline)) vl::StatusOr<uint64_t> ReadUnsigned(uint64_t addr,
                                                                size_t size) {
    if (size == 0 || size > 8) {
      return vl::InvalidArgumentError(vl::StrFormat("bad scalar width %zu", size));
    }
    uint64_t value = 0;
    VL_RETURN_IF_ERROR(ReadBytes(addr, &value, size));
    return value;
  }
};

// Returns the best-of-trials seconds for `iters` calls of `read(ctx, addr)`.
// Deliberately NOT a template: both sides of the overhead comparison must run
// the exact same timing loop (same instructions, same alignment) and differ
// only in the indirect callee, or the loop's own codegen accidents — which
// vary by ±10% per build — leak into the measured ratio.
using ReadFn = vl::StatusOr<uint64_t> (*)(void* ctx, uint64_t addr);
__attribute__((noinline)) double TimeReads(int trials, int iters,
                                           uint64_t addr_mask, ReadFn read,
                                           void* ctx) {
  double best = 1e100;
  for (int t = 0; t < trials; ++t) {
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      uint64_t addr = (static_cast<uint64_t>(i) * 64) & addr_mask;
      benchmark::DoNotOptimize(read(ctx, addr));
    }
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    best = std::min(best, seconds);
  }
  return best;
}

vl::StatusOr<uint64_t> ReadViaBaseline(void* ctx, uint64_t addr) {
  return static_cast<BaselineTarget*>(ctx)->ReadUnsigned(addr, 8);
}
vl::StatusOr<uint64_t> ReadViaTarget(void* ctx, uint64_t addr) {
  return static_cast<dbg::Target*>(ctx)->ReadUnsigned(addr, 8);
}

// Asserts that with tracing disabled the instrumented read path is within 1%
// of the uninstrumented replica. Returns 0 on success.
//
// Budget calibration: on pinned bare metal the flag check measures ~0%. But
// the comparison is between two separately-compiled copies of an ~8 ns
// function, and their relative speed swings ±10% with incidental codegen and
// layout of the *harness* (rebuilding this file with an unrelated edit moved
// the measured ratio from 0.98 to 1.09 with the library untouched), plus
// cloud-host frequency drift. The budget is therefore a coarse tripwire: it
// catches the real failure modes — RecordRead inlined onto the hot path, a
// mutex or locked RMW in Charge, tracing accidentally left enabled — which
// each cost well over 25%, and does not pretend to resolve 1% at this
// granularity on shared hardware.
int CheckTracingOverhead() {
  constexpr size_t kBufBytes = 1 << 20;
  constexpr uint64_t kAddrMask = kBufBytes - 64;
  constexpr int kTrials = 12;
  constexpr int kIters = 2'000'000;
  constexpr double kBudget = 1.25;

  FlatMemory memory(kBufBytes);
  dbg::Target target(&memory, dbg::LatencyModel::Free());
  BaselineTarget baseline{&memory, dbg::LatencyModel::Free(), {}};
  vl::Tracer::Instance().Disable();

  // Warm up both paths, then run paired back-to-back trials and take the
  // median of the per-pair ratios. Each pair sees the same frequency and
  // scheduler conditions, so drift on shared hardware cancels out instead of
  // masquerading as instrumentation overhead; the median sheds the tail of
  // preempted pairs. (Ratio-of-global-bests compares measurements taken at
  // different moments and is ~±3% noisy on cloud hosts.)
  TimeReads(1, kIters, kAddrMask, &ReadViaBaseline, &baseline);
  TimeReads(1, kIters, kAddrMask, &ReadViaTarget, &target);
  double baseline_s = 1e100;
  double traced_off_s = 1e100;
  std::vector<double> ratios;
  ratios.reserve(kTrials);
  for (int t = 0; t < kTrials; ++t) {
    // Alternate which side runs first so linear drift within a pair biases
    // half the ratios up and half down, cancelling in the median.
    double b, i;
    if (t % 2 == 0) {
      b = TimeReads(1, kIters, kAddrMask, &ReadViaBaseline, &baseline);
      i = TimeReads(1, kIters, kAddrMask, &ReadViaTarget, &target);
    } else {
      i = TimeReads(1, kIters, kAddrMask, &ReadViaTarget, &target);
      b = TimeReads(1, kIters, kAddrMask, &ReadViaBaseline, &baseline);
    }
    ratios.push_back(i / b);
    baseline_s = std::min(baseline_s, b);
    traced_off_s = std::min(traced_off_s, i);
  }
  std::sort(ratios.begin(), ratios.end());
  double ratio = (ratios[kTrials / 2 - 1] + ratios[kTrials / 2]) / 2.0;
  std::printf("tracing-overhead guard: baseline %.2f ns/read, instrumented "
              "(tracing off) %.2f ns/read, median paired ratio %.4f "
              "(budget %.2f)\n",
              baseline_s / kIters * 1e9, traced_off_s / kIters * 1e9, ratio,
              kBudget);
  if (ratio > kBudget) {
    std::printf("FAIL: tracing-disabled overhead exceeds the noise-floor "
                "budget — a slow path leaked onto the hot read path\n");
    return 1;
  }
  return 0;
}

// --- cache-speedup guard ----------------------------------------------------

// Asserts the ReadSession block cache pays for itself where it matters most:
// a repeated figure extraction over serial KGDB must cost at least 2x less
// virtual transport time cached than uncached. Returns 0 on success.
int CheckCacheSpeedup() {
  constexpr int kRefreshes = 3;
  auto env = GuardEnv();
  const vision::FigureDef* figure = vision::FindFigure("fig7_1");

  dbg::KernelDebugger cached(env->kernel.get(), dbg::LatencyModel::KgdbRpi400());
  dbg::KernelDebugger uncached(env->kernel.get(), dbg::LatencyModel::KgdbRpi400(),
                               dbg::CacheConfig::Disabled());
  vision::RegisterFigureSymbols(&cached, env->workload.get());
  vision::RegisterFigureSymbols(&uncached, env->workload.get());
  cached.target().ResetStats();
  uncached.target().ResetStats();

  for (int i = 0; i < kRefreshes; ++i) {
    viewcl::Interpreter interp_cached(&cached);
    if (!interp_cached.RunProgram(figure->viewcl).ok()) {
      std::printf("FAIL: cached extraction errored\n");
      return 1;
    }
    viewcl::Interpreter interp_uncached(&uncached);
    if (!interp_uncached.RunProgram(figure->viewcl).ok()) {
      std::printf("FAIL: uncached extraction errored\n");
      return 1;
    }
  }

  uint64_t cached_ns = cached.target().clock().nanos();
  uint64_t uncached_ns = uncached.target().clock().nanos();
  double speedup = cached_ns > 0
                       ? static_cast<double>(uncached_ns) / static_cast<double>(cached_ns)
                       : 1e100;
  std::printf("cache-speedup guard: KGDB %dx fig7_1 refresh, uncached %.1f ms, "
              "cached %.1f ms, speedup %.1fx (floor 2x), hit rate %.1f%%\n",
              kRefreshes, uncached_ns / 1e6, cached_ns / 1e6, speedup,
              cached.session().cache_stats().HitRate() * 100.0);
  if (speedup < 2.0) {
    std::printf("FAIL: cached repeated extraction is less than 2x faster\n");
    return 1;
  }
  return 0;
}

// --- walker guard -------------------------------------------------------------

// Asserts the batched walker pays where the paper's latency model hurts
// most, cold first paint: every figure's COLD extraction through a block
// cache must stay within its round-trip ceiling (bench/walk_ceilings.h; the
// walker fetches each level of the object graph in one vectored round trip)
// and render byte-identically to the raw transport (block_bytes = 0, one
// round trip per read). Returns 0 on success.
int CheckWalkRoundTrips() {
  auto env = GuardEnv();
  int failures = 0;
  uint64_t total = 0;
  for (const vision::FigureDef& figure : vision::AllFigures()) {
    dbg::KernelDebugger raw(env->kernel.get(), dbg::LatencyModel::GdbQemu(),
                            dbg::CacheConfig::Disabled());
    dbg::KernelDebugger batched(env->kernel.get(), dbg::LatencyModel::GdbQemu());
    vision::RegisterFigureSymbols(&raw, env->workload.get());
    vision::RegisterFigureSymbols(&batched, env->workload.get());
    viewcl::Interpreter interp_raw(&raw);
    viewcl::Interpreter interp_batched(&batched);
    auto raw_graph = interp_raw.RunProgram(figure.viewcl);
    auto batched_graph = interp_batched.RunProgram(figure.viewcl);
    if (!raw_graph.ok() || !batched_graph.ok()) {
      std::printf("FAIL: walker guard extraction of %s errored\n", figure.id);
      ++failures;
      continue;
    }
    if (vision::AsciiRenderer().Render(**raw_graph) !=
        vision::AsciiRenderer().Render(**batched_graph)) {
      std::printf("FAIL: batched render of %s diverged from the raw transport\n", figure.id);
      ++failures;
    }
    uint64_t round_trips = batched.target().reads();
    total += round_trips;
    if (round_trips > vlbench::WalkCeiling(figure.id)) {
      std::printf("FAIL: cold %s took %llu round trips (ceiling %llu)\n", figure.id,
                  static_cast<unsigned long long>(round_trips),
                  static_cast<unsigned long long>(vlbench::WalkCeiling(figure.id)));
      ++failures;
    }
  }
  std::printf("walker guard: GDB/QEMU cold extraction of all %zu figures, %llu round "
              "trips, renders identical to the raw transport\n",
              vision::AllFigures().size(), static_cast<unsigned long long>(total));
  return failures;
}

// --- incremental-refresh guard ----------------------------------------------

// Asserts the incremental path (dirty-log delta invalidation + memoized
// re-extraction) beats full re-extraction by at least 3x in charged
// transport ns on a steady-state loop: one small mutation batch (a single
// CPU tick — the breakpoint-stepping scenario) between refreshes of a
// 6-pane dashboard over the default workload's kernel, on the GDB/QEMU
// transport. Memo replay saves host time only, so no transport floor sees
// a memo that never replays: the delta engines must also replay at least
// kMinMemoReplays memos, the count this kernel and dashboard give.
int CheckIncrementalSpeedup() {
  constexpr int kRefreshes = 3;
  constexpr uint64_t kMinMemoReplays = 156;
  // Same dashboard shape as bench_report: scheduler panes a tick dirties
  // plus mm/VFS panes whose pages stay clean between refreshes.
  const char* kFigures[] = {"fig3_4", "fig7_1", "fig8_2",
                            "fig12_3", "fig14_3", "fig15_1"};
  auto env = GuardEnv();

  dbg::KernelDebugger full(env->kernel.get(), dbg::LatencyModel::GdbQemu());
  dbg::KernelDebugger delta(env->kernel.get(), dbg::LatencyModel::GdbQemu(),
                            dbg::CacheConfig::Incremental());
  vision::RegisterFigureSymbols(&full, env->workload.get());
  vision::RegisterFigureSymbols(&delta, env->workload.get());
  std::vector<std::unique_ptr<viewcl::Interpreter>> delta_interps;
  for (const char* id : kFigures) {
    const vision::FigureDef* figure = vision::FindFigure(id);
    auto interp = std::make_unique<viewcl::Interpreter>(&delta);
    if (!interp->Load(figure->viewcl).ok()) {
      std::printf("FAIL: incremental guard load errored (%s)\n", id);
      return 1;
    }
    delta_interps.push_back(std::move(interp));
  }

  // Warm both: the steady state under test starts after one full extraction.
  for (size_t f = 0; f < delta_interps.size(); ++f) {
    viewcl::Interpreter warm(&full);
    if (!warm.RunProgram(vision::FindFigure(kFigures[f])->viewcl).ok() ||
        !delta_interps[f]->Run().ok()) {
      std::printf("FAIL: incremental guard warmup errored\n");
      return 1;
    }
  }

  uint64_t full_before = full.target().clock().nanos();
  uint64_t delta_before = delta.target().clock().nanos();
  for (int i = 0; i < kRefreshes; ++i) {
    env->kernel->TickCpu(i % vkern::kNrCpus);
    for (size_t f = 0; f < delta_interps.size(); ++f) {
      viewcl::Interpreter interp_full(&full);
      if (!interp_full.RunProgram(vision::FindFigure(kFigures[f])->viewcl).ok() ||
          !delta_interps[f]->Run().ok()) {
        std::printf("FAIL: incremental guard refresh errored\n");
        return 1;
      }
    }
  }
  uint64_t full_ns = full.target().clock().nanos() - full_before;
  uint64_t delta_ns = delta.target().clock().nanos() - delta_before;
  double speedup = delta_ns > 0
                       ? static_cast<double>(full_ns) / static_cast<double>(delta_ns)
                       : 1e100;
  uint64_t replays = 0;
  for (const auto& interp : delta_interps) replays += interp->walk_stats().memo_replays;
  std::printf("incremental guard: GDB/QEMU %dx 6-pane steady-state refresh, "
              "full %.2f ms, delta %.2f ms, speedup %.1fx (floor 3x), "
              "%llu memo replays (floor %llu)\n",
              kRefreshes, full_ns / 1e6, delta_ns / 1e6, speedup,
              static_cast<unsigned long long>(replays),
              static_cast<unsigned long long>(kMinMemoReplays));
  int failures = 0;
  if (speedup < 3.0) {
    std::printf("FAIL: incremental refresh is less than 3x cheaper than full\n");
    ++failures;
  }
  if (replays < kMinMemoReplays) {
    std::printf("FAIL: the delta engines replayed fewer than %llu memos\n",
                static_cast<unsigned long long>(kMinMemoReplays));
    ++failures;
  }
  return failures;
}

// --- invariant-sweep guard --------------------------------------------------

// Asserts the delta refresh pays off for invariant sweeps: in the steady
// state (one CPU tick — a single small mutation batch — between sweeps), a
// sweep of all eleven rules on a delta-enabled session must charge at least
// 3x less virtual transport time than the same sweep on a session that
// flushes its whole cache on every step. Every sweep must reconcile with the
// virtual clock and stay violation-free.
int CheckInvariantSweepSpeedup() {
  constexpr int kRounds = 3;
  auto env = GuardEnv();

  dbg::KernelDebugger full(env->kernel.get(), dbg::LatencyModel::GdbQemu());
  // Constructed second: the delta session's dirty-page journal baselines at
  // construction and must cover `full`'s in-arena bookkeeping writes.
  dbg::KernelDebugger delta(env->kernel.get(), dbg::LatencyModel::GdbQemu(),
                            dbg::CacheConfig::Incremental());
  vision::RegisterFigureSymbols(&full, env->workload.get());
  vision::RegisterFigureSymbols(&delta, env->workload.get());
  analysis::CheckEngine full_engine(&full.types(), &full.symbols(), &full.session());
  analysis::CheckEngine delta_engine(&delta.types(), &delta.symbols(),
                                     &delta.session());

  // Warm both engines: the steady state starts after one full audit each.
  if (full_engine.RunAll().violations() != 0 ||
      delta_engine.RunAll().violations() != 0) {
    std::printf("FAIL: invariant-sweep guard found violations at warmup\n");
    return 1;
  }

  uint64_t full_ns = 0;
  uint64_t delta_ns = 0;
  for (int round = 0; round < kRounds; ++round) {
    env->kernel->TickCpu(round % vkern::kNrCpus);
    analysis::CheckReport f = full_engine.RunAll();
    analysis::CheckReport d = delta_engine.RunAll();
    if (!f.reconciled || !d.reconciled) {
      std::printf("FAIL: invariant sweep failed to reconcile with the clock\n");
      return 1;
    }
    if (f.violations() != 0 || d.violations() != 0) {
      std::printf("FAIL: invariant sweep found violations on a healthy kernel\n");
      return 1;
    }
    full_ns += f.clock_delta_ns;
    delta_ns += d.clock_delta_ns;
  }
  double speedup = delta_ns > 0
                       ? static_cast<double>(full_ns) / static_cast<double>(delta_ns)
                       : 1e100;
  std::printf("invariant-sweep guard: GDB/QEMU %dx tick+sweep, full flush %.2f ms, "
              "delta %.2f ms, speedup %.1fx (floor 3x)\n",
              kRounds, full_ns / 1e6, delta_ns / 1e6, speedup);
  if (speedup < 3.0) {
    std::printf("FAIL: a sweep on the delta session is less than 3x cheaper than on "
                "the full-flush one\n");
    return 1;
  }
  return 0;
}

// --- disabled-observability guard -------------------------------------------

// Asserts that attaching the vexplain side-cars (time-series recorder +
// budget registry) while they are disabled costs a pane render no more than
// 1% over a detached pane manager: the hook is one null/flag branch.
int CheckDisabledObservabilityOverhead() {
  // Resolving a 1% budget on a ~12 us render needs many alternating trials:
  // timing noise is one-sided, so best-of-N converges to the true floor.
  constexpr int kTrials = 40;
  constexpr int kIters = 400;
  auto env = GuardEnv();
  const vision::FigureDef* figure = vision::FindFigure("fig7_1");

  // One manager, one graph: attaching/detaching the observers between trials
  // flips only the hook's branch, so the comparison is not polluted by
  // allocation-layout differences between two separately extracted graphs.
  vision::PaneManager panes(env->debugger.get());
  viewcl::Interpreter interp(env->debugger.get());
  auto graph = interp.RunProgram(figure->viewcl);
  if (!graph.ok()) {
    std::printf("FAIL: observability-guard extraction errored\n");
    return 1;
  }
  (void)panes.SetGraph(1, std::move(graph).value(), figure->viewcl);

  vl::TimeSeriesRecorder recorder;  // attached but disabled
  vl::BudgetRegistry budgets;
  budgets.Set("pane.1", 1);  // would fire on every refresh if armed...
  budgets.Disable();         // ...but the master switch is off
  vl::Tracer::Instance().Disable();

  // Time every render individually and compare the medians of the two
  // (interleaved) per-render distributions: the median shrugs off the
  // scheduler/frequency spikes that make best-of-window ratios flap around
  // the 1% budget on a ~12 us unit of work.
  auto time_batch = [&](std::vector<double>* samples) {
    for (int i = 0; i < kIters; ++i) {
      auto start = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(panes.RenderPane(1));
      samples->push_back(std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count());
    }
  };
  std::vector<double> plain_samples;
  std::vector<double> observed_samples;
  plain_samples.reserve(static_cast<size_t>(kTrials) * kIters);
  observed_samples.reserve(static_cast<size_t>(kTrials) * kIters);
  auto measure_detached = [&]() {
    panes.AttachObservers(nullptr, nullptr);
    time_batch(&plain_samples);
  };
  auto measure_attached = [&]() {
    panes.AttachObservers(&recorder, &budgets);
    time_batch(&observed_samples);
  };
  measure_detached();  // warm
  measure_attached();  // warm
  plain_samples.clear();
  observed_samples.clear();
  // Swap which side goes first each round so frequency/thermal drift cannot
  // systematically favor one.
  for (int t = 0; t < kTrials; ++t) {
    if (t % 2 == 0) {
      measure_detached();
      measure_attached();
    } else {
      measure_attached();
      measure_detached();
    }
  }
  auto median = [](std::vector<double>* samples) {
    std::nth_element(samples->begin(), samples->begin() + samples->size() / 2,
                     samples->end());
    return (*samples)[samples->size() / 2];
  };
  double plain_s = median(&plain_samples);
  double observed_s = median(&observed_samples);

  double ratio = observed_s / plain_s;
  std::printf("observability-overhead guard: detached %.2f us/render, observers "
              "attached+disabled %.2f us/render, ratio %.4f (budget 1.01)\n",
              plain_s * 1e6, observed_s * 1e6, ratio);
  if (ratio > 1.01) {
    std::printf("FAIL: disabled observability overhead exceeds 1%%\n");
    return 1;
  }
  return 0;
}

// --- serve-dedup guard ------------------------------------------------------

// Asserts the serving layer's request dedup pays for itself: eight clients
// refreshing the SAME figure on one shard must be charged, in aggregate,
// less than 2x what a single client pays for the same refresh cadence (the
// ideal is ~1x: one extraction per epoch, fanned out to all eight).
int CheckServeDedup() {
  constexpr int kRounds = 3;
  const char* figure = vision::FindFigure("fig3_4")->viewcl;

  auto run_fleet = [&](size_t clients) -> uint64_t {
    vserve::Server server;
    if (!server.BootShard("serve", dbg::LatencyModel::GdbQemu()).ok()) {
      return 0;
    }
    std::vector<vl::StatusOr<vserve::Client>> fleet;
    for (size_t i = 0; i < clients; ++i) {
      fleet.push_back(server.Connect());
      if (!fleet.back().ok() || !(*fleet.back())->Plot(1, figure).ok()) {
        return 0;
      }
    }
    for (int round = 0; round < kRounds; ++round) {
      server.shard_workload("serve")->Step();
      for (auto& client : fleet) {
        if (!(*client)->Refresh(1).ok()) {
          return 0;
        }
      }
    }
    uint64_t charged = 0;
    for (auto& client : fleet) {
      charged += (*client)->charged_ns();
    }
    return charged;
  };

  uint64_t single = run_fleet(1);
  uint64_t fleet8 = run_fleet(8);
  if (single == 0 || fleet8 == 0) {
    std::printf("FAIL: serve-dedup guard could not run its fleets\n");
    return 1;
  }
  double ratio = static_cast<double>(fleet8) / static_cast<double>(single);
  std::printf("serve-dedup guard: 1 client charged %llu ns, 8 overlapping "
              "clients charged %llu ns, ratio %.2f (budget 2.0)\n",
              static_cast<unsigned long long>(single),
              static_cast<unsigned long long>(fleet8), ratio);
  if (ratio >= 2.0) {
    std::printf("FAIL: 8-client fleet charged >= 2x one client — dedup broken\n");
    return 1;
  }
  return 0;
}

// vflight overhead guard: the recorder must stay invisible on the serve hot
// path. A disabled-recorder server and an enabled one run the same steady
// dedup-hit refresh loop (no kernel steps, so after the first extraction
// every refresh is a result-cache hit — the cheapest, most stamp-sensitive
// path); the paired-trial median ratio between them must stay inside the
// same coarse noise-floor budget CheckTracingOverhead uses. Two-sided,
// because either direction drifting past 25% means a slow path appeared
// (stamping while disabled, or Finish() growing a lock walk while enabled).
int CheckFlightOverhead() {
  constexpr int kTrials = 12;
  constexpr int kIters = 4'000;
  constexpr double kBudget = 1.25;

  struct Rig {
    std::unique_ptr<vserve::Server> server;
    std::optional<vserve::Client> client;
  };
  auto make_rig = [](bool recorder) -> Rig {
    Rig rig;
    rig.server = std::make_unique<vserve::Server>();
    if (!recorder) {
      rig.server->flights().Disable();
    }
    if (!rig.server->BootShard("serve", dbg::LatencyModel::GdbQemu()).ok()) {
      return {};
    }
    auto client = rig.server->Connect();
    if (!client.ok() ||
        !(*client)->Plot(1, vision::FindFigure("fig3_4")->viewcl).ok() ||
        !(*client)->Refresh(1).ok()) {  // prime the result cache
      return {};
    }
    rig.client = std::move(*client);
    return rig;
  };
  Rig off = make_rig(false);
  Rig on = make_rig(true);
  if (!off.client || !on.client) {
    std::printf("FAIL: flight-overhead guard could not boot its servers\n");
    return 1;
  }
  auto time_refreshes = [](Rig& rig) {
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) {
      if (!(*rig.client)->Refresh(1).ok()) {
        return -1.0;
      }
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
  };

  // Warm both paths, then paired alternating trials, median of per-pair
  // ratios (the CheckTracingOverhead methodology — see its comment for why).
  time_refreshes(off);
  time_refreshes(on);
  double off_s = 1e100;
  double on_s = 1e100;
  std::vector<double> ratios;
  ratios.reserve(kTrials);
  for (int t = 0; t < kTrials; ++t) {
    double d, e;
    if (t % 2 == 0) {
      d = time_refreshes(off);
      e = time_refreshes(on);
    } else {
      e = time_refreshes(on);
      d = time_refreshes(off);
    }
    if (d <= 0.0 || e <= 0.0) {
      std::printf("FAIL: flight-overhead guard refresh loop errored\n");
      return 1;
    }
    ratios.push_back(e / d);
    off_s = std::min(off_s, d);
    on_s = std::min(on_s, e);
  }
  std::sort(ratios.begin(), ratios.end());
  double ratio = (ratios[kTrials / 2 - 1] + ratios[kTrials / 2]) / 2.0;
  double sided = std::max(ratio, 1.0 / ratio);
  std::printf("flight-overhead guard: recorder off %.2f us/refresh, on %.2f "
              "us/refresh, median paired ratio %.4f (two-sided budget %.2f)\n",
              off_s / kIters * 1e6, on_s / kIters * 1e6, ratio, kBudget);
  if (sided > kBudget) {
    std::printf("FAIL: flight recorder overhead exceeds the noise-floor "
                "budget on the dedup hot path\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return CheckTracingOverhead() + CheckCacheSpeedup() + CheckWalkRoundTrips() +
         CheckIncrementalSpeedup() +
         CheckInvariantSweepSpeedup() + CheckDisabledObservabilityOverhead() +
         CheckServeDedup() + CheckFlightOverhead();
}
