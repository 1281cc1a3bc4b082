// The batched extraction walker: it must render byte-identically to the raw
// transport (block_bytes = 0, the recursive walk with one round trip per
// read) across the full figure corpus, the CVE case studies and incremental
// workload steps; its batches must reconcile exactly against the virtual
// clock; and its cold round trips must stay within the checked-in ceilings.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "bench/walk_ceilings.h"
#include "src/dbg/kernel_introspect.h"
#include "src/dbg/read_session.h"
#include "src/serve/shell.h"
#include "src/viewcl/interp.h"
#include "src/vision/figures.h"
#include "src/vision/render.h"
#include "src/vkern/faults.h"
#include "tests/test_util.h"

namespace viewcl {
namespace {

// Boots the bench kernel (BenchEnv): the ceilings in bench/walk_ceilings.h
// were measured on it.
void BootBenchKernel(std::unique_ptr<vkern::Kernel>* kernel,
                     std::unique_ptr<vkern::Workload>* workload) {
  *kernel = std::make_unique<vkern::Kernel>();
  vkern::WorkloadConfig config;
  config.steps = 60;
  *workload = std::make_unique<vkern::Workload>(kernel->get(), config);
  (*workload)->Run();
  (*kernel)->QueueMmPercpuWork(0);
  (*kernel)->QueueMmPercpuWork(1);
}

class WalkerTest : public ::testing::Test {
 protected:
  void SetUp() override { BootBenchKernel(&kernel_, &workload_); }

  // A fresh debugger with the paper's GDB latency model (the latency model
  // makes the batch accounting non-trivial).
  std::unique_ptr<dbg::KernelDebugger> MakeDebugger(
      dbg::CacheConfig cache = dbg::CacheConfig{}) {
    auto debugger = std::make_unique<dbg::KernelDebugger>(
        kernel_.get(), dbg::LatencyModel::GdbQemu(), cache);
    vision::RegisterFigureSymbols(debugger.get(), workload_.get());
    return debugger;
  }

  struct Rendered {
    std::string render;
    std::vector<std::string> warnings;
  };

  // Renders one program cold (fresh debugger).
  Rendered Render(const std::string& program, dbg::CacheConfig cache,
                  InterpLimits limits = InterpLimits{}) {
    auto debugger = MakeDebugger(cache);
    Interpreter interp(debugger.get(), limits);
    auto graph = interp.RunProgram(program);
    EXPECT_TRUE(graph.ok()) << graph.status().ToString();
    if (!graph.ok()) {
      return Rendered{};
    }
    return Rendered{vision::AsciiRenderer().Render(**graph), interp.warnings()};
  }

  void ExpectIdenticalRenders(const std::string& id, const std::string& program) {
    Rendered raw = Render(program, dbg::CacheConfig::Disabled());
    Rendered batched = Render(program, dbg::CacheConfig{});
    ASSERT_FALSE(raw.render.empty()) << id;
    EXPECT_EQ(raw.render, batched.render) << id << ": batched render diverged";
    EXPECT_EQ(raw.warnings, batched.warnings) << id << ": warnings diverged";
  }

  std::unique_ptr<vkern::Kernel> kernel_;
  std::unique_ptr<vkern::Workload> workload_;
};

// The core contract: every Table 2 figure renders byte-identically (same
// boxes, ids, interning and warnings) batched and on the raw transport.
TEST_F(WalkerTest, ByteIdenticalRendersAcrossAllFigures) {
  ASSERT_EQ(vision::AllFigures().size(), 21u);
  for (const vision::FigureDef& figure : vision::AllFigures()) {
    ExpectIdenticalRenders(figure.id, figure.viewcl);
  }
}

// Same contract over corrupted kernel states: both CVE case studies mutate
// structures (freed maple node, page-cache overwrite) the walker batches.
TEST_F(WalkerTest, ByteIdenticalRendersAfterStackRot) {
  vkern::StackRotReport report =
      vkern::RunStackRotScenario(kernel_.get(), workload_->process(0));
  ASSERT_NE(report.fetched_node, nullptr);
  for (const char* id : {"fig9_2", "fig3_4"}) {
    const vision::FigureDef* figure = vision::FindFigure(id);
    ASSERT_NE(figure, nullptr) << id;
    ExpectIdenticalRenders(id, figure->viewcl);
  }
}

TEST_F(WalkerTest, ByteIdenticalRendersAfterDirtyPipe) {
  vkern::DirtyPipeReport report = vkern::RunDirtyPipeScenario(
      kernel_.get(), workload_->process(0), /*vulnerable=*/true);
  ASSERT_TRUE(report.file_content_corrupted);
  for (const char* id : {"fig15_1", "fig12_3"}) {
    const vision::FigureDef* figure = vision::FindFigure(id);
    ASSERT_NE(figure, nullptr) << id;
    ExpectIdenticalRenders(id, figure->viewcl);
  }
}

// Incremental refresh on the walker: one persistent engine per figure on a
// delta-invalidating session (memo replays, delta eviction) must render
// every refresh exactly as a cold raw-transport render of the same state.
TEST_F(WalkerTest, ByteIdenticalAfterIncrementalSteps) {
  auto incremental = MakeDebugger(dbg::CacheConfig::Incremental());
  std::vector<std::unique_ptr<Interpreter>> engines;
  for (const vision::FigureDef& figure : vision::AllFigures()) {
    engines.push_back(std::make_unique<Interpreter>(incremental.get()));
    ASSERT_TRUE(engines.back()->Load(figure.viewcl).ok()) << figure.id;
  }
  uint64_t replays = 0;
  for (int step = 0; step < 4; ++step) {
    for (size_t i = 0; i < engines.size(); ++i) {
      const vision::FigureDef& figure = vision::AllFigures()[i];
      auto graph = engines[i]->Run();
      ASSERT_TRUE(graph.ok()) << figure.id;
      Rendered raw = Render(figure.viewcl, dbg::CacheConfig::Disabled());
      EXPECT_EQ(raw.render, vision::AsciiRenderer().Render(**graph))
          << figure.id << " after " << step << " step(s)";
      EXPECT_EQ(raw.warnings, engines[i]->warnings()) << figure.id;
      replays += engines[i]->walk_stats().memo_replays;
    }
    workload_->Step();
    kernel_->TickCpu(0);
  }
  EXPECT_GT(replays, 0u) << "clean subtrees must replay their memos";
}

// After a kernel step, a field no earlier walk read sits in a sector the
// delta refresh left invalid: the walk that reads it refills the block in a
// level batch, not with a round trip of its own.
TEST_F(WalkerTest, RefillOfARefreshedBlockJoinsTheLevelBatch) {
  auto debugger = MakeDebugger(dbg::CacheConfig::Incremental());
  dbg::ReadSession& session = debugger->session();
  vkern::task_struct* task = kernel_->procs().init_task();
  const uint64_t block = session.config().block_bytes;
  ASSERT_EQ(reinterpret_cast<uint64_t>(&task->pid) / block,
            reinterpret_cast<uint64_t>(&task->comm) / block)
      << "the test needs pid and comm in one block";

  Interpreter pids(debugger.get());
  ASSERT_TRUE(pids.RunProgram("define T as Box<task_struct> [ Text pid ]\n"
                              "plot T(${&init_task})")
                  .ok());
  // Rename the task: the refresh re-reads the pid sector of its block and
  // leaves the comm sectors invalid.
  task->comm[0] = task->comm[0] == 'x' ? 'y' : 'x';
  kernel_->BumpGeneration();
  (void)session.SyncEpoch();
  const dbg::CacheStats before = session.cache_stats();
  ASSERT_GT(before.refreshed_blocks, 0u);
  const uint64_t reads = debugger->target().reads();

  const std::string program =
      "define T as Box<task_struct> [ Text pid, comm ]\nplot T(${&init_task})";
  Interpreter names(debugger.get());
  auto graph = names.RunProgram(program);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(vision::AsciiRenderer().Render(**graph),
            Render(program, dbg::CacheConfig::Disabled()).render);
  const WalkStats& walk = names.walk_stats();
  EXPECT_EQ(session.cache_stats().refills - before.refills, 1u);
  EXPECT_EQ(walk.unbatched_reads, 0u);
  EXPECT_EQ(debugger->target().reads() - reads, walk.batches);
}

// Exact batch accounting: with batching in play the virtual clock still
// decomposes exactly into reads * per_access + bytes * per_byte (a vectored
// batch counts as ONE read), and every level's misses ride one batch.
TEST_F(WalkerTest, BatchAccountingReconcilesExactly) {
  for (const vision::FigureDef& figure : vision::AllFigures()) {
    auto debugger = MakeDebugger();
    Interpreter interp(debugger.get());
    auto graph = interp.RunProgram(figure.viewcl);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();

    const dbg::Target& target = debugger->target();
    const dbg::LatencyModel& model = target.model();
    EXPECT_EQ(target.clock().nanos(),
              target.reads() * model.per_access_ns + target.bytes_read() * model.per_byte_ns)
        << figure.id << ": clock must equal reads x per_access + bytes x per_byte exactly";
    const WalkStats& walk = interp.walk_stats();
    EXPECT_EQ(walk.runs, 1u);
    EXPECT_GT(walk.batches, 0u) << figure.id;
    EXPECT_LE(walk.batches, walk.levels) << figure.id;
    EXPECT_EQ(target.reads(), walk.batches + walk.unbatched_reads) << figure.id;
    // The session's vectored-fetch stats mirror the walker's batch count.
    EXPECT_EQ(debugger->session().cache_stats().vector_batches, walk.batches) << figure.id;
  }
}

// Batching must make cold extraction dramatically cheaper than the raw
// transport: one batch per level instead of one round trip per read.
TEST_F(WalkerTest, ColdExtractionCheaperWhenBatched) {
  const vision::FigureDef* figure = vision::FindFigure("fig3_6");
  ASSERT_NE(figure, nullptr);

  auto raw_debugger = MakeDebugger(dbg::CacheConfig::Disabled());
  Interpreter raw(raw_debugger.get());
  ASSERT_TRUE(raw.RunProgram(figure->viewcl).ok());
  uint64_t raw_ns = raw_debugger->target().clock().nanos();

  auto batched_debugger = MakeDebugger();
  Interpreter batched(batched_debugger.get());
  ASSERT_TRUE(batched.RunProgram(figure->viewcl).ok());
  uint64_t batched_ns = batched_debugger->target().clock().nanos();

  EXPECT_LT(batched_ns * 3, raw_ns)
      << "batched cold extraction must be at least 3x cheaper "
      << "(raw " << raw_ns << " ns, batched " << batched_ns << " ns)";
}

// No cache, no batching: every read stays one round trip and the walker
// never runs.
TEST_F(WalkerTest, NoBatchingWithoutBlockCache) {
  auto debugger = MakeDebugger(dbg::CacheConfig::Disabled());
  Interpreter interp(debugger.get());
  const vision::FigureDef* figure = vision::FindFigure("fig3_4");
  ASSERT_NE(figure, nullptr);
  ASSERT_TRUE(interp.RunProgram(figure->viewcl).ok());
  EXPECT_EQ(interp.walk_stats().runs, 0u);
  EXPECT_EQ(interp.walk_stats().batches, 0u);
  EXPECT_EQ(debugger->session().cache_stats().vector_batches, 0u);
  EXPECT_GT(debugger->target().reads(), 0u);
}

// Every figure's cold batched paint stays within its checked-in ceiling.
TEST_F(WalkerTest, ColdRoundTripsWithinCeilings) {
  for (const vision::FigureDef& figure : vision::AllFigures()) {
    auto debugger = MakeDebugger();
    Interpreter interp(debugger.get());
    ASSERT_TRUE(interp.RunProgram(figure.viewcl).ok()) << figure.id;
    EXPECT_LE(debugger->target().reads(), vlbench::WalkCeiling(figure.id)) << figure.id;
  }
}

// With edge blocks cached, nothing a cold paint reads leaves the batch
// path: the walker's blind spot is empty on every figure.
TEST_F(WalkerTest, ColdPaintsReadNothingOutsideTheBatchPath) {
  for (const vision::FigureDef& figure : vision::AllFigures()) {
    auto debugger = MakeDebugger();
    Interpreter interp(debugger.get());
    ASSERT_TRUE(interp.RunProgram(figure.viewcl).ok()) << figure.id;
    EXPECT_EQ(interp.walk_stats().unbatched_reads, 0u) << figure.id;
    EXPECT_EQ(interp.walk_stats().fallbacks, 0u) << figure.id;
    EXPECT_EQ(debugger->session().cache_stats().uncached_reads, 0u) << figure.id;
  }
}

// A program that trips max_boxes (or max_depth) falls back to the recursive
// walk and renders exactly as it does on the raw transport.
TEST_F(WalkerTest, LimitsRenderAsOnTheRawTransport) {
  const vision::FigureDef* figure = vision::FindFigure("fig3_4");
  ASSERT_NE(figure, nullptr);
  for (int variant = 0; variant < 2; ++variant) {
    InterpLimits limits;
    if (variant == 0) {
      limits.max_boxes = 7;
    } else {
      limits.max_depth = 6;
    }
    Rendered raw = Render(figure->viewcl, dbg::CacheConfig::Disabled(), limits);
    auto debugger = MakeDebugger();
    Interpreter interp(debugger.get(), limits);
    auto graph = interp.RunProgram(figure->viewcl);
    ASSERT_TRUE(graph.ok());
    EXPECT_EQ(raw.render, vision::AsciiRenderer().Render(**graph)) << variant;
    EXPECT_EQ(raw.warnings, interp.warnings()) << variant;
    EXPECT_FALSE(interp.warnings().empty()) << variant << ": the limit must trip";
    EXPECT_EQ(interp.walk_stats().fallbacks, 1u) << variant;
  }
}

// A cache too small to hold a level would evict what a stopped task waits
// for: the walk gives way to the recursive one, which renders as always.
TEST_F(WalkerTest, TinyCacheFallsBackToTheRecursiveWalk) {
  const vision::FigureDef* figure = vision::FindFigure("fig8_4");
  ASSERT_NE(figure, nullptr);
  Rendered raw = Render(figure->viewcl, dbg::CacheConfig::Disabled());
  auto debugger = MakeDebugger(dbg::CacheConfig{256, 4});
  Interpreter interp(debugger.get());
  auto graph = interp.RunProgram(figure->viewcl);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(raw.render, vision::AsciiRenderer().Render(**graph));
  EXPECT_EQ(raw.warnings, interp.warnings());
  EXPECT_EQ(interp.walk_stats().fallbacks, 1u);
}

// With memos on, the recursive fallback runs inside the batched run and each
// installs its own page log: both give back the log they replaced, so no
// pointer into a finished run stays with the session.
TEST_F(WalkerTest, FallbackWithMemosLeavesNoPageLog) {
  const vision::FigureDef* figure = vision::FindFigure("fig8_4");
  ASSERT_NE(figure, nullptr);
  Rendered raw = Render(figure->viewcl, dbg::CacheConfig::Disabled());
  dbg::CacheConfig tiny{256, 4};
  tiny.delta_invalidation = true;
  auto debugger = MakeDebugger(tiny);
  Interpreter interp(debugger.get());
  for (int run = 0; run < 2; ++run) {
    auto graph = run == 0 ? interp.RunProgram(figure->viewcl) : interp.Run();
    ASSERT_TRUE(graph.ok());
    EXPECT_EQ(raw.render, vision::AsciiRenderer().Render(**graph)) << run;
    EXPECT_EQ(debugger->session().set_page_log(nullptr), nullptr) << run;
  }
  EXPECT_GE(interp.walk_stats().fallbacks, 1u);
}

// Each ${...} is parsed once per interpreter, failed parses included: a
// malformed expression warns with the text EvalCExpression gives, on every
// run, and the same on both paths.
TEST_F(WalkerTest, MalformedCExpressionWarnsOnEveryRun) {
  const std::string program = R"(
define Task as Box<task_struct> [
  Text pid
  Text bad: ${@this.pid +}
]
plot Task(${&init_task})
)";
  auto debugger = MakeDebugger();
  dbg::Environment env;
  auto direct = dbg::EvalCExpression(&debugger->context(), "@this.pid +", &env);
  ASSERT_FALSE(direct.ok());
  const std::string expected = "item 'bad' in Task: " + direct.status().ToString();

  Interpreter interp(debugger.get());
  ASSERT_TRUE(interp.Load(program).ok());
  for (int run = 0; run < 2; ++run) {
    ASSERT_TRUE(interp.Run().ok());
    ASSERT_EQ(interp.warnings().size(), 1u);
    EXPECT_EQ(interp.warnings()[0], expected) << run;
  }
  EXPECT_EQ(Render(program, dbg::CacheConfig::Disabled()).warnings,
            std::vector<std::string>{expected});
}

// Where mmap places the arena must not matter: two kernels booted alike in
// one process read every figure in the same round trips and bytes.
TEST_F(WalkerTest, SameSeedKernelsReadIdentically) {
  std::unique_ptr<vkern::Kernel> twin_kernel;
  std::unique_ptr<vkern::Workload> twin_workload;
  BootBenchKernel(&twin_kernel, &twin_workload);
  for (const vision::FigureDef& figure : vision::AllFigures()) {
    uint64_t reads[2];
    uint64_t bytes[2];
    for (int side = 0; side < 2; ++side) {
      vkern::Kernel* kernel = side == 0 ? kernel_.get() : twin_kernel.get();
      vkern::Workload* workload = side == 0 ? workload_.get() : twin_workload.get();
      dbg::KernelDebugger debugger(kernel, dbg::LatencyModel::GdbQemu());
      vision::RegisterFigureSymbols(&debugger, workload);
      Interpreter interp(&debugger);
      ASSERT_TRUE(interp.RunProgram(figure.viewcl).ok()) << figure.id;
      reads[side] = debugger.target().reads();
      bytes[side] = debugger.target().bytes_read();
    }
    EXPECT_EQ(reads[0], reads[1]) << figure.id;
    EXPECT_EQ(bytes[0], bytes[1]) << figure.id;
  }
}

// Direct Target::ReadVector contract: one batch charges base latency once
// plus per-byte for the successful spans; failed spans are tolerated.
TEST_F(WalkerTest, ReadVectorChargesOneBatch) {
  auto debugger = MakeDebugger();
  debugger->target().ResetStats();
  dbg::Target& target = debugger->target();

  dbg::Value task_sym;
  ASSERT_TRUE(debugger->symbols().FindGlobal("target_task", &task_sym));
  uint64_t task = task_sym.addr();
  uint8_t a[64], b[64], c[16];
  std::vector<dbg::ReadSpan> spans = {
      {task, sizeof(a), a},
      {task + 128, sizeof(b), b},
      {~uint64_t{0} - 8, sizeof(c), c},  // unreadable: must not fail the batch
  };
  size_t ok = target.ReadVector(spans);
  EXPECT_EQ(ok, 2u);
  EXPECT_TRUE(spans[0].ok);
  EXPECT_TRUE(spans[1].ok);
  EXPECT_FALSE(spans[2].ok);
  EXPECT_EQ(target.reads(), 1u);
  EXPECT_EQ(target.bytes_read(), sizeof(a) + sizeof(b));
  const dbg::LatencyModel& model = target.model();
  EXPECT_EQ(target.clock().nanos(),
            model.per_access_ns + model.per_byte_ns * (sizeof(a) + sizeof(b)));
}

// The vectored-read counts live on the objects that issue the batches: the
// session's cache stats and the engine's walk stats, each reset on its own.
TEST_F(WalkerTest, ResetStatsClearsVectorCounters) {
  auto debugger = MakeDebugger();
  Interpreter interp(debugger.get());
  const vision::FigureDef* figure = vision::FindFigure("fig3_6");
  ASSERT_NE(figure, nullptr);
  ASSERT_TRUE(interp.RunProgram(figure->viewcl).ok());

  dbg::ReadSession& session = debugger->session();
  ASSERT_GT(session.cache_stats().vector_batches, 0u);
  ASSERT_GT(session.cache_stats().vector_blocks, session.cache_stats().vector_batches);
  ASSERT_GT(interp.walk_stats().batches, 0u);

  session.ResetCacheStats();
  EXPECT_EQ(session.cache_stats().vector_batches, 0u);
  EXPECT_EQ(session.cache_stats().vector_blocks, 0u);
  interp.ResetWalkStats();
  EXPECT_EQ(interp.walk_stats().batches, 0u);
}

// A cold walker paint fetches its blocks in level batches, and the first read
// of each is a miss: the hit rate tells the truth.
TEST_F(WalkerTest, ColdPaintCountsItsBatchedMisses) {
  vserve::Server server;
  ASSERT_TRUE(server.BootShard("k0", dbg::LatencyModel::GdbQemu()).ok());
  auto client = server.Connect();
  ASSERT_TRUE(client.ok());
  vserve::DebuggerShell shell((*client).session());
  ASSERT_NE(shell.Execute("vplot 1 --auto task_struct &init_task").find("pane 1"),
            std::string::npos);
  std::string stats = shell.Execute("vctrl stats");
  EXPECT_EQ(stats.find("0 misses (100.0% hit rate)"), std::string::npos) << stats;
  const dbg::CacheStats& cache = server.shard_debugger("k0")->session().cache_stats();
  EXPECT_EQ(cache.block_fetches, 0u);
  EXPECT_GT(cache.vector_blocks, 0u);
  EXPECT_GT(cache.miss_bytes, 0u);
  EXPECT_GT(cache.misses, 0u);
}

// The serving surfaces: `vctrl stats` grows a walk: line, the stats JSON
// carries the per-shard and fleet walk counts, and Server::ResetStats zeroes
// them. The retired `vctrl plan` is an unknown subcommand.
TEST_F(WalkerTest, ShellExposesWalkerStats) {
  vserve::Server server;
  ASSERT_TRUE(server.BootShard("k0", dbg::LatencyModel::GdbQemu()).ok());
  server.ResetStats();
  auto client = server.Connect();
  ASSERT_TRUE(client.ok());
  vserve::DebuggerShell shell((*client).session());

  const vision::FigureDef* figure = vision::FindFigure("fig3_6");
  ASSERT_NE(figure, nullptr);
  std::string plotted = shell.Execute(std::string("vplot 1 ") + figure->viewcl);
  ASSERT_NE(plotted.find("pane 1"), std::string::npos) << plotted;

  std::string stats = shell.Execute("vctrl stats");
  EXPECT_NE(stats.find("walk: batches="), std::string::npos) << stats;
  EXPECT_NE(stats.find(" runs=1 "), std::string::npos) << stats;
  vl::Json fleet = server.StatsToJson();
  // The schema (docs/observability.md#stats-schema), fleet-wide and per shard.
  for (const char* key : {"runs", "levels", "batches", "tasks", "retries", "unbatched_reads",
                          "fallbacks", "memo_replays", "memo_misses"}) {
    ASSERT_NE(fleet["walk"].Find(key), nullptr) << key;
    EXPECT_EQ(fleet["walk"][key].AsInt(), fleet["shards"]["k0"]["walk"][key].AsInt()) << key;
  }
  EXPECT_EQ(fleet["walk"].size(), 9u);
  EXPECT_EQ(fleet["walk"]["runs"].AsInt(), 1);
  EXPECT_EQ(fleet["walk"]["unbatched_reads"].AsInt(), 0);
  EXPECT_GT(fleet["walk"]["levels"].AsInt(), 0);
  EXPECT_EQ(fleet["shards"]["k0"]["walk"]["levels"].AsInt(), fleet["walk"]["levels"].AsInt());
  EXPECT_EQ(fleet.Find("plan"), nullptr);
  std::string stats_json = shell.Execute("vctrl stats json");
  EXPECT_NE(stats_json.find("\"unbatched_reads\""), std::string::npos) << stats_json;
  EXPECT_EQ(stats_json.find("\"plan\""), std::string::npos);
  std::string prom = shell.Execute("vctrl export prom");
  EXPECT_EQ(prom.find("vl_plan_"), std::string::npos);
  EXPECT_EQ(prom.find("vl_read_vector_"), std::string::npos);
  std::string plan = shell.Execute("vctrl plan 1");
  EXPECT_EQ(plan.rfind("usage: vctrl", 0), 0u) << plan;
  EXPECT_EQ(plan.find("|plan|"), std::string::npos) << plan;

  server.ResetStats();
  EXPECT_EQ(server.StatsToJson()["walk"]["levels"].AsInt(), 0);
  EXPECT_EQ(server.StatsToJson()["walk"]["batches"].AsInt(), 0);
}

}  // namespace
}  // namespace viewcl
