// Tests for the deterministic tracing layer (support/trace.h,
// support/histogram.h) and its integration: span nesting and self-time
// accounting, run-to-run byte-identical Chrome trace JSON, histogram bucket
// edges, the tracer's read statistics, per-transport charge attribution, and
// the vctrl stats / vctrl trace / vprof shell commands.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "src/dbg/kernel_introspect.h"
#include "src/support/histogram.h"
#include "src/support/trace.h"
#include "src/viewcl/interp.h"
#include "src/vision/figures.h"
#include "tests/served_shell.h"
#include "tests/test_util.h"

namespace vl {
namespace {

// The tracer is process-wide; every test starts and finishes with it
// quiesced so ordering cannot leak state.
void Quiesce() {
  Tracer& tracer = Tracer::Instance();
  tracer.Disable();
  tracer.Clear();
  tracer.SetCapacity(1 << 16);
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { Quiesce(); }
  void TearDown() override { Quiesce(); }
};

TEST_F(TraceTest, HistogramBucketEdges) {
  EXPECT_EQ(Histogram::BucketOf(0), 0);
  EXPECT_EQ(Histogram::BucketOf(1), 1);
  EXPECT_EQ(Histogram::BucketOf(2), 2);
  EXPECT_EQ(Histogram::BucketOf(3), 2);
  EXPECT_EQ(Histogram::BucketOf(4), 3);
  EXPECT_EQ(Histogram::BucketOf(7), 3);
  EXPECT_EQ(Histogram::BucketOf(8), 4);
  EXPECT_EQ(Histogram::BucketOf(1ull << 20), 21);
  EXPECT_EQ(Histogram::BucketOf(~0ull), 64);

  EXPECT_EQ(Histogram::BucketUpperEdge(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperEdge(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperEdge(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperEdge(3), 7u);
  EXPECT_EQ(Histogram::BucketUpperEdge(64), ~0ull);

  Histogram h;
  for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 1ull << 20}) {
    h.Record(v);
  }
  EXPECT_EQ(h.bucket(0), 1u);  // 0
  EXPECT_EQ(h.bucket(1), 1u);  // 1
  EXPECT_EQ(h.bucket(2), 2u);  // 2, 3
  EXPECT_EQ(h.bucket(3), 1u);  // 4
  EXPECT_EQ(h.bucket(21), 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 10u + (1ull << 20));
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1ull << 20);
}

// Time advances only by the charges recorded into the tracer, so every
// span's duration is the sum of the charges inside it.
TEST_F(TraceTest, SpanNestingSelfTimeAndOrdering) {
  Tracer& tracer = Tracer::Instance();
  tracer.Enable();

  tracer.BeginSpan("outer");
  tracer.CompleteEvent("charge", 10);
  tracer.BeginSpan("inner");
  tracer.CompleteEvent("charge", 5);
  tracer.EndSpan();
  tracer.CompleteEvent("charge", 3);
  tracer.EndSpan();

  auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 5u);
  // Leaves are stamped with the time before their charge.
  EXPECT_EQ(events[0].ts_ns, 0u);
  EXPECT_EQ(events[1].ts_ns, 10u);
  EXPECT_EQ(events[3].ts_ns, 15u);
  // inner completes before outer (recorded at EndSpan).
  EXPECT_EQ(events[2].name, "inner");
  EXPECT_EQ(events[2].ts_ns, 10u);
  EXPECT_EQ(events[2].dur_ns, 5u);
  EXPECT_EQ(events[2].self_ns, 0u);  // its charge is a child
  EXPECT_EQ(events[2].depth, 1);
  EXPECT_EQ(events[4].name, "outer");
  EXPECT_EQ(events[4].ts_ns, 0u);
  EXPECT_EQ(events[4].dur_ns, 18u);
  EXPECT_EQ(events[4].self_ns, 0u);  // 18 minus inner's 5 and its charges' 13
  EXPECT_EQ(events[4].depth, 0);
  EXPECT_LT(events[4].seq, events[2].seq);  // outer began first

  // Self times partition the root's duration.
  EXPECT_EQ(tracer.stats().at("charge").self_ns, 18u);
  EXPECT_EQ(tracer.TotalSelfNanos(), 18u);
}

TEST_F(TraceTest, CompleteEventChargesParent) {
  Tracer& tracer = Tracer::Instance();
  tracer.Enable();

  tracer.BeginSpan("parent");
  tracer.CompleteEvent("leaf", 7, {{"bytes", 8}});
  tracer.CompleteEvent("tail", 2);
  tracer.EndSpan();

  const auto& stats = tracer.stats();
  ASSERT_EQ(stats.count("parent"), 1u);
  ASSERT_EQ(stats.count("leaf"), 1u);
  EXPECT_EQ(stats.at("parent").total_ns, 9u);
  EXPECT_EQ(stats.at("parent").self_ns, 0u);
  EXPECT_EQ(stats.at("leaf").self_ns, 7u);
  EXPECT_EQ(stats.at("tail").self_ns, 2u);
  EXPECT_EQ(tracer.TotalSelfNanos(), 9u);
  EXPECT_EQ(tracer.NowNanos(), 9u);

  // Clear() restarts the time with the trace.
  tracer.Clear();
  EXPECT_EQ(tracer.NowNanos(), 0u);
}

TEST_F(TraceTest, RingEvictsOldestAndCountsDropped) {
  Tracer& tracer = Tracer::Instance();
  tracer.Enable();
  tracer.SetCapacity(4);

  for (int i = 0; i < 10; ++i) {
    tracer.CompleteEvent("e", 1);  // event i is stamped i
  }
  EXPECT_EQ(tracer.dropped(), 6u);
  auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);  // oldest first
  }
  EXPECT_EQ(events.back().ts_ns, 9u);
  // Aggregates survive eviction.
  EXPECT_EQ(tracer.stats().at("e").count, 10u);
}

TEST_F(TraceTest, DisabledRecordsNothing) {
  Tracer& tracer = Tracer::Instance();
  ASSERT_FALSE(tracer.enabled());
  {
    ScopedSpan span("ignored");
  }
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_TRUE(tracer.Snapshot().empty());
  EXPECT_TRUE(tracer.stats().empty());
}

TEST_F(TraceTest, ApproxQuantileOnKnownDistributions) {
  Histogram uniform;
  for (uint64_t v = 1; v <= 1000; ++v) {
    uniform.Record(v);
  }
  // Linear interpolation inside a log2 bucket: exact to within the bucket's
  // factor-of-two span, always clamped to the observed [min, max].
  EXPECT_NEAR(uniform.ApproxQuantile(0.50), 500.0, 16.0);
  EXPECT_NEAR(uniform.ApproxQuantile(0.90), 900.0, 60.0);
  EXPECT_NEAR(uniform.ApproxQuantile(0.99), 990.0, 15.0);
  EXPECT_EQ(uniform.ApproxQuantile(0.0), 1.0);
  EXPECT_EQ(uniform.ApproxQuantile(1.0), 1000.0);
  // Out-of-range q clamps to the extremes.
  EXPECT_EQ(uniform.ApproxQuantile(-0.5), uniform.ApproxQuantile(0.0));
  EXPECT_EQ(uniform.ApproxQuantile(1.5), uniform.ApproxQuantile(1.0));
  // Monotone in q.
  double prev = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    double v = uniform.ApproxQuantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }

  // One distinct value: the [min, max] clamp makes every quantile exact.
  Histogram single;
  for (int i = 0; i < 4; ++i) {
    single.Record(8);
  }
  EXPECT_EQ(single.ApproxQuantile(0.0), 8.0);
  EXPECT_EQ(single.ApproxQuantile(0.5), 8.0);
  EXPECT_EQ(single.ApproxQuantile(0.99), 8.0);

  Histogram empty;
  EXPECT_EQ(empty.ApproxQuantile(0.5), 0.0);
}

TEST_F(TraceTest, MetricsReportQuantiles) {
  Tracer& tracer = Tracer::Instance();
  for (uint64_t v = 1; v <= 100; ++v) {
    tracer.RecordRead(v, 2 * v);
  }
  tracer.CountTaggedRead("task_struct", 64);
  tracer.CountTaggedRead("task_struct", 32);
  Json j = tracer.read_stats().ToJson();
  const Json* hist = j.Find("bytes");
  ASSERT_NE(hist, nullptr);
  ASSERT_NE(hist->Find("p50"), nullptr);
  ASSERT_NE(hist->Find("p90"), nullptr);
  ASSERT_NE(hist->Find("p99"), nullptr);
  EXPECT_NEAR(hist->Find("p50")->AsNumber(), 50.0, 8.0);
  EXPECT_EQ(j.Find("latency_ns")->Find("count")->AsInt(), 100);
  const Json* tagged = j.Find("by_type")->Find("task_struct");
  ASSERT_NE(tagged, nullptr);
  EXPECT_EQ(tagged->Find("reads")->AsInt(), 2);
  EXPECT_EQ(tagged->Find("bytes")->AsInt(), 96);
  tracer.Clear();
  EXPECT_EQ(tracer.read_stats().bytes.count(), 0u);
  EXPECT_TRUE(tracer.read_stats().by_tag.empty());
}

TEST_F(TraceTest, AnnotateAccumulatesIntoInnermostSpan) {
  Tracer& tracer = Tracer::Instance();
  tracer.Enable();

  tracer.Annotate("cache.hit_bytes", 4);  // no open span: dropped
  tracer.BeginSpan("outer");
  tracer.BeginSpan("inner");
  tracer.Annotate("cache.hit_bytes", 8);
  tracer.Annotate("cache.hit_bytes", 8);
  tracer.Annotate("cache.miss_bytes", 16);
  tracer.EndSpan();
  tracer.EndSpan();

  auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  ASSERT_EQ(events[0].name, "inner");
  // Annotations accumulate per key, sorted; they do not leak to the parent.
  ASSERT_EQ(events[0].args.size(), 2u);
  EXPECT_EQ(events[0].args[0].first, "cache.hit_bytes");
  EXPECT_EQ(events[0].args[0].second, 16);
  EXPECT_EQ(events[0].args[1].first, "cache.miss_bytes");
  EXPECT_EQ(events[0].args[1].second, 16);
  EXPECT_TRUE(events[1].args.empty());
}

TEST_F(TraceTest, TreeModeBuildsCallingContextTreeWithRolledUpArgs) {
  Tracer& tracer = Tracer::Instance();
  tracer.SetTreeEnabled(true);
  tracer.Enable();

  // Two identical refresh-shaped passes: same-path spans merge into one node.
  for (int i = 0; i < 2; ++i) {
    tracer.BeginSpan("a");
    tracer.CompleteEvent("setup", 10);
    tracer.BeginSpan("b");
    tracer.CompleteEvent("read", 5, {{"bytes", 4}});
    tracer.Annotate("cache.hit_bytes", 8);
    tracer.EndSpan();
    tracer.CompleteEvent("read", 3, {{"bytes", 4}});
    tracer.EndSpan();
  }
  tracer.SetTreeEnabled(false);  // freeze for inspection

  const TreeNode& root = tracer.tree_root();
  ASSERT_EQ(root.children.count("a"), 1u);
  const TreeNode& a = root.children.at("a");
  EXPECT_EQ(a.count, 2u);
  EXPECT_EQ(a.total_ns, 36u);
  EXPECT_EQ(a.self_ns, 0u);  // every nanosecond is a charge below it
  ASSERT_EQ(a.children.count("setup"), 1u);
  ASSERT_EQ(a.children.count("b"), 1u);
  ASSERT_EQ(a.children.count("read"), 1u);
  EXPECT_EQ(a.children.at("setup").total_ns, 20u);
  EXPECT_EQ(a.children.at("b").total_ns, 10u);
  EXPECT_EQ(a.children.at("b").args.at("cache.hit_bytes"), 16);
  EXPECT_EQ(a.children.at("b").children.at("read").total_ns, 10u);
  EXPECT_EQ(a.children.at("read").total_ns, 6u);

  // Serialization rolls descendants' args up: node "a" reports its subtree's
  // bytes and cache split even though the annotations landed on children.
  Json j = tracer.TreeToJson();
  EXPECT_EQ(j.Find("total_ns")->AsInt(), 36);
  const Json* ja = j.Find("children")->Find("a");
  ASSERT_NE(ja, nullptr);
  EXPECT_EQ(ja->Find("total_ns")->AsInt(), 36);
  EXPECT_EQ(ja->Find("args")->Find("cache.hit_bytes")->AsInt(), 16);
  EXPECT_EQ(ja->Find("args")->Find("bytes")->AsInt(), 16);

  std::string text = tracer.TreeText();
  EXPECT_NE(text.find("a"), std::string::npos);
  EXPECT_NE(text.find("cache.hit_bytes=16"), std::string::npos);

  // Re-enabling resets the tree for the next refresh.
  tracer.SetTreeEnabled(true);
  EXPECT_TRUE(tracer.tree_root().children.empty());
  tracer.SetTreeEnabled(false);
}

TEST_F(TraceTest, FoldedStacksReconstructFromRing) {
  Tracer& tracer = Tracer::Instance();
  tracer.Enable();

  for (int i = 0; i < 2; ++i) {
    tracer.BeginSpan("a");
    tracer.CompleteEvent("setup", 10);
    tracer.BeginSpan("b");
    tracer.CompleteEvent("read", 5);
    tracer.EndSpan();
    tracer.CompleteEvent("read", 3);
    tracer.EndSpan();
  }
  // The self times sum to the two roots' 36 ns.
  EXPECT_EQ(tracer.ToFolded(), "a;b;read 10\na;read 6\na;setup 20\n");
}

// Shrinking the ring while it has wrapped must keep the newest events (in
// order) and charge the shed ones to dropped(); the ring must keep working
// at the new capacity afterwards.
TEST_F(TraceTest, SetCapacityShrinkWhileWrappedKeepsNewest) {
  Tracer& tracer = Tracer::Instance();
  tracer.Enable();
  tracer.SetCapacity(8);
  for (int i = 0; i < 10; ++i) {
    tracer.CompleteEvent("e", 1);  // event i is stamped i
  }
  ASSERT_EQ(tracer.dropped(), 2u);  // ring wrapped: ts 0 and 1 evicted

  tracer.SetCapacity(4);
  EXPECT_EQ(tracer.dropped(), 6u);  // shrink shed ts 2..5
  auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts_ns, 6u + i);  // newest four, oldest first
    if (i > 0) {
      EXPECT_LT(events[i - 1].seq, events[i].seq);
    }
  }

  // The ring wraps correctly at the new capacity.
  tracer.CompleteEvent("e", 1);  // stamped 10
  events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().ts_ns, 7u);
  EXPECT_EQ(events.back().ts_ns, 10u);
  EXPECT_EQ(tracer.dropped(), 7u);

  // Growing keeps everything buffered and the dropped count.
  tracer.SetCapacity(16);
  EXPECT_EQ(tracer.Snapshot().size(), 4u);
  EXPECT_EQ(tracer.dropped(), 7u);
  // Aggregates were never touched by the resizes.
  EXPECT_EQ(tracer.stats().at("e").count, 11u);
}

class TraceKernelTest : public vltest::WorkloadKernelTest {
 protected:
  void SetUp() override {
    Quiesce();
    vltest::WorkloadKernelTest::SetUp();
    // GdbQemu so reads actually advance the virtual clock.
    debugger_ = std::make_unique<dbg::KernelDebugger>(kernel_.get(),
                                                      dbg::LatencyModel::GdbQemu());
    vision::RegisterFigureSymbols(debugger_.get(), workload_.get());
  }
  void TearDown() override {
    debugger_.reset();
    Quiesce();
  }

  // One traced extraction from a clean slate; returns the Chrome JSON dump.
  std::string TracedRun(const char* figure_id) {
    Tracer& tracer = Tracer::Instance();
    tracer.Clear();
    debugger_->target().ResetStats();
    // A clean slate includes an empty read cache: a warm cache elides
    // transport reads (and their spans) entirely.
    debugger_->session().InvalidateAll();
    debugger_->session().ResetCacheStats();
    tracer.Enable();
    viewcl::Interpreter interp(debugger_.get());
    auto graph = interp.RunProgram(vision::FindFigure(figure_id)->viewcl);
    EXPECT_TRUE(graph.ok()) << graph.status().ToString();
    tracer.Disable();
    return tracer.ToChromeJson().Dump(2);
  }

  std::unique_ptr<dbg::KernelDebugger> debugger_;
};

TEST_F(TraceKernelTest, TwoRunsProduceByteIdenticalTraces) {
  std::string first = TracedRun("fig7_1");
  std::string second = TracedRun("fig7_1");
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST_F(TraceKernelTest, ChromeJsonRoundTripsThroughParser) {
  std::string dump = TracedRun("fig7_1");
  auto parsed = Json::Parse(dump);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_GT(events->size(), 0u);
  const Json& first = events->at(0);
  EXPECT_EQ(first.Find("ph")->AsString(), "X");
  EXPECT_EQ(first.Find("cat")->AsString(), "vtrace");
  EXPECT_NE(first.Find("ts"), nullptr);
  EXPECT_NE(first.Find("dur"), nullptr);
  EXPECT_NE(first.Find("args")->Find("seq"), nullptr);
  EXPECT_EQ(parsed->Find("metadata")->Find("clock")->AsString(), "virtual");
}

TEST_F(TraceKernelTest, SelfTimesPartitionTheTargetClock) {
  Tracer& tracer = Tracer::Instance();
  tracer.Clear();
  debugger_->target().ResetStats();
  tracer.Enable();
  {
    ScopedSpan root("root");
    viewcl::Interpreter interp(debugger_.get());
    auto graph = interp.RunProgram(vision::FindFigure("fig7_1")->viewcl);
    ASSERT_TRUE(graph.ok());
  }
  tracer.Disable();
  EXPECT_GT(debugger_->target().clock().nanos(), 0u);
  EXPECT_EQ(tracer.TotalSelfNanos(), debugger_->target().clock().nanos());
}

TEST_F(TraceKernelTest, ReadsAreTaggedByKernelType) {
  Tracer& tracer = Tracer::Instance();
  tracer.Enable();
  viewcl::Interpreter interp(debugger_.get());
  auto graph = interp.RunProgram(vision::FindFigure("fig7_1")->viewcl);
  ASSERT_TRUE(graph.ok());
  tracer.Disable();

  uint64_t typed = 0;
  for (const auto& [tag, counts] : tracer.read_stats().by_tag) {
    if (tag != "untyped") {
      typed += counts.reads;
    }
  }
  EXPECT_GT(typed, 0u);
  EXPECT_GT(tracer.read_stats().bytes.count(), 0u);
}

// Target::ResetStats zeroes only what the target owns: the tracer's read
// statistics and the trace survive it, and are cleared with the trace by
// `vctrl trace clear`.
TEST_F(TraceKernelTest, ResetStatsLeavesTracingData) {
  Tracer& tracer = Tracer::Instance();
  tracer.Enable();
  viewcl::Interpreter interp(debugger_.get());
  ASSERT_TRUE(interp.RunProgram(vision::FindFigure("fig7_1")->viewcl).ok());
  tracer.Disable();

  const ReadStats& reads = tracer.read_stats();
  const uint64_t read_count = reads.bytes.count();
  ASSERT_GT(read_count, 0u);
  ASSERT_FALSE(reads.by_tag.empty());
  const size_t tags = reads.by_tag.size();
  const size_t spans = tracer.Snapshot().size();

  debugger_->target().ResetStats();
  EXPECT_EQ(debugger_->target().reads(), 0u);
  EXPECT_EQ(debugger_->target().clock().nanos(), 0u);
  EXPECT_EQ(reads.bytes.count(), read_count);
  EXPECT_EQ(reads.latency_ns.count(), read_count);
  EXPECT_EQ(reads.by_tag.size(), tags);
  EXPECT_EQ(tracer.Snapshot().size(), spans);

  vltest::ServedShell shell(debugger_.get());
  ASSERT_EQ(shell.Execute("vctrl trace clear"), "trace cleared\n");
  EXPECT_EQ(reads.bytes.count(), 0u);
  EXPECT_EQ(reads.latency_ns.count(), 0u);
  EXPECT_TRUE(reads.by_tag.empty());
  EXPECT_TRUE(tracer.Snapshot().empty());
  EXPECT_EQ(tracer.NowNanos(), 0u);
}

TEST_F(TraceKernelTest, PerModelAttributionSumsToTotals) {
  dbg::Target& target = debugger_->target();
  uint64_t addr = reinterpret_cast<uint64_t>(kernel_->procs().init_task());
  target.ResetStats();
  target.set_model(dbg::LatencyModel::GdbQemu());
  ASSERT_TRUE(target.ReadUnsigned(addr, 8).ok());
  target.set_model(dbg::LatencyModel::KgdbRpi400());
  ASSERT_TRUE(target.ReadUnsigned(addr, 8).ok());

  const auto& per_model = target.per_model_stats();
  uint64_t nanos = 0;
  uint64_t reads = 0;
  uint64_t bytes = 0;
  for (const auto& [name, stats] : per_model) {
    nanos += stats.charged_ns;
    reads += stats.reads;
    bytes += stats.bytes;
  }
  EXPECT_EQ(nanos, target.clock().nanos());
  EXPECT_EQ(reads, target.reads());
  EXPECT_EQ(bytes, target.bytes_read());
  ASSERT_EQ(per_model.count("GDB (QEMU)"), 1u);
  ASSERT_EQ(per_model.count("KGDB (rpi-400)"), 1u);
  EXPECT_GT(per_model.at("KGDB (rpi-400)").charged_ns, per_model.at("GDB (QEMU)").charged_ns);

  target.ResetStats();
  EXPECT_TRUE(target.per_model_stats().at(target.model().name).reads == 0);
}

class TraceShellTest : public TraceKernelTest {
 protected:
  void SetUp() override {
    TraceKernelTest::SetUp();
    shell_ = std::make_unique<vltest::ServedShell>(debugger_.get());
  }
  void TearDown() override {
    shell_.reset();
    TraceKernelTest::TearDown();
  }

  std::unique_ptr<vltest::ServedShell> shell_;
};

TEST_F(TraceShellTest, VctrlStatsReportsTargetAndTracer) {
  std::string plot = shell_->Execute(
      std::string("vplot 1 ") + vision::FindFigure("fig7_1")->viewcl);
  ASSERT_NE(plot.find("plotted"), std::string::npos) << plot;
  std::string out = shell_->Execute("vctrl stats");
  EXPECT_NE(out.find("target: model="), std::string::npos) << out;
  EXPECT_NE(out.find("reads="), std::string::npos);
  EXPECT_NE(out.find("cache: on"), std::string::npos) << out;
  EXPECT_NE(out.find("hit rate"), std::string::npos);
  EXPECT_NE(out.find("tracer: off"), std::string::npos);

  // `vctrl stats json` merges every stats shape into one object.
  auto merged = Json::Parse(shell_->Execute("vctrl stats json"));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  const Json* target = merged->Find("target");
  ASSERT_NE(target, nullptr);
  EXPECT_NE(target->Find("charged_ns"), nullptr);
  const Json* cache = merged->Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_NE(cache->Find("hits"), nullptr);
  EXPECT_NE(cache->Find("hit_rate"), nullptr);
  EXPECT_NE(merged->Find("panes"), nullptr);
  ASSERT_NE(merged->Find("tracer"), nullptr);
  EXPECT_NE(merged->Find("tracer")->Find("reads"), nullptr);
  EXPECT_EQ(merged->Find("metrics"), nullptr);
}

TEST_F(TraceShellTest, VctrlTraceOnOffDump) {
  EXPECT_NE(shell_->Execute("vctrl trace on").find("tracing on"), std::string::npos);
  EXPECT_TRUE(Tracer::Instance().enabled());
  std::string plot = shell_->Execute(
      std::string("vplot 1 ") + vision::FindFigure("fig7_1")->viewcl);
  ASSERT_NE(plot.find("plotted"), std::string::npos) << plot;

  std::string path = ::testing::TempDir() + "/vtrace_dump.json";
  std::string out = shell_->Execute("vctrl trace dump " + path);
  EXPECT_NE(out.find("wrote"), std::string::npos) << out;
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream buffer;
  buffer << file.rdbuf();
  auto parsed = Json::Parse(buffer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_GT(parsed->Find("traceEvents")->size(), 0u);

  EXPECT_NE(shell_->Execute("vctrl trace off").find("tracing off"), std::string::npos);
  EXPECT_FALSE(Tracer::Instance().enabled());
}

TEST_F(TraceShellTest, VprofBreakdownReconcilesWithClockExactly) {
  std::string out = shell_->Execute(
      std::string("vprof 1 ") + vision::FindFigure("fig7_1")->viewcl);
  EXPECT_NE(out.find("vprof pane 1"), std::string::npos) << out;
  EXPECT_NE(out.find("dbg.read"), std::string::npos) << out;
  EXPECT_NE(out.find("(exact)"), std::string::npos) << out;
  EXPECT_EQ(out.find("MISMATCH"), std::string::npos) << out;
  // vprof leaves the tracer the way it found it (off).
  EXPECT_FALSE(Tracer::Instance().enabled());
  // The profiled graph landed in the pane.
  EXPECT_NE(shell_->panes().graph(1), nullptr);
}

// vprof reads its breakdown from its own subtree: the spans traced before it
// stay in the user's trace.
TEST_F(TraceShellTest, VprofKeepsTheUsersTrace) {
  Tracer& tracer = Tracer::Instance();
  ASSERT_EQ(shell_->Execute("vctrl trace on"), "tracing on\n");
  std::string plot =
      shell_->Execute(std::string("vplot 1 ") + vision::FindFigure("fig7_1")->viewcl);
  ASSERT_NE(plot.find("plotted"), std::string::npos) << plot;
  const std::vector<TraceEvent> before = tracer.Snapshot();
  ASSERT_FALSE(before.empty());
  ASSERT_EQ(tracer.stats().count("vprof"), 0u);

  std::string out =
      shell_->Execute(std::string("vprof 1 ") + vision::FindFigure("fig3_4")->viewcl);
  EXPECT_NE(out.find("(exact)"), std::string::npos) << out;
  EXPECT_EQ(out.find("MISMATCH"), std::string::npos) << out;
  const std::vector<TraceEvent> after = tracer.Snapshot();
  ASSERT_GT(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].seq, before[i].seq) << i;
    EXPECT_EQ(after[i].name, before[i].name) << i;
  }
  EXPECT_EQ(tracer.stats().count("vprof"), 1u);
  EXPECT_TRUE(tracer.enabled());
  EXPECT_FALSE(tracer.tree_enabled());
  shell_->Execute("vctrl trace off");
}

TEST_F(TraceShellTest, SessionSaveIncludesStats) {
  std::string plot = shell_->Execute(
      std::string("vplot 1 ") + vision::FindFigure("fig3_4")->viewcl);
  ASSERT_NE(plot.find("plotted"), std::string::npos) << plot;
  ASSERT_EQ(shell_->Execute("vctrl apply 1 a = SELECT task_struct FROM *\n"
                            "UPDATE a WITH collapsed: true"),
            "applied\n");
  std::string saved = shell_->Execute("vctrl save");
  auto parsed = Json::Parse(saved);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json* stats = parsed->Find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->Find("charged_ns")->AsInt(), 0);
  EXPECT_NE(stats->Find("per_model"), nullptr);
  const Json* cache = parsed->Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_NE(cache->Find("hits"), nullptr);
  EXPECT_NE(cache->Find("misses"), nullptr);
  const Json* panes = parsed->Find("panes");
  ASSERT_NE(panes, nullptr);
  const Json* exec = panes->at(0).Find("exec");
  ASSERT_NE(exec, nullptr);
  EXPECT_EQ(exec->Find("statements")->AsInt(), 2);
  EXPECT_EQ(exec->Find("selects")->AsInt(), 1);
  EXPECT_EQ(exec->Find("updates")->AsInt(), 1);
}

}  // namespace
}  // namespace vl
