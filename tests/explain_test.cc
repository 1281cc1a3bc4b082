// Tests for the vexplain layer: per-pane cost attribution trees that
// reconcile with Target::clock() to the nanosecond for every paper figure,
// refresh time-series (vctrl watch), latency budgets with explain-carrying
// violations, and the Prometheus / folded-stack exporters — all of it
// byte-reproducible across identical runs.

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/dbg/kernel_introspect.h"
#include "src/support/budget.h"
#include "src/support/json.h"
#include "src/support/str.h"
#include "src/support/timeseries.h"
#include "src/support/trace.h"
#include "src/viewcl/interp.h"
#include "src/vision/figures.h"
#include "tests/served_shell.h"
#include "tests/test_util.h"

namespace vl {
namespace {

void Quiesce() {
  Tracer& tracer = Tracer::Instance();
  tracer.Disable();
  tracer.SetTreeEnabled(false);
  tracer.Clear();
  tracer.SetCapacity(1 << 16);
}

// --- TimeSeriesRecorder unit tests ---

TEST(TimeSeriesTest, BoundedSeriesShedOldestAndCountDropped) {
  TimeSeriesRecorder recorder;
  recorder.SetCapacity(4);
  for (int i = 0; i < 10; ++i) {
    recorder.Record("s", {{"v", i}});
  }
  const auto* samples = recorder.Find("s");
  ASSERT_NE(samples, nullptr);
  ASSERT_EQ(samples->size(), 4u);
  EXPECT_EQ(recorder.dropped("s"), 6u);
  EXPECT_EQ(samples->front().values.at("v"), 6);
  EXPECT_EQ(samples->back().values.at("v"), 9);
  for (size_t i = 1; i < samples->size(); ++i) {
    EXPECT_LT((*samples)[i - 1].seq, (*samples)[i].seq);
  }

  // Shrinking sheds from the front too.
  recorder.SetCapacity(2);
  ASSERT_EQ(recorder.Find("s")->size(), 2u);
  EXPECT_EQ(recorder.dropped("s"), 8u);
  EXPECT_EQ(recorder.Find("s")->front().values.at("v"), 8);

  ASSERT_EQ(recorder.SeriesNames().size(), 1u);
  EXPECT_EQ(recorder.SeriesNames()[0], "s");
  EXPECT_EQ(recorder.Find("missing"), nullptr);
  EXPECT_EQ(recorder.dropped("missing"), 0u);

  recorder.Clear();
  EXPECT_EQ(recorder.Find("s"), nullptr);
}

TEST(TimeSeriesTest, SparklineTextReportAndJson) {
  TimeSeriesRecorder recorder;
  for (int i = 0; i < 8; ++i) {
    recorder.Record("s", {{"v", i}, {"flat", 5}});
  }
  // Eight samples spanning the range hit all eight glyph levels in order.
  EXPECT_EQ(recorder.Sparkline("s", "v"), "▁▂▃▄▅▆▇█");
  // A constant series renders at the lowest level.
  EXPECT_EQ(recorder.Sparkline("s", "flat"), "▁▁▁▁▁▁▁▁");

  std::string report = recorder.TextReport("s");
  EXPECT_NE(report.find("series s: 8 samples"), std::string::npos) << report;
  EXPECT_NE(report.find("last=7"), std::string::npos) << report;
  EXPECT_NE(report.find("min=0"), std::string::npos);
  EXPECT_NE(report.find("max=7"), std::string::npos);

  Json j = recorder.ToJson();
  EXPECT_NE(j.Find("enabled"), nullptr);
  EXPECT_NE(j.Find("capacity"), nullptr);
  const Json* series = j.Find("series")->Find("s");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->Find("samples")->size(), 8u);
  EXPECT_EQ(series->Find("dropped")->AsInt(), 0);
  const Json& first = series->Find("samples")->at(0);
  EXPECT_EQ(first.Find("values")->Find("v")->AsInt(), 0);
}

// --- BudgetRegistry unit tests ---

TEST(BudgetTest, RegistryStoresBudgetsAndBoundsViolations) {
  BudgetRegistry budgets;
  EXPECT_FALSE(budgets.armed());  // enabled by default, but no budgets set
  budgets.Set("pane.1", 100);
  budgets.Set("viewcl.eval", 50);
  EXPECT_TRUE(budgets.armed());
  ASSERT_NE(budgets.Find("pane.1"), nullptr);
  EXPECT_EQ(*budgets.Find("pane.1"), 100u);
  EXPECT_EQ(budgets.Find("pane.2"), nullptr);
  budgets.Disable();
  EXPECT_FALSE(budgets.armed());
  budgets.Enable();
  budgets.Remove("viewcl.eval");
  EXPECT_EQ(budgets.budgets().size(), 1u);

  budgets.SetCapacity(2);
  for (int i = 0; i < 3; ++i) {
    budgets.RecordViolation("pane.1", 100, 200 + i, 7, Json::Object());
  }
  ASSERT_EQ(budgets.violations().size(), 2u);
  EXPECT_EQ(budgets.dropped(), 1u);
  EXPECT_EQ(budgets.violations().front().seq, 1u);  // oldest (seq 0) shed
  EXPECT_EQ(budgets.violations().back().actual_ns, 202u);
  EXPECT_EQ(budgets.violations().back().epoch, 7u);

  Json report = budgets.ReportJson();
  EXPECT_EQ(report.Find("budgets")->Find("pane.1")->AsInt(), 100);
  EXPECT_EQ(report.Find("violations")->size(), 2u);
  EXPECT_EQ(report.Find("dropped")->AsInt(), 1);
  std::string text = budgets.ReportText();
  EXPECT_NE(text.find("pane.1"), std::string::npos) << text;
  EXPECT_NE(text.find("violations: 2 (1 dropped)"), std::string::npos) << text;

  budgets.ClearViolations();
  EXPECT_TRUE(budgets.violations().empty());
  EXPECT_EQ(budgets.dropped(), 0u);
}

// --- end-to-end explain / watch / budget / export, on the shell ---

// The fixture measures cold extractions and compares repeated runs, so its
// session turns off the reuse layers that would answer a repeat instead.
vserve::SessionOptions ColdOptions() {
  vserve::SessionOptions options;
  // With delta invalidation, a refresh after ColdState() replays memos at 0 ns.
  options.incremental = false;
  // With dedup, a second identical refresh is a result-cache hit.
  options.coalesce = false;
  // With the render cache, a second identical render is a digest hit.
  options.render_cache = false;
  return options;
}

class ExplainTest : public vltest::WorkloadKernelTest {
 protected:
  void SetUp() override {
    Quiesce();
    vltest::WorkloadKernelTest::SetUp();
    // GdbQemu so reads actually advance the virtual clock.
    debugger_ = std::make_unique<dbg::KernelDebugger>(kernel_.get(),
                                                      dbg::LatencyModel::GdbQemu());
    vision::RegisterFigureSymbols(debugger_.get(), workload_.get());
    shell_ = std::make_unique<vltest::ServedShell>(debugger_.get(), ColdOptions());
  }
  void TearDown() override {
    shell_.reset();
    debugger_.reset();
    Quiesce();
  }

  // Resets everything a refresh's cost depends on: clock/read stats, the
  // block cache, the trace ring and its read statistics, and the serve-layer
  // counters/flight ring (`vctrl export prom` renders those too, so they
  // must restart). After this, two identical refreshes are byte-identical.
  void ColdState() {
    Tracer::Instance().Clear();
    shell_->session().server()->ResetStats();
    debugger_->target().ResetStats();
    debugger_->session().InvalidateAll();
    debugger_->session().ResetCacheStats();
  }

  void Plot(int pane, const char* figure_id) {
    std::string out = shell_->Execute(
        StrFormat("vplot %d ", pane) + vision::FindFigure(figure_id)->viewcl);
    ASSERT_NE(out.find("plotted"), std::string::npos) << out;
  }

  std::unique_ptr<dbg::KernelDebugger> debugger_;
  std::unique_ptr<vltest::ServedShell> shell_;
};

// The tentpole invariant: for every paper figure, the explain tree's root
// totals partition the refresh's Target::clock() delta exactly — the vprof
// "(exact)" reconciliation extended to per-node attribution.
TEST_F(ExplainTest, ExplainReconcilesWithClockForEveryFigure) {
  for (const vision::FigureDef& figure : vision::AllFigures()) {
    SCOPED_TRACE(figure.id);
    ColdState();
    Plot(1, figure.id);
    std::string out = shell_->Execute("vctrl explain 1");
    EXPECT_NE(out.find("explain pane 1"), std::string::npos) << out;
    EXPECT_NE(out.find("(exact)"), std::string::npos) << out;
    EXPECT_EQ(out.find("MISMATCH"), std::string::npos) << out;
    // The refresh itself was traced and is the tree's sole root, and the
    // walker's levels carry the batch charges.
    EXPECT_NE(out.find("pane.refresh"), std::string::npos) << out;
    EXPECT_NE(out.find("viewcl.batch"), std::string::npos) << out;
  }
  // Explain leaves the tracer the way it found it (off).
  EXPECT_FALSE(Tracer::Instance().enabled());
}

// The tracer keeps its own time, so no other debugger over the kernel (a
// second shard, or one built and destroyed) can take its clock away: a pane
// on the first debugger still explains and budgets its own charges.
TEST_F(ExplainTest, ExplainReconcilesOnTheFirstOfTwoDebuggers) {
  Plot(1, "fig7_1");
  dbg::KernelDebugger second(kernel_.get(), dbg::LatencyModel::GdbQemu());
  ColdState();
  std::string out = shell_->Execute("vctrl explain 1");
  EXPECT_NE(out.find("(exact)"), std::string::npos) << out;
  EXPECT_EQ(out.find("MISMATCH"), std::string::npos) << out;
}

TEST_F(ExplainTest, ExplainReconcilesAfterATemporaryDebuggerIsDestroyed) {
  Plot(1, "fig7_1");
  { dbg::KernelDebugger temporary(kernel_.get(), dbg::LatencyModel::GdbQemu()); }
  ColdState();
  std::string out = shell_->Execute("vctrl explain 1");
  EXPECT_NE(out.find("(exact)"), std::string::npos) << out;
  EXPECT_EQ(out.find("MISMATCH"), std::string::npos) << out;
}

TEST_F(ExplainTest, PhaseBudgetFiresOnTheFirstOfTwoDebuggers) {
  Plot(1, "fig7_1");
  dbg::KernelDebugger second(kernel_.get(), dbg::LatencyModel::GdbQemu());
  ASSERT_EQ(shell_->Execute("vctrl budget set viewcl.eval 1"),
            "budget viewcl.eval = 1 ns\n");
  ColdState();
  std::string out = shell_->Execute("vctrl refresh 1");
  EXPECT_NE(out.find("budget violation: viewcl.eval"), std::string::npos) << out;
  ASSERT_EQ(shell_->budgets().violations().size(), 1u);
  EXPECT_GT(shell_->budgets().violations().front().actual_ns, 1u);
}

// The watchdog traces a budget-armed refresh in tree mode without clearing
// the user's trace.
TEST_F(ExplainTest, BudgetArmedRefreshKeepsTheSpansTracedBeforeIt) {
  Tracer& tracer = Tracer::Instance();
  ASSERT_EQ(shell_->Execute("vctrl trace on"), "tracing on\n");
  Plot(1, "fig7_1");  // the shard engine parses the program here, once
  const size_t traced = tracer.Snapshot().size();
  ASSERT_GT(traced, 0u);
  ASSERT_EQ(tracer.stats().count("viewcl.parse"), 1u);

  ASSERT_EQ(shell_->Execute("vctrl budget set 1 1"), "budget pane.1 = 1 ns\n");
  std::string out = shell_->Execute("vctrl refresh 1");
  ASSERT_NE(out.find("refreshed pane 1"), std::string::npos) << out;
  EXPECT_GT(tracer.Snapshot().size(), traced);
  EXPECT_EQ(tracer.stats().count("viewcl.parse"), 1u);
  EXPECT_TRUE(tracer.enabled());
  EXPECT_FALSE(tracer.tree_enabled());
  shell_->Execute("vctrl trace off");
}

// `vctrl explain` attributes its refresh in tree mode without clearing the
// trace: the spans traced before it stay, and a failed explain leaves the
// trace as it was.
TEST_F(ExplainTest, ExplainKeepsTheUsersTrace) {
  Tracer& tracer = Tracer::Instance();
  ASSERT_EQ(shell_->Execute("vctrl trace on"), "tracing on\n");
  Plot(1, "fig7_1");  // the shard engine parses the program here, once
  const size_t traced = tracer.Snapshot().size();
  ASSERT_GT(traced, 0u);
  ASSERT_EQ(tracer.stats().count("viewcl.parse"), 1u);

  std::string out = shell_->Execute("vctrl explain 1");
  EXPECT_NE(out.find("(exact)"), std::string::npos) << out;
  EXPECT_EQ(out.find("viewcl.parse"), std::string::npos) << out;  // the refresh's tree only
  EXPECT_GT(tracer.Snapshot().size(), traced);
  EXPECT_EQ(tracer.stats().count("viewcl.parse"), 1u);
  EXPECT_TRUE(tracer.enabled());
  EXPECT_FALSE(tracer.tree_enabled());

  const size_t kept = tracer.Snapshot().size();
  const uint64_t now = tracer.NowNanos();
  EXPECT_EQ(shell_->Execute("vctrl explain 2").rfind("error", 0), 0u);
  EXPECT_EQ(tracer.Snapshot().size(), kept);
  EXPECT_EQ(tracer.NowNanos(), now);
  EXPECT_EQ(tracer.stats().count("viewcl.parse"), 1u);
  shell_->Execute("vctrl trace off");
}

TEST_F(ExplainTest, ExplainJsonReconcilesAndCarriesAllAttributionLevels) {
  Plot(1, "fig7_1");
  // Give the pane ViewQL history so the statement level shows up too.
  ASSERT_EQ(shell_->Execute("vctrl apply 1 a = SELECT task_struct FROM * WHERE pid >= 0\n"
                            "UPDATE a WITH collapsed: true"),
            "applied\n");
  ColdState();
  std::string out = shell_->Execute("vctrl explain 1 json");
  auto parsed = Json::Parse(out);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->Find("reconciled")->AsBool()) << out;
  EXPECT_GT(parsed->Find("clock_ns")->AsInt(), 0);
  EXPECT_GT(parsed->Find("boxes")->AsInt(), 0);

  const Json* tree = parsed->Find("tree");
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree->Find("total_ns")->AsInt(), parsed->Find("clock_ns")->AsInt());
  const Json* refresh = tree->Find("children")->Find("pane.refresh");
  ASSERT_NE(refresh, nullptr);

  // Every attribution level of the tentpole is present somewhere in the tree:
  // ViewQL statement -> ViewCL evaluation -> walk level -> batched reads,
  // with cache hit/miss bytes rolled up the spine.
  EXPECT_NE(out.find("\"viewql.select\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"viewql.where\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"viewql.update\""), std::string::npos) << out;
  // The shard engine parsed the program once, at Plot: a refresh only
  // evaluates it.
  EXPECT_EQ(out.find("\"viewcl.parse\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"viewcl.eval\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"viewcl.batch\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"dbg.read_vector\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"cache.hit_bytes\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"cache.miss_bytes\""), std::string::npos) << out;
}

TEST_F(ExplainTest, ExplainTreesAreByteIdenticalAcrossRuns) {
  Plot(1, "fig7_1");
  auto run = [&]() {
    ColdState();
    return shell_->Execute("vctrl explain 1 json");
  };
  std::string first = run();
  std::string second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST_F(ExplainTest, RefreshReportsCostAndReappliesViewQlHistory) {
  Plot(1, "fig3_4");
  ASSERT_EQ(shell_->Execute("vctrl apply 1 a = SELECT task_struct FROM *\n"
                            "UPDATE a WITH collapsed: true"),
            "applied\n");
  std::string out = shell_->Execute("vctrl refresh 1");
  EXPECT_NE(out.find("refreshed pane 1"), std::string::npos) << out;
  EXPECT_NE(out.find("virtual ns"), std::string::npos);
  // The history survived the re-extraction (replayed onto the new graph).
  const viewql::ExecStats* stats = shell_->panes().exec_stats(1);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->statements, 2);

  // Error paths: unknown pane, pane with nothing plotted yet.
  EXPECT_NE(shell_->Execute("vctrl refresh 99").find("error"), std::string::npos);
  ASSERT_NE(shell_->Execute("vctrl split 1 h").find("pane"), std::string::npos);
  EXPECT_NE(shell_->Execute("vctrl refresh 2").find("error"), std::string::npos);
}

TEST_F(ExplainTest, WatchRecordsSeriesAcrossKernelMutations) {
  Plot(1, "fig7_1");
  ASSERT_EQ(shell_->Execute("vctrl watch on"), "watch on\n");
  for (int i = 0; i < 3; ++i) {
    workload_->Step();  // mutate the kernel so refresh costs can drift
    std::string out = shell_->Execute("vctrl refresh 1");
    ASSERT_NE(out.find("refreshed"), std::string::npos) << out;
  }

  std::string text = shell_->Execute("vctrl watch 1");
  EXPECT_NE(text.find("series pane.1:"), std::string::npos) << text;
  EXPECT_NE(text.find("refresh_ns"), std::string::npos) << text;
  EXPECT_NE(text.find("last="), std::string::npos);

  auto parsed = Json::Parse(shell_->Execute("vctrl watch 1 json"));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json* refresh_series = parsed->Find("pane.1");
  ASSERT_NE(refresh_series, nullptr);
  const Json* samples = refresh_series->Find("samples");
  ASSERT_NE(samples, nullptr);
  ASSERT_EQ(samples->size(), 3u);
  for (size_t i = 0; i < samples->size(); ++i) {
    const Json* values = samples->at(i).Find("values");
    EXPECT_GT(values->Find("refresh_ns")->AsInt(), 0);
    EXPECT_GT(values->Find("boxes")->AsInt(), 0);
    EXPECT_GT(values->Find("reads")->AsInt(), 0);
    EXPECT_NE(values->Find("hit_bytes"), nullptr);
    EXPECT_NE(values->Find("miss_bytes"), nullptr);
  }
  // The render-time series rode along (one cumulative snapshot per render).
  EXPECT_NE(parsed->Find("pane.1.render"), nullptr);

  ASSERT_EQ(shell_->Execute("vctrl watch off"), "watch off\n");
  shell_->Execute("vctrl refresh 1");
  EXPECT_EQ(shell_->recorder().Find("pane.1")->size(), 3u);  // off = no sample
  ASSERT_EQ(shell_->Execute("vctrl watch clear"), "watch cleared\n");
  EXPECT_NE(shell_->Execute("vctrl watch 1").find("no samples"), std::string::npos);
}

TEST_F(ExplainTest, BudgetViolationCarriesExplainTree) {
  Plot(1, "fig7_1");
  // 1 ns budgets are always breached: one pane budget, one phase budget.
  ASSERT_EQ(shell_->Execute("vctrl budget set 1 1"), "budget pane.1 = 1 ns\n");
  ASSERT_EQ(shell_->Execute("vctrl budget set viewcl.eval 1"),
            "budget viewcl.eval = 1 ns\n");
  // A warm block cache elides every transport charge (a 0 ns refresh breaches
  // nothing) — budgets are about live re-extraction cost, so start cold.
  ColdState();
  std::string out = shell_->Execute("vctrl refresh 1");
  EXPECT_NE(out.find("budget violation: pane.1"), std::string::npos) << out;
  EXPECT_NE(out.find("budget violation: viewcl.eval"), std::string::npos) << out;

  const auto& violations = shell_->budgets().violations();
  ASSERT_EQ(violations.size(), 2u);
  for (const BudgetViolation& v : violations) {
    EXPECT_GT(v.actual_ns, v.budget_ns);
    // The structured event carries the offending refresh's explain tree.
    const Json* children = v.explain.Find("children");
    ASSERT_NE(children, nullptr);
    EXPECT_NE(children->Find("pane.refresh"), nullptr);
    EXPECT_GT(v.explain.Find("total_ns")->AsInt(), 0);
  }
  // The watchdog's own tree-mode tracing was torn down afterwards.
  EXPECT_FALSE(Tracer::Instance().enabled());

  std::string report = shell_->Execute("vctrl budget report");
  EXPECT_NE(report.find("pane.1"), std::string::npos) << report;
  EXPECT_NE(report.find("violations: 2"), std::string::npos) << report;
  auto parsed = Json::Parse(shell_->Execute("vctrl budget report json"));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->Find("violations")->size(), 2u);
  EXPECT_NE(parsed->Find("violations")->at(0).Find("explain")->Find("children"),
            nullptr);

  // `budget off` disarms the watchdog without forgetting the budgets.
  ASSERT_EQ(shell_->Execute("vctrl budget off"), "budgets off\n");
  shell_->Execute("vctrl refresh 1");
  EXPECT_EQ(shell_->budgets().violations().size(), 2u);
  ASSERT_EQ(shell_->Execute("vctrl budget on"), "budgets on\n");

  // Generous budgets do not fire.
  ASSERT_EQ(shell_->Execute("vctrl budget clear"), "budgets cleared\n");
  shell_->Execute("vctrl budget set 1 1000000000000");
  out = shell_->Execute("vctrl refresh 1");
  EXPECT_EQ(out.find("violation"), std::string::npos) << out;
  EXPECT_TRUE(shell_->budgets().violations().empty());

  // Another pane's budget is not this refresh's business.
  shell_->Execute("vctrl budget clear");
  shell_->Execute("vctrl budget set 2 1");
  shell_->Execute("vctrl refresh 1");
  EXPECT_TRUE(shell_->budgets().violations().empty());
}

TEST_F(ExplainTest, BudgetReportsAndExportsAreByteIdenticalAcrossRuns) {
  Plot(1, "fig7_1");
  auto run = [&]() {
    ColdState();
    shell_->Execute("vctrl budget clear");
    shell_->Execute("vctrl budget set 1 1");
    shell_->Execute("vctrl refresh 1");
    std::string out = shell_->Execute("vctrl budget report json");
    out += shell_->Execute("vctrl export prom");
    out += shell_->Execute("vctrl export folded");
    return out;
  };
  std::string first = run();
  std::string second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST_F(ExplainTest, PrometheusExportIsWellFormed) {
  Plot(1, "fig7_1");
  ColdState();
  shell_->Execute("vctrl trace on");
  shell_->Execute("vctrl refresh 1");
  shell_->Execute("vctrl trace off");
  std::string prom = shell_->Execute("vctrl export prom");

  // Counters: `_total` suffix, TYPE line, the read tag as a label.
  EXPECT_NE(prom.find("# TYPE vl_dbg_read_by_type_total counter"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("vl_dbg_read_by_type_total{type=\"task_struct\"} "), std::string::npos)
      << prom;
  // Histograms: TYPE line, `le` buckets closed by +Inf, then _sum and _count.
  EXPECT_NE(prom.find("# TYPE vl_dbg_read_bytes histogram"), std::string::npos);
  EXPECT_NE(prom.find("vl_dbg_read_bytes_bucket{le=\"+Inf\"}"), std::string::npos);
  EXPECT_NE(prom.find("vl_dbg_read_bytes_sum"), std::string::npos);
  EXPECT_NE(prom.find("vl_dbg_read_bytes_count"), std::string::npos);

  // The `le` buckets of each histogram are cumulative (non-decreasing) and
  // the +Inf bucket equals _count.
  uint64_t last_bucket = 0;
  uint64_t inf_bucket = 0;
  uint64_t count = 0;
  std::istringstream lines(prom);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("vl_dbg_read_bytes_bucket{le=\"+Inf\"}", 0) == 0) {
      inf_bucket = std::stoull(line.substr(line.rfind(' ') + 1));
    } else if (line.rfind("vl_dbg_read_bytes_bucket", 0) == 0) {
      uint64_t v = std::stoull(line.substr(line.rfind(' ') + 1));
      EXPECT_GE(v, last_bucket) << line;
      last_bucket = v;
    } else if (line.rfind("vl_dbg_read_bytes_count", 0) == 0) {
      count = std::stoull(line.substr(line.rfind(' ') + 1));
    }
  }
  EXPECT_GT(count, 0u);
  EXPECT_EQ(inf_bucket, count);
  EXPECT_LE(last_bucket, count);
}

TEST_F(ExplainTest, FoldedExportReconcilesWithClock) {
  Plot(1, "fig7_1");
  ColdState();
  shell_->Execute("vctrl trace on");
  shell_->Execute("vctrl refresh 1");
  shell_->Execute("vctrl trace off");
  std::string folded = shell_->Execute("vctrl export folded");
  ASSERT_FALSE(folded.empty());

  // Every line is "path self_ns"; the refresh root frames the stacks; the
  // self times sum to the virtual clock (which ColdState zeroed).
  uint64_t sum = 0;
  std::istringstream lines(folded);
  std::string line;
  while (std::getline(lines, line)) {
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.rfind("pane.refresh", 0), 0u) << line;
    sum += std::stoull(line.substr(space + 1));
  }
  EXPECT_EQ(sum, debugger_->target().clock().nanos());
  EXPECT_NE(folded.find("pane.refresh;viewcl.eval"), std::string::npos) << folded;
  EXPECT_NE(folded.find(";dbg.read"), std::string::npos) << folded;
}

TEST_F(ExplainTest, ExportWritesFiles) {
  Plot(1, "fig7_1");
  shell_->Execute("vctrl trace on");
  shell_->Execute("vctrl refresh 1");
  shell_->Execute("vctrl trace off");
  std::string path = ::testing::TempDir() + "/vexplain_export.folded";
  std::string out = shell_->Execute("vctrl export folded " + path);
  EXPECT_NE(out.find("wrote"), std::string::npos) << out;
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::string content((std::istreambuf_iterator<char>(file)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, shell_->Execute("vctrl export folded"));
  EXPECT_NE(shell_->Execute("vctrl export bogus").find("usage"), std::string::npos);
}

}  // namespace
}  // namespace vl
