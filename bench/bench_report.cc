// Observability report: re-runs the Table 4 per-figure extraction and the
// Figure 2 focus workflow with the deterministic tracer enabled, and emits
// machine-readable BENCH_observability.json — per-figure span aggregates,
// read-size/latency histograms, per-transport attribution, and ViewQL
// execution stats — plus BENCH_explain.json, the per-figure refresh
// attribution trees (each reconciled against the virtual clock to the
// nanosecond). Timestamps are virtual nanoseconds, so two runs of this
// binary produce identical JSON.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "bench/bench_util.h"
#include "src/analysis/check.h"
#include "src/analysis/lint.h"
#include "src/serve/server.h"
#include "src/support/str.h"
#include "src/support/trace.h"
#include "src/viewcl/interp.h"
#include "src/vision/panes.h"

namespace {

vl::Json SpanStatsToJson(const vl::Tracer& tracer) {
  vl::Json spans = vl::Json::Object();
  for (const auto& [name, stats] : tracer.stats()) {
    vl::Json s = vl::Json::Object();
    s["count"] = vl::Json::Int(static_cast<int64_t>(stats.count));
    s["total_ns"] = vl::Json::Int(static_cast<int64_t>(stats.total_ns));
    s["self_ns"] = vl::Json::Int(static_cast<int64_t>(stats.self_ns));
    spans[name] = std::move(s);
  }
  return spans;
}

// One traced figure extraction on one transport.
vl::Json MeasureFigure(vlbench::BenchEnv& env, const vision::FigureDef& figure,
                       const dbg::LatencyModel& model) {
  vl::Tracer& tracer = vl::Tracer::Instance();
  tracer.Clear();
  env.debugger->target().set_model(model);
  env.debugger->target().ResetStats();

  vl::Json j = vl::Json::Object();
  j["figure"] = vl::Json::Str(figure.id);
  j["model"] = vl::Json::Str(model.name);
  uint64_t objects = 0;
  {
    vl::ScopedSpan span("bench.figure");
    viewcl::Interpreter interp(env.debugger.get());
    auto graph = interp.RunProgram(figure.viewcl);
    if (!graph.ok()) {
      j["ok"] = vl::Json::Bool(false);
      return j;
    }
    objects = vlbench::CountObjects(**graph);
  }
  const dbg::Target& target = env.debugger->target();
  j["ok"] = vl::Json::Bool(true);
  j["objects"] = vl::Json::Int(static_cast<int64_t>(objects));
  j["clock_ns"] = vl::Json::Int(static_cast<int64_t>(target.clock().nanos()));
  j["reads"] = vl::Json::Int(static_cast<int64_t>(target.reads()));
  j["bytes"] = vl::Json::Int(static_cast<int64_t>(target.bytes_read()));
  j["trace_self_ns"] = vl::Json::Int(static_cast<int64_t>(tracer.TotalSelfNanos()));
  j["spans"] = SpanStatsToJson(tracer);
  j["metrics"] = tracer.read_stats().ToJson();
  return j;
}

// The Figure 2 focus workflow: two panes, a ViewQL refinement, focus searches.
vl::Json MeasureFig2Focus(vlbench::BenchEnv& env) {
  vl::Tracer& tracer = vl::Tracer::Instance();
  tracer.Clear();
  env.debugger->target().set_model(dbg::LatencyModel::GdbQemu());
  env.debugger->target().ResetStats();

  vl::Json j = vl::Json::Object();
  vision::PaneManager panes(env.debugger.get());
  int focused = 0;
  int both = 0;
  {
    vl::ScopedSpan span("bench.fig2_focus");
    viewcl::Interpreter interp(env.debugger.get());
    auto tree = interp.RunProgram(vision::FindFigure("fig3_4")->viewcl);
    auto rq = interp.RunProgram(vision::FindFigure("fig7_1")->viewcl);
    if (!tree.ok() || !rq.ok()) {
      j["ok"] = vl::Json::Bool(false);
      return j;
    }
    (void)panes.Split(1, 'h');
    (void)panes.SetGraph(1, std::move(tree).value(), "fig3_4");
    (void)panes.SetGraph(2, std::move(rq).value(), "fig7_1");
    (void)panes.ApplyViewQl(1,
                            "a = SELECT task_struct FROM * WHERE mm != NULL\n"
                            "UPDATE a WITH collapsed: true");
    for (int cpu = 0; cpu < vkern::kNrCpus; ++cpu) {
      env.kernel->sched().ForEachQueued(cpu, [&](vkern::task_struct* task) {
        auto hits = panes.FocusAddress(reinterpret_cast<uint64_t>(task));
        std::set<int> pane_hits;
        for (const vision::FocusHit& hit : hits) {
          pane_hits.insert(hit.pane_id);
        }
        ++focused;
        if (pane_hits.count(1) != 0 && pane_hits.count(2) != 0) {
          ++both;
        }
      });
    }
    panes.RenderPane(1);
    panes.RenderPane(2);
  }
  j["ok"] = vl::Json::Bool(true);
  j["focused"] = vl::Json::Int(focused);
  j["found_in_both"] = vl::Json::Int(both);
  j["clock_ns"] =
      vl::Json::Int(static_cast<int64_t>(env.debugger->target().clock().nanos()));
  j["trace_self_ns"] = vl::Json::Int(static_cast<int64_t>(tracer.TotalSelfNanos()));
  if (const viewql::ExecStats* stats = panes.exec_stats(1)) {
    j["pane1_exec"] = stats->ToJson();
  }
  j["spans"] = SpanStatsToJson(tracer);
  j["session"] = panes.SaveState();
  return j;
}

// One tree-mode traced pane refresh of a figure: the full explain tree
// (ViewQL statement → ViewCL definition → adapter → struct type, with cache
// hit/miss byte attribution), verified to reconcile with the target clock to
// the nanosecond.
vl::Json MeasureExplain(vlbench::BenchEnv& env, const vision::FigureDef& figure,
                        const dbg::LatencyModel& model) {
  vl::Tracer& tracer = vl::Tracer::Instance();
  env.debugger->target().set_model(model);

  vl::Json j = vl::Json::Object();
  j["figure"] = vl::Json::Str(figure.id);
  j["model"] = vl::Json::Str(model.name);

  // Seed the pane outside the measured window, then attribute one refresh.
  vision::PaneManager panes(env.debugger.get());
  viewcl::Interpreter interp(env.debugger.get());
  auto seed = interp.RunProgram(figure.viewcl);
  if (!seed.ok() ||
      !panes.SetGraph(1, std::move(seed).value(), figure.viewcl).ok()) {
    j["ok"] = vl::Json::Bool(false);
    return j;
  }

  tracer.Clear();
  tracer.SetTreeEnabled(true);
  uint64_t before = env.debugger->target().clock().nanos();
  auto result = panes.RefreshPane(
      1, [&](const std::string& program) { return interp.RunProgram(program); });
  uint64_t clock_delta = env.debugger->target().clock().nanos() - before;
  tracer.SetTreeEnabled(false);
  if (!result.ok()) {
    j["ok"] = vl::Json::Bool(false);
    return j;
  }
  uint64_t tree_total = 0;
  for (const auto& [name, node] : tracer.tree_root().children) {
    tree_total += node.total_ns;
  }
  j["ok"] = vl::Json::Bool(true);
  j["boxes"] = vl::Json::Int(static_cast<int64_t>(result->boxes));
  j["clock_ns"] = vl::Json::Int(static_cast<int64_t>(clock_delta));
  j["tree_total_ns"] = vl::Json::Int(static_cast<int64_t>(tree_total));
  j["reconciled"] = vl::Json::Bool(tree_total == clock_delta);
  j["tree"] = tracer.TreeToJson();
  return j;
}

// Repeated pane-refresh workflow on one transport, cache on vs off: the
// developer re-renders the same figures after every breakpoint stop. Records
// charged-ns/read counts for both sessions, the cache's hit accounting, and
// verifies every refresh rendered byte-identically.
vl::Json MeasureCacheWorkflow(vlbench::BenchEnv& env, const dbg::LatencyModel& model) {
  constexpr int kRefreshes = 3;
  const char* kFigures[] = {"fig3_4", "fig7_1"};

  dbg::KernelDebugger cached(env.kernel.get(), model);
  dbg::KernelDebugger uncached(env.kernel.get(), model, dbg::CacheConfig::Disabled());
  vision::RegisterFigureSymbols(&cached, env.workload.get());
  vision::RegisterFigureSymbols(&uncached, env.workload.get());
  cached.target().ResetStats();
  uncached.target().ResetStats();

  vl::Json j = vl::Json::Object();
  j["model"] = vl::Json::Str(model.name);
  j["refreshes"] = vl::Json::Int(kRefreshes);
  bool ok = true;
  bool identical = true;
  vision::AsciiRenderer renderer;
  for (int i = 0; i < kRefreshes; ++i) {
    for (const char* id : kFigures) {
      const vision::FigureDef* figure = vision::FindFigure(id);
      viewcl::Interpreter interp_cached(&cached);
      auto graph_cached = interp_cached.RunProgram(figure->viewcl);
      viewcl::Interpreter interp_uncached(&uncached);
      auto graph_uncached = interp_uncached.RunProgram(figure->viewcl);
      if (!graph_cached.ok() || !graph_uncached.ok()) {
        ok = false;
        continue;
      }
      if (renderer.Render(**graph_cached) != renderer.Render(**graph_uncached)) {
        identical = false;
      }
    }
  }

  uint64_t cached_ns = cached.target().clock().nanos();
  uint64_t uncached_ns = uncached.target().clock().nanos();
  j["ok"] = vl::Json::Bool(ok);
  j["renders_identical"] = vl::Json::Bool(identical);
  j["cached"] = cached.target().StatsToJson();
  j["cached"]["cache"] = cached.session().StatsToJson();
  j["uncached"] = uncached.target().StatsToJson();
  j["speedup"] = vl::Json::Number(
      cached_ns > 0 ? static_cast<double>(uncached_ns) / static_cast<double>(cached_ns)
                    : 0.0);
  return j;
}

// Cold extraction on the batched walker against the raw transport: every
// Table 2 figure, on both transport models. Each cell is one cold run on a
// fresh debugger, so the number is the full first-paint charge. The batched
// side has the default block cache, where the walker fetches each level of
// the object graph in one vectored round trip; the raw side has none
// (block_bytes = 0: one round trip per read). Renders must stay
// byte-identical cell by cell. (The round-trip ceilings are bench_micro's
// gate: they hold on its kernel, not on this 120-step one.)
vl::Json MeasureWalk(vlbench::BenchEnv& env) {
  const dbg::LatencyModel kModels[] = {dbg::LatencyModel::GdbQemu(),
                                       dbg::LatencyModel::KgdbRpi400()};
  vl::Json j = vl::Json::Object();
  vl::Json models = vl::Json::Array();
  bool identical = true;
  vision::AsciiRenderer renderer;
  for (const dbg::LatencyModel& model : kModels) {
    vl::Json m = vl::Json::Object();
    m["model"] = vl::Json::Str(model.name);
    vl::Json figures = vl::Json::Array();
    for (const vision::FigureDef& figure : vision::AllFigures()) {
      auto run = [&](dbg::CacheConfig cache, uint64_t* ns, uint64_t* reads) -> std::string {
        dbg::KernelDebugger debugger(env.kernel.get(), model, cache);
        vision::RegisterFigureSymbols(&debugger, env.workload.get());
        viewcl::Interpreter interp(&debugger);
        auto graph = interp.RunProgram(figure.viewcl);
        *ns = debugger.target().clock().nanos();
        *reads = debugger.target().reads();
        return graph.ok() ? renderer.Render(**graph) : std::string();
      };
      uint64_t raw_ns = 0;
      uint64_t raw_reads = 0;
      uint64_t batched_ns = 0;
      uint64_t batched_reads = 0;
      std::string raw_render = run(dbg::CacheConfig::Disabled(), &raw_ns, &raw_reads);
      std::string batched_render = run(dbg::CacheConfig{}, &batched_ns, &batched_reads);
      bool cell_identical = !raw_render.empty() && raw_render == batched_render;
      identical = identical && cell_identical;
      vl::Json cell = vl::Json::Object();
      cell["figure"] = vl::Json::Str(figure.id);
      cell["raw_ns"] = vl::Json::Int(static_cast<int64_t>(raw_ns));
      cell["raw_round_trips"] = vl::Json::Int(static_cast<int64_t>(raw_reads));
      cell["batched_ns"] = vl::Json::Int(static_cast<int64_t>(batched_ns));
      cell["batched_round_trips"] = vl::Json::Int(static_cast<int64_t>(batched_reads));
      cell["speedup"] = vl::Json::Number(
          batched_ns > 0 ? static_cast<double>(raw_ns) / static_cast<double>(batched_ns) : 0.0);
      cell["renders_identical"] = vl::Json::Bool(cell_identical);
      figures.Append(std::move(cell));
    }
    m["figures"] = std::move(figures);
    models.Append(std::move(m));
  }
  j["models"] = std::move(models);
  j["renders_identical"] = vl::Json::Bool(identical);
  j["passed"] = vl::Json::Bool(identical);
  return j;
}

// Steady-state incremental refresh: one small mutation batch (a single CPU
// tick — the breakpoint-stepping scenario) between pane refreshes. The
// "full" path is the classic cache (whole-cache
// flush per epoch, fresh re-extraction each refresh); the "delta" path
// layers dirty-log delta invalidation and memoized re-extraction on top
// (CacheConfig::Incremental + a persistent interpreter per figure). Both
// render after every refresh and must stay byte-identical.
vl::Json MeasureIncremental(vlbench::BenchEnv& env, const dbg::LatencyModel& model) {
  constexpr int kRefreshes = 4;
  // A multi-pane dashboard mixing the scheduler figures (whose pages a CPU
  // tick dirties) with mm/VFS figures (whose pages stay clean): the full
  // path refetches every pane, the delta path only the scheduler's pages.
  const char* kFigures[] = {"fig3_4", "fig7_1", "fig8_2",
                            "fig12_3", "fig14_3", "fig15_1"};

  dbg::KernelDebugger full(env.kernel.get(), model);
  dbg::KernelDebugger delta(env.kernel.get(), model, dbg::CacheConfig::Incremental());
  vision::RegisterFigureSymbols(&full, env.workload.get());
  vision::RegisterFigureSymbols(&delta, env.workload.get());

  vl::Json j = vl::Json::Object();
  j["model"] = vl::Json::Str(model.name);
  j["refreshes"] = vl::Json::Int(kRefreshes);
  bool ok = true;
  bool identical = true;
  vision::AsciiRenderer renderer;

  std::map<std::string, std::unique_ptr<viewcl::Interpreter>> delta_interps;
  for (const char* id : kFigures) {
    const vision::FigureDef* figure = vision::FindFigure(id);
    auto interp = std::make_unique<viewcl::Interpreter>(&delta);
    ok = ok && interp->Load(figure->viewcl).ok();
    delta_interps[id] = std::move(interp);
  }

  // Warm both paths: steady state starts after the first full extraction.
  for (const char* id : kFigures) {
    const vision::FigureDef* figure = vision::FindFigure(id);
    viewcl::Interpreter warm_full(&full);
    ok = ok && warm_full.RunProgram(figure->viewcl).ok();
    ok = ok && delta_interps[id]->Run().ok();
  }

  vl::Json per_refresh = vl::Json::Array();
  uint64_t full_total = 0;
  uint64_t delta_total = 0;
  for (int i = 0; i < kRefreshes && ok; ++i) {
    env.kernel->TickCpu(i % vkern::kNrCpus);
    uint64_t full_before = full.target().clock().nanos();
    uint64_t delta_before = delta.target().clock().nanos();
    uint64_t full_reads_before = full.target().reads();
    uint64_t delta_reads_before = delta.target().reads();
    for (const char* id : kFigures) {
      const vision::FigureDef* figure = vision::FindFigure(id);
      viewcl::Interpreter interp_full(&full);
      auto graph_full = interp_full.RunProgram(figure->viewcl);
      auto graph_delta = delta_interps[id]->Run();
      if (!graph_full.ok() || !graph_delta.ok()) {
        ok = false;
        continue;
      }
      if (renderer.Render(**graph_full) != renderer.Render(**graph_delta)) {
        identical = false;
      }
    }
    uint64_t full_ns = full.target().clock().nanos() - full_before;
    uint64_t delta_ns = delta.target().clock().nanos() - delta_before;
    full_total += full_ns;
    delta_total += delta_ns;
    vl::Json round = vl::Json::Object();
    round["full_ns"] = vl::Json::Int(static_cast<int64_t>(full_ns));
    round["delta_ns"] = vl::Json::Int(static_cast<int64_t>(delta_ns));
    round["full_reads"] =
        vl::Json::Int(static_cast<int64_t>(full.target().reads() - full_reads_before));
    round["delta_reads"] =
        vl::Json::Int(static_cast<int64_t>(delta.target().reads() - delta_reads_before));
    per_refresh.Append(std::move(round));
  }

  uint64_t memo_replays = 0;
  uint64_t memo_misses = 0;
  for (const auto& [id, interp] : delta_interps) {
    memo_replays += interp->walk_stats().memo_replays;
    memo_misses += interp->walk_stats().memo_misses;
  }
  j["ok"] = vl::Json::Bool(ok);
  j["renders_identical"] = vl::Json::Bool(identical);
  j["per_refresh"] = std::move(per_refresh);
  j["full_ns"] = vl::Json::Int(static_cast<int64_t>(full_total));
  j["delta_ns"] = vl::Json::Int(static_cast<int64_t>(delta_total));
  j["speedup"] = vl::Json::Number(
      delta_total > 0 ? static_cast<double>(full_total) / static_cast<double>(delta_total)
                      : 0.0);
  j["delta_cache"] = delta.session().StatsToJson();
  j["dirty"] = delta.target().dirty_stats().ToJson();
  j["memo_replays"] = vl::Json::Int(static_cast<int64_t>(memo_replays));
  j["memo_misses"] = vl::Json::Int(static_cast<int64_t>(memo_misses));
  return j;
}

// Static-analysis sweep: vlint over every paper figure + objective. The
// whole point of the analyzer is that it consults only the type registry, so
// the report asserts transport charged-ns and read-bytes deltas are exactly
// zero across the sweep.
vl::Json MeasureLint(vlbench::BenchEnv& env) {
  viewcl::EmojiRegistry emoji;
  analysis::Linter linter(&env.debugger->types(), &env.debugger->symbols(),
                          &env.debugger->helpers(), &emoji);

  const dbg::Target& target = env.debugger->target();
  uint64_t ns_before = target.clock().nanos();
  uint64_t reads_before = target.reads();
  uint64_t bytes_before = target.bytes_read();

  int programs = 0;
  uint64_t errors = 0;
  uint64_t warnings = 0;
  auto wall_start = std::chrono::steady_clock::now();
  for (const vision::FigureDef& figure : vision::AllFigures()) {
    analysis::LintResult result = linter.LintViewCl(figure.viewcl);
    ++programs;
    errors += result.diagnostics.errors();
    warnings += result.diagnostics.warnings();
  }
  for (const vision::ObjectiveDef& objective : vision::AllObjectives()) {
    const vision::FigureDef* figure = vision::FindFigure(objective.figure_id);
    analysis::ProgramSummary summary =
        linter.SummarizeViewCl(figure != nullptr ? figure->viewcl : "");
    analysis::LintResult result = linter.LintViewQl(objective.viewql, &summary);
    ++programs;
    errors += result.diagnostics.errors();
    warnings += result.diagnostics.warnings();
  }
  auto wall_end = std::chrono::steady_clock::now();

  uint64_t charged_ns = target.clock().nanos() - ns_before;
  uint64_t reads = target.reads() - reads_before;
  uint64_t bytes = target.bytes_read() - bytes_before;
  vl::Json j = vl::Json::Object();
  j["programs"] = vl::Json::Int(programs);
  j["errors"] = vl::Json::Int(static_cast<int64_t>(errors));
  j["warnings"] = vl::Json::Int(static_cast<int64_t>(warnings));
  j["wall_ns"] = vl::Json::Int(
      std::chrono::duration_cast<std::chrono::nanoseconds>(wall_end - wall_start)
          .count());
  j["transport_charged_ns"] = vl::Json::Int(static_cast<int64_t>(charged_ns));
  j["transport_reads"] = vl::Json::Int(static_cast<int64_t>(reads));
  j["transport_bytes_read"] = vl::Json::Int(static_cast<int64_t>(bytes));
  j["zero_read"] = vl::Json::Bool(charged_ns == 0 && reads == 0 && bytes == 0);
  return j;
}

// full ÷ delta, or null when the delta side charged nothing (the extraction
// before each sweep is its first reader after the tick, so the delta refresh
// has already re-read every block the sweep reads).
vl::Json Speedup(uint64_t full_ns, uint64_t delta_ns) {
  return delta_ns > 0
             ? vl::Json::Number(static_cast<double>(full_ns) / static_cast<double>(delta_ns))
             : vl::Json::Null();
}

// vcheck: invariant sweeps on a full-flush session vs a delta session across
// the figure corpus. Two engines audit the same kernel with all eleven rules
// per sweep: `full` rides a classic session (a CPU tick bumps the generation,
// so its cache flushes and every byte is re-fetched); `delta` rides a
// delta-enabled session, whose refresh re-reads only the stale blocks. Per
// figure: one CPU tick + one figure extraction on the delta session (the
// dashboard refresh a sweep piggybacks on), then both sweeps. Every sweep
// must reconcile with Target::clock() and stay clean.
vl::Json MeasureCheck(vlbench::BenchEnv& env) {
  dbg::KernelDebugger full(env.kernel.get(), dbg::LatencyModel::GdbQemu());
  // Constructed second: the delta session's dirty-page journal baselines at
  // construction, and it must cover `full`'s in-arena bookkeeping writes.
  dbg::KernelDebugger delta(env.kernel.get(), dbg::LatencyModel::GdbQemu(),
                            dbg::CacheConfig::Incremental());
  vision::RegisterFigureSymbols(&full, env.workload.get());
  vision::RegisterFigureSymbols(&delta, env.workload.get());
  analysis::CheckEngine full_engine(&full.types(), &full.symbols(), &full.session());
  analysis::CheckEngine delta_engine(&delta.types(), &delta.symbols(),
                                     &delta.session());

  vl::Json j = vl::Json::Object();
  j["workload"] = vl::Json::Str(
      "per figure: one cpu tick + one figure extraction, then an 11-rule "
      "sweep on a full-flush session vs on a delta-refresh session");

  // Warm both engines: the steady state starts after one audit each.
  bool ok = full_engine.RunAll().reconciled && delta_engine.RunAll().reconciled;

  vl::Json cells = vl::Json::Array();
  uint64_t full_total = 0;
  uint64_t delta_total = 0;
  size_t violations = 0;
  int tick = 0;
  for (const vision::FigureDef& figure : vision::AllFigures()) {
    if (std::string(figure.id) == "fig19_2") {
      continue;  // merged with fig19_1, as in bench_table4
    }
    env.kernel->TickCpu(tick++ % vkern::kNrCpus);
    viewcl::Interpreter interp(&delta);
    ok = ok && interp.RunProgram(figure.viewcl).ok();

    analysis::CheckReport full_report = full_engine.RunAll();
    analysis::CheckReport delta_report = delta_engine.RunAll();
    ok = ok && full_report.reconciled && delta_report.reconciled;
    violations += full_report.violations() + delta_report.violations();
    full_total += full_report.clock_delta_ns;
    delta_total += delta_report.clock_delta_ns;

    vl::Json cell = vl::Json::Object();
    cell["figure"] = vl::Json::Str(figure.id);
    cell["full_ns"] = vl::Json::Int(static_cast<int64_t>(full_report.clock_delta_ns));
    cell["delta_ns"] = vl::Json::Int(static_cast<int64_t>(delta_report.clock_delta_ns));
    cell["speedup"] = Speedup(full_report.clock_delta_ns, delta_report.clock_delta_ns);
    cell["reconciled"] =
        vl::Json::Bool(full_report.reconciled && delta_report.reconciled);
    cells.Append(std::move(cell));
  }

  j["figures"] = std::move(cells);
  j["full_ns"] = vl::Json::Int(static_cast<int64_t>(full_total));
  j["delta_ns"] = vl::Json::Int(static_cast<int64_t>(delta_total));
  j["speedup"] = Speedup(full_total, delta_total);
  j["violations"] = vl::Json::Int(static_cast<int64_t>(violations));
  j["passed"] =
      vl::Json::Bool(ok && violations == 0 && delta_total < full_total);
  return j;
}

// ---------------------------------------------------------------------------
// vserve: aggregate work served vs charged transport time as overlapping
// clients pile onto one shard. Every server in this section boots an
// identical deterministic kernel and steps it in lockstep, so a fleet
// client's render bytes must equal the single-session reference exactly.

constexpr int kServeRounds = 3;

const char* ServeFigure(size_t client, int overlap_pct) {
  // 100%: everyone refreshes fig3_4. 50%: odd clients refresh fig7_1.
  return (overlap_pct == 100 || client % 2 == 0) ? "fig3_4" : "fig7_1";
}

// Single-session mode: one server, one client, `rounds` step+refresh cycles.
// Returns the render bytes per round (the byte-identity reference).
std::vector<std::string> ServeSingleSessionRenders(const char* figure_id, int rounds) {
  vserve::Server server;
  if (!server.BootShard("serve", dbg::LatencyModel::GdbQemu()).ok()) {
    return {};
  }
  auto client = server.Connect();
  if (!client.ok() || !(*client)->Plot(1, vision::FindFigure(figure_id)->viewcl).ok()) {
    return {};
  }
  std::vector<std::string> renders;
  for (int round = 0; round < rounds; ++round) {
    server.shard_workload("serve")->Step();
    auto result = (*client)->Refresh(1);
    if (!result.ok()) {
      return {};
    }
    renders.push_back(result->render);
  }
  return renders;
}

vl::Json MeasureServeCell(size_t clients, int overlap_pct,
                          const std::map<std::string, std::vector<std::string>>& reference) {
  vl::Json j = vl::Json::Object();
  j["clients"] = vl::Json::Int(static_cast<int64_t>(clients));
  j["overlap_pct"] = vl::Json::Int(overlap_pct);
  j["rounds"] = vl::Json::Int(kServeRounds);
  j["ok"] = vl::Json::Bool(false);

  vserve::Server server;
  if (!server.BootShard("serve", dbg::LatencyModel::GdbQemu()).ok()) {
    return j;
  }
  std::vector<vl::StatusOr<vserve::Client>> fleet;
  for (size_t i = 0; i < clients; ++i) {
    fleet.push_back(server.Connect());
    if (!fleet.back().ok() ||
        !(*fleet.back())
             ->Plot(1, vision::FindFigure(ServeFigure(i, overlap_pct))->viewcl)
             .ok()) {
      return j;
    }
  }

  bool renders_identical = true;
  uint64_t refreshes = 0;
  for (int round = 0; round < kServeRounds; ++round) {
    server.shard_workload("serve")->Step();
    for (size_t i = 0; i < clients; ++i) {
      auto result = (*fleet[i])->Refresh(1);
      if (!result.ok()) {
        return j;
      }
      refreshes++;
      const std::vector<std::string>& expect = reference.at(ServeFigure(i, overlap_pct));
      renders_identical =
          renders_identical && result->render == expect[static_cast<size_t>(round)];
    }
  }

  uint64_t charged_ns = 0;
  uint64_t deduped = 0;
  for (auto& client : fleet) {
    charged_ns += (*client)->charged_ns();
    deduped += (*client)->deduped();
  }
  j["ok"] = vl::Json::Bool(true);
  j["refreshes_served"] = vl::Json::Int(static_cast<int64_t>(refreshes));
  j["aggregate_charged_ns"] = vl::Json::Int(static_cast<int64_t>(charged_ns));
  j["dedup_hits"] = vl::Json::Int(static_cast<int64_t>(deduped));
  j["renders_identical"] = vl::Json::Bool(renders_identical);
  return j;
}

vl::Json MeasureServe() {
  std::map<std::string, std::vector<std::string>> reference;
  for (const char* figure_id : {"fig3_4", "fig7_1"}) {
    reference[figure_id] = ServeSingleSessionRenders(figure_id, kServeRounds);
    if (reference[figure_id].empty()) {
      vl::Json failed = vl::Json::Object();
      failed["passed"] = vl::Json::Bool(false);
      return failed;
    }
  }

  vl::Json report = vl::Json::Object();
  report["workload"] = vl::Json::Str(
      "N clients on one GDB/QEMU shard; per round: one workload step, then "
      "every client refreshes its pane; 100% overlap = all fig3_4, 50% = odd "
      "clients fig7_1");
  vl::Json cells = vl::Json::Array();
  bool passed = true;
  for (int overlap_pct : {100, 50}) {
    uint64_t single_charged = 0;
    for (size_t clients : {1u, 2u, 4u, 8u}) {
      vl::Json cell = MeasureServeCell(clients, overlap_pct, reference);
      const vl::Json* ok = cell.Find("ok");
      if (ok == nullptr || !ok->AsBool()) {
        passed = false;
        cells.Append(std::move(cell));
        continue;
      }
      uint64_t charged =
          static_cast<uint64_t>(cell.Find("aggregate_charged_ns")->AsNumber());
      uint64_t refreshes =
          static_cast<uint64_t>(cell.Find("refreshes_served")->AsNumber());
      if (clients == 1) {
        single_charged = charged;
      }
      bool identical = cell.Find("renders_identical")->AsBool();
      double work_vs_single = static_cast<double>(refreshes) / kServeRounds;
      double charged_vs_single =
          single_charged > 0 ? static_cast<double>(charged) / single_charged : 0.0;
      cell["work_vs_single"] = vl::Json::Number(work_vs_single);
      cell["charged_vs_single"] = vl::Json::Number(charged_vs_single);
      passed = passed && identical;
      // The acceptance gate: a fully-overlapping 8-client fleet serves >= 6x
      // the work of one client for < 2x the charged transport time.
      if (overlap_pct == 100 && clients == 8) {
        passed = passed && work_vs_single >= 6.0 && charged_vs_single < 2.0;
      }
      std::printf("  serve %zu client(s) %3d%% overlap: %5.1fx work, %4.2fx charged, "
                  "renders_identical=%s\n",
                  clients, overlap_pct, work_vs_single, charged_vs_single,
                  identical ? "true" : "false");
      cells.Append(std::move(cell));
    }
  }
  report["cells"] = std::move(cells);
  report["passed"] = vl::Json::Bool(passed);
  return report;
}

// ---------------------------------------------------------------------------
// vflight: queue/service decomposition across the overlap x clients grid.
// Each round pauses the scheduler, submits the whole fleet's refreshes at one
// virtual instant, and resumes — so requests genuinely queue behind each
// other and the recorder's queue_ns/service_ns split carries signal. The gate
// is reconciliation: summed flight service_ns + control_ns must equal the
// shard's charged-ns exactly, per cell.

vl::Json MeasureFlightCell(size_t clients, int overlap_pct) {
  vl::Json j = vl::Json::Object();
  j["clients"] = vl::Json::Int(static_cast<int64_t>(clients));
  j["overlap_pct"] = vl::Json::Int(overlap_pct);
  j["rounds"] = vl::Json::Int(kServeRounds);
  j["ok"] = vl::Json::Bool(false);

  vserve::Server server;
  if (!server.BootShard("serve", dbg::LatencyModel::GdbQemu()).ok()) {
    return j;
  }
  std::vector<vl::StatusOr<vserve::Client>> fleet;
  for (size_t i = 0; i < clients; ++i) {
    fleet.push_back(server.Connect());
    if (!fleet.back().ok() ||
        !(*fleet.back())
             ->Plot(1, vision::FindFigure(ServeFigure(i, overlap_pct))->viewcl)
             .ok()) {
      return j;
    }
  }

  for (int round = 0; round < kServeRounds; ++round) {
    server.shard_workload("serve")->Step();
    server.Pause();
    std::vector<vserve::Ticket> tickets;
    for (auto& client : fleet) {
      auto ticket = (*client)->SubmitRefresh(1);
      if (!ticket.ok()) {
        server.Resume();
        return j;
      }
      tickets.push_back(*ticket);
    }
    server.Resume();
    for (vserve::Ticket& ticket : tickets) {
      if (!ticket.Wait().ok()) {
        return j;
      }
    }
  }

  vserve::FlightStats stats = server.flights().ShardStats("serve");
  vl::Json doc = server.ExportFlights();
  const vl::Json* shard = doc.Find("metadata")->Find("shards")->Find("serve");
  bool reconciled = shard != nullptr && shard->Find("reconciled")->AsBool();

  j["completed"] = vl::Json::Int(static_cast<int64_t>(stats.completed));
  j["executed"] = vl::Json::Int(static_cast<int64_t>(stats.executed));
  j["dedup_hits"] = vl::Json::Int(static_cast<int64_t>(stats.dedup_hits));
  j["queue_ns"] = stats.queue_ns.ToJson();
  j["service_ns"] = stats.service_ns.ToJson();
  j["total_ns"] = stats.total_ns.ToJson();
  j["flight_service_ns"] = vl::Json::Int(static_cast<int64_t>(stats.service_sum_ns));
  if (shard != nullptr) {
    j["charged_ns"] = *shard->Find("charged_ns");
    j["control_ns"] = *shard->Find("control_ns");
  }
  j["reconciled"] = vl::Json::Bool(reconciled);
  j["ok"] = vl::Json::Bool(
      reconciled && stats.completed == clients * static_cast<size_t>(kServeRounds));
  return j;
}

vl::Json MeasureFlight() {
  vl::Json report = vl::Json::Object();
  report["workload"] = vl::Json::Str(
      "N clients on one GDB/QEMU shard; per round: one workload step, then "
      "the whole fleet's refreshes submitted under Pause() and released at "
      "once — queue_ns/service_ns decomposition from the flight recorder, "
      "gated on exact service-vs-charged reconciliation");
  vl::Json cells = vl::Json::Array();
  bool passed = true;
  for (int overlap_pct : {100, 50}) {
    for (size_t clients : {1u, 2u, 4u, 8u}) {
      vl::Json cell = MeasureFlightCell(clients, overlap_pct);
      const vl::Json* ok = cell.Find("ok");
      bool cell_ok = ok != nullptr && ok->AsBool();
      passed = passed && cell_ok;
      if (cell_ok) {
        std::printf(
            "  flight %zu client(s) %3d%% overlap: queue p99 %.0f ns, "
            "service p99 %.0f ns, %lld dedup, reconciled=%s\n",
            clients, overlap_pct, cell.Find("queue_ns")->Find("p99")->AsNumber(),
            cell.Find("service_ns")->Find("p99")->AsNumber(),
            static_cast<long long>(cell.Find("dedup_hits")->AsInt()),
            cell.Find("reconciled")->AsBool() ? "true" : "false");
      }
      cells.Append(std::move(cell));
    }
  }
  report["cells"] = std::move(cells);
  report["passed"] = vl::Json::Bool(passed);
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_observability.json";
  const char* cache_path = argc > 2 ? argv[2] : "BENCH_cache.json";
  const char* explain_path = argc > 3 ? argv[3] : "BENCH_explain.json";
  std::printf("=== observability report: traced table4 + fig2-focus workloads ===\n");
  vlbench::BenchEnv env;
  vl::Tracer::Instance().Enable();

  vl::Json report = vl::Json::Object();
  vl::Json figures = vl::Json::Array();
  for (const vision::FigureDef& figure : vision::AllFigures()) {
    if (std::string(figure.id) == "fig19_2") {
      continue;  // merged with fig19_1, as in bench_table4
    }
    for (const dbg::LatencyModel& model :
         {dbg::LatencyModel::GdbQemu(), dbg::LatencyModel::KgdbRpi400()}) {
      vl::Json cell = MeasureFigure(env, figure, model);
      const vl::Json* ok = cell.Find("ok");
      std::printf("  %-12s %-16s %s\n", figure.id, model.name.c_str(),
                  ok != nullptr && ok->AsBool() ? "ok" : "FAILED");
      figures.Append(std::move(cell));
    }
  }
  report["table4"] = std::move(figures);
  report["fig2_focus"] = MeasureFig2Focus(env);
  report["per_model"] = env.debugger->target().StatsToJson();

  std::ofstream file(out_path);
  if (!file) {
    std::printf("error: cannot open %s\n", out_path);
    return 1;
  }
  file << report.Dump(2) << "\n";
  std::printf("wrote %s\n", out_path);

  // Per-figure refresh attribution: every paper figure, both transports, each
  // refresh's explain tree reconciled against the virtual clock.
  vl::Json explain_report = vl::Json::Object();
  vl::Json explains = vl::Json::Array();
  bool all_reconciled = true;
  for (const vision::FigureDef& figure : vision::AllFigures()) {
    if (std::string(figure.id) == "fig19_2") {
      continue;  // merged with fig19_1, as in bench_table4
    }
    for (const dbg::LatencyModel& model :
         {dbg::LatencyModel::GdbQemu(), dbg::LatencyModel::KgdbRpi400()}) {
      vl::Json cell = MeasureExplain(env, figure, model);
      const vl::Json* ok = cell.Find("ok");
      const vl::Json* reconciled = cell.Find("reconciled");
      bool cell_ok = ok != nullptr && ok->AsBool() && reconciled != nullptr &&
                     reconciled->AsBool();
      all_reconciled = all_reconciled && cell_ok;
      std::printf("  explain %-12s %-16s %s\n", figure.id, model.name.c_str(),
                  cell_ok ? "reconciled" : "MISMATCH");
      explains.Append(std::move(cell));
    }
  }
  explain_report["figures"] = std::move(explains);
  explain_report["all_reconciled"] = vl::Json::Bool(all_reconciled);
  std::ofstream explain_file(explain_path);
  if (!explain_file) {
    std::printf("error: cannot open %s\n", explain_path);
    return 1;
  }
  explain_file << explain_report.Dump(2) << "\n";
  std::printf("wrote %s\n", explain_path);

  // Cache on/off comparison (tracing off: we want pure transport accounting).
  vl::Tracer::Instance().Disable();
  vl::Json cache_report = vl::Json::Object();
  vl::Json transports = vl::Json::Array();
  for (const dbg::LatencyModel& model :
       {dbg::LatencyModel::GdbQemu(), dbg::LatencyModel::KgdbRpi400()}) {
    vl::Json cell = MeasureCacheWorkflow(env, model);
    const vl::Json* speedup = cell.Find("speedup");
    const vl::Json* identical = cell.Find("renders_identical");
    std::printf("  cache %-16s speedup %.1fx renders_identical=%s\n",
                model.name.c_str(), speedup != nullptr ? speedup->AsNumber() : 0.0,
                identical != nullptr && identical->AsBool() ? "true" : "false");
    transports.Append(std::move(cell));
  }
  cache_report["workflow"] = vl::Json::Str("repeated pane refresh: fig3_4 + fig7_1 x3");
  cache_report["transports"] = std::move(transports);

  std::ofstream cache_file(cache_path);
  if (!cache_file) {
    std::printf("error: cannot open %s\n", cache_path);
    return 1;
  }
  cache_file << cache_report.Dump(2) << "\n";
  std::printf("wrote %s\n", cache_path);

  // Zero-read static analysis sweep over the full paper corpus.
  const char* lint_path = argc > 4 ? argv[4] : "BENCH_lint.json";
  vl::Json lint_report = MeasureLint(env);
  const vl::Json* zero_read = lint_report.Find("zero_read");
  const vl::Json* lint_errors = lint_report.Find("errors");
  std::printf("  lint %s program(s), %s error(s), zero_read=%s\n",
              lint_report.Find("programs")->Dump(0).c_str(),
              lint_errors != nullptr ? lint_errors->Dump(0).c_str() : "?",
              zero_read != nullptr && zero_read->AsBool() ? "true" : "false");
  std::ofstream lint_file(lint_path);
  if (!lint_file) {
    std::printf("error: cannot open %s\n", lint_path);
    return 1;
  }
  lint_file << lint_report.Dump(2) << "\n";
  std::printf("wrote %s\n", lint_path);
  if (zero_read == nullptr || !zero_read->AsBool()) {
    std::printf("error: lint sweep charged transport time — zero-read violated\n");
    return 1;
  }

  // Incremental refresh: full vs delta charged ns on a steady-state
  // small-mutation loop (last: it steps the shared workload).
  const char* incremental_path = argc > 5 ? argv[5] : "BENCH_incremental.json";
  vl::Json incremental_report = vl::Json::Object();
  vl::Json inc_transports = vl::Json::Array();
  bool inc_ok = true;
  for (const dbg::LatencyModel& model :
       {dbg::LatencyModel::GdbQemu(), dbg::LatencyModel::KgdbRpi400()}) {
    vl::Json cell = MeasureIncremental(env, model);
    const vl::Json* ok = cell.Find("ok");
    const vl::Json* speedup = cell.Find("speedup");
    const vl::Json* identical = cell.Find("renders_identical");
    bool cell_ok = ok != nullptr && ok->AsBool() && identical != nullptr &&
                   identical->AsBool();
    inc_ok = inc_ok && cell_ok;
    std::printf("  incremental %-16s speedup %.1fx renders_identical=%s\n",
                model.name.c_str(), speedup != nullptr ? speedup->AsNumber() : 0.0,
                identical != nullptr && identical->AsBool() ? "true" : "false");
    inc_transports.Append(std::move(cell));
  }
  incremental_report["workflow"] =
      vl::Json::Str("steady-state: one cpu tick between refreshes of a 6-pane "
                    "dashboard (fig3_4 fig7_1 fig8_2 fig12_3 fig14_3 fig15_1)");
  incremental_report["transports"] = std::move(inc_transports);
  std::ofstream incremental_file(incremental_path);
  if (!incremental_file) {
    std::printf("error: cannot open %s\n", incremental_path);
    return 1;
  }
  incremental_file << incremental_report.Dump(2) << "\n";
  std::printf("wrote %s\n", incremental_path);
  if (!inc_ok) {
    std::printf("error: incremental refresh diverged from full re-extraction\n");
    return 1;
  }

  // Invariant sweeps: full-flush vs delta-session vcheck charge across the
  // corpus.
  const char* check_path = argc > 8 ? argv[8] : "BENCH_check.json";
  vl::Json check_report = MeasureCheck(env);
  const vl::Json* check_passed = check_report.Find("passed");
  const vl::Json* check_speedup = check_report.Find("speedup");
  std::string speedup = check_speedup != nullptr && !check_speedup->is_null()
                            ? vl::StrFormat("%.1fx", check_speedup->AsNumber())
                            : "unbounded";
  std::printf("  check full flush %s ns vs delta %s ns, speedup %s, passed=%s\n",
              check_report.Find("full_ns")->Dump(0).c_str(),
              check_report.Find("delta_ns")->Dump(0).c_str(), speedup.c_str(),
              check_passed != nullptr && check_passed->AsBool() ? "true" : "false");
  std::ofstream check_file(check_path);
  if (!check_file) {
    std::printf("error: cannot open %s\n", check_path);
    return 1;
  }
  check_file << check_report.Dump(2) << "\n";
  std::printf("wrote %s\n", check_path);
  if (check_passed == nullptr || !check_passed->AsBool()) {
    std::printf("error: vcheck sweep missed its reconciliation/speedup gates\n");
    return 1;
  }

  // The batched walker: cold batched-vs-raw charge per figure per model.
  const char* walk_path = argc > 9 ? argv[9] : "BENCH_walk.json";
  vl::Json walk_report = MeasureWalk(env);
  const vl::Json* walk_passed = walk_report.Find("passed");
  std::ofstream walk_file(walk_path);
  if (!walk_file) {
    std::printf("error: cannot open %s\n", walk_path);
    return 1;
  }
  walk_file << walk_report.Dump(2) << "\n";
  std::printf("wrote %s\n", walk_path);
  if (walk_passed == nullptr || !walk_passed->AsBool()) {
    std::printf("error: the batched walker's renders diverged from the raw transport\n");
    return 1;
  }

  // Multi-session serving: throughput and dedup accounting as overlapping
  // clients share one shard.
  const char* serve_path = argc > 6 ? argv[6] : "BENCH_serve.json";
  vl::Json serve_report = MeasureServe();
  const vl::Json* serve_passed = serve_report.Find("passed");
  std::ofstream serve_file(serve_path);
  if (!serve_file) {
    std::printf("error: cannot open %s\n", serve_path);
    return 1;
  }
  serve_file << serve_report.Dump(2) << "\n";
  std::printf("wrote %s\n", serve_path);
  if (serve_passed == nullptr || !serve_passed->AsBool()) {
    std::printf("error: serve fleet missed its dedup/byte-identity gates\n");
    return 1;
  }

  // Flight recorder: queue/service decomposition + reconciliation per cell.
  const char* flight_path = argc > 7 ? argv[7] : "BENCH_flight.json";
  vl::Json flight_report = MeasureFlight();
  const vl::Json* flight_passed = flight_report.Find("passed");
  std::ofstream flight_file(flight_path);
  if (!flight_file) {
    std::printf("error: cannot open %s\n", flight_path);
    return 1;
  }
  flight_file << flight_report.Dump(2) << "\n";
  std::printf("wrote %s\n", flight_path);
  if (flight_passed == nullptr || !flight_passed->AsBool()) {
    std::printf("error: flight decomposition failed to reconcile\n");
    return 1;
  }
  return 0;
}
