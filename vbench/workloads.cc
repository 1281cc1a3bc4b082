#include "vbench/workloads.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "src/analysis/check.h"
#include "src/dbg/kernel_introspect.h"
#include "src/serve/server.h"
#include "src/support/rng.h"
#include "src/support/trace.h"
#include "src/vision/figures.h"
#include "src/vkern/kernel.h"
#include "src/vkern/page_journal.h"
#include "src/vkern/workload.h"
#include "vbench/stats.h"

namespace vbench {
namespace {

constexpr int kWorkloadSteps = 120;  // bench_util's paper-scale BenchEnv
constexpr int kMutationStepEvery = 8;
constexpr size_t kMaxErrors = 8;
constexpr double kInf = std::numeric_limits<double>::infinity();
// Flight-recorder ring per server: large enough that no flight is evicted
// before an environment's records are read.
constexpr size_t kFlightRecords = 1 << 17;

const dbg::LatencyModel& Gdb() {
  static const dbg::LatencyModel model = dbg::LatencyModel::GdbQemu();
  return model;
}

const dbg::LatencyModel& Kgdb() {
  static const dbg::LatencyModel model = dbg::LatencyModel::KgdbRpi400();
  return model;
}

const char* ObjectiveFor(const std::string& figure_id) {
  for (const vision::ObjectiveDef& objective : vision::AllObjectives()) {
    if (figure_id == objective.figure_id) {
      return objective.viewql;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Counters read from a debugger before and after each call.

struct Counters {
  uint64_t clock_ns = 0;
  uint64_t reads = 0;
  uint64_t bytes = 0;
  uint64_t dirty_queries = 0;
  uint64_t dirty_ns = 0;
  uint64_t hit_bytes = 0;
  uint64_t miss_bytes = 0;
  uint64_t block_fetches = 0;
  uint64_t vector_blocks = 0;
  uint64_t fetched_bytes = 0;
  uint64_t evictions = 0;
  uint64_t full_flushes = 0;
  uint64_t delta_evicted_bytes = 0;

  static Counters Of(dbg::KernelDebugger& debugger) {
    Counters c;
    dbg::Target& target = debugger.target();
    c.clock_ns = target.clock().nanos();
    c.reads = target.reads();
    c.bytes = target.bytes_read();
    dbg::Target::DirtyStats dirty = target.dirty_stats();
    c.dirty_queries = dirty.queries;
    c.dirty_ns = dirty.charged_ns;
    const dbg::CacheStats& cache = debugger.session().cache_stats();
    c.hit_bytes = cache.hit_bytes;
    c.miss_bytes = cache.miss_bytes;
    c.block_fetches = cache.block_fetches;
    c.vector_blocks = cache.vector_blocks;
    c.fetched_bytes = cache.fetched_bytes;
    c.evictions = cache.evictions;
    c.full_flushes = cache.invalidations;
    c.delta_evicted_bytes = cache.invalidated_bytes_delta;
    return c;
  }

  // Field-wise a - b (counters only grow between two readings).
  friend Counters operator-(Counters a, const Counters& b) {
    a.clock_ns -= b.clock_ns;
    a.reads -= b.reads;
    a.bytes -= b.bytes;
    a.dirty_queries -= b.dirty_queries;
    a.dirty_ns -= b.dirty_ns;
    a.hit_bytes -= b.hit_bytes;
    a.miss_bytes -= b.miss_bytes;
    a.block_fetches -= b.block_fetches;
    a.vector_blocks -= b.vector_blocks;
    a.fetched_bytes -= b.fetched_bytes;
    a.evictions -= b.evictions;
    a.full_flushes -= b.full_flushes;
    a.delta_evicted_bytes -= b.delta_evicted_bytes;
    return a;
  }

  Counters& operator+=(const Counters& o) {
    clock_ns += o.clock_ns;
    reads += o.reads;
    bytes += o.bytes;
    dirty_queries += o.dirty_queries;
    dirty_ns += o.dirty_ns;
    hit_bytes += o.hit_bytes;
    miss_bytes += o.miss_bytes;
    block_fetches += o.block_fetches;
    vector_blocks += o.vector_blocks;
    fetched_bytes += o.fetched_bytes;
    evictions += o.evictions;
    full_flushes += o.full_flushes;
    delta_evicted_bytes += o.delta_evicted_bytes;
    return *this;
  }

  // Transport round trips: a vectored batch counts once (Target::reads), and
  // so does a dirty-log query.
  uint64_t round_trips() const { return reads + dirty_queries; }
};

// The transport charge of `c` on `model`. Target keeps the identity
//   clock == per_access * reads + per_byte * bytes
//            + queries * (dirty_query + per_byte * bitmap_bytes),
// and the reads a request makes do not depend on the latency model, so a
// request measured on GDB can be priced exactly on KGDB.
uint64_t Price(const Counters& c, const dbg::LatencyModel& model, uint64_t bitmap_bytes) {
  return model.per_access_ns * c.reads + model.per_byte_ns * c.bytes +
         c.dirty_queries * (model.dirty_query_ns + model.per_byte_ns * bitmap_bytes);
}

// ---------------------------------------------------------------------------
// Records of one run.

// One request while it is being measured and checked.
struct Request {
  std::string figure;    // "" for sweeps
  bool cold_paint = false;
  bool kgdb = false;     // priced on KGDB by the debugger's model (cold_paint)
  bool ok = true;
  bool deduped = false;
  size_t shard = 0;      // fleet_serve
  int64_t host_ns = 0;   // call -> result in hand
  uint64_t transport_ns = 0;  // charged on its own debugger's clock
  // The same request priced on KGDB (step_dashboard, fleet_serve).
  std::optional<uint64_t> kgdb_transport_ns;
  Counters delta;        // single-threaded workloads only
  std::optional<uint64_t> viewql_ns;  // cold paints with an objective
  std::optional<bool> tree_reconciled;  // traced requests with the tree on
  std::string render;    // kept only until the oracle check
};

// What a finished request leaves behind. One is kept per request for the
// whole run, so it stays small: peak memory must not grow with how many
// requests a fast host fits into the run.
struct Sample {
  int env = 0;                  // environment (kernel) it ran on
  const char* figure = "";      // figure id; "" for sweeps
  size_t shard = 0;             // fleet_serve
  bool kgdb = false;
  bool ok = true;
  bool deduped = false;
  int64_t host_ns = 0;
  uint64_t transport_ns = 0;
  std::optional<uint64_t> kgdb_transport_ns;
};

struct Phase {
  explicit Phase(bool traced) : traced(traced), spans(traced) {}

  bool traced;
  SpanLog spans;
  std::vector<Sample> samples;
  // Round trips and bytes of each figure's first cold paint on GDB.
  std::map<std::string, std::pair<uint64_t, uint64_t>> first_paint;
  std::vector<double> viewql_ms;  // per Apply of a cold paint (virtual)
  uint64_t tree_checked = 0;      // traced requests with the tree on
  uint64_t tree_ok = 0;           // ... whose tree total equals the clock
  // Transport-side counts of the GDB requests: summed per-request deltas, or
  // per-shard deltas over the request phases on fleet_serve.
  Counters totals;
  int env = 0;                  // environment now running
  int iterations = 0;           // passes / steps / rounds
  // Host seconds spent inside request phases, per environment.
  std::map<int, double> request_host_s;
  std::vector<double> setup_s;  // one per set-up
  std::vector<vserve::FlightRecord> flights;
  uint64_t rules_skipped = 0;   // incremental sweeps
  uint64_t rules_total = 0;
  uint64_t pages_scanned = 0;   // measured debuggers' journals, whole run
  uint64_t generations = 0;     // kernel generations those journals saw
  std::optional<bool> reconciled;
  uint64_t next_request = 1;
};

struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool internal_error = false;
  std::vector<std::string> errors;

  void Fail(const std::string& what) {
    failed++;
    Note(what);
  }
  // A broken assumption of the benchmark itself (not a request failure).
  void Internal(const std::string& what) {
    internal_error = true;
    Note("internal: " + what);
  }
  void Note(const std::string& what) {
    if (errors.size() < kMaxErrors) {
      errors.push_back(what);
    }
  }
};

// Scoped in-program vexplain tree around one request. The Tracer stamps
// spans with the clock of the most recently constructed Target, so callers
// build the measured debugger last.
class TreeScope {
 public:
  explicit TreeScope(bool on) : on_(on) {
    if (on_) {
      vl::Tracer& tracer = vl::Tracer::Instance();
      tracer.Clear();
      tracer.SetTreeEnabled(true);
      tracer.Enable();
    }
  }
  ~TreeScope() { Stop(); }
  TreeScope(const TreeScope&) = delete;
  TreeScope& operator=(const TreeScope&) = delete;

  // Stops tracing; returns whether the tree's total equals `clock_delta`.
  std::optional<bool> Reconciled(uint64_t clock_delta) {
    if (!on_) {
      return std::nullopt;
    }
    Stop();
    uint64_t total = 0;
    for (const auto& [name, node] : vl::Tracer::Instance().tree_root().children) {
      total += node.total_ns;
    }
    return total == clock_delta;
  }

 private:
  void Stop() {
    if (on_ && vl::Tracer::Instance().enabled()) {
      vl::Tracer::Instance().Disable();
      vl::Tracer::Instance().SetTreeEnabled(false);
    }
  }
  bool on_;
};

// ---------------------------------------------------------------------------
// Kernels, debuggers, oracle.

// A paper-scale kernel booted from the seed, as bench_util's BenchEnv does.
struct Machine {
  explicit Machine(uint64_t seed) {
    vkern::KernelConfig kernel_config;
    kernel_config.seed = seed;
    kernel = std::make_unique<vkern::Kernel>(kernel_config);
    vkern::WorkloadConfig config;
    config.steps = kWorkloadSteps;
    config.seed = seed;
    workload = std::make_unique<vkern::Workload>(kernel.get(), config);
    workload->Run();
    kernel->QueueMmPercpuWork(0);
    kernel->QueueMmPercpuWork(1);
    generation0 = kernel->generation();
  }

  uint64_t bitmap_bytes() const {
    return (kernel->arena().size() / vkern::kPageSize + 7) / 8;
  }

  std::unique_ptr<vkern::Kernel> kernel;
  std::unique_ptr<vkern::Workload> workload;
  uint64_t generation0 = 0;
};

// A measured debugger. Built with the default (non-incremental) cache, so
// the first Connect reconfigures it to serving defaults and records the
// dirty-log baseline, as for a BootShard shard.
std::unique_ptr<dbg::KernelDebugger> Attach(Machine& machine, const dbg::LatencyModel& model) {
  auto debugger = std::make_unique<dbg::KernelDebugger>(machine.kernel.get(), model);
  vision::RegisterFigureSymbols(debugger.get(), machine.workload.get());
  return debugger;
}

vserve::SessionOptions OracleOptions() {
  vserve::SessionOptions options;
  options.block_bytes = 0;  // raw transport: every read goes to the target
  options.incremental = false;
  options.render_cache = false;
  options.shared_engines = false;
  options.coalesce = false;
  options.compile_plans = false;
  return options;
}

// Renders figures from scratch: no block cache, no plan, a private engine,
// no dedup and no render cache. Constructed before the measured debuggers:
// its constructor writes the in-arena state-string table, and that write
// must fall inside the measured journals' baselines.
class Oracle {
 public:
  explicit Oracle(Machine& machine)
      : debugger_(machine.kernel.get(), dbg::LatencyModel::Free(),
                  dbg::CacheConfig::Disabled()) {
    vision::RegisterFigureSymbols(&debugger_, machine.workload.get());
    (void)server_.AddShard("oracle", &debugger_);
  }

  // The figure (with its objective) as the kernel is now.
  vl::StatusOr<std::string> Render(const vision::FigureDef& figure) {
    VL_ASSIGN_OR_RETURN(vserve::Client client, server_.Connect(OracleOptions()));
    VL_ASSIGN_OR_RETURN(vserve::Session::PlotResult plotted, client->Plot(1, figure.viewcl));
    (void)plotted;
    if (const char* objective = ObjectiveFor(figure.id)) {
      VL_RETURN_IF_ERROR(client->Apply(1, objective));
    }
    return client->Render(1);
  }

 private:
  dbg::KernelDebugger debugger_;
  vserve::Server server_;  // destroyed before the debugger it fronts
};

// Compares a request's render with the oracle's; records the failure.
void CheckRender(Request& request, const vl::StatusOr<std::string>& expected,
                 const std::string& where, Ledger& ledger) {
  if (!request.ok) {
    return;
  }
  if (!expected.ok()) {
    request.ok = false;
    ledger.Fail(where + ": oracle failed: " + expected.status().ToString());
  } else if (request.render != *expected) {
    request.ok = false;
    ledger.Fail(where + ": render differs from the oracle");
  }
  std::string().swap(request.render);  // release the buffer, not just the size
}

// Records a finished request into the phase and the ledger.
void Record(Phase& phase, Ledger& ledger, const Request& request) {
  ledger.attempted++;
  if (!request.kgdb) {
    phase.totals += request.delta;
  }
  if (request.cold_paint && !request.kgdb) {
    phase.first_paint.emplace(request.figure,
                              std::make_pair(request.delta.round_trips(), request.delta.bytes));
  }
  if (request.viewql_ns.has_value()) {
    phase.viewql_ms.push_back(static_cast<double>(*request.viewql_ns) / 1e6);
  }
  if (request.tree_reconciled.has_value()) {
    phase.tree_checked++;
    phase.tree_ok += *request.tree_reconciled ? 1 : 0;
  }
  const vision::FigureDef* figure = vision::FindFigure(request.figure);
  Sample sample;
  sample.env = phase.env;
  sample.figure = figure != nullptr ? figure->id : "";
  sample.shard = request.shard;
  sample.kgdb = request.kgdb;
  sample.ok = request.ok;
  sample.deduped = request.deduped;
  sample.host_ns = request.host_ns;
  sample.transport_ns = request.transport_ns;
  sample.kgdb_transport_ns = request.kgdb_transport_ns;
  phase.samples.push_back(sample);
}

void Mutate(Machine& machine, int iteration, int cpu, SpanLog& spans) {
  const bool step = iteration % kMutationStepEvery == kMutationStepEvery - 1;
  ScopedSpan span(&spans, step ? "Step" : "TickCpu", "", 0);
  if (step) {
    machine.workload->Step();
  } else {
    machine.kernel->TickCpu(cpu);
  }
}

// Times one full scan of the arena by a journal the benchmark owns: the host
// cost the dirty log pays once per kernel generation.
void JournalProbe(Machine& machine, SpanLog& spans) {
  if (!spans.enabled()) {
    return;
  }
  ScopedSpan span(&spans, "PageJournal.scan", "", 0);
  vkern::PageJournal journal(&machine.kernel->arena(), machine.kernel->generation());
}

// Server::Connect, timed; tagged "baseline" when it reconfigures the
// debugger to serving defaults (and so records the dirty-log baseline).
vl::StatusOr<vserve::Client> TimedConnect(vserve::Server& server, dbg::KernelDebugger& debugger,
                                          vserve::SessionOptions options, SpanLog& spans) {
  ScopedSpan span(&spans, "Connect", debugger.session().delta_enabled() ? "" : "baseline", 0);
  return server.Connect(std::move(options));
}

dbg::CacheConfig ServingCache() { return vserve::SessionOptions{}.ToCacheConfig(); }

// One cold paint: Plot, the figure's objective via Apply, Render. Runs on
// fresh serving state — the block cache, page history and prefetch registry
// are reset by Reconfigure, and a new Server brings fresh engines, result
// cache and render digests. The reset and Connect stay outside the timed
// window.
Request PaintCold(dbg::KernelDebugger& debugger, const vision::FigureDef& figure, bool kgdb,
                  bool tree, Phase& phase, Ledger& ledger) {
  Request request;
  request.figure = figure.id;
  request.cold_paint = true;
  request.kgdb = kgdb;
  debugger.session().Reconfigure(ServingCache());
  vserve::Server server;
  vl::Status added = server.AddShard("paint", &debugger);
  vl::StatusOr<vserve::Client> client =
      added.ok() ? server.Connect() : vl::StatusOr<vserve::Client>(added);
  if (!client.ok()) {
    request.ok = false;
    ledger.Fail(std::string(figure.id) + ": connect: " + client.status().ToString());
    return request;
  }
  const char* objective = ObjectiveFor(figure.id);
  const uint64_t id = phase.next_request++;
  SpanLog& spans = phase.spans;
  vl::Status status = vl::Status::Ok();

  const Counters before = Counters::Of(debugger);
  TreeScope trace(tree);
  const int64_t start = NowNs();
  {
    ScopedSpan paint(&spans, "paint", figure.id, id);
    {
      ScopedSpan span(&spans, "Plot", figure.id, id, paint.index());
      vl::StatusOr<vserve::Session::PlotResult> plotted = (*client)->Plot(1, figure.viewcl);
      if (!plotted.ok()) {
        status = plotted.status();
      }
    }
    if (status.ok() && objective != nullptr) {
      ScopedSpan span(&spans, "Apply", figure.id, id, paint.index());
      status = (*client)->Apply(1, objective);
    }
    if (status.ok()) {
      ScopedSpan span(&spans, "Render", figure.id, id, paint.index());
      request.render = (*client)->Render(1);
    }
  }
  request.host_ns = NowNs() - start;
  request.delta = Counters::Of(debugger) - before;
  request.transport_ns = request.delta.clock_ns;
  request.tree_reconciled = trace.Reconciled(request.transport_ns);
  if (status.ok() && objective != nullptr) {
    const viewql::ExecStats* stats = (*client)->panes().exec_stats(1);
    request.viewql_ns = stats->select_ns + stats->update_ns;
  }
  if (!status.ok()) {
    request.ok = false;
    ledger.Fail(std::string(figure.id) + ": " + status.ToString());
  }
  return request;
}

// Kernel seed of environment `index`: environment 0 boots the run's seed,
// later ones draw fresh seeds from it. Spreading a run over several kernels
// averages out how one seed's object graph happens to size the figures.
uint64_t KernelSeed(uint64_t seed, int index) {
  vl::Rng rng(seed);
  uint64_t kernel_seed = seed;
  for (int i = 0; i < index; ++i) {
    kernel_seed = rng.Next();
  }
  return kernel_seed;
}

// The measured time is split evenly across the run's environments.
int64_t Deadline(int64_t start_ns, double seconds, int env, int environments) {
  return start_ns + static_cast<int64_t>(seconds * 1e9 * (env + 1) / environments);
}

// Whether an environment's loop runs another iteration: until its deadline,
// or exactly options.max_iterations times; always at least once.
bool Continue(const RunOptions& options, int iterations, int64_t deadline_ns) {
  if (options.max_iterations > 0) {
    return iterations < options.max_iterations;
  }
  return iterations == 0 || NowNs() < deadline_ns;
}

// Times one environment's set-up (less the oracle's share) into setup_s.
template <typename Env, typename SetupFn>
std::unique_ptr<Env> TimedSetup(Phase& phase, SetupFn setup) {
  double oracle_s = 0;
  const int64_t start = NowNs();
  std::unique_ptr<Env> env = setup(&oracle_s);
  phase.setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9 - oracle_s);
  return env;
}

// Host seconds of a callable, for set-up work that belongs to the oracle.
template <typename Fn>
double TimeSeconds(Fn fn) {
  const int64_t start = NowNs();
  fn();
  return static_cast<double>(NowNs() - start) / 1e9;
}

// Extracts the records the flight recorder kept for `server` since it held
// `flights0` of them, and whether every shard reconciles its charges.
bool CollectFlights(vserve::Server& server, size_t flights0, Phase& phase, Ledger& ledger) {
  server.Drain();
  if (server.flights().dropped() > 0) {
    ledger.Internal("flight records were evicted before they were read");
  }
  std::vector<vserve::FlightRecord> flights = server.flights().Snapshot();
  phase.flights.insert(phase.flights.end(),
                       flights.begin() + static_cast<std::ptrdiff_t>(flights0), flights.end());
  bool reconciled = true;
  const vl::Json exported = server.ExportFlights();
  for (const auto& [name, shard] : exported.Find("metadata")->Find("shards")->entries()) {
    if (!shard.Find("reconciled")->AsBool()) {
      reconciled = false;
      ledger.Note("shard " + name + " does not reconcile its charges");
    }
  }
  phase.reconciled = phase.reconciled.value_or(true) && reconciled;
  return reconciled;
}

// ---------------------------------------------------------------------------
// Coverage probe: a short fixed sequence run at the end of every traced run,
// after the measured loop, on the workload's last-constructed GDB debugger.
// It gives every per-layer metric a value on every workload; a metric the
// workload's own loop measures is never taken from here.

void CoverageProbe(Machine& machine, Oracle& oracle, dbg::KernelDebugger& debugger,
                   Phase& probe, Ledger& ledger) {
  SpanLog& spans = probe.spans;
  JournalProbe(machine, spans);
  for (const vision::FigureDef& figure : vision::AllFigures()) {
    Request request = PaintCold(debugger, figure, /*kgdb=*/false, /*tree=*/true, probe, ledger);
    CheckRender(request, oracle.Render(figure), std::string("probe ") + figure.id, ledger);
    Record(probe, ledger, request);
  }

  // Two sessions on one figure: a synchronous refresh after a mutation, its
  // duplicate served by dedup, then an incremental sweep.
  const vision::FigureDef& figure = *vision::FindFigure("fig3_4");
  vserve::Server server;
  (void)server.AddShard("probe", &debugger);
  const size_t flights0 = server.flights().size();
  std::vector<vserve::Client> clients;
  for (int i = 0; i < 2; ++i) {
    vl::StatusOr<vserve::Client> client = server.Connect();
    if (!client.ok() || !(*client)->Plot(1, figure.viewcl).ok() ||
        !(*client)->Apply(1, ObjectiveFor(figure.id)).ok()) {
      ledger.Fail("probe: set-up failed");
      return;
    }
    clients.push_back(std::move(*client));
  }
  vl::StatusOr<vserve::Server::SweepResult> full = server.Sweep("", false);
  Mutate(machine, 0, 0, spans);
  JournalProbe(machine, spans);
  vl::StatusOr<std::string> expected = oracle.Render(figure);
  for (size_t i = 0; i < clients.size(); ++i) {
    Request request;
    request.figure = figure.id;
    const uint64_t id = probe.next_request++;
    const Counters before = Counters::Of(debugger);
    const int64_t start = NowNs();
    vl::StatusOr<vserve::ServeResult> result = vl::InternalError("not run");
    {
      ScopedSpan span(&spans, i == 0 ? "Refresh" : "SubmitRefresh-Wait", figure.id, id);
      if (i == 0) {
        result = clients[i]->Refresh(1);
      } else {
        vl::StatusOr<vserve::Ticket> ticket = clients[i]->SubmitRefresh(1);
        result = ticket.ok() ? ticket->Wait() : vl::StatusOr<vserve::ServeResult>(ticket.status());
      }
    }
    request.host_ns = NowNs() - start;
    request.delta = Counters::Of(debugger) - before;
    request.transport_ns = request.delta.clock_ns;
    if (!result.ok()) {
      request.ok = false;
      ledger.Fail("probe refresh: " + result.status().ToString());
    } else {
      request.deduped = result->deduped;
      request.render = result->render;
    }
    CheckRender(request, expected, "probe refresh", ledger);
    Record(probe, ledger, request);
  }
  Mutate(machine, 1, 1, spans);
  {
    Request request;
    const uint64_t id = probe.next_request++;
    const Counters before = Counters::Of(debugger);
    const int64_t start = NowNs();
    vl::StatusOr<vserve::Server::SweepResult> sweep = vl::InternalError("not run");
    {
      ScopedSpan span(&spans, "Sweep", "incremental", id);
      sweep = server.Sweep("", true);
    }
    request.host_ns = NowNs() - start;
    request.delta = Counters::Of(debugger) - before;
    request.transport_ns = request.delta.clock_ns;
    if (!full.ok() || !sweep.ok() || full->violations() + sweep->violations() > 0) {
      request.ok = false;
      ledger.Fail("probe sweep failed or reported violations");
    } else {
      probe.rules_skipped += sweep->rules_skipped();
      probe.rules_total += analysis::CheckEngine::Catalog().size();
    }
    Record(probe, ledger, request);
  }
  CollectFlights(server, flights0, probe, ledger);
  probe.iterations = 1;
}

// ---------------------------------------------------------------------------
// cold_paint

// One debugger serves both passes, its latency model switched between them
// (as bench_table4 does). Every KernelDebugger writes its own state-string
// table into the arena, so a second debugger would read task states at other
// addresses, and fig3_4 and fig7_1 would fetch one more block on it: the
// GDB and KGDB rows would no longer describe the same reads.
struct ColdEnv {
  std::unique_ptr<Machine> machine;
  std::unique_ptr<Oracle> oracle;
  std::unique_ptr<dbg::KernelDebugger> debugger;  // constructed last (Tracer clock)
  std::map<std::string, vl::StatusOr<std::string>> expected;
};

// Paints the corpus on `env`'s debugger priced on `model`; `visit` sees each
// request.
template <typename Visit>
void PaintCorpus(ColdEnv& env, bool kgdb, bool tree, Phase& phase, Ledger& ledger, Visit visit) {
  env.debugger->target().set_model(kgdb ? Kgdb() : Gdb());
  for (const vision::FigureDef& figure : vision::AllFigures()) {
    visit(figure, PaintCold(*env.debugger, figure, kgdb, tree, phase, ledger));
  }
  env.debugger->target().set_model(Gdb());
}

std::unique_ptr<ColdEnv> SetupCold(uint64_t seed, SpanLog& spans, double* oracle_s,
                                   Ledger& ledger) {
  auto env = std::make_unique<ColdEnv>();
  env->machine = std::make_unique<Machine>(seed);
  *oracle_s += TimeSeconds([&] { env->oracle = std::make_unique<Oracle>(*env->machine); });
  env->debugger = Attach(*env->machine, Gdb());
  {
    vserve::Server server;
    (void)server.AddShard("attach", env->debugger.get());
    vl::StatusOr<vserve::Client> client =
        TimedConnect(server, *env->debugger, vserve::SessionOptions{}, spans);
    if (!client.ok()) {
      ledger.Internal("connect: " + client.status().ToString());
    }
  }
  *oracle_s += TimeSeconds([&] {
    for (const vision::FigureDef& figure : vision::AllFigures()) {
      env->expected.emplace(figure.id, env->oracle->Render(figure));
    }
  });
  // Warm-up: one unchecked pass per model, so the host's allocator and
  // caches are in steady state before the first timed paint.
  Phase warmup(false);
  Ledger unused;
  for (bool kgdb : {false, true}) {
    PaintCorpus(*env, kgdb, false, warmup, unused, [](const vision::FigureDef&, Request) {});
  }
  return env;
}

// One pass: the corpus on GDB, then on KGDB.
void ColdPass(ColdEnv& env, bool first, Phase& phase, Ledger& ledger, RunResult& result,
              std::map<std::string, bool>& figure_ok) {
  JournalProbe(*env.machine, phase.spans);
  for (bool kgdb : {false, true}) {
    PaintCorpus(env, kgdb, phase.traced && !kgdb, phase, ledger,
                [&](const vision::FigureDef& figure, Request request) {
                  phase.request_host_s[phase.env] += static_cast<double>(request.host_ns) / 1e9;
                  CheckRender(request, env.expected.at(figure.id),
                              std::string(kgdb ? "kgdb " : "gdb ") + figure.id, ledger);
                  auto [it, inserted] = figure_ok.emplace(figure.id, true);
                  it->second = it->second && request.ok;
                  if (first) {
                    const std::string model = kgdb ? "kgdb" : "gdb";
                    result.counts[model + ".round_trips." + figure.id] =
                        request.delta.round_trips();
                    result.counts[model + ".bytes." + figure.id] = request.delta.bytes;
                    result.counts[model + ".transport_ns"] += request.transport_ns;
                  }
                  Record(phase, ledger, request);
                });
  }
  phase.iterations++;
}

void RunCold(const RunOptions& options, double seconds, Phase& phase, Phase* probe,
             Ledger& ledger, RunResult& result) {
  const int64_t start = NowNs();
  std::map<std::string, bool> figure_ok;
  for (int e = 0; e < options.environments; ++e) {
    phase.env = e;
    std::unique_ptr<ColdEnv> env = TimedSetup<ColdEnv>(phase, [&](double* oracle_s) {
      return SetupCold(KernelSeed(options.seed, e), phase.spans, oracle_s, ledger);
    });
    const int64_t deadline = Deadline(start, seconds, e, options.environments);
    for (int pass = 0; Continue(options, pass, deadline); ++pass) {
      ColdPass(*env, e == 0 && pass == 0, phase, ledger, result, figure_ok);
    }
    phase.pages_scanned += env->debugger->target().dirty_stats().pages_scanned;
    phase.generations += env->machine->kernel->generation() - env->machine->generation0 + 1;
    if (probe != nullptr && e + 1 == options.environments) {
      CoverageProbe(*env->machine, *env->oracle, *env->debugger, *probe, ledger);
    }
  }
  for (const auto& [figure, ok] : figure_ok) {
    if (ok) {
      result.figures_ok.push_back(figure);
    }
  }
}

// ---------------------------------------------------------------------------
// step_dashboard

const char* const kDashboard[] = {"fig3_4", "fig7_1", "fig8_2", "fig12_3", "fig14_3", "fig15_1"};

struct Pane {
  int id = 0;
  const vision::FigureDef* figure = nullptr;
};

// Plots `figures` into a session's panes (splitting as needed) and applies
// each figure's objective.
vl::StatusOr<std::vector<Pane>> PlotPanes(vserve::Session* session,
                                          const std::vector<const char*>& figures,
                                          SpanLog& spans) {
  std::vector<Pane> panes;
  for (const char* id : figures) {
    Pane pane;
    pane.figure = vision::FindFigure(id);
    if (pane.figure == nullptr) {
      return vl::NotFoundError(std::string("no figure ") + id);
    }
    if (panes.empty()) {
      pane.id = 1;
    } else {
      VL_ASSIGN_OR_RETURN(pane.id, session->Split(panes.back().id, 'h'));
    }
    {
      ScopedSpan span(&spans, "Plot", id, 0);
      VL_ASSIGN_OR_RETURN(vserve::Session::PlotResult plotted,
                          session->Plot(pane.id, pane.figure->viewcl));
      (void)plotted;
    }
    if (const char* objective = ObjectiveFor(id)) {
      ScopedSpan span(&spans, "Apply", id, 0);
      VL_RETURN_IF_ERROR(session->Apply(pane.id, objective));
    }
    panes.push_back(pane);
  }
  return panes;
}

struct DashEnv {
  std::unique_ptr<Machine> machine;
  std::unique_ptr<Oracle> oracle;
  std::unique_ptr<dbg::KernelDebugger> gdb;
  std::unique_ptr<vserve::Server> server;
  std::optional<vserve::Client> client;  // destroyed before the server
  std::vector<Pane> panes;
};

std::unique_ptr<DashEnv> SetupDash(uint64_t seed, SpanLog& spans, double* oracle_s,
                                   Ledger& ledger) {
  auto env = std::make_unique<DashEnv>();
  env->machine = std::make_unique<Machine>(seed);
  *oracle_s += TimeSeconds([&] { env->oracle = std::make_unique<Oracle>(*env->machine); });
  env->gdb = Attach(*env->machine, Gdb());
  vserve::ServerConfig config;
  config.flight_records = kFlightRecords;
  env->server = std::make_unique<vserve::Server>(config);
  (void)env->server->AddShard("gdb", env->gdb.get());
  vl::StatusOr<vserve::Client> client =
      TimedConnect(*env->server, *env->gdb, vserve::SessionOptions{}, spans);
  if (!client.ok()) {
    ledger.Internal("connect: " + client.status().ToString());
    return env;
  }
  env->client.emplace(std::move(*client));
  vl::StatusOr<std::vector<Pane>> panes =
      PlotPanes(env->client->session(), {std::begin(kDashboard), std::end(kDashboard)}, spans);
  if (!panes.ok()) {
    ledger.Internal("plot: " + panes.status().ToString());
    return env;
  }
  env->panes = *panes;
  // Warm-up: every pane once, then one full sweep.
  for (const Pane& pane : env->panes) {
    ScopedSpan span(&spans, "Refresh", "warmup", 0);
    if (!(*env->client)->Refresh(pane.id).ok()) {
      ledger.Internal(std::string("warm-up refresh ") + pane.figure->id);
    }
  }
  ScopedSpan span(&spans, "Sweep", "full", 0);
  vl::StatusOr<vserve::Server::SweepResult> sweep = env->server->Sweep("", false);
  if (!sweep.ok() || sweep->violations() > 0) {
    ledger.Internal("warm-up sweep failed or reported violations");
  }
  return env;
}

// One step: mutate, refresh every pane, sweep, then check against the oracle.
void DashStep(DashEnv& env, int step, Phase& phase, Ledger& ledger, RunResult& result,
              std::map<std::string, bool>& figure_ok) {
  dbg::KernelDebugger& gdb = *env.gdb;
  const uint64_t bitmap = env.machine->bitmap_bytes();
  Mutate(*env.machine, step, step % vkern::kNrCpus, phase.spans);
  JournalProbe(*env.machine, phase.spans);

  std::vector<Request> step_requests;
  for (const Pane& pane : env.panes) {
    Request request;
    request.figure = pane.figure->id;
    const uint64_t id = phase.next_request++;
    const Counters before = Counters::Of(gdb);
    TreeScope trace(phase.traced);
    const int64_t t0 = NowNs();
    vl::StatusOr<vserve::ServeResult> served = vl::InternalError("not run");
    {
      ScopedSpan span(&phase.spans, "Refresh", pane.figure->id, id);
      served = (*env.client)->Refresh(pane.id);
    }
    request.host_ns = NowNs() - t0;
    request.delta = Counters::Of(gdb) - before;
    request.transport_ns = request.delta.clock_ns;
    request.tree_reconciled = trace.Reconciled(request.transport_ns);
    if (!served.ok()) {
      request.ok = false;
      ledger.Fail(std::string(pane.figure->id) + ": " + served.status().ToString());
    } else {
      request.render = std::move(served->render);
    }
    step_requests.push_back(std::move(request));
  }
  {
    Request request;
    const uint64_t id = phase.next_request++;
    const Counters before = Counters::Of(gdb);
    TreeScope trace(phase.traced);
    const int64_t t0 = NowNs();
    vl::StatusOr<vserve::Server::SweepResult> sweep = vl::InternalError("not run");
    {
      ScopedSpan span(&phase.spans, "Sweep", "incremental", id);
      sweep = env.server->Sweep("", true);
    }
    request.host_ns = NowNs() - t0;
    request.delta = Counters::Of(gdb) - before;
    request.transport_ns = request.delta.clock_ns;
    request.tree_reconciled = trace.Reconciled(request.transport_ns);
    if (!sweep.ok()) {
      request.ok = false;
      ledger.Fail("sweep: " + sweep.status().ToString());
    } else if (sweep->violations() > 0) {
      request.ok = false;
      ledger.Fail("sweep reported violations on the clean kernel");
    } else {
      phase.rules_skipped += sweep->rules_skipped();
      phase.rules_total += analysis::CheckEngine::Catalog().size();
    }
    step_requests.push_back(std::move(request));
  }

  // Oracle checks, outside every timed window.
  for (size_t i = 0; i < env.panes.size(); ++i) {
    const vision::FigureDef& figure = *env.panes[i].figure;
    CheckRender(step_requests[i], env.oracle->Render(figure),
                "step " + std::to_string(step) + " " + figure.id, ledger);
    auto [it, inserted] = figure_ok.emplace(figure.id, true);
    it->second = it->second && step_requests[i].ok;
  }
  for (Request& request : step_requests) {
    phase.request_host_s[phase.env] += static_cast<double>(request.host_ns) / 1e9;
    if (Price(request.delta, Gdb(), bitmap) != request.transport_ns) {
      ledger.Internal("transport identity does not hold for a request");
    }
    request.kgdb_transport_ns = Price(request.delta, Kgdb(), bitmap);
    result.counts["gdb.round_trips"] += request.delta.round_trips();
    result.counts["gdb.bytes"] += request.delta.bytes;
    result.counts["gdb.transport_ns"] += request.transport_ns;
    result.counts["kgdb.transport_ns"] += *request.kgdb_transport_ns;
    Record(phase, ledger, request);
  }
  phase.iterations++;
}

void RunDash(const RunOptions& options, double seconds, Phase& phase, Phase* probe,
             Ledger& ledger, RunResult& result) {
  const int64_t start = NowNs();
  std::map<std::string, bool> figure_ok;
  for (int e = 0; e < options.environments; ++e) {
    phase.env = e;
    std::unique_ptr<DashEnv> env = TimedSetup<DashEnv>(phase, [&](double* oracle_s) {
      return SetupDash(KernelSeed(options.seed, e), phase.spans, oracle_s, ledger);
    });
    if (!env->client.has_value() || env->panes.empty()) {
      return;
    }
    const size_t flights0 = env->server->flights().size();
    const int64_t deadline = Deadline(start, seconds, e, options.environments);
    for (int step = 0; Continue(options, step, deadline); ++step) {
      DashStep(*env, step, phase, ledger, result, figure_ok);
    }
    CollectFlights(*env->server, flights0, phase, ledger);
    const uint64_t pages = env->gdb->target().dirty_stats().pages_scanned;
    phase.pages_scanned += pages;
    phase.generations += env->machine->kernel->generation() - env->machine->generation0 + 1;
    if (e == 0) {
      result.counts["vkern.pages_scanned"] = pages;
    }
    if (probe != nullptr && e + 1 == options.environments) {
      CoverageProbe(*env->machine, *env->oracle, *env->gdb, *probe, ledger);
    }
  }
  for (const auto& [figure, ok] : figure_ok) {
    if (ok) {
      result.figures_ok.push_back(figure);
    }
  }
}

// ---------------------------------------------------------------------------
// fleet_serve

struct FleetShard {
  std::string name;
  std::unique_ptr<Machine> machine;
  std::unique_ptr<Oracle> oracle;
  std::unique_ptr<dbg::KernelDebugger> gdb;
};

struct FleetSession {
  size_t shard = 0;
  std::optional<vserve::Client> client;
  std::vector<Pane> panes;
};

struct FleetEnv {
  std::vector<FleetShard> shards;
  std::unique_ptr<vserve::Server> server;
  std::vector<FleetSession> sessions;  // destroyed before the server
};

// Session layout: per shard, both sessions plot fig3_4 and fig16_2; one adds
// fig8_4 and the other socketconn. Client thread 0 drives sessions 0 and 3,
// thread 1 drives 1 and 2 — one session on each shard per thread.
struct SessionSpec {
  size_t shard;
  const char* extra;
};
constexpr SessionSpec kFleetSessions[] = {{0, "fig8_4"}, {0, "socketconn"},
                                          {1, "fig8_4"}, {1, "socketconn"}};
constexpr size_t kClientSessions[2][2] = {{0, 3}, {1, 2}};

std::unique_ptr<FleetEnv> SetupFleet(uint64_t seed, SpanLog& spans, double* oracle_s,
                                     Ledger& ledger) {
  auto env = std::make_unique<FleetEnv>();
  env->shards.resize(2);
  for (size_t i = 0; i < env->shards.size(); ++i) {
    FleetShard& shard = env->shards[i];
    shard.name = "s" + std::to_string(i);
    shard.machine = std::make_unique<Machine>(seed + i);
    *oracle_s += TimeSeconds([&] { shard.oracle = std::make_unique<Oracle>(*shard.machine); });
  }
  for (FleetShard& shard : env->shards) {
    shard.gdb = Attach(*shard.machine, Gdb());
  }
  vserve::ServerConfig config;
  config.workers = 2;
  config.flight_records = kFlightRecords;
  env->server = std::make_unique<vserve::Server>(config);
  for (FleetShard& shard : env->shards) {
    (void)env->server->AddShard(shard.name, shard.gdb.get());
  }
  for (const SessionSpec& spec : kFleetSessions) {
    FleetSession session;
    session.shard = spec.shard;
    vserve::SessionOptions options;
    options.shard = env->shards[spec.shard].name;
    vl::StatusOr<vserve::Client> client =
        TimedConnect(*env->server, *env->shards[spec.shard].gdb, options, spans);
    if (!client.ok()) {
      ledger.Internal("connect: " + client.status().ToString());
      return env;
    }
    session.client.emplace(std::move(*client));
    vl::StatusOr<std::vector<Pane>> panes =
        PlotPanes(session.client->session(), {"fig3_4", "fig16_2", spec.extra}, spans);
    if (!panes.ok()) {
      ledger.Internal("plot: " + panes.status().ToString());
      return env;
    }
    session.panes = *panes;
    env->sessions.push_back(std::move(session));
  }
  // Single-threaded warm-up round per shard: one mutation, then a synchronous
  // refresh of every pane. Every counter family the refresh path creates in
  // the global MetricsRegistry exists before two workers touch it.
  for (size_t s = 0; s < env->shards.size(); ++s) {
    Mutate(*env->shards[s].machine, 0, 0, spans);
    for (FleetSession& session : env->sessions) {
      if (session.shard != s) {
        continue;
      }
      for (const Pane& pane : session.panes) {
        ScopedSpan span(&spans, "Refresh", "warmup", 0);
        if (!(*session.client)->Refresh(pane.id).ok()) {
          ledger.Internal(std::string("warm-up refresh ") + pane.figure->id);
        }
      }
    }
  }
  return env;
}

// One client thread's closed loop over its two sessions for one round.
void FleetClient(FleetEnv& env, size_t thread, uint64_t first_id, std::vector<Request>* out,
                 SpanLog* spans) {
  uint64_t id = first_id;
  for (size_t pane = 0; pane < 3; ++pane) {
    for (size_t s : kClientSessions[thread]) {
      FleetSession& session = env.sessions[s];
      const Pane& target = session.panes[pane];
      Request request;
      request.figure = target.figure->id;
      request.shard = session.shard;
      const int64_t t0 = NowNs();
      vl::StatusOr<vserve::ServeResult> served = vl::InternalError("not run");
      {
        ScopedSpan span(spans, "SubmitRefresh-Wait", target.figure->id, id++);
        vl::StatusOr<vserve::Ticket> ticket = (*session.client)->SubmitRefresh(target.id);
        served = ticket.ok() ? ticket->Wait() : vl::StatusOr<vserve::ServeResult>(ticket.status());
      }
      request.host_ns = NowNs() - t0;
      if (!served.ok()) {
        request.ok = false;
        request.render = served.status().ToString();  // reported after the round
      } else {
        request.transport_ns = served->refresh_ns;
        request.deduped = served->deduped;
        request.render = std::move(served->render);
      }
      out->push_back(std::move(request));
    }
  }
}

// One round: mutate, let both client threads refresh every pane once, then
// check every result against the oracle.
void FleetRound(FleetEnv& env, int round, Phase& phase, Ledger& ledger,
                std::map<std::string, bool>& figure_ok) {
  const size_t mutated = static_cast<size_t>(round % 2);
  if (round % kMutationStepEvery == kMutationStepEvery - 1) {
    for (FleetShard& shard : env.shards) {
      Mutate(*shard.machine, round, 0, phase.spans);
    }
  } else {
    Mutate(*env.shards[mutated].machine, round, (round / 2) % vkern::kNrCpus, phase.spans);
  }
  JournalProbe(*env.shards[mutated].machine, phase.spans);

  std::vector<Counters> before;
  for (FleetShard& shard : env.shards) {
    before.push_back(Counters::Of(*shard.gdb));
  }
  std::vector<Request> per_thread[2];
  SpanLog thread_spans[2] = {SpanLog(phase.traced), SpanLog(phase.traced)};
  const uint64_t first_id = phase.next_request;
  phase.next_request += 2 * 6;
  const int64_t t0 = NowNs();
  {
    std::thread clients[2];
    for (size_t t = 0; t < 2; ++t) {
      clients[t] = std::thread(FleetClient, std::ref(env), t, first_id + 6 * t,
                               &per_thread[t], &thread_spans[t]);
    }
    for (std::thread& client : clients) {
      client.join();
    }
  }
  phase.request_host_s[phase.env] += static_cast<double>(NowNs() - t0) / 1e9;
  env.server->Drain();
  for (SpanLog& spans : thread_spans) {
    phase.spans.Append(spans);
  }

  // Per shard: the round's transport counts, and its KGDB price split
  // across the round's executed requests in proportion to their GDB
  // charges (concurrent requests on one shard share its counters).
  std::vector<double> kgdb_per_gdb_ns(env.shards.size(), 0);
  std::vector<uint64_t> served_ns(env.shards.size(), 0);
  for (auto& requests : per_thread) {
    for (const Request& request : requests) {
      served_ns[request.shard] += request.transport_ns;
    }
  }
  for (size_t s = 0; s < env.shards.size(); ++s) {
    const Counters delta = Counters::Of(*env.shards[s].gdb) - before[s];
    const uint64_t bitmap = env.shards[s].machine->bitmap_bytes();
    if (Price(delta, Gdb(), bitmap) != delta.clock_ns || delta.clock_ns != served_ns[s]) {
      ledger.Internal("shard charge does not match its requests' charges");
    }
    if (delta.clock_ns > 0) {
      kgdb_per_gdb_ns[s] = static_cast<double>(Price(delta, Kgdb(), bitmap)) /
                           static_cast<double>(delta.clock_ns);
    }
    phase.totals += delta;
  }

  // Oracle checks, outside every timed window.
  std::map<std::pair<size_t, std::string>, vl::StatusOr<std::string>> expected;
  for (auto& requests : per_thread) {
    for (Request& request : requests) {
      if (!request.ok) {
        ledger.Fail(request.figure + ": " + request.render);
      }
      auto key = std::make_pair(request.shard, request.figure);
      auto it = expected.find(key);
      if (it == expected.end()) {
        it = expected
                 .emplace(key, env.shards[request.shard].oracle->Render(
                                   *vision::FindFigure(request.figure)))
                 .first;
      }
      CheckRender(request, it->second,
                  "round " + std::to_string(round) + " " + env.shards[request.shard].name +
                      " " + request.figure,
                  ledger);
      auto [ok_it, inserted] = figure_ok.emplace(request.figure, true);
      ok_it->second = ok_it->second && request.ok;
      request.kgdb_transport_ns = static_cast<uint64_t>(
          static_cast<double>(request.transport_ns) * kgdb_per_gdb_ns[request.shard] + 0.5);
      Record(phase, ledger, request);
    }
  }
  phase.iterations++;
}

void RunFleet(const RunOptions& options, double seconds, Phase& phase, Phase* probe,
              Ledger& ledger, RunResult& result) {
  const int64_t start = NowNs();
  std::map<std::string, bool> figure_ok;
  for (int e = 0; e < options.environments; ++e) {
    phase.env = e;
    std::unique_ptr<FleetEnv> env = TimedSetup<FleetEnv>(phase, [&](double* oracle_s) {
      return SetupFleet(KernelSeed(options.seed, e), phase.spans, oracle_s, ledger);
    });
    if (env->sessions.size() != std::size(kFleetSessions)) {
      return;
    }
    const size_t flights0 = env->server->flights().size();
    const int64_t deadline = Deadline(start, seconds, e, options.environments);
    for (int round = 0; Continue(options, round, deadline); ++round) {
      FleetRound(*env, round, phase, ledger, figure_ok);
    }
    if (!CollectFlights(*env->server, flights0, phase, ledger)) {
      ledger.Fail("a fleet shard does not reconcile its charges");
    }
    for (FleetShard& shard : env->shards) {
      phase.pages_scanned += shard.gdb->target().dirty_stats().pages_scanned;
      phase.generations += shard.machine->kernel->generation() - shard.machine->generation0 + 1;
    }
    if (probe != nullptr && e + 1 == options.environments) {
      FleetShard& last = env->shards.back();
      CoverageProbe(*last.machine, *last.oracle, *last.gdb, *probe, ledger);
    }
  }
  for (const auto& [figure, ok] : figure_ok) {
    if (ok) {
      result.figures_ok.push_back(figure);
    }
  }
}

// ---------------------------------------------------------------------------
// Metrics

using Layers = std::map<std::string, std::optional<double>>;

std::optional<double> Ratio(double num, double den) {
  if (den <= 0) {
    return std::nullopt;
  }
  return num / den;
}

// The per-layer split of one phase. Metrics the phase has no sample for are
// nullopt.
Layers ComputeLayers(const Phase& p) {
  Layers out;
  const std::vector<Span>& spans = p.spans.spans();
  auto durations = [&](const std::string& name, auto pred) {
    std::vector<double> v;
    for (const Span& s : spans) {
      if (s.name == name && pred(s)) {
        v.push_back(s.ms());
      }
    }
    return v;
  };
  auto any = [](const Span&) { return true; };
  auto in_paint = [&](const Span& s) { return p.spans.ParentName(s) == "paint"; };

  std::vector<double> mutate = durations("TickCpu", any);
  for (double v : durations("Step", any)) {
    mutate.push_back(v);
  }

  uint64_t gdb_requests = 0;
  std::vector<double> transport;
  std::vector<double> dedup_hits;
  std::vector<double> sweep_transport;
  for (const Sample& s : p.samples) {
    if (s.kgdb) {
      continue;
    }
    gdb_requests++;
    transport.push_back(static_cast<double>(s.transport_ns) / 1e6);
    if (s.deduped) {
      dedup_hits.push_back(static_cast<double>(s.host_ns) / 1e6);
    }
    if (*s.figure == '\0') {
      sweep_transport.push_back(static_cast<double>(s.transport_ns) / 1e6);
    }
  }
  // Per-request counts are over every GDB request, sweeps included: a sweep
  // reads through the same cache and transport as a refresh.
  const Counters& t = p.totals;
  const double n = static_cast<double>(gdb_requests);
  const double iterations = static_cast<double>(p.iterations);

  out["vkern.pages_hashed"] =
      Ratio(static_cast<double>(p.pages_scanned), static_cast<double>(p.generations));
  out["vkern.journal_scan_ms"] = Median(durations("PageJournal.scan", any));
  out["vkern.mutate_ms"] = Median(mutate);

  out["dbg.transport_ms"] = Mean(transport);
  out["dbg.round_trips"] = Ratio(static_cast<double>(t.round_trips()), n);
  out["dbg.bytes"] = Ratio(static_cast<double>(t.bytes), n);
  out["dbg.batched_share"] = Ratio(static_cast<double>(t.vector_blocks),
                                   static_cast<double>(t.vector_blocks + t.block_fetches));
  out["dbg.overfetch_ratio"] =
      Ratio(static_cast<double>(t.fetched_bytes), static_cast<double>(t.miss_bytes));
  out["dbg.cache_hit_ratio"] = Ratio(static_cast<double>(t.hit_bytes),
                                     static_cast<double>(t.hit_bytes + t.miss_bytes));
  out["dbg.dirty_queries"] = Ratio(static_cast<double>(t.dirty_queries), iterations);
  out["dbg.dirty_ms"] = Ratio(static_cast<double>(t.dirty_ns) / 1e6, iterations);
  out["dbg.delta_evicted_kb"] =
      Ratio(static_cast<double>(t.delta_evicted_bytes) / 1024.0, iterations);
  if (gdb_requests > 0) {
    out["dbg.full_flushes"] = static_cast<double>(t.full_flushes);
    out["dbg.evictions"] = static_cast<double>(t.evictions);
  }

  out["viewcl.plot_ms"] = Mean(durations("Plot", in_paint));
  out["viewql.apply_ms"] = Mean(durations("Apply", in_paint));
  out["viewql.transport_ms"] = Mean(p.viewql_ms);
  out["vision.render_ms"] = Mean(durations("Render", in_paint));
  for (const vision::FigureDef& figure : vision::AllFigures()) {
    const std::string id = figure.id;
    auto of_figure = [&](const Span& s) { return in_paint(s) && s.tag == id; };
    out["viewcl.plot_ms." + id] = Median(durations("Plot", of_figure));
    // The figure's first cold paint on GDB: its round trips and bytes do not
    // depend on the pass (fresh serving state, unchanged kernel).
    auto first = p.first_paint.find(id);
    if (first != p.first_paint.end()) {
      out["dbg.round_trips." + id] = static_cast<double>(first->second.first);
      out["dbg.bytes." + id] = static_cast<double>(first->second.second);
    }
  }

  uint64_t executed = 0;
  uint64_t memo = 0;
  uint64_t reused = 0;
  uint64_t dedup = 0;
  std::vector<double> queue_ms;
  std::vector<double> service_ms;
  for (const vserve::FlightRecord& f : p.flights) {
    if (f.outcome == vserve::FlightOutcome::kAdmissionRejected) {
      continue;
    }
    queue_ms.push_back(static_cast<double>(f.queue_ns()) / 1e6);
    if (f.outcome == vserve::FlightOutcome::kDedupHit) {
      dedup++;
      continue;
    }
    executed++;
    service_ms.push_back(static_cast<double>(f.service_ns) / 1e6);
    memo += f.outcome == vserve::FlightOutcome::kMemoReplay ? 1 : 0;
    reused += f.outcome == vserve::FlightOutcome::kRenderReused ? 1 : 0;
  }
  out["viewcl.memo_replay_share"] =
      Ratio(static_cast<double>(memo), static_cast<double>(executed));
  out["vision.render_reuse_share"] =
      Ratio(static_cast<double>(reused), static_cast<double>(executed));
  out["serve.dedup_share"] =
      Ratio(static_cast<double>(dedup), static_cast<double>(executed + dedup));
  out["serve.queue_ms_p95"] = Percentile(queue_ms, 0.95);
  out["serve.service_ms_p50"] = Median(service_ms);
  out["serve.connect_ms"] =
      Mean(durations("Connect", [](const Span& s) { return s.tag == "baseline"; }));
  out["serve.refresh_ms"] =
      Mean(durations("Refresh", [](const Span& s) { return s.tag != "warmup"; }));
  out["serve.dedup_hit_ms"] = Median(dedup_hits);
  if (p.reconciled.has_value()) {
    out["serve.reconciled"] = *p.reconciled ? 1.0 : 0.0;
  }

  out["analysis.sweep_ms"] =
      Mean(durations("Sweep", [](const Span& s) { return s.tag == "incremental"; }));
  out["analysis.sweep_transport_ms"] = Mean(sweep_transport);
  out["analysis.rules_skipped_share"] =
      Ratio(static_cast<double>(p.rules_skipped), static_cast<double>(p.rules_total));

  out["support.tree_reconciled"] =
      Ratio(static_cast<double>(p.tree_ok), static_cast<double>(p.tree_checked));
  return out;
}

// Every metric the benchmark reports, with its unit: the end-to-end set of an
// untraced run and the per-layer set of a traced run (BENCHMARK.json lists
// the same names). "vms" is milliseconds on the virtual transport clock.
std::vector<std::pair<std::string, std::string>> EndToEndUnits() {
  return {{"gdb_latency_ms_p50", "ms"},  {"gdb_latency_ms_p95", "ms"},
          {"gdb_latency_ms_mean", "ms"}, {"kgdb_latency_ms_p50", "ms"},
          {"kgdb_latency_ms_p95", "ms"}, {"kgdb_latency_ms_mean", "ms"},
          {"throughput_rps", "req/s"},   {"success_ratio", "ratio"},
          {"setup_s", "s"},              {"rss_mb", "MiB"}};
}

std::vector<std::pair<std::string, std::string>> PerLayerUnits() {
  std::vector<std::pair<std::string, std::string>> units = {
      {"vkern.pages_hashed", "pages"},
      {"vkern.journal_scan_ms", "ms"},
      {"vkern.mutate_ms", "ms"},
      {"dbg.transport_ms", "vms"},
      {"dbg.round_trips", "count"},
      {"dbg.bytes", "B"},
      {"dbg.batched_share", "ratio"},
      {"dbg.overfetch_ratio", "ratio"},
      {"dbg.cache_hit_ratio", "ratio"},
      {"dbg.dirty_queries", "count"},
      {"dbg.dirty_ms", "vms"},
      {"dbg.delta_evicted_kb", "KiB"},
      {"dbg.full_flushes", "count"},
      {"dbg.evictions", "count"},
      {"viewcl.plot_ms", "ms"},
      {"viewcl.memo_replay_share", "ratio"},
      {"viewql.apply_ms", "ms"},
      {"viewql.transport_ms", "vms"},
      {"vision.render_ms", "ms"},
      {"vision.render_reuse_share", "ratio"},
      {"serve.connect_ms", "ms"},
      {"serve.refresh_ms", "ms"},
      {"serve.dedup_share", "ratio"},
      {"serve.dedup_hit_ms", "ms"},
      {"serve.queue_ms_p95", "vms"},
      {"serve.service_ms_p50", "vms"},
      {"serve.reconciled", "flag"},
      {"analysis.sweep_ms", "ms"},
      {"analysis.sweep_transport_ms", "vms"},
      {"analysis.rules_skipped_share", "ratio"},
      {"support.trace_overhead", "ratio"},
      {"support.tree_reconciled", "ratio"},
  };
  for (const vision::FigureDef& figure : vision::AllFigures()) {
    const std::string id = figure.id;
    units.emplace_back("dbg.round_trips." + id, "count");
    units.emplace_back("dbg.bytes." + id, "B");
    units.emplace_back("viewcl.plot_ms." + id, "ms");
  }
  return units;
}

// A value the JSON line can carry: failed requests make a percentile
// infinite, which prints as the largest double.
double Finite(double v) { return std::isfinite(v) ? v : std::numeric_limits<double>::max(); }

// Latency and throughput statistics are computed per environment (one
// kernel) and the run reports their interquartile mean across environments:
// the mean of the middle half. A percentile of a fixed figure corpus sits on
// the boundary between two figures' costs, and which figure is where depends
// on the kernel; averaging over kernels smooths that, and dropping the
// outer quarters keeps one kernel hit by a host hiccup from moving it.
std::map<std::string, std::optional<double>> EndToEnd(const Phase& p, const Ledger& ledger) {
  struct EnvLatencies {
    std::vector<double> gdb;  // failed requests enter as +infinity
    std::vector<double> gdb_ok;
    std::vector<double> kgdb;
    std::vector<double> kgdb_ok;
    uint64_t completed = 0;
  };
  std::map<int, EnvLatencies> by_env;
  for (const Sample& r : p.samples) {
    EnvLatencies& s = by_env[r.env];
    s.completed += r.ok ? 1 : 0;
    auto add = [&r](std::vector<double>& all, std::vector<double>& ok, uint64_t transport_ns) {
      const double ms = static_cast<double>(transport_ns + static_cast<uint64_t>(r.host_ns)) / 1e6;
      all.push_back(r.ok ? ms : kInf);
      if (r.ok) {
        ok.push_back(ms);
      }
    };
    if (r.kgdb) {
      add(s.kgdb, s.kgdb_ok, r.transport_ns);
      continue;
    }
    add(s.gdb, s.gdb_ok, r.transport_ns);
    if (r.kgdb_transport_ns.has_value()) {
      add(s.kgdb, s.kgdb_ok, *r.kgdb_transport_ns);
    }
  }
  // Interquartile mean across environments of `stat` on each one's samples.
  auto across = [&by_env](auto stat) {
    std::vector<double> values;
    for (const auto& [env, samples] : by_env) {
      if (std::optional<double> v = stat(samples)) {
        values.push_back(*v);
      }
    }
    return InterquartileMean(values);
  };
  std::map<std::string, std::optional<double>> out;
  out["gdb_latency_ms_p50"] = across([](const EnvLatencies& s) { return Median(s.gdb); });
  out["gdb_latency_ms_p95"] = across([](const EnvLatencies& s) { return Percentile(s.gdb, 0.95); });
  out["gdb_latency_ms_mean"] = across([](const EnvLatencies& s) { return Mean(s.gdb_ok); });
  out["kgdb_latency_ms_p50"] = across([](const EnvLatencies& s) { return Median(s.kgdb); });
  out["kgdb_latency_ms_p95"] = across([](const EnvLatencies& s) { return Percentile(s.kgdb, 0.95); });
  out["kgdb_latency_ms_mean"] = across([](const EnvLatencies& s) { return Mean(s.kgdb_ok); });
  std::vector<double> throughput;
  for (const auto& [env, samples] : by_env) {
    auto host_s = p.request_host_s.find(env);
    if (host_s != p.request_host_s.end() && host_s->second > 0) {
      throughput.push_back(static_cast<double>(samples.completed) / host_s->second);
    }
  }
  out["throughput_rps"] = InterquartileMean(throughput);
  if (ledger.attempted > 0) {
    out["success_ratio"] = 1.0 - static_cast<double>(std::min(ledger.failed, ledger.attempted)) /
                                     static_cast<double>(ledger.attempted);
  }
  out["setup_s"] = Median(p.setup_s);
  out["rss_mb"] = PeakRssMiB();
  return out;
}

std::optional<double> MeanRequestHostMs(const Phase& p) {
  std::vector<double> host;
  for (const Sample& s : p.samples) {
    host.push_back(static_cast<double>(s.host_ns) / 1e6);
  }
  return Mean(host);
}

using WorkloadFn = void (*)(const RunOptions&, double, Phase&, Phase*, Ledger&, RunResult&);

// Kernels per run when the caller does not choose. cold_paint's tail
// percentiles sit on a boundary between two figures, so it averages over
// more kernels; the others are dominated by per-step host work.
int DefaultEnvironments(const std::string& name) { return name == "cold_paint" ? 32 : 12; }

WorkloadFn FindWorkload(const std::string& name) {
  if (name == "cold_paint") {
    return RunCold;
  }
  if (name == "step_dashboard") {
    return RunDash;
  }
  if (name == "fleet_serve") {
    return RunFleet;
  }
  return nullptr;
}

void WriteSpans(const RunOptions& options, const Phase& traced, const Phase& probe) {
  if (options.trace_path.empty()) {
    return;
  }
  vl::Json root = vl::Json::Object();
  root["workload"] = vl::Json::Str(options.workload);
  root["seed"] = vl::Json::Int(static_cast<int64_t>(options.seed));
  root["clock"] = vl::Json::Str("host steady_clock, ns");
  root["spans"] = traced.spans.ToJson();
  root["probe_spans"] = probe.spans.ToJson();
  vl::Json requests = vl::Json::Array();
  for (const Sample& r : traced.samples) {
    vl::Json j = vl::Json::Object();
    j["env"] = vl::Json::Int(r.env);
    j["figure"] = vl::Json::Str(r.figure);
    j["kgdb"] = vl::Json::Bool(r.kgdb);
    j["shard"] = vl::Json::Int(static_cast<int64_t>(r.shard));
    j["ok"] = vl::Json::Bool(r.ok);
    j["deduped"] = vl::Json::Bool(r.deduped);
    j["host_ns"] = vl::Json::Int(r.host_ns);
    j["transport_ns"] = vl::Json::Int(static_cast<int64_t>(r.transport_ns));
    requests.Append(std::move(j));
  }
  root["requests"] = std::move(requests);
  std::ofstream out(options.trace_path);
  out << root.Dump(1) << "\n";
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"cold_paint", "step_dashboard", "fleet_serve"};
  return names;
}

RunResult Run(const RunOptions& options) {
  RunResult result;
  WorkloadFn workload = FindWorkload(options.workload);
  if (workload == nullptr) {
    result.correct = false;
    result.errors.push_back("unknown workload '" + options.workload + "'");
    return result;
  }
  if (options.seconds <= 0 && options.max_iterations <= 0) {
    result.correct = false;
    result.errors.push_back("no run length: set seconds or max_iterations");
    return result;
  }
  RunOptions run = options;
  if (run.environments <= 0) {
    run.environments = DefaultEnvironments(run.workload);
  }
  Ledger ledger;
  std::map<std::string, std::optional<double>> values;
  std::vector<std::pair<std::string, std::string>> units;
  if (!options.trace) {
    Phase phase(false);
    workload(run, run.seconds, phase, nullptr, ledger, result);
    values = EndToEnd(phase, ledger);
    units = EndToEndUnits();
  } else {
    // The untraced half is the trace-overhead baseline; the traced half and
    // the coverage probe give the per-layer split.
    Phase base(false);
    Phase traced(true);
    Phase probe(true);
    // Each half runs on a quarter of the kernels: the per-layer split is not
    // gated, and a half-length run cannot afford every set-up.
    RunResult scratch;
    run.environments = std::max(1, run.environments / 4);
    workload(run, run.seconds / 2, base, nullptr, ledger, result);
    workload(run, run.seconds / 2, traced, &probe, ledger, scratch);
    Layers native = ComputeLayers(traced);
    Layers fallback = ComputeLayers(probe);
    std::optional<double> traced_ms = MeanRequestHostMs(traced);
    std::optional<double> base_ms = MeanRequestHostMs(base);
    if (traced_ms.has_value() && base_ms.has_value()) {
      native["support.trace_overhead"] = Ratio(*traced_ms, *base_ms);
    }
    units = PerLayerUnits();
    for (const auto& [name, unit] : units) {
      std::optional<double> v = native[name];
      values[name] = v.has_value() ? v : fallback[name];
    }
    WriteSpans(options, traced, probe);
  }
  for (const auto& [name, unit] : units) {
    const std::optional<double>& v = values[name];
    if (!v.has_value()) {
      ledger.Internal("no sample for metric " + name);
      continue;
    }
    result.metrics[name] = Metric{Finite(*v), unit};
  }
  result.attempted = ledger.attempted;
  result.failed = ledger.failed;
  result.correct = ledger.failed == 0 && !ledger.internal_error;
  result.internal_error = ledger.internal_error;
  result.errors = ledger.errors;
  return result;
}

}  // namespace vbench
