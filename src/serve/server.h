// vserve: the multi-session serving layer (the PR's tentpole).
//
// A Server fronts a fleet of simulated kernels ("shards"). Each shard is one
// dbg::KernelDebugger — its ReadSession block cache, its per-program ViewCL
// engines (with their memo snapshots), and its refresh result cache are
// SHARED by every session attached to the shard, so overlapping clients reuse
// each other's work. Sessions are the per-client view: a private PaneManager
// (layout, ViewQL refinements, render digests), private vexplain side-cars
// (TimeSeriesRecorder + BudgetRegistry), and private accounting of what the
// client was actually charged on the virtual clock.
//
// Request flow for Refresh:
//   1. admission — a session over its latency budget is rejected with
//      RESOURCE_EXHAUSTED (and the violation recorded for vexplain);
//   2. dedup — with coalescing on, the shard result cache is consulted for an
//      identical (program+history, epoch, backend) refresh; a hit is served
//      with zero charge;
//   3. extraction — otherwise the refresh runs under the shard lock through
//      PaneManager::RefreshPane (so a concurrent duplicate blocks, and finds
//      the freshly inserted result on the re-check — that is the coalescing).
//
// SubmitRefresh is the async path: requests queue FIFO and a worker pool
// (ServerConfig::workers) drains them, never running two requests of the same
// session concurrently (per-session FIFO order is preserved; results carry a
// server-wide completion sequence). With workers == 0 the server runs inline:
// SubmitRefresh executes on the calling thread unless the server is Paused,
// in which case requests queue until Resume()/Drain().
//
// Threading contract: Refresh/SubmitRefresh/Wait are safe from any thread.
// Everything else — pane surgery (Plot/Apply/Split), kernel mutation,
// Connect/shard management, stats snapshots — is control-plane and must not
// overlap in-flight refreshes of the affected shard (call Drain() first).
// The global Tracer is single-threaded; keep tracing off while multiple
// workers serve budget-armed sessions on different shards.

#ifndef SRC_SERVE_SERVER_H_
#define SRC_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/analysis/check.h"
#include "src/dbg/kernel_introspect.h"
#include "src/serve/flight.h"
#include "src/serve/options.h"
#include "src/serve/result_cache.h"
#include "src/support/budget.h"
#include "src/support/status.h"
#include "src/support/timeseries.h"
#include "src/viewcl/interp.h"
#include "src/vision/panes.h"
#include "src/vision/render.h"
#include "src/vkern/kernel.h"
#include "src/vkern/workload.h"

namespace vserve {

class Server;
class Session;

namespace internal {
struct Shard;  // one simulated kernel + everything its sessions share
}  // namespace internal

struct ServerConfig {
  // Async refresh workers; 0 = inline execution on the submitting thread.
  size_t workers = 0;
  // Flight-recorder ring capacity (completed per-request records retained).
  // The recorder starts on; Server::flights().Disable() turns all stamping
  // off (one relaxed-atomic check on the data path remains; see
  // bench_micro's overhead guard).
  size_t flight_records = 512;
};

// Handle to an async refresh submitted with Session::SubmitRefresh.
class Ticket {
 public:
  Ticket() = default;
  bool valid() const { return state_ != nullptr; }
  bool done() const;
  // Blocks until the refresh completes (or the server/session shuts down,
  // which fails pending tickets). Safe to call repeatedly.
  vl::StatusOr<ServeResult> Wait() const;

 private:
  friend class Server;
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<vl::StatusOr<ServeResult>> result;
  };
  std::shared_ptr<State> state_;
};

// One client's attachment to a shard: the unified vserve entry point
// (attach -> plot -> refresh -> render). Created only via Server::Connect.
class Session {
 public:
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  int id() const { return id_; }
  const SessionOptions& options() const { return options_; }
  const std::string& shard_name() const;
  Server* server() const { return server_; }

  // --- figure lifecycle (control-plane) ---
  struct PlotResult {
    size_t boxes = 0;
    std::vector<std::string> warnings;
  };
  // Extracts `program` through the shard engine (or this session's private
  // engine, per options) and installs the graph into `pane`.
  vl::StatusOr<PlotResult> Plot(int pane, const std::string& program);
  // Applies a ViewQL refinement to the pane (recorded; replayed on refresh).
  // What it reads is control-plane work, charged like a Plot.
  vl::Status Apply(int pane, std::string_view viewql);
  vl::StatusOr<int> Split(int pane, char direction);
  // Renders the pane's current graph without refreshing.
  std::string Render(int pane, const vision::RenderOptions& options = {},
                     std::string_view backend = "ascii");

  // --- refresh (data-plane) ---
  // Synchronous refresh: admission -> dedup -> extraction (see file header).
  vl::StatusOr<ServeResult> Refresh(int pane, const std::string& backend = "ascii",
                                    const vision::RenderOptions& options = {});
  // Async refresh via the scheduler. Rejects with RESOURCE_EXHAUSTED once
  // this session has options().max_queued requests pending.
  vl::StatusOr<Ticket> SubmitRefresh(int pane, const std::string& backend = "ascii",
                                     const vision::RenderOptions& options = {});

  // --- escape hatches for the shell & tools ---
  // Runs a ViewCL program through this session's engine without touching any
  // pane (the vprof path). Appends engine warnings to `warnings` if non-null.
  vl::StatusOr<std::unique_ptr<viewcl::ViewGraph>> RunProgram(
      const std::string& program, std::vector<std::string>* warnings = nullptr);
  // Replot function wired to this session's engine, for direct PaneManager
  // calls (session load, `vctrl explain`). Takes the shard lock per call —
  // never use it inside a refresh already holding the shard.
  vision::PaneManager::ReplotFn MakeReplotFn();

  // Never null: AddShard rejects a null debugger and BootShard owns one.
  dbg::KernelDebugger* debugger() const { return debugger_; }
  vision::PaneManager& panes() { return panes_; }
  vl::TimeSeriesRecorder& recorder() { return recorder_; }
  vl::BudgetRegistry& budgets() { return budgets_; }

  // Virtual nanoseconds this session was actually charged (deduped refreshes
  // charge nothing — that is the point).
  uint64_t charged_ns() const { return charged_ns_.load(std::memory_order_relaxed); }
  uint64_t requests() const { return requests_.load(std::memory_order_relaxed); }
  uint64_t executed() const { return executed_.load(std::memory_order_relaxed); }
  uint64_t deduped() const { return deduped_.load(std::memory_order_relaxed); }
  uint64_t rejected() const { return rejected_.load(std::memory_order_relaxed); }
  vl::Json StatsToJson() const;

 private:
  friend class Server;

  Session(Server* server, internal::Shard* shard, SessionOptions options, int id);

  Server* server_;
  internal::Shard* shard_;
  SessionOptions options_;
  int id_;
  dbg::KernelDebugger* debugger_;

  vl::TimeSeriesRecorder recorder_;
  vl::BudgetRegistry budgets_;
  vision::PaneManager panes_;
  // Engine warnings from the most recent replot through this session.
  std::vector<std::string> last_warnings_;
  // Memo replays observed by the most recent replot (guarded by the shard
  // lock, like the replot itself) — distinguishes memo-replay flights from
  // cold ones.
  uint64_t last_memo_replays_ = 0;

  // Stats. Writers are serialized (shard lock / server lock); readers are
  // any thread, hence relaxed atomics with single-writer load+store updates.
  std::atomic<uint64_t> charged_ns_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> deduped_{0};
  std::atomic<uint64_t> rejected_{0};

  // Scheduler state, guarded by the server mutex.
  size_t queued_ = 0;
  bool in_flight_ = false;
};

// Owning handle to a Session, returned by Server::Connect. Movable; the
// session disconnects (failing its queued work, waiting out its in-flight
// request) when the handle goes away.
class Client {
 public:
  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  Session* session() { return session_.get(); }
  Session* operator->() { return session_.get(); }

 private:
  friend class Server;
  explicit Client(std::unique_ptr<Session> session) : session_(std::move(session)) {}
  std::unique_ptr<Session> session_;
};

class Server {
 public:
  explicit Server(ServerConfig config = ServerConfig{});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // --- shard management (control-plane) ---
  // Registers an externally owned debugger as a shard.
  vl::Status AddShard(const std::string& name, dbg::KernelDebugger* debugger);
  // Boots a self-contained shard: fresh Kernel + Workload (run for
  // `workload_steps`), a KernelDebugger over it, figure symbols registered.
  vl::Status BootShard(const std::string& name,
                       const dbg::LatencyModel& model = dbg::LatencyModel::Free(),
                       int workload_steps = 60);
  size_t shard_count() const;
  size_t session_count() const;
  dbg::KernelDebugger* shard_debugger(const std::string& name) const;
  vkern::Kernel* shard_kernel(const std::string& name) const;      // BootShard shards only
  vkern::Workload* shard_workload(const std::string& name) const;  // BootShard shards only

  // Validates `options` (fail-fast, see SessionOptions::Validate) and
  // connects a new session; SessionOptions::shard picks the shard ("" =
  // round-robin). The shard's ReadSession must agree with the session's
  // normalized cache config: a mismatch reconfigures the shard only while it
  // has no other sessions, else Connect fails with FAILED_PRECONDITION.
  vl::StatusOr<Client> Connect(SessionOptions options = SessionOptions{});

  // --- scheduler control ---
  // Pause() holds queued refreshes (they still enqueue, up to max_queued);
  // Resume() releases them — inline servers drain on the resuming thread.
  void Pause();
  void Resume();
  // Blocks until no refresh is queued or in flight.
  void Drain();

  const ServerConfig& config() const { return config_; }

  // The fleet snapshot, the one place every serving count is read from its
  // owner: aggregate, per-shard (queue, walker, sweep, result cache, the
  // shard's Target and ReadSession stats, flights) and per-session stats
  // (docs/observability.md#stats-schema). `vctrl stats json` embeds it as
  // "fleet"; `vctrl top` and `vctrl export prom` render it.
  vl::Json StatsToJson() const;

  // --- vcheck fleet sweep (control-plane) ---
  // One shard's slice of a fleet sweep: the check report plus the charge the
  // sweep put on that shard's clock (accounted as control-plane, so flight
  // reconciliation charged_ns == control_ns + sum(service_ns) keeps holding).
  struct ShardSweep {
    std::string shard;
    analysis::CheckReport report;
    uint64_t charged_ns = 0;

    vl::Json ToJson() const;
  };
  struct SweepResult {
    std::vector<ShardSweep> shards;

    size_t violations() const;
    size_t rules_run() const;
    // Always 0: every sweep runs its rules. Kept for vbench, which reads it.
    size_t rules_skipped() const;
    // Every shard's report reconciled with its Target::clock().
    bool reconciled() const;
    vl::Json ToJson() const;
    std::string RenderText() const;
  };
  // Runs the vcheck suite across every shard. `rule` selects one rule by ID
  // or name ("" or "all" = the full catalog). `incremental` selects nothing
  // (kept for vbench, which passes it): after a kernel step the shard's
  // delta refresh already re-reads only the stale blocks a sweep reads.
  // Each shard's CheckStats count the sweep. Control-plane: call drained.
  vl::StatusOr<SweepResult> Sweep(std::string_view rule = {}, bool incremental = false);

  // The per-request flight recorder (see flight.h).
  FlightRecorder& flights() { return flights_; }
  const FlightRecorder& flights() const { return flights_; }

  // Chrome-trace JSON of the recorded flights: one track per (shard, worker),
  // flow arrows from each dedup-coalesced request to its leader, and metadata
  // reconciling summed flight service_ns against each shard's charged-ns.
  vl::Json ExportFlights() const;

  // Coherently zeroes serve accounting: drains, then resets per-shard
  // transport stats (Target::ResetStats), extraction/dedup counters, result
  // cache stats, control-plane charges, sweep stats, session counters, and
  // the flight recorder — so post-reset ratios and reconciliation start from
  // a clean epoch. Configured SLO ceilings and cache *contents* persist.
  void ResetStats();

 private:
  friend class Session;

  struct Request {
    Session* session = nullptr;
    int pane = 0;
    std::string backend;
    vision::RenderOptions options;
    std::shared_ptr<Ticket::State> ticket;
    // Flight stamps (virtual-clock readings of the session's shard). A
    // request id of 0 means the recorder was off at submit — no stamping.
    uint64_t request_id = 0;
    uint64_t submitted_ns = 0;
    uint64_t admitted_ns = 0;
    uint64_t dequeued_ns = 0;
    size_t worker = 0;  // worker slot executing it; 0 = inline
  };

  internal::Shard* FindShard(const std::string& name) const;

  // The refresh data path (admission -> dedup -> extraction). Thread-safe.
  // Flight stamps ride on the request; completes the flight on every exit.
  vl::StatusOr<ServeResult> ExecuteRefresh(const Request& request);
  // SubmitRefresh's implementation (Ticket::State is private to Ticket and
  // Server is its only friend, so the queue path lives here).
  vl::StatusOr<Ticket> Submit(Session* session, int pane, const std::string& backend,
                              const vision::RenderOptions& options);
  // Replot through the session's engine (the shard's per-program engine, or
  // a fresh one without shared engines). Caller holds the shard lock.
  vl::StatusOr<std::unique_ptr<viewcl::ViewGraph>> ReplotLocked(Session* session,
                                                                const std::string& program);
  // Serves a result-cache hit: stamps dedup accounting, a fresh sequence
  // number, and the follower/leader request ids. Caller holds the shard's
  // cache lock.
  ServeResult ServeFromCacheLocked(Session* session, internal::Shard* shard,
                                   const ServeResult& hit, uint64_t request_id);
  std::string DedupKey(Session* session, int pane, const std::string& backend,
                       const vision::RenderOptions& options) const;
  uint64_t NextSequence() { return sequence_.fetch_add(1, std::memory_order_relaxed) + 1; }

  static void Fulfill(const std::shared_ptr<Ticket::State>& ticket,
                      vl::StatusOr<ServeResult> result);
  void WorkerLoop(size_t worker);
  // Drains the queue on the calling thread (inline mode / Resume). Caller
  // must NOT hold the server mutex.
  void DrainInline();
  // First queued request whose session has nothing in flight (FIFO scan, so
  // per-session order is preserved); queue_.end() if none.
  std::deque<Request>::iterator FirstEligibleLocked();
  // Session teardown: drop its queued work, wait out its in-flight request,
  // unregister it from its shard.
  void CancelSession(Session* session);

  ServerConfig config_;

  mutable std::mutex mu_;  // shards_ / sessions_ / queue_ / scheduler state
  std::condition_variable work_cv_;     // workers wait here
  std::condition_variable drained_cv_;  // Drain()/CancelSession wait here
  std::vector<std::unique_ptr<internal::Shard>> shards_;
  std::vector<Session*> sessions_;
  std::deque<Request> queue_;
  size_t round_robin_ = 0;
  int next_session_id_ = 1;
  size_t active_ = 0;  // refreshes currently executing
  bool paused_ = false;
  bool stop_ = false;

  std::atomic<uint64_t> sequence_{0};
  std::vector<std::thread> workers_;
  FlightRecorder flights_;
};

}  // namespace vserve

#endif  // SRC_SERVE_SERVER_H_
