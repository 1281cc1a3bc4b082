#include "src/serve/server.h"

#include <utility>

#include "src/support/str.h"
#include "src/vision/figures.h"

namespace vserve {

namespace internal {

// One simulated kernel behind the front end, plus everything its sessions
// share: the debugger (whose ReadSession block cache is the shared extraction
// cache), the per-program ViewCL engines, and the refresh result cache.
struct Shard {
  std::string name;
  dbg::KernelDebugger* debugger = nullptr;  // owned_debugger.get() or borrowed
  std::unique_ptr<vkern::Kernel> kernel;        // BootShard shards only
  std::unique_ptr<vkern::Workload> workload;    // BootShard shards only
  std::unique_ptr<dbg::KernelDebugger> owned_debugger;

  // Serializes extraction on this shard and guards `engines`.
  std::mutex mu;
  // Shared per-program engines: Load once, Run per refresh, so interning and
  // memo snapshots persist across refreshes and across sessions.
  std::map<std::string, std::unique_ptr<viewcl::Interpreter>> engines;

  // Guards `cache` and `dedup_hits`. Lock order: mu before cache_mu.
  mutable std::mutex cache_mu;
  ResultCache cache;
  uint64_t dedup_hits = 0;

  uint64_t extractions = 0;  // guarded by mu
  size_t sessions = 0;       // guarded by the server mutex

  // Flight reconciliation baseline (guarded by mu): charged-ns attribution
  // starts at clock0 (the clock reading when the shard was registered or
  // stats were last reset), and control_ns accumulates virtual time charged
  // by control-plane replots (Plot / RunProgram / explain) — everything else
  // the clock advanced belongs to flights' service_ns.
  uint64_t clock0 = 0;
  uint64_t control_ns = 0;

  // The sweeps Server::Sweep ran on this shard (guarded by mu).
  analysis::CheckStats check;
  // The walks of the fresh engines that private-engine sessions replot on
  // (guarded by mu).
  viewcl::WalkStats private_walk;
};

}  // namespace internal

namespace {

vl::Status ValidateShardName(const std::string& name) {
  if (name.empty()) {
    return vl::InvalidArgumentError("shard name must be non-empty");
  }
  if (name.find('|') != std::string::npos ||
      name.find_first_of(" \t\n") != std::string::npos) {
    return vl::InvalidArgumentError(vl::StrFormat(
        "shard name '%s' may not contain '|' or whitespace", name.c_str()));
  }
  return vl::Status::Ok();
}

}  // namespace

// ---------------------------------------------------------------------------
// Ticket

bool Ticket::done() const {
  if (state_ == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->result.has_value();
}

vl::StatusOr<ServeResult> Ticket::Wait() const {
  if (state_ == nullptr) {
    return vl::FailedPreconditionError("waiting on an empty ticket");
  }
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->result.has_value(); });
  return *state_->result;
}

// ---------------------------------------------------------------------------
// Session

Session::Session(Server* server, internal::Shard* shard, SessionOptions options, int id)
    : server_(server),
      shard_(shard),
      options_(std::move(options)),
      id_(id),
      debugger_(shard->debugger),
      panes_(shard->debugger) {
  panes_.AttachObservers(&recorder_, &budgets_);
  panes_.set_render_cache_enabled(options_.render_cache);
}

Session::~Session() { server_->CancelSession(this); }

const std::string& Session::shard_name() const { return shard_->name; }

vl::StatusOr<Session::PlotResult> Session::Plot(int pane, const std::string& program) {
  std::unique_ptr<viewcl::ViewGraph> graph;
  {
    std::lock_guard<std::mutex> lock(shard_->mu);
    // Control-plane charge: attributed to the shard's control_ns so flight
    // reconciliation can tell it apart from serving time. Accounted even on
    // failure — a failed extraction still advanced the clock.
    uint64_t before = debugger_->target().clock().nanos();
    auto replotted = server_->ReplotLocked(this, program);
    shard_->control_ns += debugger_->target().clock().nanos() - before;
    if (!replotted.ok()) {
      return replotted.status();
    }
    graph = std::move(*replotted);
  }
  PlotResult out;
  out.boxes = graph->size();
  out.warnings = last_warnings_;
  VL_RETURN_IF_ERROR(panes_.SetGraph(pane, std::move(graph), program));
  return out;
}

vl::Status Session::Apply(int pane, std::string_view viewql) {
  // A raw-field WHERE reads target memory: control-plane work under the
  // shard lock, charged to control_ns as a Plot is.
  std::lock_guard<std::mutex> lock(shard_->mu);
  uint64_t before = debugger_->target().clock().nanos();
  vl::Status status = panes_.ApplyViewQl(pane, viewql);
  shard_->control_ns += debugger_->target().clock().nanos() - before;
  return status;
}

vl::StatusOr<int> Session::Split(int pane, char direction) {
  return panes_.Split(pane, direction);
}

std::string Session::Render(int pane, const vision::RenderOptions& options,
                            std::string_view backend) {
  return panes_.RenderPane(pane, options, backend);
}

vl::StatusOr<ServeResult> Session::Refresh(int pane, const std::string& backend,
                                           const vision::RenderOptions& options) {
  VL_ASSIGN_OR_RETURN(Ticket ticket, SubmitRefresh(pane, backend, options));
  return ticket.Wait();
}

vl::StatusOr<Ticket> Session::SubmitRefresh(int pane, const std::string& backend,
                                            const vision::RenderOptions& options) {
  return server_->Submit(this, pane, backend, options);
}

vl::StatusOr<std::unique_ptr<viewcl::ViewGraph>> Session::RunProgram(
    const std::string& program, std::vector<std::string>* warnings) {
  std::lock_guard<std::mutex> lock(shard_->mu);
  uint64_t before = debugger_->target().clock().nanos();
  auto result = server_->ReplotLocked(this, program);
  shard_->control_ns += debugger_->target().clock().nanos() - before;
  if (warnings != nullptr) {
    warnings->insert(warnings->end(), last_warnings_.begin(), last_warnings_.end());
  }
  return result;
}

vision::PaneManager::ReplotFn Session::MakeReplotFn() {
  return [this](const std::string& program) {
    std::lock_guard<std::mutex> lock(shard_->mu);
    uint64_t before = debugger_->target().clock().nanos();
    auto result = server_->ReplotLocked(this, program);
    shard_->control_ns += debugger_->target().clock().nanos() - before;
    return result;
  };
}

vl::Json Session::StatsToJson() const {
  vl::Json j = vl::Json::Object();
  j["id"] = vl::Json::Int(id_);
  j["shard"] = vl::Json::Str(shard_->name);
  j["charged_ns"] = vl::Json::Int(static_cast<int64_t>(charged_ns()));
  j["requests"] = vl::Json::Int(static_cast<int64_t>(requests()));
  j["executed"] = vl::Json::Int(static_cast<int64_t>(executed()));
  j["deduped"] = vl::Json::Int(static_cast<int64_t>(deduped()));
  j["rejected"] = vl::Json::Int(static_cast<int64_t>(rejected()));
  {
    // Refreshes render under the shard lock.
    std::lock_guard<std::mutex> shard_lock(shard_->mu);
    j["render_digest_hits"] = vl::Json::Int(static_cast<int64_t>(panes_.render_digest_hits()));
    j["render_digest_misses"] =
        vl::Json::Int(static_cast<int64_t>(panes_.render_digest_misses()));
  }
  j["flights"] = server_->flights().SessionStats(id_).ToJson();
  return j;
}

// ---------------------------------------------------------------------------
// Server

Server::Server(ServerConfig config) : config_(config), flights_(config.flight_records) {
  workers_.reserve(config_.workers);
  for (size_t i = 0; i < config_.workers; ++i) {
    // Worker slots are 1-based in flight records; 0 means inline execution.
    workers_.emplace_back(&Server::WorkerLoop, this, i + 1);
  }
}

Server::~Server() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  std::deque<Request> leftovers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    leftovers.swap(queue_);
    for (Request& req : leftovers) {
      req.session->queued_--;
    }
  }
  for (Request& req : leftovers) {
    Fulfill(req.ticket, vl::FailedPreconditionError("server destroyed"));
  }
}

vl::Status Server::AddShard(const std::string& name, dbg::KernelDebugger* debugger) {
  VL_RETURN_IF_ERROR(ValidateShardName(name));
  if (debugger == nullptr) {
    return vl::InvalidArgumentError("shard debugger must be non-null");
  }
  auto shard = std::make_unique<internal::Shard>();
  shard->name = name;
  shard->debugger = debugger;
  // An adopted debugger may already have charged time; flights only account
  // for what happens from registration on.
  shard->clock0 = debugger->target().clock().nanos();
  std::lock_guard<std::mutex> lock(mu_);
  if (FindShard(name) != nullptr) {
    return vl::FailedPreconditionError(
        vl::StrFormat("shard '%s' already registered", name.c_str()));
  }
  shards_.push_back(std::move(shard));
  return vl::Status::Ok();
}

vl::Status Server::BootShard(const std::string& name, const dbg::LatencyModel& model,
                             int workload_steps) {
  VL_RETURN_IF_ERROR(ValidateShardName(name));
  auto shard = std::make_unique<internal::Shard>();
  shard->name = name;
  shard->kernel = std::make_unique<vkern::Kernel>();
  vkern::WorkloadConfig workload_config;
  workload_config.steps = workload_steps;
  shard->workload = std::make_unique<vkern::Workload>(shard->kernel.get(), workload_config);
  shard->workload->Run();
  shard->owned_debugger = std::make_unique<dbg::KernelDebugger>(shard->kernel.get(), model);
  shard->debugger = shard->owned_debugger.get();
  vision::RegisterFigureSymbols(shard->debugger, shard->workload.get());
  shard->clock0 = shard->debugger->target().clock().nanos();
  std::lock_guard<std::mutex> lock(mu_);
  if (FindShard(name) != nullptr) {
    return vl::FailedPreconditionError(
        vl::StrFormat("shard '%s' already registered", name.c_str()));
  }
  shards_.push_back(std::move(shard));
  return vl::Status::Ok();
}

internal::Shard* Server::FindShard(const std::string& name) const {
  for (const auto& shard : shards_) {
    if (shard->name == name) {
      return shard.get();
    }
  }
  return nullptr;
}

size_t Server::shard_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_.size();
}

size_t Server::session_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

dbg::KernelDebugger* Server::shard_debugger(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  internal::Shard* shard = FindShard(name);
  return shard != nullptr ? shard->debugger : nullptr;
}

vkern::Kernel* Server::shard_kernel(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  internal::Shard* shard = FindShard(name);
  return shard != nullptr ? shard->kernel.get() : nullptr;
}

vkern::Workload* Server::shard_workload(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  internal::Shard* shard = FindShard(name);
  return shard != nullptr ? shard->workload.get() : nullptr;
}

vl::StatusOr<Client> Server::Connect(SessionOptions options) {
  vl::DiagnosticList diags = options.Validate();
  if (diags.errors() > 0) {
    return vl::InvalidArgumentError("invalid session options:\n" + options.ValidationText());
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (shards_.empty()) {
    return vl::FailedPreconditionError("no shards registered; AddShard/BootShard first");
  }
  internal::Shard* shard = nullptr;
  if (!options.shard.empty()) {
    shard = FindShard(options.shard);
    if (shard == nullptr) {
      return vl::NotFoundError(vl::StrFormat("no such shard '%s'", options.shard.c_str()));
    }
  } else {
    shard = shards_[round_robin_ % shards_.size()].get();
    round_robin_++;
  }
  // Sessions sharing a shard share its ReadSession, so their cache configs
  // must agree, compared in the normalized form the ReadSession stores. An
  // empty shard adopts the newcomer's config; an occupied one refuses a
  // mismatch (reconfiguring would flush caches out from under the sessions
  // relying on them).
  dbg::CacheConfig want = options.ToCacheConfig().Normalized();
  if (shard->debugger->session().config() != want) {
    if (shard->sessions > 0) {
      return vl::FailedPreconditionError(vl::StrFormat(
          "cache config conflicts with %zu active session(s) on shard '%s'; "
          "use matching SessionOptions or another shard",
          shard->sessions, shard->name.c_str()));
    }
    // Reconfiguring reads through the target (cache re-prime), so it charges
    // the shard clock: attribute it as control-plane work, like Plot, so
    // flight reconciliation stays exact.
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    uint64_t before = shard->debugger->target().clock().nanos();
    shard->debugger->session().Reconfigure(want);
    shard->control_ns += shard->debugger->target().clock().nanos() - before;
  }
  std::unique_ptr<Session> session(
      new Session(this, shard, std::move(options), next_session_id_++));
  sessions_.push_back(session.get());
  shard->sessions++;
  return Client(std::move(session));
}

void Server::CancelSession(Session* session) {
  std::vector<std::shared_ptr<Ticket::State>> orphans;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (it->session == session) {
        orphans.push_back(std::move(it->ticket));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    session->queued_ = 0;
    drained_cv_.wait(lock, [&] { return !session->in_flight_; });
    for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
      if (*it == session) {
        sessions_.erase(it);
        break;
      }
    }
    session->shard_->sessions--;
  }
  for (const auto& ticket : orphans) {
    Fulfill(ticket, vl::FailedPreconditionError("session closed"));
  }
}

// ---------------------------------------------------------------------------
// Scheduler

void Server::Fulfill(const std::shared_ptr<Ticket::State>& ticket,
                     vl::StatusOr<ServeResult> result) {
  {
    std::lock_guard<std::mutex> lock(ticket->mu);
    ticket->result.emplace(std::move(result));
  }
  ticket->cv.notify_all();
}

std::deque<Server::Request>::iterator Server::FirstEligibleLocked() {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (!it->session->in_flight_) {
      return it;
    }
  }
  return queue_.end();
}

vl::StatusOr<Ticket> Server::Submit(Session* session, int pane, const std::string& backend,
                                    const vision::RenderOptions& options) {
  Ticket ticket;
  ticket.state_ = std::make_shared<Ticket::State>();
  Request req{session, pane, backend, options, ticket.state_};
  if (flights_.enabled()) {
    req.request_id = flights_.NextRequestId();
    req.submitted_ns = session->debugger_->target().clock().nanos();
  }
  bool drain = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      return vl::FailedPreconditionError("server is shutting down");
    }
    if (session->queued_ >= session->options_.max_queued) {
      session->rejected_.fetch_add(1, std::memory_order_relaxed);
      if (req.request_id != 0) {
        FlightRecord flight;
        flight.request_id = req.request_id;
        flight.session_id = session->id_;
        flight.shard = session->shard_->name;
        flight.pane = pane;
        flight.backend = backend;
        flight.outcome = FlightOutcome::kAdmissionRejected;
        flight.admission_rule = "max_queued";
        flight.epoch = session->debugger_->kernel()->generation();
        flight.submitted_ns = req.submitted_ns;
        // Never admitted: the remaining stamps collapse onto submit.
        flight.dequeued_ns = req.submitted_ns;
        flight.finished_ns = session->debugger_->target().clock().nanos();
        flights_.Finish(std::move(flight));
      }
      return vl::ResourceExhaustedError(vl::StrFormat(
          "session %d refresh queue full (%zu queued, max_queued=%zu)", session->id_,
          session->queued_, session->options_.max_queued));
    }
    req.admitted_ns = req.submitted_ns;
    queue_.push_back(std::move(req));
    session->queued_++;
    drain = workers_.empty() && !paused_;
  }
  work_cv_.notify_one();
  if (drain) {
    DrainInline();
  }
  return ticket;
}

void Server::WorkerLoop(size_t worker) {
  for (;;) {
    std::unique_lock<std::mutex> lock(mu_);
    work_cv_.wait(lock, [&] {
      return stop_ || (!paused_ && FirstEligibleLocked() != queue_.end());
    });
    if (stop_) {
      return;
    }
    auto it = FirstEligibleLocked();
    Request req = std::move(*it);
    queue_.erase(it);
    req.session->queued_--;
    req.session->in_flight_ = true;
    active_++;
    lock.unlock();

    if (req.request_id != 0) {
      // Lock-free clock read: queue_ns ends here.
      req.dequeued_ns = req.session->debugger_->target().clock().nanos();
      req.worker = worker;
    }
    vl::StatusOr<ServeResult> result = ExecuteRefresh(req);
    Fulfill(req.ticket, std::move(result));

    lock.lock();
    req.session->in_flight_ = false;
    active_--;
    drained_cv_.notify_all();
    // The session's next queued request (if any) just became eligible.
    work_cv_.notify_all();
  }
}

void Server::DrainInline() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!queue_.empty()) {
    auto it = FirstEligibleLocked();
    if (it == queue_.end()) {
      // Every queued request belongs to a session another thread is serving;
      // wait for one to finish.
      drained_cv_.wait(lock);
      continue;
    }
    Request req = std::move(*it);
    queue_.erase(it);
    req.session->queued_--;
    req.session->in_flight_ = true;
    active_++;
    lock.unlock();

    if (req.request_id != 0) {
      req.dequeued_ns = req.session->debugger_->target().clock().nanos();
      req.worker = 0;  // inline execution
    }
    vl::StatusOr<ServeResult> result = ExecuteRefresh(req);
    Fulfill(req.ticket, std::move(result));

    lock.lock();
    req.session->in_flight_ = false;
    active_--;
    drained_cv_.notify_all();
  }
}

void Server::Pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void Server::Resume() {
  bool drain = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
    drain = workers_.empty();
  }
  work_cv_.notify_all();
  if (drain) {
    DrainInline();
  }
}

void Server::Drain() {
  if (workers_.empty()) {
    DrainInline();
  }
  std::unique_lock<std::mutex> lock(mu_);
  drained_cv_.wait(lock, [&] { return queue_.empty() && active_ == 0; });
}

// ---------------------------------------------------------------------------
// The refresh data path

std::string Server::DedupKey(Session* session, int pane, const std::string& backend,
                             const vision::RenderOptions& options) const {
  std::string program = session->panes_.program_text(pane);
  if (program.empty()) {
    return "";  // nothing to coalesce (empty or secondary pane)
  }
  std::string key = vl::StrFormat(
      "%llu|%s|%d%d%d|se%d|",
      static_cast<unsigned long long>(session->debugger_->kernel()->generation()),
      backend.c_str(), options.show_addresses ? 1 : 0, options.show_attributes ? 1 : 0,
      options.max_container_preview, session->options_.shared_engines ? 1 : 0);
  key += program;
  key += '\x1e';
  const std::vector<std::string>* history = session->panes_.viewql_history(pane);
  if (history != nullptr) {
    for (const std::string& entry : *history) {
      key += entry;
      key += '\x1f';
    }
  }
  return key;
}

ServeResult Server::ServeFromCacheLocked(Session* session, internal::Shard* shard,
                                         const ServeResult& hit, uint64_t request_id) {
  ServeResult out = hit;
  out.deduped = true;
  out.refresh_ns = 0;  // the whole point: the duplicate is charged nothing
  out.violations.clear();
  out.sequence = NextSequence();
  // The cached result carries the extracting request's id — that request is
  // this one's dedup leader.
  out.leader_request_id = hit.request_id;
  out.request_id = request_id;
  shard->dedup_hits++;
  session->deduped_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

vl::StatusOr<std::unique_ptr<viewcl::ViewGraph>> Server::ReplotLocked(
    Session* session, const std::string& program) {
  session->last_warnings_.clear();
  internal::Shard* shard = session->shard_;
  if (!session->options_.shared_engines) {
    // A fresh interpreter per replot: the from-scratch reference.
    viewcl::Interpreter engine(shard->debugger);
    auto result = engine.RunProgram(program);
    session->last_warnings_ = engine.warnings();
    session->last_memo_replays_ = engine.walk_stats().memo_replays;
    shard->private_walk += engine.walk_stats();
    return result;
  }
  std::unique_ptr<viewcl::Interpreter>& slot = shard->engines[program];
  if (slot == nullptr) {
    slot = std::make_unique<viewcl::Interpreter>(shard->debugger);
    vl::Status loaded = slot->Load(program);
    if (!loaded.ok()) {
      shard->engines.erase(program);
      return loaded;
    }
  }
  // Load() once, Run() per refresh: the engine's interning and memo
  // snapshots persist across refreshes and across every session plotting
  // this program.
  uint64_t memo_before = slot->walk_stats().memo_replays;
  auto result = slot->Run();
  session->last_warnings_ = slot->warnings();
  session->last_memo_replays_ = slot->walk_stats().memo_replays - memo_before;
  return result;
}

vl::StatusOr<ServeResult> Server::ExecuteRefresh(const Request& req) {
  Session* session = req.session;
  const int pane = req.pane;
  const std::string& backend = req.backend;
  const vision::RenderOptions& options = req.options;
  session->requests_.fetch_add(1, std::memory_order_relaxed);

  // The flight rides with the request; every exit below completes it.
  const bool record = req.request_id != 0 && flights_.enabled();
  FlightRecord flight;
  if (record) {
    flight.request_id = req.request_id;
    flight.session_id = session->id_;
    flight.shard = session->shard_->name;
    flight.pane = pane;
    flight.backend = backend;
    flight.worker = req.worker;
    flight.submitted_ns = req.submitted_ns;
    flight.admitted_ns = req.admitted_ns;
    flight.dequeued_ns = req.dequeued_ns;
    flight.epoch = session->debugger_->kernel()->generation();
  }
  auto clock_now = [session] { return session->debugger_->target().clock().nanos(); };

  // Admission: a session over its latency budget gets rejected up front.
  uint64_t budget = session->options_.session_budget_ns;
  if (budget > 0 && session->charged_ns() >= budget) {
    session->rejected_.fetch_add(1, std::memory_order_relaxed);
    vl::Json explain = vl::Json::Object();
    explain["reason"] = vl::Json::Str("admission");
    explain["pane"] = vl::Json::Int(pane);
    explain["charged_ns"] = vl::Json::Int(static_cast<int64_t>(session->charged_ns()));
    session->budgets_.RecordViolation(
        vl::StrFormat("serve.session.%d", session->id_), budget, session->charged_ns(),
        session->debugger_->kernel()->generation(), std::move(explain));
    if (record) {
      flight.outcome = FlightOutcome::kAdmissionRejected;
      flight.admission_rule = "session_budget_ns";
      flight.finished_ns = clock_now();
      flights_.Finish(std::move(flight));
    }
    return vl::ResourceExhaustedError(vl::StrFormat(
        "session %d over latency budget (%llu ns charged, budget %llu ns); "
        "refresh rejected",
        session->id_, static_cast<unsigned long long>(session->charged_ns()),
        static_cast<unsigned long long>(budget)));
  }

  internal::Shard* shard = session->shard_;
  std::string key;
  if (session->options_.coalesce) {
    key = DedupKey(session, pane, backend, options);
    if (!key.empty()) {
      std::lock_guard<std::mutex> cache_lock(shard->cache_mu);
      if (const ServeResult* hit = shard->cache.Find(key)) {
        ServeResult out = ServeFromCacheLocked(session, shard, *hit, req.request_id);
        if (record) {
          flight.outcome = FlightOutcome::kDedupHit;
          flight.leader_request_id = out.leader_request_id;
          flight.epoch = out.epoch;
          flight.boxes = out.boxes;
          flight.finished_ns = clock_now();
          flights_.Finish(std::move(flight));
        }
        return out;
      }
    }
  }

  std::lock_guard<std::mutex> lock(shard->mu);
  if (!key.empty()) {
    // Re-check: a concurrent duplicate may have extracted while we waited on
    // the shard — this re-check IS the request coalescing.
    std::lock_guard<std::mutex> cache_lock(shard->cache_mu);
    if (const ServeResult* hit = shard->cache.Find(key)) {
      ServeResult out = ServeFromCacheLocked(session, shard, *hit, req.request_id);
      if (record) {
        flight.outcome = FlightOutcome::kDedupHit;
        flight.leader_request_id = out.leader_request_id;
        flight.epoch = out.epoch;
        flight.boxes = out.boxes;
        flight.finished_ns = clock_now();
        flights_.Finish(std::move(flight));
      }
      return out;
    }
  }

  uint64_t before = clock_now();
  if (record) {
    flight.executing_ns = before;
  }
  session->last_memo_replays_ = 0;  // set by ReplotLocked under this lock
  vision::PaneManager::ReplotFn replot = [this, session](const std::string& program) {
    return ReplotLocked(session, program);
  };
  auto refreshed = session->panes_.RefreshPane(pane, replot);
  if (!refreshed.ok()) {
    if (record) {
      // A failed refresh may still have charged the clock before erroring —
      // count the partial charge so reconciliation stays exact.
      flight.outcome = FlightOutcome::kFailed;
      flight.finished_ns = clock_now();
      flight.service_ns = flight.finished_ns - before;
      flights_.Finish(std::move(flight));
    }
    return refreshed.status();
  }
  ServeResult out;
  out.boxes = refreshed->boxes;
  out.epoch = refreshed->epoch;
  out.render_reused = refreshed->render_reused;
  out.violations = refreshed->violations;
  if (session->options_.coalesce) {
    // Capture the render so a coalesced duplicate can be served bytes, not
    // just accounting. Sessions without dedup skip it, so their render
    // digest counters count only the renders they asked for.
    out.render = session->panes_.RenderPane(pane, options, backend);
  }
  uint64_t after = clock_now();
  out.refresh_ns = after - before;
  out.sequence = NextSequence();
  out.request_id = req.request_id;

  session->charged_ns_.fetch_add(out.refresh_ns, std::memory_order_relaxed);
  session->executed_.fetch_add(1, std::memory_order_relaxed);
  shard->extractions++;

  if (!key.empty()) {
    std::lock_guard<std::mutex> cache_lock(shard->cache_mu);
    shard->cache.Insert(key, out);
  }
  if (record) {
    flight.outcome = out.render_reused ? FlightOutcome::kRenderReused
                     : session->last_memo_replays_ > 0 ? FlightOutcome::kMemoReplay
                                                       : FlightOutcome::kCold;
    flight.epoch = out.epoch;
    flight.boxes = out.boxes;
    flight.service_ns = out.refresh_ns;
    flight.finished_ns = after;
    flights_.Finish(std::move(flight));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Stats

vl::Json Server::StatsToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  vl::Json j = vl::Json::Object();
  j["sessions"] = vl::Json::Int(static_cast<int64_t>(sessions_.size()));
  j["shard_count"] = vl::Json::Int(static_cast<int64_t>(shards_.size()));
  j["workers"] = vl::Json::Int(static_cast<int64_t>(workers_.size()));
  j["queued"] = vl::Json::Int(static_cast<int64_t>(queue_.size()));
  j["inflight"] = vl::Json::Int(static_cast<int64_t>(active_));
  j["paused"] = vl::Json::Bool(paused_);
  vl::Json shards = vl::Json::Object();
  viewcl::WalkStats total_walk;
  analysis::CheckStats total_check;
  for (const auto& shard : shards_) {
    size_t depth = 0;
    size_t inflight = 0;
    for (const Request& request : queue_) {
      if (request.session->shard_ == shard.get()) {
        depth++;
      }
    }
    for (const Session* session : sessions_) {
      if (session->shard_ == shard.get() && session->in_flight_) {
        inflight++;
      }
    }
    vl::Json s = vl::Json::Object();
    s["sessions"] = vl::Json::Int(static_cast<int64_t>(shard->sessions));
    s["queue_depth"] = vl::Json::Int(static_cast<int64_t>(depth));
    s["inflight"] = vl::Json::Int(static_cast<int64_t>(inflight));
    {
      std::lock_guard<std::mutex> shard_lock(shard->mu);
      s["extractions"] = vl::Json::Int(static_cast<int64_t>(shard->extractions));
      s["engines"] = vl::Json::Int(static_cast<int64_t>(shard->engines.size()));
      s["control_ns"] = vl::Json::Int(static_cast<int64_t>(shard->control_ns));
      // Flight reconciliation: charged_ns == control_ns + flights.service_sum_ns.
      s["charged_ns"] = vl::Json::Int(
          static_cast<int64_t>(shard->debugger->target().clock().nanos() - shard->clock0));
      s["target"] = shard->debugger->target().StatsToJson();
      s["cache"] = shard->debugger->session().StatsToJson();
      // The walker accounting of the engines that run under the shard lock:
      // the shared per-program engines and the private replots' fresh ones.
      viewcl::WalkStats walk = shard->private_walk;
      for (const auto& [program, engine] : shard->engines) {
        walk += engine->walk_stats();
      }
      s["walk"] = walk.ToJson();
      total_walk += walk;
      s["check"] = shard->check.ToJson();
      total_check += shard->check;
    }
    {
      std::lock_guard<std::mutex> cache_lock(shard->cache_mu);
      s["dedup_hits"] = vl::Json::Int(static_cast<int64_t>(shard->dedup_hits));
      s["result_cache"] = shard->cache.StatsToJson();
    }
    s["flights"] = flights_.ShardStats(shard->name).ToJson();
    shards[shard->name] = std::move(s);
  }
  j["shards"] = std::move(shards);
  vl::Json fl = vl::Json::Object();
  fl["enabled"] = vl::Json::Bool(flights_.enabled());
  fl["capacity"] = vl::Json::Int(static_cast<int64_t>(flights_.capacity()));
  fl["recorded"] = vl::Json::Int(static_cast<int64_t>(flights_.recorded()));
  fl["dropped"] = vl::Json::Int(static_cast<int64_t>(flights_.dropped()));
  fl["slo_violations"] = vl::Json::Int(static_cast<int64_t>(flights_.slo_violations()));
  j["flights"] = std::move(fl);
  vl::Json sessions = vl::Json::Array();
  for (const Session* session : sessions_) {
    sessions.Append(session->StatsToJson());
  }
  j["per_session"] = std::move(sessions);
  j["walk"] = total_walk.ToJson();
  j["check"] = total_check.ToJson();
  return j;
}

// ---------------------------------------------------------------------------
// Flight export, reset

vl::Json Server::ExportFlights() const {
  // Phase 1: shard charged-ns snapshot (under the server + shard locks).
  struct ShardCharge {
    int pid = 0;
    uint64_t charged_ns = 0;
    uint64_t control_ns = 0;
  };
  std::map<std::string, ShardCharge> charges;
  {
    std::lock_guard<std::mutex> lock(mu_);
    int index = 0;
    for (const auto& shard : shards_) {
      ShardCharge charge;
      // Tracks get pids disjoint from the span tracer's pid 1, so a merged
      // `vctrl export chrome` renders flights as separate processes.
      charge.pid = 100 + index++;
      std::lock_guard<std::mutex> shard_lock(shard->mu);
      charge.charged_ns = shard->debugger->target().clock().nanos() - shard->clock0;
      charge.control_ns = shard->control_ns;
      charges[shard->name] = charge;
    }
  }
  // Phase 2: flights (recorder leaf lock only; no server locks held).
  std::vector<FlightRecord> flights = flights_.Snapshot();

  vl::Json root = vl::Json::Object();
  vl::Json events = vl::Json::Array();
  std::map<uint64_t, const FlightRecord*> by_id;
  for (const FlightRecord& flight : flights) {
    by_id[flight.request_id] = &flight;
  }
  auto pid_of = [&charges](const std::string& shard) {
    auto it = charges.find(shard);
    return it != charges.end() ? it->second.pid : 0;
  };
  // Track metadata: one process per shard, one thread per (shard, worker).
  std::map<std::string, std::map<size_t, bool>> tracks;
  for (const FlightRecord& flight : flights) {
    tracks[flight.shard][flight.worker] = true;
  }
  for (const auto& [shard, workers] : tracks) {
    vl::Json process = vl::Json::Object();
    process["name"] = vl::Json::Str("process_name");
    process["ph"] = vl::Json::Str("M");
    process["pid"] = vl::Json::Int(pid_of(shard));
    process["tid"] = vl::Json::Int(0);
    vl::Json pargs = vl::Json::Object();
    pargs["name"] = vl::Json::Str("shard " + shard);
    process["args"] = std::move(pargs);
    events.Append(std::move(process));
    for (const auto& [worker, unused] : workers) {
      vl::Json thread = vl::Json::Object();
      thread["name"] = vl::Json::Str("thread_name");
      thread["ph"] = vl::Json::Str("M");
      thread["pid"] = vl::Json::Int(pid_of(shard));
      thread["tid"] = vl::Json::Int(static_cast<int64_t>(worker));
      vl::Json targs = vl::Json::Object();
      targs["name"] = vl::Json::Str(
          worker == 0 ? "inline" : vl::StrFormat("worker %zu", worker));
      thread["args"] = std::move(targs);
      events.Append(std::move(thread));
    }
  }
  for (const FlightRecord& flight : flights) {
    vl::Json e = vl::Json::Object();
    e["name"] = vl::Json::Str(vl::StrFormat(
        "req %llu %s", static_cast<unsigned long long>(flight.request_id),
        FlightOutcomeName(flight.outcome)));
    e["cat"] = vl::Json::Str("vflight");
    e["ph"] = vl::Json::Str("X");
    // Executed flights span their service window; instant outcomes (dedup,
    // rejection) get a zero-duration slice at completion.
    bool executed = FlightExecuted(flight.outcome) && flight.executing_ns != 0;
    e["ts"] = vl::Json::Int(
        static_cast<int64_t>(executed ? flight.executing_ns : flight.finished_ns));
    e["dur"] = vl::Json::Int(static_cast<int64_t>(executed ? flight.service_ns : 0));
    e["pid"] = vl::Json::Int(pid_of(flight.shard));
    e["tid"] = vl::Json::Int(static_cast<int64_t>(flight.worker));
    vl::Json args = vl::Json::Object();
    args["request_id"] = vl::Json::Int(static_cast<int64_t>(flight.request_id));
    args["session"] = vl::Json::Int(flight.session_id);
    args["pane"] = vl::Json::Int(flight.pane);
    args["outcome"] = vl::Json::Str(FlightOutcomeName(flight.outcome));
    args["queue_ns"] = vl::Json::Int(static_cast<int64_t>(flight.queue_ns()));
    args["service_ns"] = vl::Json::Int(static_cast<int64_t>(flight.service_ns));
    args["total_ns"] = vl::Json::Int(static_cast<int64_t>(flight.total_ns()));
    if (flight.outcome == FlightOutcome::kDedupHit) {
      args["leader_request_id"] =
          vl::Json::Int(static_cast<int64_t>(flight.leader_request_id));
    }
    if (flight.outcome == FlightOutcome::kAdmissionRejected) {
      args["admission_rule"] = vl::Json::Str(flight.admission_rule);
    }
    e["args"] = std::move(args);
    events.Append(std::move(e));

    if (flight.outcome != FlightOutcome::kDedupHit) {
      continue;
    }
    // Causal link: a flow arrow from the leader's completion to this
    // coalesced follower. If the leader has already been evicted from the
    // ring, anchor the arrow at the follower's own submit instead — one flow
    // pair per dedup hit either way.
    auto leader = by_id.find(flight.leader_request_id);
    const FlightRecord* from = leader != by_id.end() ? leader->second : &flight;
    uint64_t from_ts = leader != by_id.end() ? from->finished_ns : flight.submitted_ns;
    vl::Json s = vl::Json::Object();
    s["name"] = vl::Json::Str("dedup");
    s["cat"] = vl::Json::Str("vflight");
    s["ph"] = vl::Json::Str("s");
    s["id"] = vl::Json::Int(static_cast<int64_t>(flight.request_id));
    s["ts"] = vl::Json::Int(static_cast<int64_t>(from_ts));
    s["pid"] = vl::Json::Int(pid_of(from->shard));
    s["tid"] = vl::Json::Int(static_cast<int64_t>(from->worker));
    events.Append(std::move(s));
    vl::Json f = vl::Json::Object();
    f["name"] = vl::Json::Str("dedup");
    f["cat"] = vl::Json::Str("vflight");
    f["ph"] = vl::Json::Str("f");
    f["bp"] = vl::Json::Str("e");
    f["id"] = vl::Json::Int(static_cast<int64_t>(flight.request_id));
    f["ts"] = vl::Json::Int(static_cast<int64_t>(flight.finished_ns));
    f["pid"] = vl::Json::Int(pid_of(flight.shard));
    f["tid"] = vl::Json::Int(static_cast<int64_t>(flight.worker));
    events.Append(std::move(f));
  }
  root["traceEvents"] = std::move(events);
  root["displayTimeUnit"] = vl::Json::Str("ns");

  vl::Json meta = vl::Json::Object();
  meta["clock"] = vl::Json::Str("virtual");
  vl::Json shard_meta = vl::Json::Object();
  for (const auto& [name, charge] : charges) {
    uint64_t service = flights_.shard_service_ns(name);
    vl::Json s = vl::Json::Object();
    s["pid"] = vl::Json::Int(charge.pid);
    s["charged_ns"] = vl::Json::Int(static_cast<int64_t>(charge.charged_ns));
    s["control_ns"] = vl::Json::Int(static_cast<int64_t>(charge.control_ns));
    s["flight_service_ns"] = vl::Json::Int(static_cast<int64_t>(service));
    // Honest accounting: charges the flight/control split does not explain
    // (e.g. decorate/ViewQL work in `vctrl explain` outside the replot).
    s["unattributed_ns"] = vl::Json::Int(static_cast<int64_t>(charge.charged_ns) -
                                         static_cast<int64_t>(charge.control_ns) -
                                         static_cast<int64_t>(service));
    s["reconciled"] =
        vl::Json::Bool(charge.charged_ns == charge.control_ns + service);
    shard_meta[name] = std::move(s);
  }
  meta["shards"] = std::move(shard_meta);
  vl::Json fl = vl::Json::Object();
  fl["recorded"] = vl::Json::Int(static_cast<int64_t>(flights_.recorded()));
  fl["dropped"] = vl::Json::Int(static_cast<int64_t>(flights_.dropped()));
  meta["flights"] = std::move(fl);
  root["metadata"] = std::move(meta);
  return root;
}

// ---------------------------------------------------------------------------
// vcheck fleet sweep

vl::Json Server::ShardSweep::ToJson() const {
  vl::Json j = vl::Json::Object();
  j["shard"] = vl::Json::Str(shard);
  j["charged_ns"] = vl::Json::Int(static_cast<int64_t>(charged_ns));
  j["report"] = report.ToJson();
  return j;
}

size_t Server::SweepResult::violations() const {
  size_t n = 0;
  for (const ShardSweep& s : shards) n += s.report.violations();
  return n;
}

size_t Server::SweepResult::rules_run() const {
  size_t n = 0;
  for (const ShardSweep& s : shards) n += s.report.rules_run();
  return n;
}

size_t Server::SweepResult::rules_skipped() const { return 0; }

bool Server::SweepResult::reconciled() const {
  for (const ShardSweep& s : shards) {
    if (!s.report.reconciled) return false;
  }
  return true;
}

vl::Json Server::SweepResult::ToJson() const {
  vl::Json j = vl::Json::Object();
  j["violations"] = vl::Json::Int(static_cast<int64_t>(violations()));
  j["rules_run"] = vl::Json::Int(static_cast<int64_t>(rules_run()));
  j["reconciled"] = vl::Json::Bool(reconciled());
  vl::Json arr = vl::Json::Array();
  for (const ShardSweep& s : shards) arr.Append(s.ToJson());
  j["shards"] = std::move(arr);
  return j;
}

std::string Server::SweepResult::RenderText() const {
  std::string out;
  for (const ShardSweep& s : shards) {
    out += "shard " + s.shard + " (" + std::to_string(s.charged_ns) + " ns):\n";
    std::string body = s.report.RenderText();
    size_t pos = 0;
    while (pos < body.size()) {
      size_t nl = body.find('\n', pos);
      if (nl == std::string::npos) nl = body.size();
      out += "  " + body.substr(pos, nl - pos) + "\n";
      pos = nl + 1;
    }
  }
  out += vl::StrFormat("sweep: %zu shard(s), %zu rule(s) run, %zu violation(s)%s\n",
                       shards.size(), rules_run(), violations(),
                       reconciled() ? "" : " [NOT RECONCILED]");
  return out;
}

vl::StatusOr<Server::SweepResult> Server::Sweep(std::string_view rule, bool /*incremental*/) {
  const bool all = rule.empty() || rule == "all";
  if (!all && analysis::CheckEngine::FindRule(rule) == nullptr) {
    return vl::InvalidArgumentError(
        vl::StrFormat("unknown check rule '%s'", std::string(rule).c_str()));
  }
  // Collect the fleet under the server lock, then sweep shard-by-shard under
  // each shard's extraction lock (shards are never destroyed while the server
  // lives, so the raw pointers stay valid after mu_ is released).
  std::vector<internal::Shard*> fleet;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& shard : shards_) fleet.push_back(shard.get());
  }
  SweepResult result;
  for (internal::Shard* shard : fleet) {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    dbg::KernelDebugger* debugger = shard->debugger;
    analysis::CheckEngine checker(&debugger->types(), &debugger->symbols(),
                                  &debugger->session());
    ShardSweep sweep;
    sweep.shard = shard->name;
    const uint64_t before = debugger->target().clock().nanos();
    if (all) {
      sweep.report = checker.RunAll();
    } else {
      vl::StatusOr<analysis::CheckReport> one = checker.RunOne(rule);
      if (!one.ok()) {
        return one.status();
      }
      sweep.report = std::move(one).value();
    }
    sweep.charged_ns = debugger->target().clock().nanos() - before;
    // Sweeps are control-plane work on the shard clock: attribute the charge
    // so flight reconciliation (charged == control + sum(service)) holds.
    shard->control_ns += sweep.charged_ns;
    shard->check.Add(sweep.report);
    result.shards.push_back(std::move(sweep));
  }
  return result;
}

void Server::ResetStats() {
  Drain();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& shard : shards_) {
    // Target::ResetStats zeroes the virtual clock itself, so the charged-ns
    // baseline re-reads it afterwards and reconciliation restarts from zero.
    shard->debugger->target().ResetStats();
    {
      std::lock_guard<std::mutex> shard_lock(shard->mu);
      shard->extractions = 0;
      shard->control_ns = 0;
      shard->check = analysis::CheckStats{};
      shard->clock0 = shard->debugger->target().clock().nanos();
      shard->private_walk = viewcl::WalkStats{};
      for (auto& [program, engine] : shard->engines) {
        engine->ResetWalkStats();
      }
    }
    {
      std::lock_guard<std::mutex> cache_lock(shard->cache_mu);
      shard->dedup_hits = 0;
      // Stats only — cached results stay valid (their epochs still match),
      // so dedup keeps working across a reset.
      shard->cache.ResetStats();
    }
  }
  for (Session* session : sessions_) {
    {
      std::lock_guard<std::mutex> shard_lock(session->shard_->mu);
      session->panes_.ResetRenderDigestStats();
    }
    session->charged_ns_.store(0, std::memory_order_relaxed);
    session->requests_.store(0, std::memory_order_relaxed);
    session->executed_.store(0, std::memory_order_relaxed);
    session->deduped_.store(0, std::memory_order_relaxed);
    session->rejected_.store(0, std::memory_order_relaxed);
  }
  flights_.Clear();
}

}  // namespace vserve
