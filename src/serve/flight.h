// vflight: the per-request flight recorder behind vserve's observability.
//
// Every Refresh/SubmitRefresh is stamped with a monotonically assigned
// request id and virtual-clock lifecycle timestamps as it moves through the
// serving pipeline:
//
//   submitted -> admitted -> dequeued -> executing -> finished   (executed)
//   submitted -> admitted -> dequeued -> finished                (dedup hit)
//   submitted -> [rejected]                                      (queue full)
//   submitted -> admitted -> dequeued -> [rejected]              (over budget)
//
// Because every stamp is read from the owning shard's VirtualClock, the
// decomposition is deterministic: queue_ns is the virtual time the shard
// spent serving *other* requests while this one waited, and service_ns is
// exactly the transport time this request charged under the shard lock — so
// per-shard sums of service_ns reconcile against the shard's charged-ns
// (Server::ExportFlights asserts this per export).
//
// Completed records land in a bounded per-server ring (oldest shed first,
// counted). On top of the ring the recorder keeps per-session and per-shard
// queue/service/total histograms (p50/p90/p99 into `vctrl stats`), a rolling
// SLO window per shard (TimeSeriesRecorder, sampled 1-in-16 per shard to
// stay off the hot path), and budget-backed SLO ceilings
// ("queue"|"service"|"total") whose violations attach the offending flight
// record as the explain payload.
//
// The recorder is cheap when disabled — the serve data path checks one
// relaxed atomic flag and skips all stamping (guarded in bench_micro, the
// vtrace convention). All mutation happens under one leaf mutex, so worker
// threads finish flights concurrently with control-plane snapshots.

#ifndef SRC_SERVE_FLIGHT_H_
#define SRC_SERVE_FLIGHT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/support/budget.h"
#include "src/support/json.h"
#include "src/support/histogram.h"
#include "src/support/timeseries.h"

namespace vserve {

enum class FlightOutcome {
  kCold = 0,           // fresh extraction, no memo/render reuse
  kMemoReplay,         // executed, but >= 1 memoized subtree replayed
  kRenderReused,       // executed, render digest cache skipped the re-render
  kDedupHit,           // served from the shard result cache (see leader id)
  kAdmissionRejected,  // refused before execution (see admission_rule)
  kFailed,             // execution returned a non-OK status
};

const char* FlightOutcomeName(FlightOutcome outcome);

// True for outcomes that ran the extraction path under the shard lock (and
// therefore may have charged the shard clock — including failures, whose
// partial charges still count toward reconciliation).
inline bool FlightExecuted(FlightOutcome outcome) {
  return outcome == FlightOutcome::kCold || outcome == FlightOutcome::kMemoReplay ||
         outcome == FlightOutcome::kRenderReused || outcome == FlightOutcome::kFailed;
}

// One request's complete flight. All *_ns stamps are virtual-clock readings
// of the owning shard; stamps a lifecycle never reached stay 0.
struct FlightRecord {
  uint64_t request_id = 0;  // server-wide monotonic, assigned at submit
  int session_id = 0;
  std::string shard;
  int pane = 0;
  std::string backend;
  size_t worker = 0;  // worker slot that served it; 0 = inline

  FlightOutcome outcome = FlightOutcome::kCold;
  uint64_t leader_request_id = 0;  // kDedupHit: the extracting request's id
  std::string admission_rule;      // kAdmissionRejected: "max_queued" |
                                   // "session_budget_ns"
  uint64_t epoch = 0;              // kernel mutation epoch observed
  size_t boxes = 0;

  // Lifecycle stamps (monotone in the order below where present).
  uint64_t submitted_ns = 0;  // entered Submit
  uint64_t admitted_ns = 0;   // passed queue admission, enqueued
  uint64_t dequeued_ns = 0;   // picked up by a worker / the inline drain
  uint64_t executing_ns = 0;  // execution began under the shard lock
  uint64_t finished_ns = 0;   // result (or rejection/failure) produced

  // Transport ns charged during execution — the clock delta under the shard
  // lock, identical to ServeResult::refresh_ns. 0 for dedup hits and
  // rejections. Stored rather than derived so it excludes any virtual time
  // other shards' sessions burned between our stamps.
  uint64_t service_ns = 0;

  // Virtual time spent waiting in the scheduler queue (the shard was busy
  // serving others).
  uint64_t queue_ns() const { return dequeued_ns - submitted_ns; }
  uint64_t total_ns() const { return finished_ns - submitted_ns; }
  // Residue of total not explained by queueing or our own execution: shard
  // lock wait plus concurrent charges after dequeue.
  uint64_t stall_ns() const { return total_ns() - queue_ns() - service_ns; }

  vl::Json ToJson() const;
};

// Queue/service/total decomposition for one session or one shard. Only
// completed (non-rejected) flights enter the histograms; rejections are
// counted separately so they cannot drag the quantiles toward zero.
struct FlightStats {
  vl::Histogram queue_ns;
  vl::Histogram service_ns;
  vl::Histogram total_ns;
  uint64_t completed = 0;       // flights in the histograms
  uint64_t executed = 0;        // cold + memo-replay + render-reused + failed
  uint64_t dedup_hits = 0;
  uint64_t rejected = 0;        // admission-rejected (not in the histograms)
  uint64_t failed = 0;
  uint64_t service_sum_ns = 0;  // sum of service_ns (the reconciliation side)

  void Record(const FlightRecord& record);
  vl::Json ToJson() const;
};

// The per-server flight recorder. Thread-safe: Finish() is called from
// worker threads; snapshots and SLO configuration take the same leaf mutex.
class FlightRecorder {
 public:
  explicit FlightRecorder(size_t capacity = 512) : capacity_(capacity) {
    window_.Enable();  // the rolling SLO window is part of the recorder
  }

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Assigns the next request id (monotonic from 1). Call only when enabled —
  // a request id of 0 means "not recorded".
  uint64_t NextRequestId() {
    return next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  // Completes a flight: ring append (oldest shed when full), per-session and
  // per-shard histogram update, rolling-window sample, SLO check.
  void Finish(FlightRecord record);

  // Ring snapshot, oldest first.
  std::vector<FlightRecord> Snapshot() const;
  size_t size() const;
  size_t capacity() const { return capacity_; }
  uint64_t recorded() const;  // total flights finished (ring + evicted)
  uint64_t dropped() const;   // flights evicted from the ring

  // Clears the ring, histograms, rolling windows, and SLO violations.
  // Configured SLO ceilings persist (mirroring BudgetRegistry semantics).
  void Clear();

  // --- SLO ceilings ---------------------------------------------------------
  // `kind` is "queue" | "service" | "total"; the ceiling applies to that
  // component of every completed flight. A breach records a BudgetRegistry
  // violation keyed "serve.slo.<kind>_ns" with the flight record attached.
  void SetSlo(const std::string& kind, uint64_t budget_ns);
  void RemoveSlo(const std::string& kind);
  void ClearSlo();  // ceilings and violations
  uint64_t slo_violations() const;
  vl::Json SloReportJson() const;
  std::string SloReportText() const;

  // --- decomposition snapshots ----------------------------------------------
  FlightStats SessionStats(int session_id) const;
  FlightStats ShardStats(const std::string& shard) const;
  // Sum of service_ns finished on `shard` (survives ring eviction).
  uint64_t shard_service_ns(const std::string& shard) const;

  // {"enabled", "capacity", "recorded", "dropped", "slo", "window",
  //  "flights": [... last_n records, oldest first]}
  vl::Json ToJson(size_t last_n) const;
  // The `vctrl flights` table: one row per record, newest last.
  std::string Table(size_t last_n) const;

 private:
  // Callers hold mu_.
  void CheckSloLocked(const FlightRecord& record);

  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> next_request_id_{0};

  mutable std::mutex mu_;  // leaf lock: never acquire others while held
  size_t capacity_;
  std::deque<FlightRecord> ring_;
  uint64_t recorded_ = 0;
  uint64_t dropped_ = 0;
  std::map<int, FlightStats> by_session_;
  std::map<std::string, FlightStats> by_shard_;
  vl::BudgetRegistry slo_;
  vl::TimeSeriesRecorder window_;
};

}  // namespace vserve

#endif  // SRC_SERVE_FLIGHT_H_
