// vflight tests: per-request flight-recorder lifecycle invariants (monotone
// virtual-clock stamps, dedup followers referencing a real leader id),
// queue/service decomposition, service-ns reconciliation against shard
// charged-ns, chrome-trace flow arrows, ring eviction, SLO ceilings,
// Server::ResetStats coherence, and the vctrl flights/top/slo commands.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/serve/flight.h"
#include "src/serve/options.h"
#include "src/serve/server.h"
#include "src/serve/shell.h"
#include "src/vision/figures.h"

namespace vserve {
namespace {

const char* Fig(const char* id) { return vision::FindFigure(id)->viewcl; }

class FlightTest : public ::testing::Test {
 protected:
  // GdbQemu so refreshes charge real (virtual) transport time — the stamps
  // and the reconciliation are only interesting when the clock moves.
  void Boot(Server& server, const std::string& name = "k0",
            dbg::LatencyModel model = dbg::LatencyModel::GdbQemu()) {
    ASSERT_TRUE(server.BootShard(name, model).ok());
  }

  // Finds the ring record for `request_id`; fails the test if evicted.
  FlightRecord Record(Server& server, uint64_t request_id) {
    for (const FlightRecord& record : server.flights().Snapshot()) {
      if (record.request_id == request_id) {
        return record;
      }
    }
    ADD_FAILURE() << "request " << request_id << " not in the flight ring";
    return FlightRecord{};
  }
};

// ---------------------------------------------------------------------------
// Lifecycle invariants

TEST_F(FlightTest, LifecycleStampsAreMonotone) {
  Server server;
  Boot(server);
  auto client = server.Connect();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Plot(1, Fig("fig3_4")).ok());
  ASSERT_TRUE((*client)->Refresh(1).ok());
  server.shard_workload("k0")->Step();
  ASSERT_TRUE((*client)->Refresh(1).ok());

  std::vector<FlightRecord> flights = server.flights().Snapshot();
  ASSERT_EQ(flights.size(), 2u);
  for (const FlightRecord& flight : flights) {
    EXPECT_GT(flight.request_id, 0u);
    EXPECT_LE(flight.submitted_ns, flight.dequeued_ns);
    EXPECT_LE(flight.dequeued_ns, flight.finished_ns);
    if (flight.outcome != FlightOutcome::kAdmissionRejected) {
      EXPECT_EQ(flight.admitted_ns, flight.submitted_ns);
    }
    if (FlightExecuted(flight.outcome)) {
      EXPECT_LE(flight.dequeued_ns, flight.executing_ns);
      EXPECT_LE(flight.executing_ns, flight.finished_ns);
      // Single client, inline server: nothing else can charge the clock
      // between our executing/finished stamps, so the window IS the service.
      EXPECT_EQ(flight.finished_ns - flight.executing_ns, flight.service_ns);
    }
    EXPECT_EQ(flight.total_ns(),
              flight.queue_ns() + flight.service_ns + flight.stall_ns());
  }
  // Request ids are assigned monotonically in submission order.
  EXPECT_LT(flights[0].request_id, flights[1].request_id);
  // The first refresh replays the engine's memo snapshots (the Plot warmed
  // them) at zero transport cost; after the kernel stepped, the re-extraction
  // pays real service time.
  EXPECT_EQ(flights[0].outcome, FlightOutcome::kMemoReplay);
  EXPECT_EQ(flights[0].service_ns, 0u);
  EXPECT_GT(flights[1].service_ns, 0u);
}

TEST_F(FlightTest, DedupFollowerReferencesRealLeader) {
  Server server;
  Boot(server);
  auto a = server.Connect();
  auto b = server.Connect();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE((*a)->Plot(1, Fig("fig3_4")).ok());
  ASSERT_TRUE((*b)->Plot(1, Fig("fig3_4")).ok());

  auto first = (*a)->Refresh(1);
  auto second = (*b)->Refresh(1);
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_TRUE(second->deduped);

  // The result carries the flight identity of both sides of the coalesce.
  EXPECT_GT(first->request_id, 0u);
  EXPECT_GT(second->request_id, 0u);
  EXPECT_EQ(second->leader_request_id, first->request_id);

  FlightRecord leader = Record(server, first->request_id);
  FlightRecord follower = Record(server, second->request_id);
  EXPECT_TRUE(FlightExecuted(leader.outcome));
  EXPECT_EQ(follower.outcome, FlightOutcome::kDedupHit);
  EXPECT_EQ(follower.leader_request_id, leader.request_id);
  EXPECT_EQ(follower.service_ns, 0u);  // the duplicate is charged nothing
  EXPECT_EQ(leader.session_id, (*a)->id());
  EXPECT_EQ(follower.session_id, (*b)->id());
}

TEST_F(FlightTest, QueueNsDecomposesAsLeaderServiceTime) {
  Server server;
  Boot(server);
  auto a = server.Connect();
  auto b = server.Connect();
  ASSERT_TRUE(a.ok() && b.ok());
  // Different figures: no dedup, both requests genuinely execute.
  ASSERT_TRUE((*a)->Plot(1, Fig("fig3_4")).ok());
  ASSERT_TRUE((*b)->Plot(1, Fig("fig3_6")).ok());
  // Invalidate the plots' memo snapshots so both refreshes pay real service
  // time (a warm refresh replays memo at zero cost).
  server.shard_workload("k0")->Step();

  // Pause so both requests are queued at the same virtual instant; Resume
  // drains them FIFO on this thread.
  server.Pause();
  auto t1 = (*a)->SubmitRefresh(1);
  auto t2 = (*b)->SubmitRefresh(1);
  ASSERT_TRUE(t1.ok() && t2.ok());
  server.Resume();
  auto r1 = t1->Wait();
  auto r2 = t2->Wait();
  ASSERT_TRUE(r1.ok() && r2.ok());

  FlightRecord first = Record(server, r1->request_id);
  FlightRecord second = Record(server, r2->request_id);
  ASSERT_GT(first.service_ns, 0u);
  // Both were submitted before the clock moved; the second dequeues only
  // after the first finishes, so its queue_ns is exactly the first's service.
  EXPECT_EQ(first.queue_ns(), 0u);
  EXPECT_EQ(second.queue_ns(), first.service_ns);
  EXPECT_EQ(second.submitted_ns, first.submitted_ns);
}

// ---------------------------------------------------------------------------
// Reconciliation

TEST_F(FlightTest, ServiceNsReconcilesWithShardChargedNs) {
  Server server;
  Boot(server);
  auto a = server.Connect();
  auto b = server.Connect();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE((*a)->Plot(1, Fig("fig3_4")).ok());
  ASSERT_TRUE((*b)->Plot(1, Fig("fig3_6")).ok());
  ASSERT_TRUE((*a)->Refresh(1).ok());
  ASSERT_TRUE((*b)->Refresh(1).ok());
  server.shard_workload("k0")->Step();
  ASSERT_TRUE((*a)->Refresh(1).ok());
  ASSERT_TRUE((*a)->Refresh(1).ok());  // dedup hit: adds no service_ns

  vl::Json doc = server.ExportFlights();
  const vl::Json* shard = doc.Find("metadata")->Find("shards")->Find("k0");
  ASSERT_NE(shard, nullptr);
  // charged == control (Plot) + sum of flight service_ns, to the nanosecond.
  EXPECT_TRUE(shard->Find("reconciled")->AsBool());
  EXPECT_EQ(shard->Find("unattributed_ns")->AsInt(), 0);
  EXPECT_EQ(shard->Find("charged_ns")->AsInt(),
            shard->Find("control_ns")->AsInt() +
                shard->Find("flight_service_ns")->AsInt());
  EXPECT_GT(shard->Find("flight_service_ns")->AsInt(), 0);
  EXPECT_GT(shard->Find("control_ns")->AsInt(), 0);  // the Plot extractions
}

TEST_F(FlightTest, WorkerPoolFlightsStillReconcile) {
  ServerConfig config;
  config.workers = 2;
  Server server(config);
  Boot(server);

  std::vector<vl::StatusOr<Client>> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(server.Connect());
    ASSERT_TRUE(clients.back().ok());
    ASSERT_TRUE((*clients.back())->Plot(1, Fig("fig3_4")).ok());
  }
  std::vector<Ticket> tickets;
  for (auto& client : clients) {
    auto ticket = (*client)->SubmitRefresh(1);
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(*ticket);
  }
  server.Drain();
  for (Ticket& ticket : tickets) {
    ASSERT_TRUE(ticket.Wait().ok());
  }

  // Per-shard service sums reconcile even when workers raced: every charge
  // happened under the shard lock and was stamped into exactly one flight.
  vl::Json doc = server.ExportFlights();
  EXPECT_TRUE(
      doc.Find("metadata")->Find("shards")->Find("k0")->Find("reconciled")->AsBool());
  // The overlapping fleet coalesced: exactly one executed flight.
  FlightStats stats = server.flights().ShardStats("k0");
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.dedup_hits, 3u);
}

// ---------------------------------------------------------------------------
// Chrome export

TEST_F(FlightTest, ChromeExportEmitsOneFlowPairPerDedupHit) {
  Server server;
  Boot(server);
  std::vector<vl::StatusOr<Client>> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(server.Connect());
    ASSERT_TRUE(clients.back().ok());
    ASSERT_TRUE((*clients.back())->Plot(1, Fig("fig3_4")).ok());
    ASSERT_TRUE((*clients.back())->Refresh(1).ok());  // 1 cold + 3 dedup
  }

  vl::Json doc = server.ExportFlights();
  int slices = 0, starts = 0, finishes = 0, metadata = 0;
  for (const vl::Json& event : doc.Find("traceEvents")->items()) {
    const std::string& ph = event.Find("ph")->AsString();
    if (ph == "X") slices++;
    if (ph == "s") starts++;
    if (ph == "f") finishes++;
    if (ph == "M") metadata++;
  }
  EXPECT_EQ(slices, 4);    // one span per flight
  EXPECT_EQ(starts, 3);    // one flow arrow per coalesced request...
  EXPECT_EQ(finishes, 3);  // ...from the leader's completion to the follower
  EXPECT_EQ(metadata, 2);  // process_name for the shard + thread_name inline
  EXPECT_EQ(doc.Find("metadata")->Find("clock")->AsString(), "virtual");
}

// ---------------------------------------------------------------------------
// Ring bounds + kill switch

TEST_F(FlightTest, RingEvictionKeepsNewestN) {
  ServerConfig config;
  config.flight_records = 4;
  Server server(config);
  Boot(server, "k0", dbg::LatencyModel::Free());
  auto client = server.Connect();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Plot(1, Fig("fig3_4")).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE((*client)->Refresh(1).ok());
  }

  EXPECT_EQ(server.flights().recorded(), 8u);
  EXPECT_EQ(server.flights().dropped(), 4u);
  std::vector<FlightRecord> flights = server.flights().Snapshot();
  ASSERT_EQ(flights.size(), 4u);
  // Oldest shed first: the ring holds the newest four ids, oldest first.
  for (size_t i = 0; i < flights.size(); ++i) {
    EXPECT_EQ(flights[i].request_id, 5u + i);
  }
  // The histograms survive eviction — they saw all eight flights.
  EXPECT_EQ(server.flights().ShardStats("k0").completed, 8u);
}

TEST_F(FlightTest, DisabledRecorderStampsNothing) {
  Server server;
  server.flights().Disable();
  Boot(server);
  auto client = server.Connect();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Plot(1, Fig("fig3_4")).ok());

  auto result = (*client)->Refresh(1);
  ASSERT_TRUE(result.ok());  // serving is unaffected by the kill switch
  EXPECT_FALSE(result->render.empty());
  EXPECT_EQ(result->request_id, 0u);  // 0 = "not recorded"
  EXPECT_FALSE(server.flights().enabled());
  EXPECT_EQ(server.flights().recorded(), 0u);
  EXPECT_TRUE(server.flights().Snapshot().empty());
}

// ---------------------------------------------------------------------------
// Admission rules

TEST_F(FlightTest, BudgetRejectionRecordsRule) {
  SessionOptions options;
  options.session_budget_ns = 1;
  Server server;
  Boot(server);
  auto client = server.Connect(options);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Plot(1, Fig("fig3_4")).ok());
  // Step so the refresh re-extracts (a warm memo replay would charge 0 ns
  // and never trip the budget).
  server.shard_workload("k0")->Step();
  ASSERT_TRUE((*client)->Refresh(1).ok());  // charges >= 1 ns
  ASSERT_GT((*client)->charged_ns(), 0u);
  auto rejected = (*client)->Refresh(1);
  ASSERT_FALSE(rejected.ok());

  std::vector<FlightRecord> flights = server.flights().Snapshot();
  ASSERT_EQ(flights.size(), 2u);
  const FlightRecord& flight = flights[1];
  EXPECT_EQ(flight.outcome, FlightOutcome::kAdmissionRejected);
  EXPECT_EQ(flight.admission_rule, "session_budget_ns");
  EXPECT_EQ(flight.service_ns, 0u);
  EXPECT_GT(flight.finished_ns, 0u);
  // Rejections are counted but kept out of the latency histograms.
  FlightStats stats = server.flights().SessionStats((*client)->id());
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST_F(FlightTest, QueueFullRejectionRecordsRule) {
  SessionOptions options;
  options.max_queued = 1;
  Server server;
  Boot(server, "k0", dbg::LatencyModel::Free());
  auto client = server.Connect(options);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Plot(1, Fig("fig3_4")).ok());

  server.Pause();
  auto queued = (*client)->SubmitRefresh(1);
  ASSERT_TRUE(queued.ok());
  auto rejected = (*client)->SubmitRefresh(1);
  EXPECT_FALSE(rejected.ok());
  server.Resume();
  ASSERT_TRUE(queued->Wait().ok());

  bool found = false;
  for (const FlightRecord& flight : server.flights().Snapshot()) {
    if (flight.outcome != FlightOutcome::kAdmissionRejected) {
      continue;
    }
    found = true;
    EXPECT_EQ(flight.admission_rule, "max_queued");
    EXPECT_EQ(flight.admitted_ns, 0u);  // never passed the queue gate
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// SLO ceilings

TEST_F(FlightTest, SloViolationAttachesOffendingFlight) {
  Server server;
  Boot(server);
  auto client = server.Connect();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Plot(1, Fig("fig3_4")).ok());
  server.shard_workload("k0")->Step();  // force a real (charged) extraction

  server.flights().SetSlo("service", 1);  // any real extraction breaches it
  auto result = (*client)->Refresh(1);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->refresh_ns, 1u);

  EXPECT_GE(server.flights().slo_violations(), 1u);
  std::string report = server.flights().SloReportJson().Dump(2);
  EXPECT_NE(report.find("serve.slo.service_ns"), std::string::npos);
  // The offending flight record rides along as the explain payload.
  EXPECT_NE(report.find("\"request_id\""), std::string::npos);
  EXPECT_NE(report.find("\"outcome\""), std::string::npos);

  // Dedup hits have zero service time: no new violation.
  uint64_t before = server.flights().slo_violations();
  ASSERT_TRUE((*client)->Refresh(1).ok());
  EXPECT_EQ(server.flights().slo_violations(), before);

  // Clear() keeps the configured ceiling but drops the violations.
  server.flights().Clear();
  EXPECT_EQ(server.flights().slo_violations(), 0u);
  EXPECT_NE(server.flights().SloReportJson().Dump(0).find("serve.slo.service_ns"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// ResetStats coherence

TEST_F(FlightTest, ResetStatsClearsServeAccountingCoherently) {
  Server server;
  Boot(server);
  auto a = server.Connect();
  auto b = server.Connect();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE((*a)->Plot(1, Fig("fig3_4")).ok());
  ASSERT_TRUE((*b)->Plot(1, Fig("fig3_4")).ok());
  server.shard_workload("k0")->Step();  // force a real (charged) extraction
  ASSERT_TRUE((*a)->Refresh(1).ok());
  ASSERT_TRUE((*b)->Refresh(1).ok());
  ASSERT_GT((*a)->charged_ns(), 0u);
  ASSERT_GT(server.flights().recorded(), 0u);

  server.ResetStats();

  EXPECT_EQ((*a)->charged_ns(), 0u);
  EXPECT_EQ((*a)->executed(), 0u);
  EXPECT_EQ((*b)->deduped(), 0u);
  EXPECT_EQ(server.flights().recorded(), 0u);
  EXPECT_TRUE(server.flights().Snapshot().empty());
  vl::Json doc = server.ExportFlights();
  const vl::Json* shard = doc.Find("metadata")->Find("shards")->Find("k0");
  EXPECT_EQ(shard->Find("charged_ns")->AsInt(), 0);
  EXPECT_EQ(shard->Find("control_ns")->AsInt(), 0);
  EXPECT_TRUE(shard->Find("reconciled")->AsBool());

  // A fresh epoch of traffic reconciles from zero: the reset rebased the
  // shard clock and the per-session counters together.
  server.shard_workload("k0")->Step();
  ASSERT_TRUE((*a)->Refresh(1).ok());
  doc = server.ExportFlights();
  shard = doc.Find("metadata")->Find("shards")->Find("k0");
  EXPECT_TRUE(shard->Find("reconciled")->AsBool());
  EXPECT_GT(shard->Find("flight_service_ns")->AsInt(), 0);
  EXPECT_EQ(server.flights().recorded(), 1u);
}

// ---------------------------------------------------------------------------
// Shell commands + publish-on-export

// vprof profiles against the shard's clock without zeroing it, so the shard
// still reconciles afterwards (its run is control-plane time).
TEST_F(FlightTest, VprofKeepsShardReconciled) {
  Server server;
  Boot(server);
  auto client = server.Connect();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Plot(1, Fig("fig3_4")).ok());
  server.shard_workload("k0")->Step();  // so the refresh charges service time
  ASSERT_TRUE((*client)->Refresh(1).ok());
  DebuggerShell shell((*client).session());
  std::string out = shell.Execute(std::string("vprof 1 ") + Fig("fig7_1"));
  ASSERT_NE(out.find("vprof pane 1"), std::string::npos) << out;
  EXPECT_NE(out.find("(exact)"), std::string::npos) << out;

  vl::Json doc = server.ExportFlights();
  const vl::Json* shard = doc.Find("metadata")->Find("shards")->Find("k0");
  ASSERT_NE(shard, nullptr);
  EXPECT_TRUE(shard->Find("reconciled")->AsBool()) << doc.Dump(2);
  EXPECT_EQ(shard->Find("charged_ns")->AsInt(),
            shard->Find("control_ns")->AsInt() +
                shard->Find("flight_service_ns")->AsInt());
  EXPECT_GT(shard->Find("flight_service_ns")->AsInt(), 0);
}

TEST_F(FlightTest, PromExportPublishesServeGaugesItself) {
  Server server;
  Boot(server);
  auto client = server.Connect();
  ASSERT_TRUE(client.ok());
  DebuggerShell shell((*client).session());
  ASSERT_NE(shell.Execute(std::string("vplot 1 ") + Fig("fig3_4")).find("plotted"),
            std::string::npos);
  shell.Execute("vctrl refresh 1");

  // The exporter renders a fresh fleet snapshot; nothing is published first.
  std::string prom = shell.Execute("vctrl export prom");
  EXPECT_NE(prom.find("\nvl_serve_flights_recorded 1\n"), std::string::npos) << prom;
  EXPECT_NE(prom.find("\nvl_serve_shard_queue_depth{shard=\"k0\"} 0\n"), std::string::npos);
  EXPECT_NE(prom.find("\nvl_serve_shard_flights_service_ns_p99{shard=\"k0\"} "),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE vl_serve_shard_flights_service_ns histogram\n"),
            std::string::npos);
  EXPECT_NE(prom.find("\nvl_serve_shard_flights_service_ns_bucket{shard=\"k0\",le=\"+Inf\"} 1\n"),
            std::string::npos);
}

TEST_F(FlightTest, FlightsAndTopCommands) {
  Server server;
  Boot(server);
  auto a = server.Connect();
  auto b = server.Connect();
  ASSERT_TRUE(a.ok() && b.ok());
  DebuggerShell shell((*a).session());
  ASSERT_TRUE((*a)->Plot(1, Fig("fig3_4")).ok());
  ASSERT_TRUE((*b)->Plot(1, Fig("fig3_4")).ok());
  ASSERT_TRUE((*a)->Refresh(1).ok());
  ASSERT_TRUE((*b)->Refresh(1).ok());

  std::string flights = shell.Execute("vctrl flights");
  EXPECT_NE(flights.find("req"), std::string::npos);
  EXPECT_NE(flights.find("dedup-hit->1"), std::string::npos);
  std::string json = shell.Execute("vctrl flights json");
  EXPECT_NE(json.find("\"flights\""), std::string::npos);
  EXPECT_NE(json.find("\"recorded\""), std::string::npos);
  // `vctrl flights 1` trims to the newest record.
  std::string newest = shell.Execute("vctrl flights 1");
  EXPECT_EQ(newest.find("cold"), std::string::npos);
  EXPECT_NE(newest.find("dedup-hit"), std::string::npos);

  std::string top = shell.Execute("vctrl top");
  EXPECT_NE(top.find("k0"), std::string::npos);
  EXPECT_NE(top.find("p99_service_ns"), std::string::npos);
  std::string top_json = shell.Execute("vctrl top json");
  EXPECT_NE(top_json.find("\"dedup_ratio\""), std::string::npos);

  // The merged stats report carries the decomposition.
  EXPECT_NE(shell.Execute("vctrl stats").find("flights"), std::string::npos);
  std::string stats_json = shell.Execute("vctrl stats json");
  EXPECT_NE(stats_json.find("\"flights\""), std::string::npos);
  EXPECT_NE(stats_json.find("\"control_ns\""), std::string::npos);

  // SLO round trip through the shell.
  EXPECT_NE(shell.Execute("vctrl slo set service 1").find("slo service_ns = 1 ns"),
            std::string::npos);
  server.shard_workload("k0")->Step();
  ASSERT_TRUE((*a)->Refresh(1).ok());
  EXPECT_NE(shell.Execute("vctrl slo report").find("serve.slo.service_ns"),
            std::string::npos);
  EXPECT_NE(shell.Execute("vctrl slo clear").find("cleared"), std::string::npos);

  // The chrome export merges the span trace with the flight tracks.
  std::string chrome = shell.Execute("vctrl export chrome");
  EXPECT_NE(chrome.find("traceEvents"), std::string::npos);
  EXPECT_NE(chrome.find("\"serve\""), std::string::npos);
  std::string flights_doc = shell.Execute("vctrl export flights");
  EXPECT_NE(flights_doc.find("\"reconciled\""), std::string::npos);
}

}  // namespace
}  // namespace vserve
