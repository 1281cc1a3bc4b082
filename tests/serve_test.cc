// vserve serving-layer tests: SessionOptions validation and lowering, request
// dedup (one extraction serves every overlapping client), per-session view
// isolation, byte-identical renders vs a raw reference session, private-engine
// sessions replotting from scratch, admission control, shard routing,
// cache-config sharing, the async scheduler (two shards refreshing at once on
// the worker pool), the shell on a session, the Prometheus export of the
// fleet snapshot, and the Target stats snapshot race fixed alongside this
// layer.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/dbg/kernel_introspect.h"
#include "src/serve/options.h"
#include "src/serve/server.h"
#include "src/serve/shell.h"
#include "src/support/str.h"
#include "src/vision/figures.h"
#include "src/vkern/kernel.h"
#include "src/vkern/workload.h"

namespace vserve {
namespace {

const char* Fig(const char* id) { return vision::FindFigure(id)->viewcl; }

// ---------------------------------------------------------------------------
// SessionOptions (the consolidated-config satellite)

TEST(SessionOptionsTest, DefaultsValidateClean) {
  SessionOptions options;
  vl::DiagnosticList diags = options.Validate();
  EXPECT_EQ(diags.errors(), 0);
  EXPECT_EQ(options.ValidationText(), "");
}

TEST(SessionOptionsTest, FailFastDiagnosticsCarryRuleIds) {
  SessionOptions options;
  options.block_bytes = 0;  // VS001: incremental needs a block cache
  EXPECT_GT(options.Validate().errors(), 0);
  EXPECT_NE(options.ValidationText().find("VS001"), std::string::npos);

  options = SessionOptions{};
  options.max_queued = 0;  // VS004
  EXPECT_NE(options.ValidationText().find("VS004"), std::string::npos);

  options = SessionOptions{};
  options.shard = "bad shard";  // VS005
  EXPECT_NE(options.ValidationText().find("VS005"), std::string::npos);

  // VS006 is a warning: still zero errors, so the session is admissible.
  options = SessionOptions{};
  options.block_bytes = 300;
  EXPECT_EQ(options.Validate().errors(), 0);
}

TEST(SessionOptionsTest, CacheConfigLowersAndNormalizes) {
  SessionOptions options;
  options.block_bytes = 300;
  options.incremental = false;
  dbg::CacheConfig config = options.ToCacheConfig();
  EXPECT_EQ(config.block_bytes, 300u);
  EXPECT_EQ(config.capacity_blocks, dbg::CacheConfig{}.capacity_blocks);
  EXPECT_FALSE(config.delta_invalidation);
  // The serving defaults lower to the incremental block cache.
  EXPECT_EQ(SessionOptions{}.ToCacheConfig(), dbg::CacheConfig::Incremental());

  // Normalized is the form a ReadSession runs: 300 B blocks are 512 B ones,
  // so 300 and 512 describe the same cache.
  dbg::CacheConfig normalized = config.Normalized();
  EXPECT_EQ(normalized.block_bytes, 512u);
  EXPECT_NE(normalized, config);
  EXPECT_EQ(normalized.Normalized(), normalized);
  options.block_bytes = 512;
  EXPECT_EQ(options.ToCacheConfig().Normalized(), normalized);
  // A block cache keeps at least one block; no cache stays no cache.
  EXPECT_EQ((dbg::CacheConfig{256, 0}.Normalized().capacity_blocks), 1u);
  EXPECT_EQ(dbg::CacheConfig::Disabled().Normalized(), dbg::CacheConfig::Disabled());
}

// ---------------------------------------------------------------------------
// Serving

class ServeTest : public ::testing::Test {
 protected:
  // One booted shard on the GDB/QEMU latency model so refreshes have a real
  // (virtual) cost to account.
  void Boot(Server& server, const std::string& name = "k0",
            dbg::LatencyModel model = dbg::LatencyModel::GdbQemu()) {
    ASSERT_TRUE(server.BootShard(name, model).ok());
  }
};

TEST_F(ServeTest, DedupServesSecondClientFromOneExtraction) {
  Server server;
  Boot(server);
  auto a = server.Connect();
  auto b = server.Connect();
  ASSERT_TRUE(a.ok() && b.ok());

  ASSERT_TRUE((*a)->Plot(1, Fig("fig3_4")).ok());
  ASSERT_TRUE((*b)->Plot(1, Fig("fig3_4")).ok());

  auto first = (*a)->Refresh(1);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->deduped);
  EXPECT_EQ((*a)->executed(), 1u);

  uint64_t charged_before = (*b)->charged_ns();
  auto second = (*b)->Refresh(1);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->deduped);
  EXPECT_EQ(second->refresh_ns, 0u);  // the duplicate is charged nothing
  EXPECT_EQ((*b)->charged_ns(), charged_before);
  EXPECT_EQ((*b)->deduped(), 1u);
  EXPECT_EQ((*b)->executed(), 0u);
  // ...and it is served real bytes, not just accounting.
  EXPECT_FALSE(second->render.empty());
  EXPECT_EQ(second->render, first->render);
  // Completion sequences are server-wide and monotonic.
  EXPECT_GT(second->sequence, first->sequence);
}

TEST_F(ServeTest, KernelMutationInvalidatesDedup) {
  Server server;
  Boot(server);
  auto a = server.Connect();
  auto b = server.Connect();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE((*a)->Plot(1, Fig("fig3_4")).ok());
  ASSERT_TRUE((*b)->Plot(1, Fig("fig3_4")).ok());
  ASSERT_TRUE((*a)->Refresh(1).ok());

  // Advance the kernel: the dedup key embeds the mutation generation, so the
  // stale cached result must not be served.
  server.shard_workload("k0")->Step();
  auto fresh = (*b)->Refresh(1);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->deduped);
  EXPECT_EQ((*b)->executed(), 1u);
}

TEST_F(ServeTest, PerSessionViewIsolation) {
  Server server;
  Boot(server);
  auto a = server.Connect();
  auto b = server.Connect();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE((*a)->Plot(1, Fig("fig3_4")).ok());
  ASSERT_TRUE((*b)->Plot(1, Fig("fig3_4")).ok());
  EXPECT_EQ((*a)->Render(1), (*b)->Render(1));

  // A ViewQL refinement in one session must not leak into the other, even
  // though both share the shard's block cache and engines.
  ASSERT_TRUE((*a)->Apply(1,
                          "a = SELECT task_struct FROM *\n"
                          "UPDATE a WITH collapsed: true")
                  .ok());
  EXPECT_NE((*a)->Render(1), (*b)->Render(1));

  // And the refinement changes A's dedup key, so A's next refresh is a real
  // extraction, not B's cached result.
  ASSERT_TRUE((*b)->Refresh(1).ok());
  auto refined = (*a)->Refresh(1);
  ASSERT_TRUE(refined.ok());
  EXPECT_FALSE(refined->deduped);
}

TEST_F(ServeTest, RendersByteIdenticalToSingleSessionMode) {
  // Serving path: a session on a booted shard, every reuse layer on.
  Server server;
  Boot(server, "k0", dbg::LatencyModel::Free());
  auto client = server.Connect();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Plot(1, Fig("fig3_4")).ok());
  auto served = (*client)->Refresh(1);
  ASSERT_TRUE(served.ok());

  // Reference: one session on an identically booted kernel with every reuse
  // layer off — raw transport, a private engine, no dedup, no render cache
  // (the fields vbench's oracle renders with).
  Boot(server, "ref", dbg::LatencyModel::Free());
  SessionOptions raw;
  raw.shard = "ref";
  raw.block_bytes = 0;
  raw.incremental = false;
  raw.shared_engines = false;
  raw.coalesce = false;
  raw.render_cache = false;
  auto reference = server.Connect(raw);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_TRUE((*reference)->Plot(1, Fig("fig3_4")).ok());
  EXPECT_FALSE(served->render.empty());
  EXPECT_EQ(served->render, (*reference)->Render(1));
  // And a serve refresh is idempotent on an unchanged kernel.
  auto again = (*client)->Refresh(1);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->render, served->render);
}

// A session without shared engines replots every refresh on a fresh
// engine: however often it refreshes, and whatever its other panes plot, each
// render matches a fresh session's.
TEST_F(ServeTest, PrivateEngineReplotsFromScratch) {
  Server server;
  Boot(server, "k0", dbg::LatencyModel::Free());
  SessionOptions raw;
  raw.block_bytes = 0;
  raw.incremental = false;
  raw.shared_engines = false;
  raw.coalesce = false;
  raw.render_cache = false;
  auto fresh_render = [&](const char* figure) {
    auto client = server.Connect(raw);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    EXPECT_TRUE((*client)->Plot(1, Fig(figure)).ok());
    return (*client)->Render(1);
  };
  const std::string fig3_4 = fresh_render("fig3_4");
  const std::string fig7_1 = fresh_render("fig7_1");

  auto client = server.Connect(raw);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE((*client)->Plot(1, Fig("fig3_4")).ok());
  for (int refresh = 0; refresh < 2; ++refresh) {
    ASSERT_TRUE((*client)->Refresh(1).ok());
    EXPECT_EQ((*client)->Render(1), fig3_4) << "refresh " << refresh;
  }
  auto second = (*client)->Split(1, 'h');
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE((*client)->Plot(*second, Fig("fig7_1")).ok());
  EXPECT_EQ((*client)->Render(*second), fig7_1);
  EXPECT_EQ((*client)->Render(1), fig3_4);
}

// The fresh engines' walks count on their shard: they outlive the session,
// and Server::ResetStats zeroes them.
TEST_F(ServeTest, PrivateEngineWalksCountOnTheShard) {
  Server server;
  Boot(server, "k0", dbg::LatencyModel::Free());
  auto walk_runs = [&] {
    return server.StatsToJson()["shards"]["k0"]["walk"]["runs"].AsInt();
  };
  {
    SessionOptions options;
    options.shared_engines = false;
    auto client = server.Connect(options);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE((*client)->Plot(1, Fig("fig3_4")).ok());
    ASSERT_TRUE((*client)->Refresh(1).ok());
    EXPECT_EQ(walk_runs(), 2);
  }
  EXPECT_EQ(walk_runs(), 2);  // the session disconnected
  EXPECT_EQ(server.StatsToJson()["walk"]["runs"].AsInt(), 2);
  server.ResetStats();
  EXPECT_EQ(walk_runs(), 0);
}

TEST_F(ServeTest, AdmissionRejectsSessionOverBudget) {
  Server server;
  Boot(server);
  // No block cache: every refresh pays raw transport costs, so the first
  // refresh is guaranteed to charge > 0 virtual ns.
  SessionOptions options;
  options.block_bytes = 0;
  options.incremental = false;
  options.session_budget_ns = 1;
  auto client = server.Connect(options);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Plot(1, Fig("fig3_4")).ok());

  auto first = (*client)->Refresh(1);
  ASSERT_TRUE(first.ok());
  ASSERT_GT((*client)->charged_ns(), 0u);

  auto second = (*client)->Refresh(1);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), vl::StatusCode::kResourceExhausted);
  EXPECT_EQ((*client)->rejected(), 1u);
  // The rejection is recorded as a budget violation for vexplain.
  ASSERT_FALSE((*client)->budgets().violations().empty());
  const vl::BudgetViolation& violation = (*client)->budgets().violations().back();
  EXPECT_EQ(violation.key, vl::StrFormat("serve.session.%d", (*client)->id()));
  EXPECT_EQ(violation.budget_ns, 1u);
}

TEST_F(ServeTest, ShardRoutingNamedAndRoundRobin) {
  Server server;
  Boot(server, "k0", dbg::LatencyModel::Free());
  Boot(server, "k1", dbg::LatencyModel::Free());
  EXPECT_EQ(server.shard_count(), 2u);

  SessionOptions named;
  named.shard = "k1";
  auto pinned = server.Connect(named);
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ((*pinned)->shard_name(), "k1");

  SessionOptions missing;
  missing.shard = "nope";
  auto not_found = server.Connect(missing);
  ASSERT_FALSE(not_found.ok());
  EXPECT_EQ(not_found.status().code(), vl::StatusCode::kNotFound);

  // "" spreads sessions round-robin across the fleet.
  auto c1 = server.Connect();
  auto c2 = server.Connect();
  ASSERT_TRUE(c1.ok() && c2.ok());
  EXPECT_NE((*c1)->shard_name(), (*c2)->shard_name());
  EXPECT_EQ(server.session_count(), 3u);
}

TEST_F(ServeTest, ConnectRefusesCacheConfigConflictWhileOccupied) {
  Server server;
  Boot(server, "k0", dbg::LatencyModel::Free());
  SessionOptions big;
  big.block_bytes = 512;
  {
    auto first = server.Connect();  // adopts the default incremental config
    ASSERT_TRUE(first.ok());
    auto conflicting = server.Connect(big);
    ASSERT_FALSE(conflicting.ok());
    EXPECT_EQ(conflicting.status().code(), vl::StatusCode::kFailedPrecondition);
    // A matching config can still share the shard.
    auto matching = server.Connect();
    EXPECT_TRUE(matching.ok());
  }
  // Once the shard is empty again it adopts the newcomer's config.
  auto retry = server.Connect(big);
  EXPECT_TRUE(retry.ok());
}

// block_bytes = 300 is admissible (VS006 only warns) and runs as 512 B
// blocks. Connect compares configs in that normalized form, so a second
// session with the same options shares the shard, and reconnecting to an
// empty shard leaves its warm cache alone.
TEST_F(ServeTest, ConnectComparesNormalizedCacheConfig) {
  Server server;
  Boot(server, "k0", dbg::LatencyModel::Free());
  SessionOptions odd;
  odd.block_bytes = 300;
  const dbg::ReadSession& cache = server.shard_debugger("k0")->session();
  {
    auto first = server.Connect(odd);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_EQ(cache.config().block_bytes, 512u);
    auto second = server.Connect(odd);
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    ASSERT_TRUE((*second)->Plot(1, Fig("fig3_4")).ok());
  }
  size_t warm = cache.cached_blocks();
  ASSERT_GT(warm, 0u);
  auto again = server.Connect(odd);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(cache.cached_blocks(), warm);  // not reconfigured, so not flushed
}

TEST_F(ServeTest, SchedulerQueuesUnderPauseAndPreservesFifo) {
  Server server;  // inline mode: workers == 0
  Boot(server, "k0", dbg::LatencyModel::Free());
  SessionOptions options;
  options.max_queued = 2;
  auto client = server.Connect(options);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Plot(1, Fig("fig3_4")).ok());

  server.Pause();
  auto t1 = (*client)->SubmitRefresh(1);
  auto t2 = (*client)->SubmitRefresh(1);
  ASSERT_TRUE(t1.ok() && t2.ok());
  EXPECT_FALSE(t1->done());

  // Admission control on queue depth: the third submit is rejected.
  auto t3 = (*client)->SubmitRefresh(1);
  ASSERT_FALSE(t3.ok());
  EXPECT_EQ(t3.status().code(), vl::StatusCode::kResourceExhausted);
  EXPECT_EQ((*client)->rejected(), 1u);

  server.Resume();  // inline server: drains on this thread
  auto r1 = t1->Wait();
  auto r2 = t2->Wait();
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_LT(r1->sequence, r2->sequence);  // per-session FIFO preserved
  EXPECT_TRUE(r2->deduped);               // same figure, same epoch: coalesced
  server.Drain();
}

TEST_F(ServeTest, WorkerPoolServesConcurrentClients) {
  ServerConfig config;
  config.workers = 2;
  Server server(config);
  Boot(server, "k0", dbg::LatencyModel::Free());

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
  std::string render;
  for (Ticket& ticket : tickets) {
    auto result = ticket.Wait();
    ASSERT_TRUE(result.ok());
    ASSERT_FALSE(result->render.empty());
    if (render.empty()) {
      render = result->render;
    }
    EXPECT_EQ(result->render, render);  // every client sees the same bytes
  }
  // The overlapping fleet coalesced: exactly one client paid for extraction.
  uint64_t executed = 0;
  for (auto& client : clients) {
    executed += (*client)->executed();
  }
  EXPECT_EQ(executed, 1u);
}

// Two shards refresh at once on the worker pool with tracing off, as
// server.h advertises. Each round steps both kernels first, so every refresh
// starts with its shard's delta refresh (a vectored read). Under the tsan
// preset this checks that nothing the refresh path writes is shared between
// shards.
TEST_F(ServeTest, TwoShardsRefreshConcurrentlyOnTheWorkerPool) {
  constexpr int kRounds = 20;
  ServerConfig config;
  config.workers = 2;
  Server server(config);
  const std::vector<std::string> shards = {"k0", "k1"};
  std::vector<vl::StatusOr<Client>> clients;
  for (const std::string& shard : shards) {
    Boot(server, shard);
    SessionOptions options;
    options.shard = shard;
    clients.push_back(server.Connect(options));
    ASSERT_TRUE(clients.back().ok());
    ASSERT_TRUE((*clients.back())->Plot(1, Fig("fig7_1")).ok());
  }
  for (int round = 0; round < kRounds; ++round) {
    for (const std::string& shard : shards) {
      server.shard_kernel(shard)->TickCpu(round % vkern::kNrCpus);
    }
    std::vector<Ticket> tickets;
    for (auto& client : clients) {
      auto ticket = (*client)->SubmitRefresh(1);
      ASSERT_TRUE(ticket.ok());
      tickets.push_back(*ticket);
    }
    for (Ticket& ticket : tickets) {
      auto result = ticket.Wait();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_FALSE(result->render.empty());
    }
    server.Drain();
  }
  for (const std::string& shard : shards) {
    EXPECT_GT(server.shard_debugger(shard)->session().cache_stats().refreshed_blocks, 0u)
        << shard;
  }
}

TEST_F(ServeTest, ShellOnConnectedSessionReportsServeSection) {
  Server server;
  Boot(server, "k0", dbg::LatencyModel::Free());
  auto client = server.Connect();
  ASSERT_TRUE(client.ok());
  DebuggerShell shell(client->session());
  EXPECT_EQ(shell.session().shard_name(), "k0");

  std::string out = shell.Execute(std::string("vplot 1 ") + Fig("fig3_4"));
  EXPECT_NE(out.find("plotted"), std::string::npos);
  out = shell.Execute("vctrl refresh 1");
  EXPECT_NE(out.find("refreshed pane 1"), std::string::npos);
  EXPECT_EQ(out.find("(deduped)"), std::string::npos);
  // Same figure, same epoch: the shell marks the dedup serve.
  EXPECT_NE(shell.Execute("vctrl refresh 1").find("(deduped)"), std::string::npos);
  // The merged stats report carries the serve section.
  EXPECT_NE(shell.Execute("vctrl stats").find("serve: session 1 on shard k0, 2 requests "
                                              "(1 executed, 1 deduped, 0 rejected)"),
            std::string::npos);
  EXPECT_NE(shell.Execute("vctrl stats json").find("\"serve\""), std::string::npos);
}

TEST_F(ServeTest, ServerStatsExposeShardsAndSessions) {
  Server server;
  Boot(server, "k0", dbg::LatencyModel::Free());
  auto a = server.Connect();
  auto b = server.Connect();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE((*a)->Plot(1, Fig("fig3_4")).ok());
  ASSERT_TRUE((*b)->Plot(1, Fig("fig3_4")).ok());
  ASSERT_TRUE((*a)->Refresh(1).ok());
  ASSERT_TRUE((*b)->Refresh(1).ok());

  std::string stats = server.StatsToJson().Dump(2);
  EXPECT_NE(stats.find("\"shards\""), std::string::npos);
  EXPECT_NE(stats.find("\"k0\""), std::string::npos);
  EXPECT_NE(stats.find("\"dedup_hits\": 1"), std::string::npos);
  EXPECT_NE(stats.find("\"per_session\""), std::string::npos);

  std::string prom = DebuggerShell((*a).session()).Execute("vctrl export prom");
  EXPECT_NE(prom.find("\nvl_serve_sessions 2\n"), std::string::npos) << prom;
  EXPECT_NE(prom.find("\nvl_serve_shard_dedup_hits{shard=\"k0\"} 1\n"), std::string::npos)
      << prom;
}

// ---------------------------------------------------------------------------
// The Prometheus export renders the fleet snapshot

struct PromSample {
  std::string line;
  std::string name;
  std::map<std::string, std::string> labels;  // unescaped values
  std::string value;
};

// Parses a text exposition; counts each family's `# TYPE` lines.
std::vector<PromSample> ParseProm(const std::string& text, std::map<std::string, int>* types) {
  std::vector<PromSample> samples;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      (*types)[line.substr(7, line.find(' ', 7) - 7)]++;
      continue;
    }
    PromSample sample;
    sample.line = line;
    size_t i = line.find_first_of("{ ");
    sample.name = line.substr(0, i);
    if (i < line.size() && line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        size_t eq = line.find('=', i);
        std::string key = line.substr(i, eq - i);
        std::string value;
        for (i = eq + 2; i < line.size() && line[i] != '"'; ++i) {
          if (line[i] == '\\') {
            ++i;
            value += line[i] == 'n' ? '\n' : line[i];
          } else {
            value += line[i];
          }
        }
        sample.labels[key] = value;
        i += line[i + 1] == ',' ? 2 : 1;
      }
      ++i;
    }
    sample.value = line.substr(i + 1);
    samples.push_back(std::move(sample));
  }
  return samples;
}

// The value of the stats field a sample renders: `suffix` is the sample name
// after its family prefix ("_target_dirty_queries"), searched through
// `stats`'s keys. A histogram's _bucket/_sum/_count come from its buckets.
std::optional<std::string> StatsValue(const vl::Json& stats, const std::string& suffix,
                                      const std::map<std::string, std::string>& labels) {
  if (const vl::Json* buckets = stats.Find("buckets")) {
    if (suffix == "_sum" || suffix == "_count") {
      return stats.Find(suffix.substr(1))->Dump();
    }
    if (suffix == "_bucket") {
      if (labels.at("le") == "+Inf") {
        return stats.Find("count")->Dump();
      }
      int64_t cumulative = 0;
      for (const vl::Json& bucket : buckets->items()) {
        cumulative += bucket.at(1).AsInt();
        if (bucket.at(0).Dump() == labels.at("le")) {
          return vl::Json::Int(cumulative).Dump();
        }
      }
      return std::nullopt;
    }
  }
  if (suffix.empty()) {
    if (stats.kind() == vl::Json::Kind::kBool) {
      return std::string(stats.AsBool() ? "1" : "0");
    }
    return stats.kind() == vl::Json::Kind::kNumber ? std::optional(stats.Dump()) : std::nullopt;
  }
  for (const auto& [key, child] : stats.entries()) {
    if (suffix.rfind("_" + key, 0) != 0) {
      continue;
    }
    const vl::Json* next = &child;
    if (key == "per_model") {
      auto model = labels.find("model");
      next = model != labels.end() ? child.Find(model->second) : nullptr;
    }
    if (next != nullptr) {
      if (auto value = StatsValue(*next, suffix.substr(key.size() + 1), labels)) {
        return value;
      }
    }
  }
  return std::nullopt;
}

// Boots three shards whose names an exposition must keep apart ("a-b" and
// "a_b" sanitize alike; the third holds a quote and a backslash), serves a
// refresh, a kernel step and a refresh on each, then checks `vctrl export
// prom` against Server::StatsToJson.
void CheckPromExportMatchesStats(size_t workers) {
  ServerConfig config;
  config.workers = workers;
  Server server(config);
  const std::vector<std::string> shards = {"a-b", "a_b", "q\"uo\\te"};
  std::vector<Client> clients;
  for (const std::string& shard : shards) {
    ASSERT_TRUE(server.BootShard(shard, dbg::LatencyModel::GdbQemu()).ok()) << shard;
    SessionOptions options;
    options.shard = shard;
    auto client = server.Connect(options);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE((*client)->Plot(1, Fig("fig7_1")).ok());
    clients.push_back(std::move(client).value());
  }
  for (int round = 0; round < 2; ++round) {
    for (const std::string& shard : shards) {
      server.shard_kernel(shard)->TickCpu(round);
    }
    std::vector<Ticket> tickets;
    for (Client& client : clients) {
      auto ticket = client->SubmitRefresh(1);
      ASSERT_TRUE(ticket.ok());
      tickets.push_back(*ticket);
    }
    for (Ticket& ticket : tickets) {
      ASSERT_TRUE(ticket.Wait().ok());
    }
    server.Drain();
  }
  std::string prom = DebuggerShell(clients[0].session()).Execute("vctrl export prom");
  vl::Json fleet = server.StatsToJson();

  std::map<std::string, int> types;
  std::vector<PromSample> samples = ParseProm(prom, &types);
  ASSERT_FALSE(types.empty());
  for (const auto& [family, count] : types) {
    EXPECT_EQ(count, 1) << family;
  }
  // Label values are escaped, and unescape to the shard's name.
  EXPECT_NE(prom.find("{shard=\"q\\\"uo\\\\te\"}"), std::string::npos) << prom;

  std::map<std::string, std::set<std::string>> per_shard;  // sample names by shard
  size_t per_session = 0;
  for (const PromSample& sample : samples) {
    const vl::Json* stats = nullptr;
    std::string family;
    if (sample.labels.count("session") != 0) {
      for (const vl::Json& session : fleet["per_session"].items()) {
        if (session.Find("id")->Dump() == sample.labels.at("session")) {
          stats = &session;
          EXPECT_EQ(session.Find("shard")->AsString(), sample.labels.at("shard"));
        }
      }
      family = "vl_serve_session";
      per_session++;
    } else if (sample.labels.count("shard") != 0) {
      stats = fleet["shards"].Find(sample.labels.at("shard"));
      family = "vl_serve_shard";
      per_shard[sample.labels.at("shard")].insert(sample.name);
    } else {
      continue;
    }
    ASSERT_NE(stats, nullptr) << sample.line;
    ASSERT_EQ(sample.name.rfind(family + "_", 0), 0u) << sample.line;
    std::optional<std::string> expected =
        StatsValue(*stats, sample.name.substr(family.size()), sample.labels);
    ASSERT_TRUE(expected.has_value()) << sample.line;
    EXPECT_EQ(sample.value, *expected) << sample.line;
  }
  // Every shard and session is exported, each shard with the same families.
  ASSERT_EQ(per_shard.size(), shards.size());
  for (const std::string& shard : shards) {
    EXPECT_EQ(per_shard[shard], per_shard[shards[0]]) << shard;
  }
  EXPECT_GT(per_session, 0u);
  // The counts the process-wide registry used to copy are exported from
  // their owners, per shard and per session.
  for (const char* series :
       {"vl_serve_shard_target_dirty_queries{shard=\"a-b\"} ",
        "vl_serve_shard_cache_invalidated_bytes_delta{shard=\"a-b\"} ",
        "vl_serve_shard_cache_invalidated_bytes_full{shard=\"a_b\"} ",
        "vl_serve_shard_walk_memo_replays{shard=\"a_b\"} ",
        "vl_serve_shard_walk_memo_misses{shard=\"a-b\"} ",
        "vl_serve_session_render_digest_hits{session=\"1\",shard=\"a-b\"} ",
        "vl_serve_session_render_digest_misses{session=\"2\",shard=\"a_b\"} ",
        "vl_serve_shard_queue_depth{shard=\"a-b\"} 0\n",
        "vl_serve_check_sweeps 0\n"}) {
    EXPECT_NE(prom.find(series), std::string::npos) << series;
  }
  EXPECT_GT(fleet["shards"]["a-b"]["target"]["dirty"]["queries"].AsInt(), 0);
  EXPECT_GT(fleet["shards"]["a_b"]["walk"]["memo_misses"].AsInt(), 0);
}

TEST(PromExportTest, FamiliesAreTypedOnceAndSeriesMatchTheFleetSnapshot) {
  CheckPromExportMatchesStats(0);
}

// The same on the worker pool, for the tsan-serve preset.
TEST(PromExportTest, ServeWorkerPoolSeriesMatchTheFleetSnapshot) {
  CheckPromExportMatchesStats(2);
}

// ---------------------------------------------------------------------------
// The Target::ResetStats race fix

TEST(TargetStatsRaceTest, ResetRacesWithSnapshotReaders) {
  vkern::Kernel kernel;
  vkern::WorkloadConfig config;
  config.steps = 30;
  vkern::Workload workload(&kernel, config);
  workload.Run();
  dbg::KernelDebugger debugger(&kernel, dbg::LatencyModel::GdbQemu());
  dbg::Target& target = debugger.target();

  // One thread generating charges, one hammering ResetStats, two taking the
  // snapshot accessors. Pre-fix, per_model_stats()/dirty_stats() returned
  // references into state ResetStats concurrently cleared; the snapshots are
  // now taken by value under the stats lock. TSan (the build-tsan preset) is
  // the real assertion here; the invariants below catch torn reads anywhere.
  std::atomic<bool> stop{false};
  std::thread charger([&] {
    uint8_t buffer[64];
    uint64_t addr = reinterpret_cast<uint64_t>(kernel.procs().init_task());
    while (!stop.load(std::memory_order_relaxed)) {
      (void)debugger.session().ReadBytes(addr, buffer, sizeof(buffer));
    }
  });
  std::thread resetter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      target.ResetStats();
    }
  });
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto per_model = target.per_model_stats();
      for (const auto& [name, stats] : per_model) {
        ASSERT_FALSE(name.empty());
        ASSERT_GE(stats.bytes, stats.reads);  // every read is >= 1 byte
      }
      auto dirty = target.dirty_stats();
      ASSERT_GE(dirty.pages_scanned, dirty.pages_dirty);
    }
  });
  std::thread json_reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_FALSE(target.StatsToJson().Dump(0).empty());
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true, std::memory_order_relaxed);
  charger.join();
  resetter.join();
  reader.join();
  json_reader.join();
}

}  // namespace
}  // namespace vserve
