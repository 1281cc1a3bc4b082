// The v-command shell (paper §4): vplot, vctrl, and vchat as CLI-style
// commands a developer invokes at a breakpoint. This is the programmatic core
// behind the interactive example binary and the shell tests.
//
// As of the vserve redesign the shell is a thin front end over a
// vserve::Session — every plot/refresh goes through the serving layer, so
// single-user mode is literally a one-session server. Construct it on a
// Session from Server::Connect; the legacy KernelDebugger constructor remains
// as a deprecated compat shim that spins up a private inline server.

#ifndef SRC_SERVE_SHELL_H_
#define SRC_SERVE_SHELL_H_

#include <memory>
#include <optional>
#include <string>

#include "src/dbg/kernel_introspect.h"
#include "src/serve/server.h"
#include "src/support/budget.h"
#include "src/support/timeseries.h"
#include "src/vision/panes.h"
#include "src/vision/vchat.h"

namespace vserve {

class DebuggerShell {
 public:
  // The vserve-native entry point: drive an existing session (borrowed; the
  // owning Client must outlive the shell).
  explicit DebuggerShell(Session* session);

  // DEPRECATED: pre-vserve compatibility. Wraps `debugger` in a private
  // inline single-shard Server and connects one classic session to it
  // (SessionOptions::FromCacheConfig — the debugger's cache config is
  // adopted, never reconfigured). New code should Connect to a Server and
  // use DebuggerShell(Session*).
  explicit DebuggerShell(dbg::KernelDebugger* debugger);

  // Executes one command line and returns its textual output. Commands:
  //   vplot <pane> <viewcl program...>      extract a graph into a pane
  //   vctrl split <pane> h|v                split a pane
  //   vctrl apply <pane> <viewql...>        refine a pane with ViewQL
  //   vctrl lint <file|pane> [json]         static-check ViewCL/ViewQL (vlint)
  //   vctrl check [rule|all] [incremental] [json]  vcheck invariant sweep
  //     across every shard (rule = a VC id or name; incremental re-runs only
  //     rules whose page footprint is dirty)
  //   vctrl focus addr <hex>                search all panes for an object
  //   vctrl focus <member> <value>          search by member value (e.g. pid 2)
  //   vctrl view <pane> [ascii|dot|json]    render a pane with a back-end
  //   vctrl layout                          show the pane tree
  //   vctrl save                            dump the session state as JSON
  //   vctrl stats [json]                    merged target/cache/pane cost report
  //   vctrl trace on|off|clear|dump <file>  control the deterministic tracer
  //   vctrl explain <pane> [json]           refresh + per-node cost attribution
  //   vctrl refresh <pane>                  re-extract a pane, report its cost
  //   vctrl watch on|off|clear|<pane> [json]  refresh time-series (sparklines)
  //   vctrl budget set|clear|list|report|on|off  latency budgets + violations
  //   vctrl flights [n] [json]              recent-request flight records
  //   vctrl top [json]                      fleet snapshot (queues, dedup, p99)
  //   vctrl slo set|report|clear            queue/service/total SLO ceilings
  //   vctrl export prom|folded|chrome|flights [path]  standard exporters
  //     (prom publishes serve gauges itself; chrome merges flight tracks +
  //      dedup flow arrows into the span trace)
  //   vprof <pane> <viewcl program...>      traced run + self-time breakdown
  //   vchat <pane> <natural language...>    synthesize + apply ViewQL
  //   help
  std::string Execute(const std::string& line);

  Session& session() { return *session_; }
  vision::PaneManager& panes() { return session_->panes(); }
  vision::VchatSynthesizer& vchat() { return vchat_; }
  vl::TimeSeriesRecorder& recorder() { return session_->recorder(); }
  vl::BudgetRegistry& budgets() { return session_->budgets(); }

 private:
  std::string CmdVplot(const std::string& args);
  std::string CmdVctrl(const std::string& args);
  std::string CmdLint(const std::string& args);
  std::string CmdCheck(const std::string& args);
  std::string CmdVchat(const std::string& args);
  std::string CmdVprof(const std::string& args);
  std::string CmdStats(const std::string& args);
  // The merged stats object: {"target", "cache", "panes", "tracer",
  // "metrics", "serve", "fleet", "check"} — one place for every stats shape
  // (docs/observability.md#stats-schema).
  vl::Json StatsJson() const;
  std::string CmdTrace(const std::string& args);
  std::string CmdExplain(const std::string& args);
  std::string CmdRefresh(const std::string& args);
  std::string CmdWatch(const std::string& args);
  std::string CmdBudget(const std::string& args);
  std::string CmdExport(const std::string& args);
  std::string CmdFlights(const std::string& args);
  std::string CmdTop(const std::string& args);
  std::string CmdSlo(const std::string& args);

  dbg::KernelDebugger* dbg() const { return session_->debugger(); }

  // Compat-constructor plumbing (unused when attached to a caller's session).
  // Declaration order matters: the client (and its Session) must be torn
  // down before the server it is connected to.
  std::unique_ptr<Server> owned_server_;
  std::optional<Client> owned_client_;

  Session* session_;  // borrowed, or owned_client_'s session
  vision::VchatSynthesizer vchat_;
};

}  // namespace vserve

namespace vision {
// Transitional alias: DebuggerShell moved into the vserve serving layer.
// Existing vision::DebuggerShell users keep compiling; new code should name
// vserve::DebuggerShell directly.
using DebuggerShell = ::vserve::DebuggerShell;
}  // namespace vision

#endif  // SRC_SERVE_SHELL_H_
