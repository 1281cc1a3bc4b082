// The v-command shell (paper §4): vplot, vctrl, and vchat as CLI-style
// commands a developer invokes at a breakpoint. This is the programmatic core
// behind the interactive example binary and the shell tests.
//
// The shell is a front end over one vserve::Session: every plot and refresh
// goes through the serving layer. Open it the one way there is — register a
// shard (Server::AddShard or BootShard), Server::Connect a session, and
// construct the shell on that session.

#ifndef SRC_SERVE_SHELL_H_
#define SRC_SERVE_SHELL_H_

#include <string>

#include "src/dbg/kernel_introspect.h"
#include "src/serve/server.h"
#include "src/support/budget.h"
#include "src/support/timeseries.h"
#include "src/viewcl/decorate.h"
#include "src/vision/panes.h"
#include "src/vision/vchat.h"

namespace vserve {

class DebuggerShell {
 public:
  // Drives an existing session (borrowed; the owning Client must outlive the
  // shell).
  explicit DebuggerShell(Session* session);

  // Executes one command line and returns its textual output. Commands:
  //   vplot <pane> <viewcl program...>      extract a graph into a pane
  //   vctrl split <pane> h|v                split a pane
  //   vctrl apply <pane> <viewql...>        refine a pane with ViewQL
  //   vctrl lint <file|pane> [json]         static-check ViewCL/ViewQL (vlint)
  //   vctrl check [rule|all|list] [json]    vcheck invariant sweep across
  //     every shard (rule = a VC id or name)
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
  //     (prom renders the fleet snapshot and the tracer's read statistics;
  //      chrome merges flight tracks + dedup flow arrows into the span trace)
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
  // The merged stats object: {"target", "cache", "panes", "tracer", "serve",
  // "fleet", "check"} — one place for every stats shape
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

  Session* session_;  // borrowed
  vision::VchatSynthesizer vchat_;
  // Decorator sets the linter checks `vctrl lint` and vchat programs
  // against: the built-in ones every interpreter has.
  viewcl::EmojiRegistry emoji_;
};

}  // namespace vserve

#endif  // SRC_SERVE_SHELL_H_
