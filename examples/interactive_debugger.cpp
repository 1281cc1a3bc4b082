// The panel-based interactive debugger (paper §2.4, Figure 2).
//
// Runs the v-command shell over a live simulated kernel, connected through
// the vserve serving layer: a Server boots the kernel as a shard, Connect
// attaches a session, and the shell drives that session (single-user mode is
// literally a one-session server — see docs/serving.md). With --demo, a
// scripted session reproduces Figure 2's workflow: two primary panes (the
// process parenthood tree and the CFS scheduling tree), a "focus" search
// that finds the same task_struct in both, a secondary pane for the focused
// object, and a vchat refinement. Without --demo, a REPL reads v-commands
// from stdin.
//
//   $ ./interactive_debugger --demo
//   $ ./interactive_debugger            # type 'help' for commands

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "src/serve/server.h"
#include "src/serve/shell.h"
#include "src/support/str.h"
#include "src/vision/figures.h"
#include "src/vkern/kernel.h"
#include "src/vkern/workload.h"

namespace {

void Run(vserve::DebuggerShell& shell, const std::string& line) {
  std::printf("(vdb) %s\n%s\n", line.c_str(), shell.Execute(line).c_str());
}

int Demo(vserve::DebuggerShell& shell, vkern::Kernel& kernel) {
  std::printf("--- scripted demo: the paper's Figure 2 workflow ---\n\n");

  // Pane 1: the process parenthood tree; pane 2: the CFS scheduling tree.
  Run(shell, std::string("vplot 1 ") + vision::FindFigure("fig3_4")->viewcl);
  Run(shell, "vctrl split 1 h");
  Run(shell, std::string("vplot 2 ") + vision::FindFigure("fig7_1")->viewcl);
  Run(shell, "vctrl layout");

  // Focus: find a queued task in BOTH structures.
  vkern::task_struct* queued = nullptr;
  kernel.sched().ForEachQueued(0, [&](vkern::task_struct* t) {
    if (queued == nullptr && t->pid > 1) {
      queued = t;
    }
  });
  if (queued == nullptr) {
    std::printf("no queued task to focus on\n");
    return 1;
  }
  std::printf("focusing on pid %d (%s), managed by the parent tree AND the run queue:\n\n",
              queued->pid, queued->comm);
  Run(shell, vl::StrFormat("vctrl focus pid %d", queued->pid));

  // Refine pane 1 with vchat, then render both panes.
  Run(shell, "vchat 1 shrink tasks that have no address space");
  Run(shell, "vctrl view 1");
  Run(shell, "vctrl view 2");

  // Session persistence: the state is replayable JSON.
  std::string saved = shell.Execute("vctrl save");
  std::printf("(vdb) vctrl save\n... %zu bytes of replayable session state ...\n", saved.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool demo = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--demo") != 0) {
      std::fprintf(stderr, "unknown argument '%s'; usage: %s [--demo]\n", argv[i], argv[0]);
      return 2;
    }
    demo = true;
  }
  std::printf("=== Visualinux-CPP interactive debugger ===\n");
  std::printf("booting the kernel and running the workload...\n\n");

  // The vserve front end: boot the simulated kernel as a shard, then attach
  // one session. More clients could Connect to the same server and share its
  // block cache, engines, and refresh dedup.
  vserve::Server server;
  vl::Status booted = server.BootShard("local", dbg::LatencyModel::Free());
  if (!booted.ok()) {
    std::fprintf(stderr, "boot failed: %s\n", booted.ToString().c_str());
    return 1;
  }
  auto client = server.Connect();  // serving defaults: incremental + dedup
  if (!client.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", client.status().ToString().c_str());
    return 1;
  }
  vserve::DebuggerShell shell(client->session());
  vkern::Kernel& kernel = *server.shard_kernel("local");
  vkern::Workload& workload = *server.shard_workload("local");

  if (demo) {
    return Demo(shell, kernel);
  }

  std::printf("%s", shell.Execute("help").c_str());
  std::string line;
  while (true) {
    std::printf("(vdb) ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) {
      break;
    }
    if (line == "quit" || line == "exit") {
      break;
    }
    if (line == "step") {
      // Let the inferior run one workload step, then hand control back —
      // the next vplot/vctrl refresh sees the new mutation epoch.
      workload.Step();
      std::printf("stepped workload (epoch %llu)\n",
                  static_cast<unsigned long long>(kernel.generation()));
      continue;
    }
    if (line.empty()) {
      continue;
    }
    std::printf("%s", shell.Execute(line).c_str());
  }
  return 0;
}
