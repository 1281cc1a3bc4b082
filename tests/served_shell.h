// A v-command shell over a test's own debugger, opened the way every shell
// is: the debugger registered as a Server's only shard ("local"), one session
// connected to it, and a DebuggerShell on that session.

#ifndef TESTS_SERVED_SHELL_H_
#define TESTS_SERVED_SHELL_H_

#include <gtest/gtest.h>

#include <optional>
#include <utility>

#include "src/serve/server.h"
#include "src/serve/shell.h"

namespace vltest {

namespace internal {

// What the shell drives. A base of ServedShell, so the server and session
// exist before the DebuggerShell base is constructed and outlive it.
struct ServedSession {
  ServedSession(dbg::KernelDebugger* debugger, vserve::SessionOptions options) {
    vl::Status added = server.AddShard("local", debugger);
    EXPECT_TRUE(added.ok()) << added.ToString();
    auto connected = server.Connect(std::move(options));
    EXPECT_TRUE(connected.ok()) << connected.status().ToString();
    client.emplace(std::move(connected).value());
  }

  vserve::Server server;
  std::optional<vserve::Client> client;  // disconnects before the server goes
};

}  // namespace internal

class ServedShell : private internal::ServedSession, public vserve::DebuggerShell {
 public:
  explicit ServedShell(dbg::KernelDebugger* debugger,
                       vserve::SessionOptions options = vserve::SessionOptions{})
      : ServedSession(debugger, std::move(options)), DebuggerShell(client->session()) {}
};

}  // namespace vltest

#endif  // TESTS_SERVED_SHELL_H_
