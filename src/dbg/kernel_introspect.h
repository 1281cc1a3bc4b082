// KernelDebugger: attaches the debugger substrate to a simulated kernel.
//
// This plays the role of `gdb vmlinux` + the Visualinux GDB scripts: it
// populates the TypeRegistry with machine-accurate struct layouts (offsetof/
// sizeof of the real structs), exports the kernel's global objects as symbols,
// and registers the helper functions (kernel static inlines invisible to a
// debugger) that ViewCL programs call inside ${...} expressions.

#ifndef SRC_DBG_KERNEL_INTROSPECT_H_
#define SRC_DBG_KERNEL_INTROSPECT_H_

#include <memory>

#include "src/dbg/expr.h"
#include "src/dbg/read_session.h"
#include "src/dbg/symbols.h"
#include "src/dbg/target.h"
#include "src/dbg/type.h"
#include "src/vkern/kernel.h"
#include "src/vkern/page_journal.h"

namespace dbg {

// The per-kernel debugger bundle (types + symbols + target + read session).
// For multi-client or serving use, don't hold one of these directly — boot it
// as a vserve shard (vserve::Server::BootShard/AddShard, src/serve/server.h)
// and attach sessions via Server::Connect, so the block cache, extraction
// engines, and refresh dedup are shared safely across clients.
class KernelDebugger {
 public:
  explicit KernelDebugger(vkern::Kernel* kernel,
                          LatencyModel model = LatencyModel::Free(),
                          CacheConfig cache = CacheConfig{});

  KernelDebugger(const KernelDebugger&) = delete;
  KernelDebugger& operator=(const KernelDebugger&) = delete;

  vkern::Kernel* kernel() { return kernel_; }
  TypeRegistry& types() { return types_; }
  Target& target() { return *target_; }
  // The cached read front-end every extract-pipeline consumer goes through.
  ReadSession& session() { return *session_; }
  SymbolTable& symbols() { return symbols_; }
  HelperRegistry& helpers() { return helpers_; }
  EvalContext& context() { return *context_; }

  // Convenience: evaluates a C expression with an optional environment.
  vl::StatusOr<Value> Eval(std::string_view expr, const Environment* env = nullptr) {
    return EvalCExpression(context_.get(), expr, env);
  }

 private:
  class ArenaMemory : public MemoryDomain {
   public:
    ArenaMemory(vkern::Arena* arena, const vkern::Kernel* kernel)
        : arena_(arena), kernel_(kernel) {}
    bool ReadBytes(uint64_t addr, void* out, size_t len) const override;
    // The kernel bumps its generation on every mutation entry point; caching
    // sessions invalidate when this moves.
    uint64_t generation() const override;
    // Dirty-page log over the arena, backed by a lazily built PageJournal:
    // sessions that never query it pay no hashing cost, and the arena's
    // write log stays unarmed until the first query.
    DirtyPageInfo DirtyPagesSince(uint64_t since_generation) const override;
    // The arena is the one readable range.
    std::vector<std::pair<uint64_t, uint64_t>> ReadableRanges() const override {
      return {{arena_->base_addr(), arena_->end_addr()}};
    }

   private:
    vkern::Arena* arena_;
    const vkern::Kernel* kernel_;
    mutable std::unique_ptr<vkern::PageJournal> journal_;  // lazy
  };

  void RegisterTypes();
  void RegisterEnums();
  void RegisterSymbols();
  void RegisterHelpers();
  void BuildStateStringTable();

  vkern::Kernel* kernel_;
  ArenaMemory memory_;
  TypeRegistry types_;
  SymbolTable symbols_;
  HelperRegistry helpers_;
  std::unique_ptr<Target> target_;
  std::unique_ptr<ReadSession> session_;
  std::unique_ptr<EvalContext> context_;
  // In-arena C strings for the task_state() helper.
  uint64_t state_string_addrs_[8] = {};
};

}  // namespace dbg

#endif  // SRC_DBG_KERNEL_INTROSPECT_H_
