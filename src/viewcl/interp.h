// The ViewCL interpreter: evaluates programs against a debugger-attached
// kernel, producing a ViewGraph (paper §2.2, §4.1).
//
// Evaluation walks the live object graph purely through Target memory reads
// (never host pointers), so the latency model sees exactly the traffic a GDB
// front-end would generate. Boxes are interned by (declaration, address) so
// cyclic kernel structures terminate; container adapters implement the
// *distill* operation and anchored constructors implement container_of.
//
// With a block cache, Run() walks the object graph level by level
// (docs/caching.md#the-extraction-walker): each box is a task evaluated with
// the ReadSession deferring its cache misses, child boxes are queued as
// tasks instead of recursed into, and each level's misses are fetched in one
// vectored round trip before the stopped tasks retry. The graph is then
// assembled in the recursive depth-first order, so box ids, warnings and
// renders are exactly those of the recursive walk.

#ifndef SRC_VIEWCL_INTERP_H_
#define SRC_VIEWCL_INTERP_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/dbg/kernel_introspect.h"
#include "src/support/json.h"
#include "src/viewcl/ast.h"
#include "src/viewcl/decorate.h"
#include "src/viewcl/graph.h"

namespace viewcl {

struct InterpLimits {
  size_t max_boxes = 50000;
  size_t max_container_elems = 4096;
  int max_depth = 128;
  // Interning deduplicates (declaration, address) pairs; disabling it (the
  // bench_ablation experiment) makes shared/cyclic structures blow up until
  // the depth/box limits bite.
  bool intern_boxes = true;
};

// The walker's accounting, summed over Run() calls
// (docs/observability.md#stats-schema).
struct WalkStats {
  uint64_t runs = 0;       // Run() calls that took the batched walk
  uint64_t levels = 0;     // walk levels (each ends in at most one batch)
  uint64_t batches = 0;    // vectored round trips issued for the levels
  uint64_t tasks = 0;      // box tasks, one per (declaration, address)
  uint64_t retries = 0;    // task re-runs after a level's batch
  // Round trips outside the batch path (exact-range fallbacks at unreadable
  // blocks, reads of the recursive fallback). The walk's blind spot.
  uint64_t unbatched_reads = 0;
  uint64_t fallbacks = 0;  // runs that fell back to the recursive walk
  // Memoized box subtrees replayed vs re-extracted, on either walk
  // (docs/caching.md#incremental).
  uint64_t memo_replays = 0;
  uint64_t memo_misses = 0;

  WalkStats& operator+=(const WalkStats& other);
  // {"runs", "levels", "batches", "tasks", "retries", "unbatched_reads",
  //  "fallbacks", "memo_replays", "memo_misses"}
  vl::Json ToJson() const;
};

class Interpreter {
 public:
  explicit Interpreter(dbg::KernelDebugger* debugger, InterpLimits limits = InterpLimits{});
  ~Interpreter();

  // Parses and accumulates a program chunk (definitions are remembered across
  // Load calls, so a prelude can be loaded before a figure program).
  // Duplicate definitions *within* one chunk and unknown decorator heads are
  // structured parse errors; redefining a box from an earlier chunk stays
  // legal so panes can replay programs through a shared interpreter.
  vl::Status Load(std::string_view source);

  // Optional fail-fast hook: when set, Load() runs the validator over each
  // successfully parsed chunk and refuses the chunk if it returns an error.
  // The static analyzer plugs in here (`vlint`'s fail-fast lint mode).
  using LoadValidator = std::function<vl::Status(const Program& program,
                                                 std::string_view source)>;
  void SetLoadValidator(LoadValidator validator) { load_validator_ = std::move(validator); }

  // Evaluates all pending top-level bindings and plot statements against the
  // current kernel state, producing a fresh graph. Can be called repeatedly;
  // each call re-runs the accumulated program on the *current* state.
  vl::StatusOr<std::unique_ptr<ViewGraph>> Run();

  // One-shot convenience.
  vl::StatusOr<std::unique_ptr<ViewGraph>> RunProgram(std::string_view source) {
    VL_RETURN_IF_ERROR(Load(source));
    return Run();
  }

  const std::vector<std::string>& warnings() const { return warnings_; }
  EmojiRegistry& emoji() { return emoji_; }
  dbg::KernelDebugger* debugger() { return debugger_; }

  // The walker's accounting (batches, memo replays) since construction or
  // the last ResetWalkStats().
  const WalkStats& walk_stats() const { return walk_stats_; }
  void ResetWalkStats() { walk_stats_ = WalkStats{}; }

 private:
  struct VclValue;
  class Scope;
  class RunState;
  struct Step;
  struct Task;
  struct Walk;

  // The evaluation steps of a box body (where bindings, then each view's
  // inherited and own bindings and items), flattened once per declaration.
  const std::vector<Step>& StepsOf(const BoxDecl* decl);
  // The parsed form of a ${...} node, parsed on first use.
  const dbg::CExpression& ParsedC(const Expr* expr);
  // True when a forEach yield depends on nothing but its element, so the
  // walker may replay it on a retry.
  bool PureYield(const ForEachClause* clause);

  // Memoized extraction of one box subtree: a structural snapshot of the
  // boxes created while instantiating a (declaration, address) pair, plus
  // the pages its reads touched. Replayable while every touched page is
  // clean per the session's dirty log (ReadSession::RangeCleanSince).
  struct BoxMemo {
    struct BoxSnap {
      std::string decl_name;
      std::string kernel_type;
      uint64_t addr = 0;
      size_t object_size = 0;
      // Link targets / container members still carry capture-run box ids;
      // the replay remaps window-local ids by offset and external ids
      // through `externals`.
      std::vector<ViewInstance> views;
      std::map<std::string, MemberValue> members;
    };
    using InternKey = std::pair<const BoxDecl*, uint64_t>;

    uint64_t epoch = 0;  // extraction epoch (session epoch at capture)
    uint64_t base = 0;   // capture-run id of the subtree root
    std::vector<BoxSnap> boxes;  // window [base, base + boxes.size())
    // Capture-run id -> intern key of a referenced box outside the window
    // (shared structure instantiated earlier in the run).
    std::map<uint64_t, InternKey> externals;
    // Window-local id -> intern key to re-register on replay.
    std::vector<std::pair<uint64_t, InternKey>> interns;
    // Page bases (ReadSession granules) the subtree's reads touched, sorted
    // and deduped: the run's page log from the box's start to its capture.
    std::vector<uint64_t> pages;
  };

  dbg::KernelDebugger* debugger_;
  InterpLimits limits_;
  EmojiRegistry emoji_;

  LoadValidator load_validator_;
  std::map<std::string, const BoxDecl*> defines_;
  std::vector<std::unique_ptr<BoxDecl>> owned_decls_;
  std::vector<Binding> bindings_;
  std::vector<ExprPtr> plots_;
  std::vector<std::string> warnings_;

  // Memo store, persisted across Run() calls (cleared on Load: a new chunk
  // can redefine declarations out from under the snapshots).
  std::map<BoxMemo::InternKey, BoxMemo> memo_;

  // Per-interpreter caches keyed by AST node (the nodes live as long as the
  // interpreter); the serving layer runs an engine under its shard lock.
  std::map<const BoxDecl*, std::vector<Step>> steps_;
  std::map<const Expr*, dbg::CExpression> parsed_;
  std::map<const ForEachClause*, bool> pure_yields_;

  WalkStats walk_stats_;
};

}  // namespace viewcl

#endif  // SRC_VIEWCL_INTERP_H_
