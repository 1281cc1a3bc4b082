// vcheck: declarative kernel-state invariant engine (ROADMAP item 2).
//
// Where vlint (lint.h) statically checks *programs* against the registries
// with zero target reads, vcheck statically checks *kernel memory* against a
// catalog of structural invariants — and every byte it looks at goes through
// dbg::ReadSession, so a sweep is charged on the virtual clock and reconciles
// exactly with Target::clock() like vexplain/vflight do.
//
// Rule catalog (stable IDs; see docs/checking.md for the full table):
//   VC001 list-integrity      list_head back-links + cycle/termination bounds
//                             (cache_chain, super_blocks, workqueues, the
//                             global task list)
//   VC002 rbtree-order        CFS tasks_timeline in-order vruntime ordering +
//                             cached-leftmost correctness
//   VC003 rbtree-color        red-black invariants: black root, no red-red
//                             edge, equal black-height, parent back-pointers
//   VC004 maple-pivots        maple-tree pivot monotonicity + [min,max]
//                             bounds, node-type encoding, parent encoding
//                             (every user mm->mm_mt)
//   VC005 slab-freelist       slab descriptor sanity: inuse vs list
//                             membership, embedded free-index chain acyclic
//                             and complete, cache object accounting
//   VC006 slab-poison         freed objects carry intact 0x6b poison (a
//                             clobbered byte = write-after-free); suspect
//                             addresses (a crashed reader's pointer, fed in
//                             via AddSuspect) referencing a *free* object are
//                             flagged as use-after-free — this is how the
//                             StackRot node is named
//   VC007 task-reachability   every task on the global task list is reachable
//                             from init_task (or an idle task) via
//                             children/sibling + thread_head; parent
//                             back-pointers consistent
//   VC008 rcu-cblist          per-CPU callback list: chain length ==
//                             cblist_len, tail points at the last next
//                             pointer (or the head when empty), gp_seq never
//                             ahead of the global sequence
//   VC009 pipe-can-merge      occupied pipe-ring slots: bounds sane and
//                             PIPE_BUF_FLAG_CAN_MERGE never set on a
//                             page-cache-backed page (the DirtyPipe
//                             signature)
//   VC010 timer-wheel         timer-wheel hlist linkage: first->pprev points
//                             at the bucket, node->next->pprev back-links
//   VC011 workqueue-linkage   workqueue -> pwq back-pointers, worker-pool
//                             worklist/workers list integrity + nr_workers
//
// Every sweep runs the rules it is asked for; after a kernel step the
// session's delta refresh re-reads the stale blocks a sweep reads in one
// batch (docs/caching.md#incremental-invalidation). On a block cache the
// rules first run with the session deferring their misses, and the blocks
// they missed ride one vectored round trip before the rules that stopped run
// again, as the extraction walker's levels do
// (docs/checking.md#sweeping-after-a-kernel-step). Violations are
// vl::Diagnostics carrying the offending address plus the traversal trail
// and an explain tree of what the rule walked.

#ifndef SRC_ANALYSIS_CHECK_H_
#define SRC_ANALYSIS_CHECK_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/dbg/read_session.h"
#include "src/dbg/symbols.h"
#include "src/dbg/type.h"
#include "src/support/diag.h"
#include "src/support/json.h"
#include "src/support/status.h"

namespace analysis {

// One entry in the static rule catalog.
struct CheckRuleInfo {
  const char* id;           // stable ID, e.g. "VC004"
  const char* name;         // short kebab name, e.g. "maple-pivots"
  const char* description;  // one-line summary for --list / docs
};

// A node of the traversal explain tree a rule leaves behind. Children are
// bounded per node (an overflow marker is appended once), so reports stay
// small even over large kernels.
struct CheckExplainNode {
  std::string label;
  std::vector<CheckExplainNode> children;

  vl::Json ToJson() const;
  void Render(std::string* out, int depth) const;
};

// One invariant violation: a diagnostic (stable rule ID, kError severity,
// synthetic span — memory has no source lines) plus the offending address and
// the traversal trail that reached it.
struct CheckViolation {
  vl::Diagnostic diagnostic;
  uint64_t addr = 0;
  std::vector<std::string> trail;  // root -> offender labels

  vl::Json ToJson() const;
};

// The outcome of one rule in one sweep.
struct CheckRuleReport {
  std::string id;
  std::string name;
  // Transport requests, bytes and virtual-clock charge of the rule body,
  // summed over its attempts (a sweep's batches are the sweep's).
  uint64_t reads = 0;
  uint64_t bytes = 0;
  uint64_t charged_ns = 0;
  std::vector<CheckViolation> violations;
  CheckExplainNode explain;

  vl::Json ToJson() const;
};

// One sweep over the catalog (or one rule of it).
struct CheckReport {
  std::vector<CheckRuleReport> rules;
  uint64_t charged_ns = 0;     // sum of per-rule body charges
  uint64_t sync_ns = 0;        // epoch sync / dirty-log query charge
  uint64_t batches = 0;        // vectored round trips fetching the rules' misses
  uint64_t batch_ns = 0;       // their charge
  uint64_t clock_delta_ns = 0; // Target::clock() delta across the sweep
  uint64_t reads = 0;          // the rule bodies' own requests (batches aside)
  uint64_t bytes = 0;
  // clock_delta_ns == charged_ns + sync_ns + batch_ns: every nanosecond the
  // sweep put on the virtual clock is attributed to a rule body, the epoch
  // sync or a batch.
  bool reconciled = false;

  size_t violations() const;
  size_t rules_run() const;

  // All violations flattened into a DiagnosticList (sorted by rule ID).
  vl::DiagnosticList Diagnostics() const;
  vl::Json ToJson() const;
  // Deterministic human-readable report (one line per rule + violations).
  std::string RenderText() const;
};

// Cumulative accounting of the sweeps run on one shard. Server::Sweep keeps
// one per shard under the shard lock; `vctrl stats` and the vl_serve_check_*
// gauges sum them over the fleet.
struct CheckStats {
  uint64_t sweeps = 0;
  uint64_t rules_run = 0;
  uint64_t violations = 0;
  uint64_t reads = 0;       // the rule bodies' requests
  uint64_t read_bytes = 0;
  uint64_t batches = 0;     // vectored round trips fetching the rules' misses
  uint64_t batch_ns = 0;    // their charge
  uint64_t charged_ns = 0;  // rule bodies, epoch syncs and batches

  void Add(const CheckReport& report);
  CheckStats& operator+=(const CheckStats& other);
  // {"sweeps", "rules_run", "violations", "reads", "read_bytes", "batches",
  //  "batch_ns", "charged_ns"}
  vl::Json ToJson() const;
};

// The engine. Holds only pointers (registries outlive it) plus the suspect
// set.
//
// Threading: not thread-safe; callers serialize sweeps per session exactly
// like any other ReadSession consumer (Server::Sweep takes the shard lock).
class CheckEngine {
 public:
  CheckEngine(const dbg::TypeRegistry* types, const dbg::SymbolTable* symbols,
              dbg::ReadSession* session);

  static const std::vector<CheckRuleInfo>& Catalog();
  // Finds a rule by ID ("VC004") or name ("maple-pivots"); nullptr if unknown.
  static const CheckRuleInfo* FindRule(std::string_view id_or_name);

  // Runs every rule (full sweep), wrapped in a "vcheck" trace span.
  CheckReport RunAll();

  // Runs a single rule by ID or name.
  vl::StatusOr<CheckReport> RunOne(std::string_view id_or_name);

  // Suspect addresses: pointers held by a crashed/stale reader (registers, a
  // crash report) that rules audit against allocator state. VC006 flags a
  // suspect that resolves to a *free* slab object as a use-after-free —
  // mechanically naming StackRot's stale node.
  void AddSuspect(uint64_t addr);
  void ClearSuspects();
  const std::vector<uint64_t>& suspects() const { return suspects_; }

  const dbg::TypeRegistry* types() const { return types_; }
  const dbg::SymbolTable* symbols() const { return symbols_; }
  dbg::ReadSession* session() const { return session_; }

 private:
  // One epoch sync, then every rule (or only `only`) in levels, reconciled
  // against the clock.
  CheckReport Sweep(const CheckRuleInfo* only);

  const dbg::TypeRegistry* types_;
  const dbg::SymbolTable* symbols_;
  dbg::ReadSession* session_;
  std::vector<uint64_t> suspects_;
};

}  // namespace analysis

#endif  // SRC_ANALYSIS_CHECK_H_
