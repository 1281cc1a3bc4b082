#include "src/analysis/check.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/support/trace.h"

namespace analysis {

namespace {

// Mirrored vkern constants. The engine deliberately does not include vkern
// headers: like vlint, it sees the kernel only through TypeRegistry /
// SymbolTable / ReadSession, so these literals are part of the rule
// definitions themselves (documented in docs/checking.md).
constexpr uint8_t kSlabPoison = 0x6b;          // POISON_FREE
constexpr uint32_t kSlabFreeEnd = 0xffffffffu; // embedded freelist terminator
constexpr uint32_t kPipeCanMerge = 1u << 4;    // PIPE_BUF_FLAG_CAN_MERGE
constexpr uint64_t kPgAnon = 1ull << 11;       // PG_anon
constexpr uint64_t kMtMaxIndex = ~0ull;        // maple-tree index space bound
constexpr uint64_t kPageSize = 4096;

// Traversal bounds: a corrupted pointer chain must terminate the walk, not
// the process.
constexpr int kMaxListSteps = 4096;
constexpr int kMaxTreeNodes = 4096;
constexpr int kMaxTreeDepth = 64;
constexpr int kMaxHlistSteps = 1024;
constexpr int kMaxTasks = 4096;
constexpr size_t kMaxViolationsPerRule = 16;
constexpr size_t kMaxExplainChildren = 24;

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

const std::vector<CheckRuleInfo>& CatalogImpl() {
  static const std::vector<CheckRuleInfo> kCatalog = {
      {"VC001", "list-integrity",
       "list_head back-links and cycle/termination bounds on the global lists"},
      {"VC002", "rbtree-order",
       "CFS tasks_timeline in-order vruntime ordering and cached leftmost"},
      {"VC003", "rbtree-color",
       "red-black invariants: black root, no red-red edge, equal black-height"},
      {"VC004", "maple-pivots",
       "maple-tree pivot monotonicity, bounds and parent/type encoding per mm"},
      {"VC005", "slab-freelist",
       "slab inuse vs list membership and embedded free-index chain sanity"},
      {"VC006", "slab-poison",
       "freed objects keep 0x6b poison; suspect pointers into free objects = UAF"},
      {"VC007", "task-reachability",
       "every task on the global list reachable from init_task; parent links"},
      {"VC008", "rcu-cblist",
       "per-CPU RCU callback list length/tail consistency and gp_seq bounds"},
      {"VC009", "pipe-can-merge",
       "no PIPE_BUF_FLAG_CAN_MERGE on page-cache-backed pipe buffers (DirtyPipe)"},
      {"VC010", "timer-wheel",
       "timer-wheel hlist pprev back-link integrity across all wheel buckets"},
      {"VC011", "workqueue-linkage",
       "workqueue->pwq back-pointers and worker-pool list/count consistency"},
  };
  return kCatalog;
}

// Where one rule attempt's findings go: the rule's report and the explain
// nodes open in it. The slab walk VC005 and VC006 share feeds both rules'
// sinks at once; every other walk feeds one.
struct Sink {
  Sink(CheckRuleReport* r, bool is_strict, bool was_truncated = false)
      : report(r), strict(is_strict), truncated(was_truncated) {
    stack.push_back(&r->explain);
  }
  CheckRuleReport* report;
  bool strict;            // takes VC005's strict-only slab findings
  bool truncated;         // hit kMaxViolationsPerRule
  bool attached = true;   // still fed (a shared walk drops an exhausted sink)
  size_t caches = 0;      // slab caches walked while attached
  std::vector<CheckExplainNode*> stack;
  std::deque<CheckExplainNode> scratch;
};

// A field offset, resolved once per sweep.
struct ResolvedField {
  uint64_t offset = 0;
  bool found = false;
};

// Resolved fields are keyed by the contents of the type and field names, so
// Off() may be passed any string, not only a literal. Lookups take the names
// as views; an entry owns copies of them.
using FieldName = std::pair<std::string_view, std::string_view>;
using FieldKey = std::pair<std::string, std::string>;

struct FieldKeyHash {
  using is_transparent = void;
  size_t operator()(FieldName name) const {
    return std::hash<std::string_view>()(name.first) * 31 +
           std::hash<std::string_view>()(name.second);
  }
  size_t operator()(const FieldKey& key) const { return (*this)(FieldName(key.first, key.second)); }
};

struct FieldKeyEq {
  using is_transparent = void;
  static FieldName Name(const FieldKey& key) { return {key.first, key.second}; }
  static FieldName Name(FieldName name) { return name; }
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    return Name(a) == Name(b);
  }
};

// What the slab rules read of one slab and one cache.
struct SlabInfo {
  uint64_t slab_addr = 0;
  uint64_t s_mem = 0;
  uint32_t inuse = 0;
  std::vector<uint32_t> free_chain;  // indexes on the embedded freelist
  bool chain_ok = false;
};

struct CacheInfo {
  uint64_t addr = 0;
  std::string name;
  uint32_t object_size = 0;
  uint32_t size = 0;  // aligned stride
  uint32_t num = 0;
  std::vector<SlabInfo> slabs;
};

// One slab walk and VC006's findings from it: VC006 starts every attempt
// from the walk of the attempt VC005 ran (or from its own), so the caches
// are walked once per attempt, not once per rule.
struct SlabWalk {
  std::vector<CacheInfo> caches;  // those VC006 walked
  CheckRuleReport findings;       // VC006's report after the walk
  bool truncated = false;         // VC006 hit the violation cap in it
  bool deferred = false;          // the walk stopped on a deferred read
};

// What the attempts of one sweep share: field offsets, resolved once (the
// type registry does not change under a sweep), and the last slab walk.
struct SweepState {
  std::unordered_map<FieldKey, ResolvedField, FieldKeyHash, FieldKeyEq> fields;
  std::optional<SlabWalk> slab_walk;
};

// Per-attempt traversal context: plumbing (typed reads, offsets, symbols),
// the explain trees, and the violation sinks of one rule body (or of the
// slab walk VC005 and VC006 share).
//
// While the session defers misses, a read that defers stops its chain
// without a finding, and once one has deferred the attempt records no
// finding at all: it is discarded, and the rule runs again after the batch.
class Checker {
 public:
  Checker(const dbg::TypeRegistry* types, const dbg::SymbolTable* symbols,
          dbg::ReadSession* session, const std::vector<uint64_t>* suspects, SweepState* state,
          std::vector<Sink*> sinks)
      : types_(types), symbols_(symbols), session_(session), suspects_(suspects), state_(state),
        sinks_(std::move(sinks)), deferrals0_(session->deferrals()) {}

  // Runs a rule other than the slab rules (VC005/VC006: WalkCaches and
  // SlabPoison).
  void Run(size_t rule_idx) {
    switch (rule_idx) {
      case 0: ListIntegrity(); break;
      case 1: RbOrder(); break;
      case 2: RbColor(); break;
      case 3: MaplePivots(); break;
      case 6: TaskReachability(); break;
      case 7: RcuCblist(); break;
      case 8: PipeCanMerge(); break;
      case 9: TimerWheel(); break;
      case 10: WorkqueueLinkage(); break;
      default: break;
    }
  }

  // Closes `sink`'s report: notes the cap if it suppressed findings.
  static void Finish(Sink* sink) {
    if (sink->truncated) {
      sink->report->explain.children.push_back(
          {"… further violations suppressed (cap " + std::to_string(kMaxViolationsPerRule) +
               ")",
           {}});
    }
  }

 private:
  // ---- plumbing -----------------------------------------------------------

  // True once a read of this attempt has deferred.
  bool Deferred() const { return session_->deferrals() != deferrals0_; }

  uint64_t Off(const char* type_name, const char* field_name) {
    auto it = state_->fields.find(FieldName(type_name, field_name));
    if (it == state_->fields.end()) {
      const dbg::Type* t = types_->FindByName(type_name);
      const dbg::Field* f = t != nullptr ? t->FindField(field_name) : nullptr;
      it = state_->fields
               .emplace(FieldKey(type_name, field_name),
                        f != nullptr ? ResolvedField{f->offset, true} : ResolvedField{})
               .first;
    }
    if (!it->second.found) {
      MetaMissing(std::string(type_name) + "." + field_name);
    }
    return it->second.offset;
  }

  size_t SizeOf(const char* type_name) {
    const dbg::Type* t = types_->FindByName(type_name);
    if (t == nullptr) {
      MetaMissing(type_name);
      return 0;
    }
    return t->size;
  }

  // Resolves a global symbol; returns its address and (optionally) its type.
  bool Sym(const char* name, uint64_t* addr, const dbg::Type** type = nullptr) {
    dbg::Value v;
    if (!symbols_->FindGlobal(name, &v)) {
      MetaMissing(std::string("symbol ") + name);
      return false;
    }
    *addr = v.addr();
    if (type != nullptr) {
      *type = v.type();
    }
    return true;
  }

  // Array length of a global symbol (runqueues, rcu_data, timer_bases, ...);
  // falls back to 1 for non-array symbols.
  size_t SymArrayLen(const dbg::Type* t) const {
    return (t != nullptr && t->array_len > 0) ? t->array_len : 1;
  }

  std::optional<uint64_t> RU(uint64_t addr, size_t size, const char* what = nullptr) {
    vl::StatusOr<uint64_t> v = session_->ReadUnsigned(addr, size);
    if (!v.ok()) {
      if (!dbg::ReadSession::IsDeferred(v.status())) {
        Violate(addr, std::string("unreadable memory") +
                          (what != nullptr ? std::string(" (") + what + ")" : ""));
      }
      return std::nullopt;
    }
    return v.value();
  }
  std::optional<uint64_t> RPtr(uint64_t addr, const char* what = nullptr) {
    return RU(addr, 8, what);
  }

  // A deferred string reads as unreadable: the attempt is discarded anyway.
  std::string RStr(uint64_t addr, size_t max_len) {
    vl::StatusOr<std::string> v = session_->ReadCString(addr, max_len);
    return v.ok() ? v.value() : std::string("<unreadable>");
  }

  // False when the bytes are unreadable or deferred (Deferred() tells).
  bool ReadBuf(uint64_t addr, std::vector<uint8_t>* out, size_t len) {
    out->resize(len);
    return session_->ReadBytes(addr, out->data(), len).ok();
  }

  void MetaMissing(const std::string& what) {
    if (!meta_reported_.insert(what).second) {
      return;
    }
    for (Sink* sink : sinks_) {
      if (!sink->attached) continue;
      CheckViolation v;
      v.addr = 0;
      v.trail = trail_;
      v.diagnostic.rule = sink->report->id;
      v.diagnostic.severity = vl::Severity::kWarning;
      v.diagnostic.message = "type registry incomplete: missing " + what;
      sink->report->violations.push_back(std::move(v));
    }
  }

  // True when no attached sink takes findings any more.
  bool Exhausted() const {
    for (const Sink* sink : sinks_) {
      if (sink->attached && !sink->truncated) return false;
    }
    return true;
  }

  // True when an attached sink takes VC005's strict findings.
  bool Strict() const {
    for (const Sink* sink : sinks_) {
      if (sink->attached && sink->strict) return true;
    }
    return false;
  }

  // While open, findings (and failed reads) go to the strict sinks only: the
  // checks only VC005's walk makes.
  struct StrictScope {
    explicit StrictScope(Checker* c) : c_(c) { c_->strict_only_ = true; }
    ~StrictScope() { c_->strict_only_ = false; }

   private:
    Checker* c_;
  };

  void Violate(uint64_t addr, std::string message) {
    if (Deferred()) {
      return;  // this attempt runs again after the batch
    }
    message += " (addr " + Hex(addr) + ")";
    for (Sink* sink : sinks_) {
      if (!sink->attached || (strict_only_ && !sink->strict)) continue;
      if (sink->report->violations.size() >= kMaxViolationsPerRule) {
        sink->truncated = true;
        continue;
      }
      CheckViolation v;
      v.addr = addr;
      v.trail = trail_;
      v.diagnostic.rule = sink->report->id;
      v.diagnostic.severity = vl::Severity::kError;
      v.diagnostic.message = message;
      sink->report->violations.push_back(std::move(v));
    }
  }

  // ---- explain tree -------------------------------------------------------

  void Enter(std::string label) {
    for (Sink* sink : sinks_) {
      if (!sink->attached) continue;
      CheckExplainNode* parent = sink->stack.back();
      CheckExplainNode* node;
      if (parent->children.size() < kMaxExplainChildren) {
        parent->children.push_back({label, {}});
        node = &parent->children.back();
      } else {
        if (parent->children.size() == kMaxExplainChildren) {
          parent->children.push_back({"…", {}});
        }
        // Overflowing children still get a live node (for the trail), parked
        // in a stable side pool so nested Enter/Leave keeps working.
        sink->scratch.push_back({label, {}});
        node = &sink->scratch.back();
      }
      sink->stack.push_back(node);
    }
    trail_.push_back(std::move(label));
  }

  void Leave() {
    for (Sink* sink : sinks_) {
      if (sink->attached) sink->stack.pop_back();
    }
    trail_.pop_back();
  }

  // Appends to the label of the innermost open node.
  void AppendLabel(const std::string& text) {
    for (Sink* sink : sinks_) {
      if (sink->attached) sink->stack.back()->label += text;
    }
  }

  struct ExplainScope {
    ExplainScope(Checker* c, std::string label) : c_(c) { c_->Enter(std::move(label)); }
    ~ExplainScope() { c_->Leave(); }
    // The scope must be the innermost open one.
    void Append(const std::string& text) { c_->AppendLabel(text); }

   private:
    Checker* c_;
  };

  // ---- shared walks -------------------------------------------------------

  // Walks a circular list_head ring from `head`, checking next/prev
  // back-links and termination. Returns node addresses (excluding the head).
  std::vector<uint64_t> WalkList(uint64_t head, const std::string& what) {
    std::vector<uint64_t> nodes;
    const uint64_t off_next = Off("list_head", "next");
    const uint64_t off_prev = Off("list_head", "prev");
    uint64_t prev = head;
    std::optional<uint64_t> cur = RPtr(head + off_next, what.c_str());
    if (!cur) {
      return nodes;
    }
    int steps = 0;
    while (*cur != head) {
      if (*cur == 0) {
        Violate(prev, what + ": null next link");
        return nodes;
      }
      if (++steps > kMaxListSteps) {
        Violate(head, what + ": unterminated list (no return to head within " +
                          std::to_string(kMaxListSteps) + " nodes)");
        return nodes;
      }
      std::optional<uint64_t> back = RPtr(*cur + off_prev, what.c_str());
      if (!back) {
        return nodes;
      }
      if (*back != prev) {
        Violate(*cur, what + ": broken back-link, node->prev is " + Hex(*back) +
                          " but the predecessor is " + Hex(prev));
      }
      nodes.push_back(*cur);
      prev = *cur;
      cur = RPtr(*cur + off_next, what.c_str());
      if (!cur) {
        return nodes;
      }
    }
    if (!nodes.empty()) {
      std::optional<uint64_t> head_prev = RPtr(head + off_prev, what.c_str());
      if (head_prev && *head_prev != prev) {
        Violate(head, what + ": head->prev is " + Hex(*head_prev) +
                          " but the last node is " + Hex(prev));
      }
    }
    return nodes;
  }

  // Enumerates every task on the global task list (init_task.tasks ring),
  // including init_task itself. Empty on metadata failure.
  std::vector<uint64_t> AllTasks() {
    uint64_t init_task = 0;
    if (!Sym("init_task", &init_task)) {
      return {};
    }
    const uint64_t off_tasks = Off("task_struct", "tasks");
    std::vector<uint64_t> tasks = {init_task};
    const uint64_t off_next = Off("list_head", "next");
    uint64_t head = init_task + off_tasks;
    std::optional<uint64_t> cur = RPtr(head + off_next, "task list");
    int steps = 0;
    while (cur && *cur != head && *cur != 0 && ++steps <= kMaxTasks) {
      tasks.push_back(*cur - off_tasks);
      cur = RPtr(*cur + off_next, "task list");
    }
    return tasks;
  }

  // ---- VC001 list-integrity ----------------------------------------------

  void ListIntegrity() {
    struct Root {
      const char* symbol;
      const char* label;
    };
    static const Root kRoots[] = {
        {"cache_chain", "cache_chain (kmem_cache ring)"},
        {"super_blocks", "super_blocks (mounted filesystems)"},
        {"workqueues", "workqueues (global workqueue list)"},
    };
    for (const Root& root : kRoots) {
      if (Exhausted()) return;
      uint64_t head = 0;
      if (!Sym(root.symbol, &head)) continue;
      ExplainScope scope(this, root.label);
      size_t n = WalkList(head, root.symbol).size();
      scope.Append(" — " + std::to_string(n) + " nodes");
    }
    uint64_t init_task = 0;
    if (!Exhausted() && Sym("init_task", &init_task)) {
      ExplainScope scope(this, "init_task.tasks (global task list)");
      size_t n = WalkList(init_task + Off("task_struct", "tasks"), "task list").size();
      scope.Append(" — " + std::to_string(n) + " nodes");
    }
  }

  // ---- VC002 / VC003: CFS red-black trees --------------------------------

  struct RbCtx {
    uint64_t off_parent_color;
    uint64_t off_right;
    uint64_t off_left;
    bool check_order;       // VC002: in-order vruntime monotonicity
    bool check_color;       // VC003: red-black structure
    uint64_t off_vruntime;  // node addr + off => vruntime (check_order)
    uint64_t prev_vruntime = 0;
    bool have_prev = false;
    uint64_t first_inorder = 0;
    int nodes = 0;
  };

  // Recursive in-order walk; returns the black-height (-1 on violation or
  // bound hit, with the violation already recorded).
  int RbWalk(RbCtx* ctx, uint64_t node, uint64_t parent, bool parent_red, int depth) {
    if (node == 0) {
      return 0;
    }
    if (depth > kMaxTreeDepth || ++ctx->nodes > kMaxTreeNodes) {
      Violate(node, "rbtree walk exceeded bounds (cycle or runaway depth)");
      return -1;
    }
    std::optional<uint64_t> pc = RPtr(node + ctx->off_parent_color, "rb_node");
    if (!pc) return -1;
    const bool black = (*pc & 1) != 0;
    if (ctx->check_color) {
      uint64_t up = *pc & ~3ull;
      if (up != parent) {
        Violate(node, "rb_node parent pointer is " + Hex(up) + ", expected " + Hex(parent));
        return -1;
      }
      if (parent_red && !black) {
        Violate(node, "red node with a red parent (red-red edge)");
        return -1;
      }
    }
    std::optional<uint64_t> left = RPtr(node + ctx->off_left, "rb_node");
    std::optional<uint64_t> right = RPtr(node + ctx->off_right, "rb_node");
    if (!left || !right) return -1;

    int lh = RbWalk(ctx, *left, node, !black, depth + 1);
    if (lh < 0) return -1;
    // In-order visit.
    if (ctx->check_order) {
      if (ctx->first_inorder == 0) {
        ctx->first_inorder = node;
      }
      std::optional<uint64_t> vr = RU(node + ctx->off_vruntime, 8, "vruntime");
      if (!vr) return -1;
      if (ctx->have_prev && *vr < ctx->prev_vruntime) {
        Violate(node, "tasks_timeline out of order: vruntime " + std::to_string(*vr) +
                          " follows " + std::to_string(ctx->prev_vruntime));
      }
      ctx->prev_vruntime = *vr;
      ctx->have_prev = true;
    }
    int rh = RbWalk(ctx, *right, node, !black, depth + 1);
    if (rh < 0) return -1;
    if (ctx->check_color && lh != rh) {
      Violate(node, "unequal black-heights below node (" + std::to_string(lh) + " vs " +
                        std::to_string(rh) + ")");
      return -1;
    }
    return lh + (black ? 1 : 0);
  }

  void CfsTrees(bool check_order, bool check_color) {
    uint64_t rq_base = 0;
    const dbg::Type* rq_type = nullptr;
    if (!Sym("runqueues", &rq_base, &rq_type)) return;
    const size_t cpus = SymArrayLen(rq_type);
    const size_t rq_size = SizeOf("rq");
    const uint64_t off_cfs = Off("rq", "cfs");
    const uint64_t off_tl = Off("cfs_rq", "tasks_timeline");
    const uint64_t off_root = Off("rb_root_cached", "rb_root") + Off("rb_root", "rb_node");
    const uint64_t off_leftmost = Off("rb_root_cached", "rb_leftmost");
    RbCtx ctx;
    ctx.off_parent_color = Off("rb_node", "__rb_parent_color");
    ctx.off_right = Off("rb_node", "rb_right");
    ctx.off_left = Off("rb_node", "rb_left");
    ctx.check_order = check_order;
    ctx.check_color = check_color;
    // The run_node rb_node is embedded in sched_entity: vruntime is a fixed
    // delta from the node address.
    ctx.off_vruntime = Off("sched_entity", "vruntime") - Off("sched_entity", "run_node");

    for (size_t cpu = 0; cpu < cpus; ++cpu) {
      if (Exhausted()) return;
      uint64_t tl = rq_base + cpu * rq_size + off_cfs + off_tl;
      ExplainScope scope(this, "runqueues[" + std::to_string(cpu) + "].cfs.tasks_timeline");
      std::optional<uint64_t> root = RPtr(tl + off_root, "rb_root");
      std::optional<uint64_t> leftmost = RPtr(tl + off_leftmost, "rb_leftmost");
      if (!root || !leftmost) continue;
      if (check_color && *root != 0) {
        std::optional<uint64_t> pc = RPtr(*root + ctx.off_parent_color, "rb root");
        if (pc && (*pc & 1) == 0) {
          Violate(*root, "rbtree root is red");
        }
      }
      ctx.have_prev = false;
      ctx.first_inorder = 0;
      ctx.nodes = 0;
      RbWalk(&ctx, *root, 0, false, 0);
      if (check_order && ctx.first_inorder != *leftmost) {
        Violate(tl + off_leftmost,
                "rb_leftmost is " + Hex(*leftmost) + " but the leftmost node is " +
                    Hex(ctx.first_inorder));
      }
      scope.Append(" — " + std::to_string(ctx.nodes) + " nodes");
    }
  }

  void RbOrder() { CfsTrees(/*check_order=*/true, /*check_color=*/false); }
  void RbColor() { CfsTrees(/*check_order=*/false, /*check_color=*/true); }

  // ---- VC004 maple-pivots -------------------------------------------------

  struct MapleCtx {
    uint64_t tree_addr = 0;
    int nodes = 0;
    int leaf_depth = -1;
  };

  // Mirrors ma_data_end(): the first zero pivot (or one >= max) ends the data.
  uint32_t MapleDataEnd(const std::vector<uint64_t>& pivots, uint64_t max) const {
    for (uint32_t i = 0; i < pivots.size(); ++i) {
      if (pivots[i] == 0 || pivots[i] >= max) {
        return i;
      }
    }
    return static_cast<uint32_t>(pivots.size());
  }

  void MapleNodeWalk(MapleCtx* ctx, uint64_t enode, uint64_t min, uint64_t max,
                     uint64_t parent_node, uint32_t slot_in_parent, int depth) {
    if (Exhausted()) return;
    const uint64_t node = enode & ~0xffull;
    const uint32_t type = static_cast<uint32_t>((enode >> 3) & 0xf);
    if (depth > kMaxTreeDepth || ++ctx->nodes > kMaxTreeNodes) {
      Violate(node, "maple walk exceeded bounds (cycle or runaway depth)");
      return;
    }
    // Types: 1 = leaf_64, 2 = range_64, 3 = arange_64 (0 = dense, unused for
    // VMA trees).
    if (type < 1 || type > 3) {
      Violate(node, "maple_enode encodes invalid node type " + std::to_string(type));
      return;
    }
    const bool is_leaf = type == 1;
    const bool arange = type == 3;
    const char* tn = arange ? "maple_arange_64" : "maple_range_64";
    const uint64_t off_parent = Off(tn, "parent");
    const uint64_t off_pivot = Off(tn, "pivot");
    const uint64_t off_slot = Off(tn, "slot");
    const uint32_t n_pivots = arange ? 9 : 15;

    std::optional<uint64_t> parent = RPtr(node + off_parent, "maple parent");
    if (!parent) return;
    if (parent_node == 0) {
      if ((*parent & 1) == 0) {
        Violate(node, "maple root node lacks the root parent marker");
      } else if ((*parent & ~1ull) != ctx->tree_addr) {
        Violate(node, "maple root parent does not point back at the tree " +
                          Hex(ctx->tree_addr));
      }
    } else {
      if ((*parent & 1) != 0) {
        Violate(node, "non-root maple node carries the root marker");
      } else if ((*parent & ~0xffull) != parent_node) {
        Violate(node, "maple parent encoding points at " + Hex(*parent & ~0xffull) +
                          ", expected " + Hex(parent_node));
      } else if (static_cast<uint32_t>((*parent >> 1) & 0xf) != slot_in_parent) {
        Violate(node, "maple parent slot encoding is " +
                          std::to_string((*parent >> 1) & 0xf) + ", expected " +
                          std::to_string(slot_in_parent));
      }
    }

    std::vector<uint64_t> pivots(n_pivots);
    for (uint32_t i = 0; i < n_pivots; ++i) {
      std::optional<uint64_t> p = RU(node + off_pivot + 8ull * i, 8, "maple pivot");
      if (!p) return;
      pivots[i] = *p;
    }
    const uint32_t end = MapleDataEnd(pivots, max);
    uint64_t prev = min;
    for (uint32_t i = 0; i < end; ++i) {
      if (pivots[i] < prev || pivots[i] > max) {
        Violate(node + off_pivot + 8ull * i,
                "maple pivot[" + std::to_string(i) + "] = " + Hex(pivots[i]) +
                    " outside [" + Hex(prev) + ", " + Hex(max) + "] (non-monotonic "
                    "or out of the subtree range)");
        return;
      }
      prev = pivots[i] + 1;
    }

    if (is_leaf) {
      if (ctx->leaf_depth < 0) {
        ctx->leaf_depth = depth;
      } else if (ctx->leaf_depth != depth) {
        Violate(node, "maple leaves at different depths (" + std::to_string(depth) +
                          " vs " + std::to_string(ctx->leaf_depth) + ")");
      }
      for (uint32_t i = 0; i <= end && i < n_pivots + 1; ++i) {
        std::optional<uint64_t> slot = RPtr(node + off_slot + 8ull * i, "maple slot");
        if (!slot) return;
        if (*slot != 0 && (*slot & 2) != 0) {
          Violate(node + off_slot + 8ull * i, "maple leaf slot holds an internal "
                                              "node pointer " + Hex(*slot));
        }
      }
      return;
    }
    uint64_t slot_min = min;
    for (uint32_t i = 0; i <= end; ++i) {
      uint64_t slot_max = (i < end) ? pivots[i] : max;
      std::optional<uint64_t> child = RPtr(node + off_slot + 8ull * i, "maple slot");
      if (!child) return;
      if (*child == 0 || (*child & 2) == 0) {
        Violate(node + off_slot + 8ull * i,
                "maple internal slot[" + std::to_string(i) + "] does not hold a node (" +
                    Hex(*child) + ")");
        return;
      }
      MapleNodeWalk(ctx, *child, slot_min, slot_max, node, i, depth + 1);
      if (slot_max == kMtMaxIndex) break;
      slot_min = slot_max + 1;
    }
  }

  void MaplePivots() {
    const uint64_t off_mm = Off("task_struct", "mm");
    const uint64_t off_mt = Off("mm_struct", "mm_mt");
    const uint64_t off_root = Off("maple_tree", "ma_root");
    const uint64_t off_comm = Off("task_struct", "comm");
    std::unordered_set<uint64_t> seen_mm;
    for (uint64_t task : AllTasks()) {
      if (Exhausted()) return;
      std::optional<uint64_t> mm = RPtr(task + off_mm, "task->mm");
      if (!mm || *mm == 0 || !seen_mm.insert(*mm).second) continue;
      uint64_t tree = *mm + off_mt;
      std::optional<uint64_t> root = RPtr(tree + off_root, "ma_root");
      if (!root) continue;
      ExplainScope scope(this, RStr(task + off_comm, 16) + ": mm " + Hex(*mm) + " mm_mt");
      if (*root == 0 || (*root & 2) == 0) {
        scope.Append(" (empty/direct)");
        continue;  // empty tree or direct root entry: nothing structural
      }
      MapleCtx ctx;
      ctx.tree_addr = tree;
      MapleNodeWalk(&ctx, *root, 0, kMtMaxIndex, 0, 0, 0);
      scope.Append(" — " + std::to_string(ctx.nodes) + " nodes");
    }
  }

  // ---- VC005 / VC006: slab caches ----------------------------------------

  // Reads one slab descriptor and walks its embedded free-index chain.
  // `expect` classifies the list the slab was found on: 0 = free, 1 =
  // partial, 2 = full. Strict sinks get the descriptor checks.
  SlabInfo ReadSlab(const CacheInfo& cache, uint64_t slab_addr, int expect) {
    SlabInfo info;
    info.slab_addr = slab_addr;
    const uint64_t off_cache = Off("slab", "cache");
    const uint64_t off_smem = Off("slab", "s_mem");
    const uint64_t off_inuse = Off("slab", "inuse");
    const uint64_t off_free = Off("slab", "free_idx");
    std::optional<uint64_t> owner = RPtr(slab_addr + off_cache, "slab->cache");
    std::optional<uint64_t> smem = RPtr(slab_addr + off_smem, "slab->s_mem");
    std::optional<uint64_t> inuse = RU(slab_addr + off_inuse, 4, "slab->inuse");
    std::optional<uint64_t> free_idx = RU(slab_addr + off_free, 4, "slab->free_idx");
    if (!owner || !smem || !inuse || !free_idx) return info;
    info.s_mem = *smem;
    info.inuse = static_cast<uint32_t>(*inuse);
    const bool strict = Strict();
    if (strict) {
      StrictScope strict_only(this);
      if (*owner != cache.addr) {
        Violate(slab_addr, "slab->cache points at " + Hex(*owner) + ", expected cache '" +
                               cache.name + "' " + Hex(cache.addr));
      }
      if (info.inuse > cache.num) {
        Violate(slab_addr, "slab inuse " + std::to_string(info.inuse) +
                               " exceeds objects-per-slab " + std::to_string(cache.num));
      }
      bool list_ok = (expect == 0 && info.inuse == 0) ||
                     (expect == 1 && info.inuse > 0 && info.inuse < cache.num) ||
                     (expect == 2 && info.inuse == cache.num);
      if (!list_ok) {
        static const char* kLists[] = {"slabs_free", "slabs_partial", "slabs_full"};
        Violate(slab_addr, std::string("slab with inuse ") + std::to_string(info.inuse) +
                               "/" + std::to_string(cache.num) + " is on the wrong list (" +
                               kLists[expect] + ")");
      }
    }
    // Walk the embedded free-index chain.
    std::vector<bool> seen(cache.num, false);
    uint32_t idx = static_cast<uint32_t>(*free_idx);
    uint32_t steps = 0;
    while (idx != kSlabFreeEnd) {
      if (idx >= cache.num) {
        if (strict) {
          StrictScope strict_only(this);
          Violate(slab_addr, "free-index chain escapes the slab: index " +
                                 std::to_string(idx) + " >= " + std::to_string(cache.num));
        }
        return info;
      }
      if (seen[idx] || ++steps > cache.num) {
        if (strict) {
          StrictScope strict_only(this);
          Violate(info.s_mem + static_cast<uint64_t>(idx) * cache.size,
                  "free-index chain cycles at index " + std::to_string(idx));
        }
        return info;
      }
      seen[idx] = true;
      info.free_chain.push_back(idx);
      std::optional<uint64_t> next =
          RU(info.s_mem + static_cast<uint64_t>(idx) * cache.size, 4, "freelist word");
      if (!next) return info;
      idx = static_cast<uint32_t>(*next);
    }
    info.chain_ok = true;
    if (strict && info.free_chain.size() != cache.num - info.inuse) {
      StrictScope strict_only(this);
      Violate(slab_addr, "free-index chain has " + std::to_string(info.free_chain.size()) +
                             " entries, expected num - inuse = " +
                             std::to_string(cache.num - info.inuse));
    }
    return info;
  }

 public:
  // Walks every cache on cache_chain and its three slab lists. Strict sinks
  // (VC005) also get the descriptor and accounting checks. A sink that hits
  // the violation cap stops being fed at the next cache, as its own walk
  // would stop there.
  std::vector<CacheInfo> WalkCaches() {
    std::vector<CacheInfo> caches;
    uint64_t chain = 0;
    if (!Sym("cache_chain", &chain)) return caches;
    const uint64_t off_link = Off("kmem_cache", "cache_list");
    const uint64_t off_name = Off("kmem_cache", "name");
    const uint64_t off_osize = Off("kmem_cache", "object_size");
    const uint64_t off_size = Off("kmem_cache", "size");
    const uint64_t off_num = Off("kmem_cache", "num");
    const uint64_t off_slab_list = Off("slab", "list");
    const uint64_t off_active = Off("kmem_cache", "active_objects");
    const uint64_t off_total = Off("kmem_cache", "total_objects");
    static const char* kLists[] = {"slabs_free", "slabs_partial", "slabs_full"};
    for (uint64_t node : WalkList(chain, "cache_chain")) {
      for (Sink* sink : sinks_) {
        sink->attached = sink->attached && !sink->truncated;
      }
      if (Exhausted()) break;
      CacheInfo cache;
      cache.addr = node - off_link;
      cache.name = RStr(cache.addr + off_name, 32);
      std::optional<uint64_t> osize = RU(cache.addr + off_osize, 4);
      std::optional<uint64_t> size = RU(cache.addr + off_size, 4);
      std::optional<uint64_t> num = RU(cache.addr + off_num, 4);
      if (!osize || !size || !num || *size == 0 || *num == 0) continue;
      cache.object_size = static_cast<uint32_t>(*osize);
      cache.size = static_cast<uint32_t>(*size);
      cache.num = static_cast<uint32_t>(*num);
      ExplainScope scope(this, "kmem_cache '" + cache.name + "' " + Hex(cache.addr));
      uint64_t sum_inuse = 0;
      uint64_t sum_objects = 0;
      for (int list = 0; list < 3; ++list) {
        uint64_t head = cache.addr + Off("kmem_cache", kLists[list]);
        for (uint64_t slab_node : WalkList(head, kLists[list])) {
          SlabInfo si = ReadSlab(cache, slab_node - off_slab_list, list);
          sum_inuse += si.inuse;
          sum_objects += cache.num;
          cache.slabs.push_back(std::move(si));
        }
      }
      if (Strict()) {
        StrictScope strict(this);
        std::optional<uint64_t> active = RU(cache.addr + off_active, 8);
        std::optional<uint64_t> total = RU(cache.addr + off_total, 8);
        if (active && *active != sum_inuse) {
          Violate(cache.addr + off_active,
                  "cache '" + cache.name + "' active_objects " + std::to_string(*active) +
                      " != sum of slab inuse " + std::to_string(sum_inuse));
        }
        if (total && *total != sum_objects) {
          Violate(cache.addr + off_total,
                  "cache '" + cache.name + "' total_objects " + std::to_string(*total) +
                      " != objects on its slab lists " + std::to_string(sum_objects));
        }
      }
      scope.Append(" — " + std::to_string(cache.slabs.size()) + " slabs, " +
                   std::to_string(sum_inuse) + " live objects");
      caches.push_back(std::move(cache));
      for (Sink* sink : sinks_) {
        if (sink->attached) sink->caches = caches.size();
      }
    }
    return caches;
  }

  // VC006 after the walk: the poison of every free object of `caches`, then
  // the suspect audit.
  void SlabPoison(const std::vector<CacheInfo>& caches) {
    std::vector<uint8_t> buf;
    for (const CacheInfo& cache : caches) {
      if (Exhausted()) return;
      if (cache.object_size <= sizeof(uint32_t)) continue;
      ExplainScope scope(this, "poison scan: '" + cache.name + "'");
      size_t scanned = 0;
      for (const SlabInfo& sl : cache.slabs) {
        for (uint32_t idx : sl.free_chain) {
          uint64_t obj = sl.s_mem + static_cast<uint64_t>(idx) * cache.size;
          // Skip the embedded freelist word, as IsPoisoned does.
          if (!ReadBuf(obj + sizeof(uint32_t), &buf, cache.object_size - sizeof(uint32_t))) {
            Violate(obj, "free object unreadable during poison scan");
            continue;
          }
          ++scanned;
          for (size_t i = 0; i < buf.size(); ++i) {
            if (buf[i] != kSlabPoison) {
              Violate(obj + sizeof(uint32_t) + i,
                      "free object in cache '" + cache.name + "' lost its 0x6b poison at +" +
                          std::to_string(sizeof(uint32_t) + i) +
                          " (write-after-free into " + Hex(obj) + ")");
              break;
            }
          }
          if (Exhausted()) return;
        }
      }
      scope.Append(" — " + std::to_string(scanned) + " free objects");
    }
    // Suspect audit: a pointer a (crashed) reader still holds. If it resolves
    // into a *free* slab object, that reader's next dereference is a
    // use-after-free — this is how StackRot's stale maple node gets named.
    for (uint64_t suspect : *suspects_) {
      if (Exhausted()) return;
      ExplainScope scope(this, "suspect " + Hex(suspect));
      bool located = false;
      for (const CacheInfo& cache : caches) {
        for (const SlabInfo& sl : cache.slabs) {
          uint64_t span = static_cast<uint64_t>(cache.num) * cache.size;
          if (suspect < sl.s_mem || suspect >= sl.s_mem + span) continue;
          located = true;
          uint32_t idx = static_cast<uint32_t>((suspect - sl.s_mem) / cache.size);
          uint64_t obj = sl.s_mem + static_cast<uint64_t>(idx) * cache.size;
          bool is_free = std::find(sl.free_chain.begin(), sl.free_chain.end(), idx) !=
                         sl.free_chain.end();
          if (is_free) {
            Violate(obj, "use-after-free: suspect pointer " + Hex(suspect) +
                             " names freed object " + std::to_string(idx) + " of cache '" +
                             cache.name + "' (free-poisoned; any dereference reads 0x6b)");
            scope.Append(" — freed object in '" + cache.name + "'");
          } else {
            scope.Append(" — live object in '" + cache.name + "'");
          }
          break;
        }
        if (located) break;
      }
      if (!located) {
        scope.Append(" — not a slab object");
      }
    }
  }

 private:
  // ---- VC007 task-reachability -------------------------------------------

  void TaskReachability() {
    uint64_t init_task = 0;
    if (!Sym("init_task", &init_task)) return;
    const uint64_t off_children = Off("task_struct", "children");
    const uint64_t off_sibling = Off("task_struct", "sibling");
    const uint64_t off_parent = Off("task_struct", "parent");
    const uint64_t off_real_parent = Off("task_struct", "real_parent");
    const uint64_t off_signal = Off("task_struct", "signal");
    const uint64_t off_thread_head = Off("signal_struct", "thread_head");
    const uint64_t off_thread_node = Off("task_struct", "thread_node");
    const uint64_t off_pid = Off("task_struct", "pid");
    const uint64_t off_comm = Off("task_struct", "comm");

    // Roots: init_task plus each runqueue's idle task (swapper/N lives on the
    // global list but outside the fork tree, exactly as in Linux).
    std::vector<uint64_t> stack = {init_task};
    uint64_t rq_base = 0;
    const dbg::Type* rq_type = nullptr;
    if (Sym("runqueues", &rq_base, &rq_type)) {
      const size_t rq_size = SizeOf("rq");
      const uint64_t off_idle = Off("rq", "idle");
      for (size_t cpu = 0; cpu < SymArrayLen(rq_type); ++cpu) {
        std::optional<uint64_t> idle = RPtr(rq_base + cpu * rq_size + off_idle, "rq->idle");
        if (idle && *idle != 0) stack.push_back(*idle);
      }
    }

    std::unordered_set<uint64_t> reachable;
    ExplainScope scope(this, "fork tree from init_task " + Hex(init_task));
    while (!stack.empty() && reachable.size() < kMaxTasks) {
      if (Exhausted()) return;
      uint64_t task = stack.back();
      stack.pop_back();
      if (!reachable.insert(task).second) continue;
      // Children.
      for (uint64_t node : WalkList(task + off_children, "children")) {
        uint64_t child = node - off_sibling;
        std::optional<uint64_t> parent = RPtr(child + off_parent, "task->parent");
        std::optional<uint64_t> real_parent = RPtr(child + off_real_parent, "real_parent");
        if (parent && real_parent && *parent != task && *real_parent != task) {
          Violate(child, "task on the children list of " + Hex(task) +
                             " but its parent is " + Hex(*parent));
        }
        stack.push_back(child);
      }
      // Thread group: every thread hangs off the shared signal_struct.
      std::optional<uint64_t> signal = RPtr(task + off_signal, "task->signal");
      if (signal && *signal != 0) {
        for (uint64_t node : WalkList(*signal + off_thread_head, "thread_head")) {
          stack.push_back(node - off_thread_node);
        }
      }
    }
    scope.Append(" — " + std::to_string(reachable.size()) + " reachable");

    for (uint64_t task : AllTasks()) {
      if (Exhausted()) return;
      if (reachable.count(task) != 0) continue;
      std::optional<uint64_t> pid = RU(task + off_pid, 4);
      Violate(task, "task pid " + (pid ? std::to_string(static_cast<int>(*pid)) : "?") +
                        " comm '" + RStr(task + off_comm, 16) +
                        "' is on the global task list but unreachable from init_task");
    }
  }

  // ---- VC008 rcu-cblist ---------------------------------------------------

  void RcuCblist() {
    uint64_t rdp_base = 0;
    const dbg::Type* rdp_type = nullptr;
    if (!Sym("rcu_data", &rdp_base, &rdp_type)) return;
    uint64_t state = 0;
    if (!Sym("rcu_state", &state)) return;
    std::optional<uint64_t> global_seq = RU(state + Off("rcu_state", "gp_seq"), 8);
    if (!global_seq) return;
    const size_t rdp_size = SizeOf("rcu_data");
    const uint64_t off_cpu = Off("rcu_data", "cpu");
    const uint64_t off_gp = Off("rcu_data", "gp_seq");
    const uint64_t off_nesting = Off("rcu_data", "nesting");
    const uint64_t off_head = Off("rcu_data", "cblist_head");
    const uint64_t off_tail = Off("rcu_data", "cblist_tail");
    const uint64_t off_len = Off("rcu_data", "cblist_len");
    const uint64_t off_next = Off("rcu_head", "next");
    for (size_t cpu = 0; cpu < SymArrayLen(rdp_type); ++cpu) {
      if (Exhausted()) return;
      uint64_t rdp = rdp_base + cpu * rdp_size;
      ExplainScope scope(this, "rcu_data[" + std::to_string(cpu) + "] " + Hex(rdp));
      std::optional<uint64_t> cpu_field = RU(rdp + off_cpu, 4);
      if (cpu_field && *cpu_field != cpu) {
        Violate(rdp, "rcu_data cpu field is " + std::to_string(*cpu_field) + ", expected " +
                         std::to_string(cpu));
      }
      std::optional<uint64_t> nesting = RU(rdp + off_nesting, 4);
      if (nesting && static_cast<int32_t>(*nesting) < 0) {
        Violate(rdp + off_nesting, "negative rcu_read_lock nesting depth " +
                                       std::to_string(static_cast<int32_t>(*nesting)));
      }
      std::optional<uint64_t> gp = RU(rdp + off_gp, 8);
      if (gp && *gp > *global_seq) {
        Violate(rdp + off_gp, "per-CPU gp_seq " + std::to_string(*gp) +
                                  " is ahead of the global grace period " +
                                  std::to_string(*global_seq));
      }
      std::optional<uint64_t> len = RU(rdp + off_len, 8);
      std::optional<uint64_t> tail = RPtr(rdp + off_tail, "cblist_tail");
      if (!len || !tail) continue;
      uint64_t link = rdp + off_head;  // address of the pointer we follow
      std::optional<uint64_t> cur = RPtr(link, "cblist_head");
      uint64_t count = 0;
      const uint64_t cap = *len + 16;
      while (cur && *cur != 0) {
        if (++count > cap) {
          Violate(rdp + off_head, "cblist longer than cblist_len + slack (cycle or "
                                  "unaccounted callbacks)");
          break;
        }
        link = *cur + off_next;
        cur = RPtr(link, "rcu_head->next");
      }
      if (cur && *cur == 0) {
        if (count != *len) {
          Violate(rdp + off_len, "cblist_len says " + std::to_string(*len) +
                                     " callbacks but the chain holds " +
                                     std::to_string(count));
        }
        if (*tail != link) {
          Violate(rdp + off_tail, "cblist_tail is " + Hex(*tail) +
                                      " but the last next pointer lives at " + Hex(link));
        }
      }
      scope.Append(" — " + std::to_string(count) + " callbacks");
    }
  }

  // ---- VC009 pipe-can-merge ----------------------------------------------

  void PipeCanMerge() {
    uint64_t sb_head = 0;
    if (!Sym("super_blocks", &sb_head)) return;
    const uint64_t off_s_list = Off("super_block", "s_list");
    const uint64_t off_s_inodes = Off("super_block", "s_inodes");
    const uint64_t off_s_id = Off("super_block", "s_id");
    const uint64_t off_i_sb_list = Off("inode", "i_sb_list");
    const uint64_t off_i_pipe = Off("inode", "i_pipe");
    const uint64_t off_i_ino = Off("inode", "i_ino");
    const uint64_t off_head = Off("pipe_inode_info", "head");
    const uint64_t off_tail = Off("pipe_inode_info", "tail");
    const uint64_t off_ring = Off("pipe_inode_info", "ring_size");
    const uint64_t off_bufs = Off("pipe_inode_info", "bufs");
    const size_t buf_size = SizeOf("pipe_buffer");
    const uint64_t off_b_page = Off("pipe_buffer", "page");
    const uint64_t off_b_off = Off("pipe_buffer", "offset");
    const uint64_t off_b_len = Off("pipe_buffer", "len");
    const uint64_t off_b_flags = Off("pipe_buffer", "flags");
    const uint64_t off_pg_mapping = Off("page", "mapping");
    const uint64_t off_pg_flags = Off("page", "flags");

    for (uint64_t sb_node : WalkList(sb_head, "super_blocks")) {
      if (Exhausted()) return;
      uint64_t sb = sb_node - off_s_list;
      std::string sid = RStr(sb + off_s_id, 32);
      size_t pipes = 0;
      ExplainScope sb_scope(this, "super_block '" + sid + "' " + Hex(sb));
      for (uint64_t ino_node : WalkList(sb + off_s_inodes, "s_inodes")) {
        if (Exhausted()) return;
        uint64_t ino = ino_node - off_i_sb_list;
        std::optional<uint64_t> pipe = RPtr(ino + off_i_pipe, "i_pipe");
        if (!pipe || *pipe == 0) continue;
        ++pipes;
        std::optional<uint64_t> ino_nr = RU(ino + off_i_ino, 8);
        ExplainScope scope(this, "pipe " + Hex(*pipe) + " (inode " +
                                     (ino_nr ? std::to_string(*ino_nr) : "?") + ")");
        std::optional<uint64_t> head = RU(*pipe + off_head, 4);
        std::optional<uint64_t> tail = RU(*pipe + off_tail, 4);
        std::optional<uint64_t> ring = RU(*pipe + off_ring, 4);
        std::optional<uint64_t> bufs = RPtr(*pipe + off_bufs, "pipe->bufs");
        if (!head || !tail || !ring || !bufs) continue;
        uint32_t ring_size = static_cast<uint32_t>(*ring);
        if (ring_size == 0 || (ring_size & (ring_size - 1)) != 0 || ring_size > 4096) {
          Violate(*pipe + off_ring, "pipe ring_size " + std::to_string(ring_size) +
                                        " is not a sane power of two");
          continue;
        }
        uint32_t used = static_cast<uint32_t>(*head) - static_cast<uint32_t>(*tail);
        if (used > ring_size) {
          Violate(*pipe, "pipe occupancy head-tail = " + std::to_string(used) +
                             " exceeds ring_size " + std::to_string(ring_size));
          continue;
        }
        for (uint32_t k = 0; k < used; ++k) {
          uint32_t idx = (static_cast<uint32_t>(*tail) + k) & (ring_size - 1);
          uint64_t buf = *bufs + static_cast<uint64_t>(idx) * buf_size;
          std::optional<uint64_t> flags = RU(buf + off_b_flags, 4);
          std::optional<uint64_t> page = RPtr(buf + off_b_page, "buf->page");
          std::optional<uint64_t> blen = RU(buf + off_b_len, 4);
          std::optional<uint64_t> boff = RU(buf + off_b_off, 4);
          if (!flags || !page || !blen || !boff) continue;
          if (*page == 0) {
            Violate(buf, "occupied pipe slot " + std::to_string(idx) + " has no page");
            continue;
          }
          if (*boff + *blen > kPageSize) {
            Violate(buf, "pipe buffer slot " + std::to_string(idx) + " spans past its page "
                         "(offset " + std::to_string(*boff) + " + len " +
                         std::to_string(*blen) + ")");
          }
          if ((*flags & kPipeCanMerge) != 0) {
            std::optional<uint64_t> mapping = RPtr(*page + off_pg_mapping, "page->mapping");
            std::optional<uint64_t> pflags = RU(*page + off_pg_flags, 8);
            if (!mapping || !pflags) continue;
            bool file_backed =
                *mapping != 0 && (*mapping & 1) == 0 && (*pflags & kPgAnon) == 0;
            if (file_backed) {
              Violate(buf, "PIPE_BUF_FLAG_CAN_MERGE set on ring slot " +
                               std::to_string(idx) + " whose page " + Hex(*page) +
                               " is page-cache-backed (mapping " + Hex(*mapping) +
                               ") — the Dirty Pipe signature: writes merge into the "
                               "shared file page");
            }
          }
        }
      }
      sb_scope.Append(" — " + std::to_string(pipes) + " pipes");
    }
  }

  // ---- VC010 timer-wheel --------------------------------------------------

  void TimerWheel() {
    uint64_t base_addr = 0;
    const dbg::Type* base_type = nullptr;
    if (!Sym("timer_bases", &base_addr, &base_type)) return;
    const size_t base_size = SizeOf("timer_base");
    const uint64_t off_cpu = Off("timer_base", "cpu");
    const uint64_t off_vectors = Off("timer_base", "vectors");
    const uint64_t off_first = Off("hlist_head", "first");
    const uint64_t off_next = Off("hlist_node", "next");
    const uint64_t off_pprev = Off("hlist_node", "pprev");
    const dbg::Type* tb = types_->FindByName("timer_base");
    const dbg::Field* vf = tb != nullptr ? tb->FindField("vectors") : nullptr;
    const size_t slots =
        (vf != nullptr && vf->type != nullptr && vf->type->array_len > 0)
            ? vf->type->array_len
            : 256;
    const size_t head_size = SizeOf("hlist_head");
    for (size_t cpu = 0; cpu < SymArrayLen(base_type); ++cpu) {
      if (Exhausted()) return;
      uint64_t base = base_addr + cpu * base_size;
      ExplainScope scope(this, "timer_bases[" + std::to_string(cpu) + "] " + Hex(base));
      std::optional<uint64_t> cpu_field = RU(base + off_cpu, 4);
      if (cpu_field && *cpu_field != cpu) {
        Violate(base + off_cpu, "timer_base cpu field is " + std::to_string(*cpu_field) +
                                    ", expected " + std::to_string(cpu));
      }
      size_t timers = 0;
      for (size_t s = 0; s < slots; ++s) {
        uint64_t head = base + off_vectors + s * head_size + off_first;
        std::optional<uint64_t> cur = RPtr(head, "wheel bucket");
        uint64_t expected_pprev = head;
        int steps = 0;
        while (cur && *cur != 0) {
          if (++steps > kMaxHlistSteps) {
            Violate(head, "timer-wheel bucket " + std::to_string(s) +
                              " does not terminate (cycle)");
            break;
          }
          ++timers;
          std::optional<uint64_t> pprev = RPtr(*cur + off_pprev, "timer pprev");
          if (!pprev) break;
          if (*pprev != expected_pprev) {
            Violate(*cur, "timer-wheel bucket " + std::to_string(s) +
                              ": node pprev is " + Hex(*pprev) + ", expected " +
                              Hex(expected_pprev));
          }
          expected_pprev = *cur + off_next;
          cur = RPtr(*cur + off_next, "timer next");
          if (Exhausted()) return;
        }
      }
      scope.Append(" — " + std::to_string(timers) + " pending timers");
    }
  }

  // ---- VC011 workqueue-linkage -------------------------------------------

  void WorkqueueLinkage() {
    uint64_t wq_head = 0;
    if (Sym("workqueues", &wq_head)) {
      const uint64_t off_list = Off("workqueue_struct", "list");
      const uint64_t off_name = Off("workqueue_struct", "name");
      const uint64_t off_pwqs = Off("workqueue_struct", "pwqs");
      const uint64_t off_pwq_node = Off("pool_workqueue", "pwqs_node");
      const uint64_t off_pwq_wq = Off("pool_workqueue", "wq");
      const uint64_t off_pwq_pool = Off("pool_workqueue", "pool");
      for (uint64_t node : WalkList(wq_head, "workqueues")) {
        if (Exhausted()) return;
        uint64_t wq = node - off_list;
        ExplainScope scope(this, "workqueue '" + RStr(wq + off_name, 24) + "' " + Hex(wq));
        size_t pwqs = 0;
        for (uint64_t pwq_node : WalkList(wq + off_pwqs, "pwqs")) {
          uint64_t pwq = pwq_node - off_pwq_node;
          ++pwqs;
          std::optional<uint64_t> back = RPtr(pwq + off_pwq_wq, "pwq->wq");
          if (back && *back != wq) {
            Violate(pwq, "pool_workqueue->wq points at " + Hex(*back) +
                             ", expected its owning workqueue " + Hex(wq));
          }
          std::optional<uint64_t> pool = RPtr(pwq + off_pwq_pool, "pwq->pool");
          if (pool && *pool == 0) {
            Violate(pwq, "pool_workqueue without a worker_pool");
          }
        }
        scope.Append(" — " + std::to_string(pwqs) + " pwqs");
      }
    }
    uint64_t pools = 0;
    const dbg::Type* pools_type = nullptr;
    if (!Sym("cpu_worker_pools", &pools, &pools_type)) return;
    const size_t pool_size = SizeOf("worker_pool");
    const uint64_t off_pool_cpu = Off("worker_pool", "cpu");
    const uint64_t off_worklist = Off("worker_pool", "worklist");
    const uint64_t off_workers = Off("worker_pool", "workers");
    const uint64_t off_nr_workers = Off("worker_pool", "nr_workers");
    const uint64_t off_nr_running = Off("worker_pool", "nr_running");
    const uint64_t off_work_entry = Off("work_struct", "entry");
    const uint64_t off_work_func = Off("work_struct", "func");
    for (size_t cpu = 0; cpu < SymArrayLen(pools_type); ++cpu) {
      if (Exhausted()) return;
      uint64_t pool = pools + cpu * pool_size;
      ExplainScope scope(this, "cpu_worker_pools[" + std::to_string(cpu) + "] " + Hex(pool));
      std::optional<uint64_t> cpu_field = RU(pool + off_pool_cpu, 4);
      if (cpu_field && *cpu_field != cpu) {
        Violate(pool + off_pool_cpu, "worker_pool cpu field is " +
                                         std::to_string(static_cast<int32_t>(*cpu_field)) +
                                         ", expected " + std::to_string(cpu));
      }
      size_t pending = 0;
      for (uint64_t work_node : WalkList(pool + off_worklist, "worklist")) {
        uint64_t work = work_node - off_work_entry;
        ++pending;
        std::optional<uint64_t> func = RPtr(work + off_work_func, "work->func");
        if (func && *func == 0) {
          Violate(work, "pending work_struct with a null function pointer");
        }
      }
      // The boot path counts one conceptual worker per pool without linking
      // worker structs, so the list may undershoot nr_workers — but never
      // overshoot it, and nr_running is bounded by nr_workers.
      size_t workers = WalkList(pool + off_workers, "workers").size();
      std::optional<uint64_t> nr = RU(pool + off_nr_workers, 4);
      std::optional<uint64_t> running = RU(pool + off_nr_running, 4);
      if (nr && workers > *nr) {
        Violate(pool + off_nr_workers, "worker_pool nr_workers says " + std::to_string(*nr) +
                                           " but the workers list holds " +
                                           std::to_string(workers));
      }
      if (nr && running && *running > *nr) {
        Violate(pool + off_nr_workers, "worker_pool nr_running " + std::to_string(*running) +
                                           " exceeds nr_workers " + std::to_string(*nr));
      }
      scope.Append(" — " + std::to_string(pending) + " pending, " + std::to_string(workers) +
                   " workers");
    }
  }

  const dbg::TypeRegistry* types_;
  const dbg::SymbolTable* symbols_;
  dbg::ReadSession* session_;
  const std::vector<uint64_t>* suspects_;
  SweepState* state_;
  std::vector<Sink*> sinks_;
  const uint64_t deferrals0_;  // session deferrals when the attempt started
  std::vector<std::string> trail_;
  std::unordered_set<std::string> meta_reported_;
  bool strict_only_ = false;
};

}  // namespace

// ---- report types ---------------------------------------------------------

vl::Json CheckExplainNode::ToJson() const {
  vl::Json j = vl::Json::Object();
  j["label"] = vl::Json::Str(label);
  if (!children.empty()) {
    vl::Json kids = vl::Json::Array();
    for (const CheckExplainNode& child : children) {
      kids.Append(child.ToJson());
    }
    j["children"] = std::move(kids);
  }
  return j;
}

void CheckExplainNode::Render(std::string* out, int depth) const {
  for (int i = 0; i < depth; ++i) out->append("  ");
  out->append(label);
  out->push_back('\n');
  for (const CheckExplainNode& child : children) {
    child.Render(out, depth + 1);
  }
}

vl::Json CheckViolation::ToJson() const {
  vl::Json j = vl::Json::Object();
  j["rule"] = vl::Json::Str(diagnostic.rule);
  j["severity"] = vl::Json::Str(std::string(vl::SeverityName(diagnostic.severity)));
  j["addr"] = vl::Json::Str(Hex(addr));
  j["message"] = vl::Json::Str(diagnostic.message);
  vl::Json t = vl::Json::Array();
  for (const std::string& hop : trail) {
    t.Append(vl::Json::Str(hop));
  }
  j["trail"] = std::move(t);
  return j;
}

vl::Json CheckRuleReport::ToJson() const {
  vl::Json j = vl::Json::Object();
  j["id"] = vl::Json::Str(id);
  j["name"] = vl::Json::Str(name);
  j["reads"] = vl::Json::Int(static_cast<int64_t>(reads));
  j["bytes"] = vl::Json::Int(static_cast<int64_t>(bytes));
  j["charged_ns"] = vl::Json::Int(static_cast<int64_t>(charged_ns));
  vl::Json v = vl::Json::Array();
  for (const CheckViolation& violation : violations) {
    v.Append(violation.ToJson());
  }
  j["violations"] = std::move(v);
  j["explain"] = explain.ToJson();
  return j;
}

size_t CheckReport::violations() const {
  size_t n = 0;
  for (const CheckRuleReport& r : rules) n += r.violations.size();
  return n;
}

size_t CheckReport::rules_run() const { return rules.size(); }

vl::DiagnosticList CheckReport::Diagnostics() const {
  vl::DiagnosticList list;
  for (const CheckRuleReport& r : rules) {
    for (const CheckViolation& v : r.violations) {
      list.Add(v.diagnostic);
    }
  }
  list.Sort();
  return list;
}

vl::Json CheckReport::ToJson() const {
  vl::Json j = vl::Json::Object();
  j["rules_run"] = vl::Json::Int(static_cast<int64_t>(rules_run()));
  j["violations"] = vl::Json::Int(static_cast<int64_t>(violations()));
  j["reads"] = vl::Json::Int(static_cast<int64_t>(reads));
  j["bytes"] = vl::Json::Int(static_cast<int64_t>(bytes));
  j["charged_ns"] = vl::Json::Int(static_cast<int64_t>(charged_ns));
  j["sync_ns"] = vl::Json::Int(static_cast<int64_t>(sync_ns));
  j["batches"] = vl::Json::Int(static_cast<int64_t>(batches));
  j["batch_ns"] = vl::Json::Int(static_cast<int64_t>(batch_ns));
  j["clock_delta_ns"] = vl::Json::Int(static_cast<int64_t>(clock_delta_ns));
  j["reconciled"] = vl::Json::Bool(reconciled);
  vl::Json rs = vl::Json::Array();
  for (const CheckRuleReport& r : rules) {
    rs.Append(r.ToJson());
  }
  j["rules"] = std::move(rs);
  return j;
}

std::string CheckReport::RenderText() const {
  std::string out;
  for (const CheckRuleReport& r : rules) {
    out += r.id + " " + r.name + ": " + std::to_string(r.violations.size()) +
           " violation(s), " + std::to_string(r.reads) + " reads, " +
           std::to_string(r.charged_ns) + " ns\n";
    for (const CheckViolation& v : r.violations) {
      out += "  " + std::string(vl::SeverityName(v.diagnostic.severity)) + "[" +
             v.diagnostic.rule + "]: " + v.diagnostic.message + "\n";
      if (!v.trail.empty()) {
        out += "    via: ";
        for (size_t i = 0; i < v.trail.size(); ++i) {
          if (i > 0) out += " > ";
          out += v.trail[i];
        }
        out.push_back('\n');
      }
    }
  }
  out += "vcheck: " + std::to_string(rules_run()) + " rule(s) run, " +
         std::to_string(violations()) + " violation(s), " + std::to_string(batches) +
         " batch(es), " + std::to_string(charged_ns + sync_ns + batch_ns) + " ns charged (" +
         (reconciled ? "reconciles" : "DOES NOT reconcile") + " with Target::clock())\n";
  return out;
}

namespace {

constexpr std::pair<const char*, uint64_t CheckStats::*> kCheckStatsFields[] = {
    {"sweeps", &CheckStats::sweeps},         {"rules_run", &CheckStats::rules_run},
    {"violations", &CheckStats::violations}, {"reads", &CheckStats::reads},
    {"read_bytes", &CheckStats::read_bytes}, {"batches", &CheckStats::batches},
    {"batch_ns", &CheckStats::batch_ns},     {"charged_ns", &CheckStats::charged_ns},
};

}  // namespace

void CheckStats::Add(const CheckReport& report) {
  sweeps++;
  rules_run += report.rules_run();
  violations += report.violations();
  reads += report.reads;
  read_bytes += report.bytes;
  batches += report.batches;
  batch_ns += report.batch_ns;
  charged_ns += report.charged_ns + report.sync_ns + report.batch_ns;
}

CheckStats& CheckStats::operator+=(const CheckStats& other) {
  for (const auto& [name, field] : kCheckStatsFields) {
    this->*field += other.*field;
  }
  return *this;
}

vl::Json CheckStats::ToJson() const {
  vl::Json j = vl::Json::Object();
  for (const auto& [name, field] : kCheckStatsFields) {
    j[name] = vl::Json::Int(static_cast<int64_t>(this->*field));
  }
  return j;
}

// ---- engine ---------------------------------------------------------------

CheckEngine::CheckEngine(const dbg::TypeRegistry* types, const dbg::SymbolTable* symbols,
                         dbg::ReadSession* session)
    : types_(types), symbols_(symbols), session_(session) {}

const std::vector<CheckRuleInfo>& CheckEngine::Catalog() { return CatalogImpl(); }

const CheckRuleInfo* CheckEngine::FindRule(std::string_view id_or_name) {
  for (const CheckRuleInfo& info : CatalogImpl()) {
    if (id_or_name == info.id || id_or_name == info.name) {
      return &info;
    }
  }
  return nullptr;
}

void CheckEngine::AddSuspect(uint64_t addr) { suspects_.push_back(addr); }

void CheckEngine::ClearSuspects() { suspects_.clear(); }

namespace {

constexpr size_t kRuleSlabFreelist = 4;  // VC005
constexpr size_t kRuleSlabPoison = 5;    // VC006

CheckRuleReport NewReport(size_t idx) {
  const CheckRuleInfo& info = CatalogImpl()[idx];
  CheckRuleReport report;
  report.id = info.id;
  report.name = info.name;
  report.explain.label = std::string(info.id) + " " + info.name;
  return report;
}

// The rule attempts of one sweep. Each rule's report keeps the findings of
// its last attempt that did not stop on a deferred read, and the charges of
// all its attempts.
class SweepRun {
 public:
  SweepRun(const dbg::TypeRegistry* types, const dbg::SymbolTable* symbols,
           dbg::ReadSession* session, const std::vector<uint64_t>* suspects)
      : types_(types), symbols_(symbols), session_(session), suspects_(suspects) {
    for (size_t i = 0; i < CatalogImpl().size(); ++i) {
      reports_.push_back(NewReport(i));
    }
  }

  // Runs one attempt of every rule in `pending` (catalog order) and returns
  // those that stopped on a deferred read.
  std::vector<size_t> Attempt(const std::vector<size_t>& pending) {
    if (state_.slab_walk && state_.slab_walk->deferred) {
      state_.slab_walk.reset();  // walk again, after the batch
    }
    const bool poison_pending =
        std::find(pending.begin(), pending.end(), kRuleSlabPoison) != pending.end();
    std::vector<size_t> stopped;
    dbg::Target* target = session_->target();
    for (size_t idx : pending) {
      const uint64_t ns0 = target->clock().nanos();
      const uint64_t reads0 = target->reads();
      const uint64_t bytes0 = target->bytes_read();
      const uint64_t deferrals0 = session_->deferrals();
      CheckRuleReport attempt = NewReport(idx);
      if (idx == kRuleSlabFreelist) {
        SlabFreelist(&attempt, poison_pending);
      } else if (idx == kRuleSlabPoison) {
        SlabPoison(&attempt);
      } else {
        Sink sink(&attempt, /*is_strict=*/true);
        Checker checker(types_, symbols_, session_, suspects_, &state_, {&sink});
        checker.Run(idx);
        Checker::Finish(&sink);
      }
      CheckRuleReport& report = reports_[idx];
      report.charged_ns += target->clock().nanos() - ns0;
      report.reads += target->reads() - reads0;
      report.bytes += target->bytes_read() - bytes0;
      if (session_->deferrals() != deferrals0 ||
          (idx == kRuleSlabPoison && state_.slab_walk->deferred)) {
        stopped.push_back(idx);
        continue;
      }
      report.violations = std::move(attempt.violations);
      report.explain = std::move(attempt.explain);
    }
    return stopped;
  }

  CheckRuleReport Take(size_t idx) { return std::move(reports_[idx]); }

 private:
  // VC005: the strict slab walk. When VC006 runs in the same pass and has no
  // walk yet, the walk feeds it too.
  void SlabFreelist(CheckRuleReport* attempt, bool poison_pending) {
    Sink strict(attempt, /*is_strict=*/true);
    std::vector<Sink*> sinks = {&strict};
    std::optional<CheckRuleReport> poison;
    std::optional<Sink> lenient;
    if (poison_pending && !state_.slab_walk) {
      poison.emplace(NewReport(kRuleSlabPoison));
      lenient.emplace(&*poison, /*is_strict=*/false);
      sinks.push_back(&*lenient);
    }
    const uint64_t deferrals0 = session_->deferrals();
    Checker checker(types_, symbols_, session_, suspects_, &state_, std::move(sinks));
    std::vector<CacheInfo> caches = checker.WalkCaches();
    Checker::Finish(&strict);
    if (lenient) {
      caches.resize(lenient->caches);
      state_.slab_walk = SlabWalk{std::move(caches), std::move(*poison), lenient->truncated,
                                  session_->deferrals() != deferrals0};
    }
  }

  // VC006: the poison scan and suspect audit over the pass's slab walk,
  // walking the caches itself when no walk is at hand.
  void SlabPoison(CheckRuleReport* attempt) {
    if (!state_.slab_walk) {
      Sink lenient(attempt, /*is_strict=*/false);
      const uint64_t deferrals0 = session_->deferrals();
      Checker checker(types_, symbols_, session_, suspects_, &state_, {&lenient});
      std::vector<CacheInfo> caches = checker.WalkCaches();
      caches.resize(lenient.caches);
      state_.slab_walk = SlabWalk{std::move(caches), *attempt, lenient.truncated,
                                  session_->deferrals() != deferrals0};
    } else {
      *attempt = state_.slab_walk->findings;
    }
    Sink sink(attempt, /*is_strict=*/false, state_.slab_walk->truncated);
    Checker checker(types_, symbols_, session_, suspects_, &state_, {&sink});
    checker.SlabPoison(state_.slab_walk->caches);
    Checker::Finish(&sink);
  }

  const dbg::TypeRegistry* types_;
  const dbg::SymbolTable* symbols_;
  dbg::ReadSession* session_;
  const std::vector<uint64_t>* suspects_;
  SweepState state_;
  std::vector<CheckRuleReport> reports_;  // by catalog index
};

}  // namespace

CheckReport CheckEngine::Sweep(const CheckRuleInfo* only) {
  CheckReport report;
  vl::ScopedSpan span("vcheck");
  dbg::Target* target = session_->target();
  const uint64_t clock_before = target->clock().nanos();
  session_->SyncEpoch();
  report.sync_ns = target->clock().nanos() - clock_before;
  std::vector<size_t> selected;
  for (size_t i = 0; i < CatalogImpl().size(); ++i) {
    if (only == nullptr || &CatalogImpl()[i] == only) {
      selected.push_back(i);
    }
  }
  SweepRun run(types_, symbols_, session_, &suspects_);
  std::vector<size_t> pending = selected;
  if (session_->cache_enabled()) {
    // One deferring level (docs/checking.md#sweeping-after-a-kernel-step):
    // every rule runs with the session deferring its misses and one batch
    // fetches what they recorded. The level reports no stopped work, so the
    // loop ends after that batch: a second level saved less transport time
    // than its rule re-runs cost in host time (EXPERIMENTS.md "Batched
    // sweeps").
    dbg::ReadSession::LevelStats levels;
    (void)session_->RunLevels(
        "vcheck.level",
        [&] {
          pending = run.Attempt(pending);
          return dbg::ReadSession::Level{};
        },
        &levels);
    report.batches = levels.batches;
    report.batch_ns = levels.batch_ns;
  }
  // The rules that stopped run again without deferring, as on the raw
  // transport.
  pending = run.Attempt(pending);
  for (size_t idx : selected) {
    report.rules.push_back(run.Take(idx));
  }
  for (const CheckRuleReport& r : report.rules) {
    report.charged_ns += r.charged_ns;
    report.reads += r.reads;
    report.bytes += r.bytes;
  }
  report.clock_delta_ns = target->clock().nanos() - clock_before;
  report.reconciled =
      report.clock_delta_ns == report.charged_ns + report.sync_ns + report.batch_ns;
  return report;
}

CheckReport CheckEngine::RunAll() { return Sweep(nullptr); }

vl::StatusOr<CheckReport> CheckEngine::RunOne(std::string_view id_or_name) {
  const CheckRuleInfo* info = FindRule(id_or_name);
  if (info == nullptr) {
    return vl::Status(vl::StatusCode::kNotFound,
                      "unknown check rule '" + std::string(id_or_name) + "'");
  }
  return Sweep(info);
}

}  // namespace analysis
