#include "src/viewcl/interp.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <iterator>
#include <optional>
#include <tuple>

#include "src/support/str.h"
#include "src/support/trace.h"
#include "src/viewcl/parser.h"

namespace viewcl {

using dbg::Type;
using dbg::TypeKind;
using dbg::Value;

// ---------------------------------------------------------------------------
// Values and scopes
// ---------------------------------------------------------------------------

struct Interpreter::VclValue {
  enum class Kind { kNull, kDbg, kBox, kBoxSet, kRawSet };
  Kind kind = Kind::kNull;
  Value dbg;                        // kDbg
  uint64_t box = kNoBox;            // kBox
  std::vector<uint64_t> box_set;    // kBoxSet
  std::vector<Value> raw_set;       // kRawSet
  std::string set_kind;             // container kind ("List", "RBTree", ...)

  static VclValue Null() { return VclValue{}; }
  static VclValue Dbg(Value v) {
    VclValue out;
    out.kind = Kind::kDbg;
    out.dbg = v;
    return out;
  }
  static VclValue Box(uint64_t id) {
    VclValue out;
    out.kind = Kind::kBox;
    out.box = id;
    return out;
  }
  static VclValue BoxSet(std::vector<uint64_t> ids) {
    VclValue out;
    out.kind = Kind::kBoxSet;
    out.box_set = std::move(ids);
    return out;
  }
  static VclValue RawSet(std::vector<Value> values) {
    VclValue out;
    out.kind = Kind::kRawSet;
    out.raw_set = std::move(values);
    return out;
  }
};

class Interpreter::Scope {
 public:
  explicit Scope(const Scope* parent = nullptr) : parent_(parent) {}

  const VclValue* Find(const std::string& name) const {
    auto it = vars_.find(name);
    if (it != vars_.end()) {
      return &it->second;
    }
    return parent_ != nullptr ? parent_->Find(name) : nullptr;
  }

  void Set(const std::string& name, VclValue value) { vars_[name] = std::move(value); }

  const Scope* parent() const { return parent_; }
  const std::map<std::string, VclValue>& vars() const { return vars_; }

 private:
  const Scope* parent_;
  std::map<std::string, VclValue> vars_;
};

// ---------------------------------------------------------------------------
// Steps, tasks and the walk
// ---------------------------------------------------------------------------

// One evaluation step of a box body or of the top level, in the order the
// recursive walk evaluates them.
struct Interpreter::Step {
  enum class Kind {
    kBinding,    // top-level binding
    kPlot,       // top-level plot
    kBoxWhere,   // box-level where binding
    kViewWhere,  // view-level where binding (own or inherited)
    kItem,       // view item (own or inherited)
    kBadView,    // the view's inheritance chain names an unknown view
  };
  Kind kind = Kind::kItem;
  const Binding* binding = nullptr;
  const ItemDecl* item = nullptr;
  const Expr* plot = nullptr;
  int view = -1;        // index into the declaration's views (view steps)
  std::string error{};  // kBadView

  bool binds() const {
    return kind == Kind::kBinding || kind == Kind::kBoxWhere || kind == Kind::kViewWhere;
  }
};

namespace {

// What a task's step did, in evaluation order. The assembly replays these
// from the roots the way the recursive walk runs.
struct Event {
  enum class Kind : uint8_t { kBox, kChild, kWarn, kRoot };
  Kind kind = Kind::kBox;
  uint64_t id = 0;                // task-local box id (kBox, kChild, kRoot)
  const BoxDecl* decl = nullptr;  // kChild
  int depth = 0;                  // kChild: depth the child is instantiated at
  std::string text{};             // kWarn
};

}  // namespace

// One box of the batched walk: a (declaration, address) pair — or the top
// level — whose steps run with the session deferring its misses. A step
// that deferred a read is undone and retried after the level's batch;
// completed steps keep their results.
struct Interpreter::Task {
  struct Result {
    bool done = false;
    VclValue value;  // binding steps: the bound value
    std::vector<Event> events;
    std::map<std::string, MemberValue> members;  // writes to the task's box
    ViewInstance out;                            // what an item appended
  };

  const BoxDecl* decl = nullptr;  // nullptr: the top level
  uint64_t addr = 0;
  std::vector<Step> root_steps;  // the top level's steps
  const std::vector<Step>* steps = nullptr;
  std::vector<Result> results;
  // The task's own box (id 0 for box tasks), the boxes its steps created, and
  // one placeholder per child box they referenced. Append-only: an undone
  // step's boxes stay behind unreferenced, so ids held across attempts stay
  // valid.
  ViewGraph local;
  std::map<std::pair<const BoxDecl*, uint64_t>, uint64_t> placeholders;
  // Yields of forEach clauses that depend on nothing but their element
  // (Interpreter::PureYield), by (yield, element address and type, depth):
  // a retried step replays them instead of evaluating them again.
  struct Yield {
    VclValue value;
    std::vector<Event> events;
  };
  std::map<std::tuple<const Expr*, uint64_t, const dbg::Type*, int>, Yield> yields;
  // Granules the task's attempts read (ReadSession's page log), sorted and
  // deduped once the task is done.
  std::vector<uint64_t> pages;
  int max_depth = 0;  // deepest evaluation, relative to the box
  int runs = 0;
  bool done = false;
  bool memo = false;  // covered by a clean memo: replayed, never run
};

struct Interpreter::Walk {
  std::vector<std::unique_ptr<Task>> tasks;  // FIFO discovery order
  std::map<std::pair<const BoxDecl*, uint64_t>, Task*> index;
  std::vector<Task*> queue;  // tasks to run in the current level
  size_t progress = 0;       // task attempts that did work: a stall detector
  size_t boxes = 0;          // bound on the boxes the assembly creates
};

namespace {

constexpr std::pair<const char*, uint64_t WalkStats::*> kWalkFields[] = {
    {"runs", &WalkStats::runs},       {"levels", &WalkStats::levels},
    {"batches", &WalkStats::batches}, {"tasks", &WalkStats::tasks},
    {"retries", &WalkStats::retries}, {"unbatched_reads", &WalkStats::unbatched_reads},
    {"fallbacks", &WalkStats::fallbacks}, {"memo_replays", &WalkStats::memo_replays},
    {"memo_misses", &WalkStats::memo_misses},
};

}  // namespace

WalkStats& WalkStats::operator+=(const WalkStats& other) {
  for (const auto& [name, field] : kWalkFields) {
    this->*field += other.*field;
  }
  return *this;
}

vl::Json WalkStats::ToJson() const {
  vl::Json j = vl::Json::Object();
  for (const auto& [name, field] : kWalkFields) {
    j[name] = vl::Json::Int(static_cast<int64_t>(this->*field));
  }
  return j;
}

// ---------------------------------------------------------------------------
// RunState: one evaluation of the accumulated program
// ---------------------------------------------------------------------------

class Interpreter::RunState {
 public:
  explicit RunState(Interpreter* interp)
      : in_(interp),
        dbg_(interp->debugger_),
        ctx_(&interp->debugger_->context()),
        out_(std::make_unique<ViewGraph>()),
        graph_(out_.get()) {
    ResolveWellKnownOffsets();
    // Memo captures take their pages from this run's log. The recursive
    // fallback runs inside a batched run, so the log a run replaces comes
    // back when it ends.
    outer_log_ = dbg_->session().set_page_log(MemoEnabled() ? &page_log_ : nullptr);
  }
  ~RunState() { dbg_->session().set_page_log(outer_log_); }

  // The recursive walk: each box is evaluated where it is first referenced.
  vl::StatusOr<std::unique_ptr<ViewGraph>> RunRecursive() {
    Scope global;
    for (const Step& step : RootSteps()) {
      EvalStep(step, &global, nullptr, nullptr, nullptr, 0);
    }
    return Finish();
  }

  // The batched walk: tasks level by level, one batch per level, then the
  // depth-first assembly. Falls back to the recursive walk over the now-warm
  // cache when a limit could trip.
  vl::StatusOr<std::unique_ptr<ViewGraph>> RunBatched(WalkStats* stats) {
    uint64_t reads_before = dbg_->target().reads();
    Walk walk;
    walk_ = &walk;
    stats->runs++;

    auto root = std::make_unique<Task>();
    root->root_steps = RootSteps();
    root->steps = &root->root_steps;
    root->results.resize(root->steps->size());
    walk.queue.push_back(root.get());
    walk.tasks.push_back(std::move(root));

    bool complete = WalkLevels(&walk, stats);
    for (const auto& task : walk.tasks) {
      stats->retries += task->runs > 1 ? task->runs - 1 : 0;
    }
    stats->tasks += walk.tasks.size() - 1;
    if (complete) {
      ReplayTask(walk.tasks[0].get(), nullptr, 0);
    }
    auto graph = complete && !aborted_ ? Finish() : Fallback(stats);
    stats->unbatched_reads += dbg_->target().reads() - reads_before - stats->batches;
    return graph;
  }

 private:
  using InternKey = BoxMemo::InternKey;

  vl::StatusOr<std::unique_ptr<ViewGraph>> Finish() {
    // Memo updates are applied once the run is known to stand.
    for (auto& [key, memo] : memo_updates_) {
      if (memo.has_value()) {
        in_->memo_[key] = std::move(*memo);
      } else {
        in_->memo_.erase(key);
      }
    }
    in_->walk_stats_.memo_replays += replays_;
    in_->walk_stats_.memo_misses += misses_;
    return std::move(out_);
  }

  // A limit would trip: this run's assembly (and its memo updates) is
  // dropped, and the recursive walk starts over on the now-warm cache.
  vl::StatusOr<std::unique_ptr<ViewGraph>> Fallback(WalkStats* stats) {
    stats->fallbacks++;
    in_->warnings_.clear();
    return RunState(in_).RunRecursive();
  }

  std::vector<Step> RootSteps() const {
    std::vector<Step> steps;
    for (const Binding& binding : in_->bindings_) {
      steps.push_back({.kind = Step::Kind::kBinding, .binding = &binding});
    }
    for (const ExprPtr& plot : in_->plots_) {
      steps.push_back({.kind = Step::Kind::kPlot, .plot = plot.get()});
    }
    return steps;
  }

  // True in a task step that has deferred a read: the step is undone and
  // retried, so what it would warn is never seen (and not worth building).
  bool Undone() const {
    return task_ != nullptr && dbg_->session().deferrals() != step_deferrals_;
  }

  // Builds the warning only when it can be seen.
  template <typename Message>
  void WarnUnlessUndone(Message message) {
    if (!Undone()) {
      Warn(message());
    }
  }

  void Warn(std::string message) {
    if (events_ != nullptr) {
      events_->push_back({.kind = Event::Kind::kWarn, .text = std::move(message)});
    } else {
      in_->warnings_.push_back(std::move(message));
    }
  }

  // A limit the recursive walk would trip. During a batched assembly the
  // records were taken without it, so the run starts over recursively.
  vl::Status Limit(vl::Status status) {
    if (walk_ != nullptr) {
      aborted_ = true;
    }
    return status;
  }

  vl::Status LimitError() { return Limit(vl::FailedPreconditionError("box limit exceeded")); }

  // Records the evaluation depth a task reached; outside tasks, checks it.
  bool DepthOk(int depth) {
    if (task_ != nullptr) {
      task_->max_depth = std::max(task_->max_depth, depth);
      return true;
    }
    return depth <= in_->limits_.max_depth;
  }

  // Creates a box in the current graph; in a task it is recorded for the
  // assembly.
  VBox* NewBox(std::string decl_name, std::string kernel_type, uint64_t addr,
               size_t object_size) {
    VBox* box = graph_->NewBox(std::move(decl_name), std::move(kernel_type), addr, object_size);
    if (events_ != nullptr) {
      events_->push_back({.kind = Event::Kind::kBox, .id = box->id()});
    }
    return box;
  }

  void AddRoot(uint64_t id) {
    if (events_ != nullptr) {
      events_->push_back({.kind = Event::Kind::kRoot, .id = id});
    } else {
      graph_->roots().push_back(id);
    }
  }

  void ResolveWellKnownOffsets() {
    dbg::TypeRegistry& reg = dbg_->types();
    auto off = [&reg](const char* type_name, const char* field) -> size_t {
      const Type* t = reg.FindByName(type_name);
      assert(t != nullptr);
      const dbg::Field* f = t->FindField(field);
      assert(f != nullptr);
      return f->offset;
    };
    off_list_next_ = off("list_head", "next");
    off_hlist_first_ = off("hlist_head", "first");
    off_hnode_next_ = off("hlist_node", "next");
    off_rbroot_node_ = off("rb_root", "rb_node");
    off_rbcached_root_ = off("rb_root_cached", "rb_root");
    off_rb_left_ = off("rb_node", "rb_left");
    off_rb_right_ = off("rb_node", "rb_right");
    off_radix_rnode_ = off("radix_tree_root", "rnode");
    off_radix_shift_ = off("radix_tree_node", "shift");
    off_radix_slots_ = off("radix_tree_node", "slots");
    off_mt_root_ = off("maple_tree", "ma_root");
    off_mr64_pivot_ = off("maple_range_64", "pivot");
    off_mr64_slot_ = off("maple_range_64", "slot");
    off_ma64_pivot_ = off("maple_arange_64", "pivot");
    off_ma64_slot_ = off("maple_arange_64", "slot");
  }

  // --- scalar plumbing ---

  vl::StatusOr<uint64_t> ObjectAddr(const Value& v) {
    if (v.is_lvalue()) {
      if (v.type() != nullptr && v.type()->kind == TypeKind::kPointer) {
        VL_ASSIGN_OR_RETURN(Value loaded, v.Load(&dbg_->session()));
        return loaded.bits();
      }
      return v.addr();
    }
    return v.bits();
  }

  vl::StatusOr<uint64_t> ScalarBits(const Value& v) {
    VL_ASSIGN_OR_RETURN(Value loaded, v.Load(&dbg_->session()));
    if (loaded.is_lvalue()) {
      return loaded.addr();  // aggregates decay to their address
    }
    return loaded.bits();
  }

  vl::StatusOr<uint64_t> ReadPtr(uint64_t addr) { return dbg_->session().ReadUnsigned(addr, 8); }

  // Builds the C-expression environment from the lexical scope chain.
  dbg::Environment BuildEnv(const Scope* scope) {
    dbg::Environment env;
    for (const Scope* s = scope; s != nullptr; s = s->parent()) {
      for (const auto& [name, value] : s->vars()) {
        if (env.count(name) != 0) {
          continue;  // inner scope wins
        }
        if (value.kind == VclValue::Kind::kDbg) {
          env.emplace(name, value.dbg);
        } else if (value.kind == VclValue::Kind::kBox) {
          const VBox* box = graph_->box(value.box);
          if (box != nullptr && !box->is_virtual()) {
            const Type* t = dbg_->types().FindByName(box->kernel_type());
            if (t != nullptr) {
              env.emplace(name, Value::MakePointer(dbg_->types().PointerTo(t), box->addr()));
            }
          }
        }
      }
    }
    return env;
  }

  vl::StatusOr<Value> EvalC(const Expr* expr, const Scope* scope) {
    const dbg::CExpression& parsed = in_->ParsedC(expr);
    if (!parsed.ok()) {
      return parsed.status();
    }
    dbg::Environment env = BuildEnv(scope);
    return parsed.Eval(ctx_, &env);
  }

  // --- expression evaluation ---

  vl::StatusOr<VclValue> EvalExpr(const Expr* expr, Scope* scope, int depth) {
    if (!DepthOk(depth)) {
      return Limit(vl::FailedPreconditionError("evaluation depth limit exceeded"));
    }
    switch (expr->kind) {
      case Expr::Kind::kCExpr: {
        VL_ASSIGN_OR_RETURN(Value v, EvalC(expr, scope));
        return VclValue::Dbg(v);
      }
      case Expr::Kind::kAtRef: {
        const VclValue* found = scope->Find(expr->text);
        if (found == nullptr) {
          return vl::EvalError("unbound @" + expr->text);
        }
        return *found;
      }
      case Expr::Kind::kInt:
        return VclValue::Dbg(Value::MakeInt(dbg_->types().u64(), expr->ival));
      case Expr::Kind::kNull:
        return VclValue::Null();
      case Expr::Kind::kFieldPath: {
        const VclValue* self = scope->Find("this");
        if (self == nullptr || self->kind != VclValue::Kind::kDbg) {
          return vl::EvalError("field path '" + vl::StrJoin(expr->path, ".") +
                               "' outside a box context");
        }
        Value v = self->dbg;
        for (const std::string& field : expr->path) {
          VL_ASSIGN_OR_RETURN(v, v.Member(&dbg_->session(), &dbg_->types(), field));
        }
        return VclValue::Dbg(v);
      }
      case Expr::Kind::kSwitch:
        return EvalSwitch(expr, scope, depth);
      case Expr::Kind::kBoxCtor:
        return EvalBoxCtor(expr, scope, depth);
      case Expr::Kind::kContainerCtor:
        return EvalContainerCtor(expr, scope, depth);
      case Expr::Kind::kSelectFrom:
        return EvalSelectFrom(expr, scope, depth);
      case Expr::Kind::kInlineBox:
        return InstantiateBox(expr->inline_box.get(), Value(), scope, depth + 1);
    }
    return vl::InternalError("unhandled ViewCL expression");
  }

  vl::StatusOr<VclValue> EvalSwitch(const Expr* expr, Scope* scope, int depth) {
    VL_ASSIGN_OR_RETURN(VclValue scrutinee, EvalExpr(expr->kids[0].get(), scope, depth + 1));
    uint64_t bits = 0;
    if (scrutinee.kind == VclValue::Kind::kDbg) {
      VL_ASSIGN_OR_RETURN(bits, ScalarBits(scrutinee.dbg));
    } else if (scrutinee.kind == VclValue::Kind::kNull) {
      bits = 0;
    } else {
      return vl::EvalError("switch scrutinee must be a scalar");
    }
    for (const SwitchCase& sc : expr->cases) {
      for (const ExprPtr& label : sc.labels) {
        VL_ASSIGN_OR_RETURN(VclValue lv, EvalExpr(label.get(), scope, depth + 1));
        uint64_t label_bits = 0;
        if (lv.kind == VclValue::Kind::kDbg) {
          VL_ASSIGN_OR_RETURN(label_bits, ScalarBits(lv.dbg));
        }
        if (label_bits == bits) {
          return EvalExpr(sc.body.get(), scope, depth + 1);
        }
      }
    }
    if (expr->otherwise != nullptr) {
      return EvalExpr(expr->otherwise.get(), scope, depth + 1);
    }
    return VclValue::Null();
  }

  vl::StatusOr<VclValue> EvalBoxCtor(const Expr* expr, Scope* scope, int depth) {
    auto it = in_->defines_.find(expr->text);
    if (it == in_->defines_.end()) {
      return vl::EvalError("unknown Box '" + expr->text + "'");
    }
    const BoxDecl* decl = it->second;
    VL_ASSIGN_OR_RETURN(VclValue arg, EvalExpr(expr->kids[0].get(), scope, depth + 1));
    uint64_t addr = 0;
    if (arg.kind == VclValue::Kind::kDbg) {
      VL_ASSIGN_OR_RETURN(addr, ObjectAddr(arg.dbg));
    } else if (arg.kind == VclValue::Kind::kBox) {
      const VBox* box = graph_->box(arg.box);
      addr = box != nullptr ? box->addr() : 0;
    } else if (arg.kind == VclValue::Kind::kNull) {
      return VclValue::Null();
    }
    if (addr == 0) {
      return VclValue::Null();
    }
    // Anchored constructor: container_of the argument.
    if (!expr->path.empty()) {
      VL_ASSIGN_OR_RETURN(size_t anchor_off, AnchorOffset(expr->path));
      addr -= anchor_off;
    }
    const Type* t = dbg_->types().FindByName(decl->kernel_type);
    Value object = Value::MakeLValue(t != nullptr ? t : dbg_->types().void_type(), addr);
    return InstantiateBox(decl, object, nullptr, depth + 1);
  }

  vl::StatusOr<size_t> AnchorOffset(const std::vector<std::string>& path) {
    const Type* t = dbg_->types().FindByName(path[0]);
    if (t == nullptr) {
      return vl::EvalError("unknown anchor type '" + path[0] + "'");
    }
    size_t total = 0;
    for (size_t i = 1; i < path.size(); ++i) {
      if (t->kind == TypeKind::kArray) {
        t = t->element;  // anchors through array fields address element 0
      }
      const dbg::Field* f = t->FindField(path[i]);
      if (f == nullptr) {
        return vl::EvalError("anchor: '" + t->name + "' has no member '" + path[i] + "'");
      }
      total += f->offset;
      t = f->type;
    }
    return total;
  }

  // --- container adapters (the distill/flatten machinery) ---

  vl::StatusOr<VclValue> EvalContainerCtor(const Expr* expr, Scope* scope, int depth) {
    std::vector<VclValue> args;
    for (const ExprPtr& kid : expr->kids) {
      VL_ASSIGN_OR_RETURN(VclValue v, EvalExpr(kid.get(), scope, depth + 1));
      args.push_back(std::move(v));
    }
    std::vector<Value> elements;
    const std::string& kind = expr->text;
    if (kind == "List") {
      VL_ASSIGN_OR_RETURN(elements, WalkList(args));
    } else if (kind == "HList") {
      VL_ASSIGN_OR_RETURN(elements, WalkHList(args));
    } else if (kind == "RBTree") {
      VL_ASSIGN_OR_RETURN(elements, WalkRbTree(args));
    } else if (kind == "Array") {
      VL_ASSIGN_OR_RETURN(elements, WalkArray(args));
    } else if (kind == "XArray" || kind == "RadixTree") {
      VL_ASSIGN_OR_RETURN(elements, WalkRadix(args));
    } else if (kind == "MapleTree") {
      VL_ASSIGN_OR_RETURN(elements, WalkMaple(args));
    } else {
      return vl::EvalError("unknown container '" + kind + "'");
    }

    if (expr->for_each == nullptr) {
      VclValue raw = VclValue::RawSet(std::move(elements));
      raw.set_kind = kind;
      return raw;
    }
    const ForEachClause* fe = expr->for_each.get();
    std::vector<uint64_t> boxes;
    const bool replayable = task_ != nullptr && fe->bindings.empty() && in_->PureYield(fe);
    for (const Value& element : elements) {
      std::tuple<const Expr*, uint64_t, const dbg::Type*, int> key{
          fe->yield.get(), element.is_lvalue() ? element.addr() : element.bits(),
          element.type(), depth};
      auto hit = replayable ? task_->yields.find(key) : decltype(task_->yields)::iterator{};
      if (replayable && hit != task_->yields.end()) {
        events_->insert(events_->end(), hit->second.events.begin(), hit->second.events.end());
        AppendYield(hit->second.value, &boxes);
        continue;
      }
      size_t first_event = events_ != nullptr ? events_->size() : 0;
      uint64_t deferrals = dbg_->session().deferrals();
      Scope iter(scope);
      iter.Set(fe->var, VclValue::Dbg(element));
      for (const Binding& binding : fe->bindings) {
        auto v = EvalExpr(binding.value.get(), &iter, depth + 1);
        if (!v.ok()) {
          WarnUnlessUndone([&] {
            return "forEach binding '" + binding.name + "': " + v.status().ToString();
          });
          iter.Set(binding.name, VclValue::Null());
        } else {
          iter.Set(binding.name, std::move(v).value());
        }
      }
      auto yielded = EvalExpr(fe->yield.get(), &iter, depth + 1);
      if (!yielded.ok()) {
        WarnUnlessUndone([&] { return "forEach yield: " + yielded.status().ToString(); });
        continue;
      }
      if (replayable && dbg_->session().deferrals() == deferrals) {
        // Only child references to replay: anything else (a box created,
        // a warning) keeps the element evaluated on every attempt.
        bool children_only = true;
        for (size_t i = first_event; i < events_->size(); ++i) {
          children_only = children_only && (*events_)[i].kind == Event::Kind::kChild;
        }
        if (children_only) {
          task_->yields.emplace(
              key, Task::Yield{*yielded, std::vector<Event>(events_->begin() + first_event,
                                                             events_->end())});
        }
      }
      AppendYield(*yielded, &boxes);
    }
    VclValue result = VclValue::BoxSet(std::move(boxes));
    result.set_kind = kind;
    return result;
  }

  static void AppendYield(const VclValue& yielded, std::vector<uint64_t>* boxes) {
    if (yielded.kind == VclValue::Kind::kBox) {
      boxes->push_back(yielded.box);
    } else if (yielded.kind == VclValue::Kind::kBoxSet) {
      boxes->insert(boxes->end(), yielded.box_set.begin(), yielded.box_set.end());
    }
    // kNull yields are skipped (e.g. empty maple slots).
  }

  vl::StatusOr<uint64_t> ArgAddr(const std::vector<VclValue>& args, const char* what) {
    if (args.empty() || args[0].kind != VclValue::Kind::kDbg) {
      return vl::EvalError(std::string(what) + ": expected an object argument");
    }
    return ObjectAddr(args[0].dbg);
  }

  // A pointer an adapter follows. In a task, a pointer the next batch serves
  // reads as null: the walk goes on through the rest of the structure, so
  // the level's batch learns as much as it can (a list yields the prefix
  // walked so far, a tree skips the subtree).
  vl::StatusOr<uint64_t> ReadLink(uint64_t addr) {
    auto link = ReadPtr(addr);
    if (!link.ok() && task_ != nullptr && dbg::ReadSession::IsDeferred(link.status())) {
      return uint64_t{0};
    }
    return link;
  }

  vl::StatusOr<std::vector<Value>> WalkChain(uint64_t first_ptr, uint64_t next_off,
                                             uint64_t stop, const char* node_type_name) {
    std::vector<Value> out;
    const Type* node_type = dbg_->types().FindByName(node_type_name);
    VL_ASSIGN_OR_RETURN(uint64_t node, ReadLink(first_ptr));
    while (node != 0 && node != stop && out.size() < in_->limits_.max_container_elems) {
      out.push_back(Value::MakeLValue(node_type, node));
      VL_ASSIGN_OR_RETURN(node, ReadLink(node + next_off));
    }
    return out;
  }

  vl::StatusOr<std::vector<Value>> WalkList(const std::vector<VclValue>& args) {
    vl::ScopedSpan span("viewcl.adapter.list");
    VL_ASSIGN_OR_RETURN(uint64_t head, ArgAddr(args, "List"));
    return WalkChain(head + off_list_next_, off_list_next_, head, "list_head");
  }

  vl::StatusOr<std::vector<Value>> WalkHList(const std::vector<VclValue>& args) {
    vl::ScopedSpan span("viewcl.adapter.hlist");
    VL_ASSIGN_OR_RETURN(uint64_t head, ArgAddr(args, "HList"));
    return WalkChain(head + off_hlist_first_, off_hnode_next_, 0, "hlist_node");
  }

  vl::StatusOr<std::vector<Value>> WalkRbTree(const std::vector<VclValue>& args) {
    vl::ScopedSpan span("viewcl.adapter.rbtree");
    if (args.empty() || args[0].kind != VclValue::Kind::kDbg) {
      return vl::EvalError("RBTree: expected a root argument");
    }
    Value root = args[0].dbg;
    uint64_t root_addr = 0;
    // Accept rb_root, rb_root_cached, or a pointer to either.
    Value cursor = root;
    if (cursor.type() != nullptr && cursor.type()->kind == TypeKind::kPointer) {
      VL_ASSIGN_OR_RETURN(cursor, cursor.Deref(&dbg_->session(), &dbg_->types()));
    }
    if (cursor.type() != nullptr && cursor.type()->name == "rb_root_cached") {
      root_addr = cursor.addr() + off_rbcached_root_;
    } else {
      root_addr = cursor.is_lvalue() ? cursor.addr() : cursor.bits();
    }
    VL_ASSIGN_OR_RETURN(uint64_t node, ReadLink(root_addr + off_rbroot_node_));
    // Iterative in-order traversal with an explicit stack of node addresses.
    std::vector<Value> out;
    const Type* node_type = dbg_->types().FindByName("rb_node");
    std::vector<uint64_t> stack;
    while ((node != 0 || !stack.empty()) &&
           out.size() < in_->limits_.max_container_elems) {
      while (node != 0) {
        stack.push_back(node);
        VL_ASSIGN_OR_RETURN(node, ReadLink(node + off_rb_left_));
        if (stack.size() > 4096) {
          return vl::EvalError("RBTree: runaway traversal");
        }
      }
      if (stack.empty()) {
        break;
      }
      uint64_t current = stack.back();
      stack.pop_back();
      out.push_back(Value::MakeLValue(node_type, current));
      VL_ASSIGN_OR_RETURN(node, ReadLink(current + off_rb_right_));
    }
    return out;
  }

  vl::StatusOr<std::vector<Value>> WalkArray(const std::vector<VclValue>& args) {
    vl::ScopedSpan span("viewcl.adapter.array");
    if (args.empty() || args[0].kind != VclValue::Kind::kDbg) {
      return vl::EvalError("Array: expected an array argument");
    }
    Value arr = args[0].dbg;
    std::vector<Value> out;
    if (arr.is_lvalue() && arr.type() != nullptr && arr.type()->kind == TypeKind::kArray) {
      const Type* elem = arr.type()->element;
      size_t n = arr.type()->array_len;
      if (args.size() > 1 && args[1].kind == VclValue::Kind::kDbg) {
        VL_ASSIGN_OR_RETURN(uint64_t limit, ScalarBits(args[1].dbg));
        n = std::min<size_t>(n, limit);
      }
      n = std::min(n, in_->limits_.max_container_elems);
      for (size_t i = 0; i < n; ++i) {
        out.push_back(Value::MakeLValue(elem, arr.addr() + i * elem->size));
      }
      return out;
    }
    // Pointer base + explicit count.
    if (arr.type() != nullptr && arr.type()->kind == TypeKind::kPointer) {
      if (args.size() < 2 || args[1].kind != VclValue::Kind::kDbg) {
        return vl::EvalError("Array(pointer) requires an element count");
      }
      VL_ASSIGN_OR_RETURN(Value base, arr.Load(&dbg_->session()));
      VL_ASSIGN_OR_RETURN(uint64_t n, ScalarBits(args[1].dbg));
      n = std::min<uint64_t>(n, in_->limits_.max_container_elems);
      const Type* elem = base.type()->pointee;
      if (elem->size == 0) {
        return vl::EvalError("Array of void: unknown element size");
      }
      for (uint64_t i = 0; i < n; ++i) {
        out.push_back(Value::MakeLValue(elem, base.bits() + i * elem->size));
      }
      return out;
    }
    return vl::EvalError("Array: argument is not an array or pointer");
  }

  vl::Status WalkRadixNode(uint64_t node, std::vector<Value>* out) {
    auto shift = dbg_->session().ReadUnsigned(node + off_radix_shift_, 1);
    if (!shift.ok()) {  // in a task, a node the next batch serves is skipped
      return task_ != nullptr && dbg::ReadSession::IsDeferred(shift.status()) ? vl::Status::Ok()
                                                                              : shift.status();
    }
    for (int i = 0; i < vkern::kRadixTreeMapSize; ++i) {
      if (out->size() >= in_->limits_.max_container_elems) {
        return vl::Status::Ok();
      }
      VL_ASSIGN_OR_RETURN(uint64_t slot,
                          ReadLink(node + off_radix_slots_ + static_cast<uint64_t>(i) * 8));
      if (slot == 0) {
        continue;
      }
      if (*shift == 0) {
        out->push_back(
            Value::MakePointer(dbg_->types().PointerTo(dbg_->types().void_type()), slot));
      } else {
        VL_RETURN_IF_ERROR(WalkRadixNode(slot, out));
      }
    }
    return vl::Status::Ok();
  }

  vl::StatusOr<std::vector<Value>> WalkRadix(const std::vector<VclValue>& args) {
    vl::ScopedSpan span("viewcl.adapter.xarray");
    VL_ASSIGN_OR_RETURN(uint64_t root, ArgAddr(args, "XArray"));
    std::vector<Value> out;
    VL_ASSIGN_OR_RETURN(uint64_t rnode, ReadLink(root + off_radix_rnode_));
    if (rnode != 0) {
      VL_RETURN_IF_ERROR(WalkRadixNode(rnode, &out));
    }
    return out;
  }

  vl::Status WalkMapleNode(uint64_t enode, uint64_t max, std::vector<Value>* out) {
    uint64_t node = enode & ~uint64_t{0xff};
    uint32_t type = (enode >> 3) & 0xf;
    bool leaf = type < vkern::maple_range_64;
    bool arange = type == vkern::maple_arange_64;
    uint64_t pivot_off = arange ? off_ma64_pivot_ : off_mr64_pivot_;
    uint64_t slot_off = arange ? off_ma64_slot_ : off_mr64_slot_;
    uint32_t pivots = arange ? vkern::kMapleArange64Slots - 1 : vkern::kMapleRange64Slots - 1;
    for (uint32_t i = 0; i <= pivots; ++i) {
      if (out->size() >= in_->limits_.max_container_elems) {
        return vl::Status::Ok();
      }
      uint64_t slot_max = max;
      if (i < pivots) {
        // A pivot the next batch serves reads as the terminator: the walk of
        // this node ends early, never wider.
        VL_ASSIGN_OR_RETURN(slot_max, ReadLink(node + pivot_off + i * 8ull));
        if (slot_max == 0 || slot_max >= max) {
          slot_max = max;  // terminator: this is the last slot
        }
      }
      VL_ASSIGN_OR_RETURN(uint64_t entry, ReadLink(node + slot_off + i * 8ull));
      if (entry != 0) {
        if (leaf) {
          out->push_back(
              Value::MakePointer(dbg_->types().PointerTo(dbg_->types().void_type()), entry));
        } else {
          VL_RETURN_IF_ERROR(WalkMapleNode(entry, slot_max, out));
        }
      }
      if (slot_max == max) {
        break;
      }
    }
    return vl::Status::Ok();
  }

  vl::StatusOr<std::vector<Value>> WalkMaple(const std::vector<VclValue>& args) {
    vl::ScopedSpan span("viewcl.adapter.mapletree");
    VL_ASSIGN_OR_RETURN(uint64_t tree, ArgAddr(args, "MapleTree"));
    std::vector<Value> out;
    VL_ASSIGN_OR_RETURN(uint64_t root, ReadLink(tree + off_mt_root_));
    if (root == 0) {
      return out;
    }
    if ((root & 2) == 0) {
      // Direct entry at the root.
      out.push_back(Value::MakePointer(dbg_->types().PointerTo(dbg_->types().void_type()), root));
      return out;
    }
    VL_RETURN_IF_ERROR(WalkMapleNode(root, ~0ull, &out));
    return out;
  }

  vl::StatusOr<VclValue> EvalSelectFrom(const Expr* expr, Scope* scope, int depth) {
    VL_ASSIGN_OR_RETURN(VclValue source, EvalExpr(expr->kids[0].get(), scope, depth + 1));
    // Resolve the underlying object (box or value) and its kernel type.
    uint64_t addr = 0;
    std::string type_name;
    if (source.kind == VclValue::Kind::kBox) {
      const VBox* box = graph_->box(source.box);
      if (box == nullptr) {
        return vl::EvalError("selectFrom: dangling box");
      }
      addr = box->addr();
      type_name = box->kernel_type();
    } else if (source.kind == VclValue::Kind::kDbg) {
      Value v = source.dbg;
      if (v.type() != nullptr && v.type()->kind == TypeKind::kPointer) {
        VL_ASSIGN_OR_RETURN(v, v.Deref(&dbg_->session(), &dbg_->types()));
      }
      addr = v.addr();
      type_name = v.type() != nullptr ? v.type()->name : "";
    } else {
      return vl::EvalError("selectFrom: unsupported source");
    }

    std::vector<Value> entries;
    std::vector<VclValue> args;
    args.push_back(VclValue::Dbg(
        Value::MakeLValue(dbg_->types().FindByName(type_name), addr)));
    if (type_name == "maple_tree") {
      VL_ASSIGN_OR_RETURN(entries, WalkMaple(args));
    } else if (type_name == "radix_tree_root" || type_name == "address_space") {
      if (type_name == "address_space") {
        const Type* as = dbg_->types().FindByName("address_space");
        const dbg::Field* f = as->FindField("i_pages");
        args[0] = VclValue::Dbg(Value::MakeLValue(
            dbg_->types().FindByName("radix_tree_root"), addr + f->offset));
      }
      VL_ASSIGN_OR_RETURN(entries, WalkRadix(args));
    } else {
      return vl::EvalError("selectFrom: cannot distill a '" + type_name + "'");
    }

    auto it = in_->defines_.find(expr->text);
    if (it == in_->defines_.end()) {
      return vl::EvalError("selectFrom: unknown Box '" + expr->text + "'");
    }
    const BoxDecl* decl = it->second;
    const Type* elem_type = dbg_->types().FindByName(decl->kernel_type);
    std::vector<uint64_t> boxes;
    for (const Value& entry : entries) {
      Value typed = Value::MakeLValue(elem_type != nullptr ? elem_type : dbg_->types().void_type(),
                                      entry.bits());
      VL_ASSIGN_OR_RETURN(VclValue box, InstantiateBox(decl, typed, nullptr, depth + 1));
      if (box.kind == VclValue::Kind::kBox) {
        boxes.push_back(box.box);
      }
    }
    VclValue result = VclValue::BoxSet(std::move(boxes));
    result.set_kind = "Array";
    return result;
  }

  // --- box instantiation ---

  // Memoizes per-box extraction across Run() calls, replaying structurally
  // unchanged subtrees without re-walking them. Engages only when the
  // session's dirty log can prove a snapshot is still valid (delta
  // invalidation supplies the page epochs) and boxes are interned.
  bool MemoEnabled() const {
    return in_->limits_.intern_boxes && dbg_->session().delta_enabled();
  }

  vl::StatusOr<VclValue> InstantiateBox(const BoxDecl* decl, Value object, Scope* lexical,
                                        int depth) {
    if (task_ != nullptr) {
      return DeferBox(decl, object, lexical, depth);
    }
    if (depth > in_->limits_.max_depth) {
      return Limit(vl::FailedPreconditionError("box nesting limit exceeded"));
    }
    if (graph_->size() >= in_->limits_.max_boxes) {
      return LimitError();
    }
    bool is_virtual = decl->kernel_type.empty();
    uint64_t addr = 0;
    size_t object_size = 0;
    const Type* type = nullptr;
    if (!is_virtual) {
      type = dbg_->types().FindByName(decl->kernel_type);
      addr = object.is_lvalue() ? object.addr() : object.bits();
      if (addr == 0) {
        return VclValue::Null();
      }
      object_size = type != nullptr ? type->size : 0;
      if (in_->limits_.intern_boxes) {
        auto key = std::make_pair(decl, addr);
        auto found = interned_.find(key);
        if (found != interned_.end()) {
          return VclValue::Box(found->second);
        }
      }
    }

    bool memoize = !is_virtual && MemoEnabled();
    if (memoize) {
      auto key = std::make_pair(decl, addr);
      auto found = in_->memo_.find(key);
      if (found != in_->memo_.end()) {
        uint64_t id = TryReplayMemo(found->second);
        if (id != kNoBox) {
          replays_++;
          return VclValue::Box(id);
        }
        // Stale or no longer replayable: fall through to re-extract (which
        // recaptures a fresh snapshot below).
        memo_updates_.emplace_back(key, std::nullopt);
      }
      misses_++;
    }
    size_t window_start = graph_->size();
    size_t log_start = page_log_.size();
    uint64_t capture_epoch = 0;
    if (memoize) {
      capture_epoch = dbg_->session().SyncEpoch();
    }

    VBox* box = NewBox(decl->name, decl->kernel_type, addr, object_size);
    if (!is_virtual && in_->limits_.intern_boxes) {
      interned_[std::make_pair(decl, addr)] = box->id();
      intern_by_id_[box->id()] = std::make_pair(decl, addr);
    }
    // A batched walk recorded this box as a task: replay its record.
    Task* record = nullptr;
    if (!is_virtual && walk_ != nullptr) {
      auto found = walk_->index.find(std::make_pair(decl, addr));
      if (found != walk_->index.end() && found->second->done && !found->second->memo) {
        record = found->second;
      }
    }
    if (record != nullptr) {
      ReplayTask(record, box, depth);
      if (aborted_) {
        return LimitError();
      }
    } else {
      // Attribute every read below to the kernel type being instantiated
      // (virtual boxes keep the enclosing box's tag), and pull the whole
      // object into the block cache up front: the member walk below then
      // rides ceil(size/block) transport round trips instead of one per
      // field. Under tracing, a per-kernel-type span
      // ("viewcl.box.task_struct") makes the member walk attributable in the
      // explain tree.
      std::optional<vl::ScopedNamedSpan> box_span;
      std::optional<dbg::Target::TagScope> read_tag;
      if (!is_virtual) {
        if (vl::Tracer::Instance().enabled()) {
          box_span.emplace("viewcl.box." + decl->kernel_type);
        }
        read_tag.emplace(&dbg_->target(), decl->kernel_type.c_str());
        dbg_->session().PrefetchObject(addr, type);
      }
      VL_RETURN_IF_ERROR(EvalBody(decl, box, lexical, type, depth));
    }
    if (memoize) {
      CaptureMemo(decl, addr, window_start, capture_epoch, log_start);
    }
    return VclValue::Box(box->id());
  }

  static std::vector<ViewInstance> EmptyViews(const BoxDecl* decl) {
    std::vector<ViewInstance> views(decl->views.size());
    for (size_t i = 0; i < views.size(); ++i) {
      views[i].name = decl->views[i].name;
    }
    return views;
  }

  // Evaluates a box body (where bindings, then every view) into `box`.
  vl::Status EvalBody(const BoxDecl* decl, VBox* box, Scope* lexical, const Type* type,
                      int depth) {
    Scope box_scope(lexical);
    if (!box->is_virtual() && type != nullptr) {
      box_scope.Set("this", VclValue::Dbg(Value::MakeLValue(type, box->addr())));
    }
    std::vector<ViewInstance> views = EmptyViews(decl);
    std::optional<Scope> view_scope;
    int current_view = -1;
    for (const Step& step : in_->StepsOf(decl)) {
      if (step.view != current_view) {
        current_view = step.view;
        view_scope.emplace(&box_scope);
      }
      if (step.kind == Step::Kind::kBadView) {
        views.resize(step.view);
        box->views() = std::move(views);
        return vl::EvalError(step.error);
      }
      Scope* scope = step.view < 0 ? &box_scope : &*view_scope;
      EvalStep(step, scope, &box->members(), step.view < 0 ? nullptr : &views[step.view],
               decl, depth);
    }
    box->views() = std::move(views);
    return vl::Status::Ok();
  }

  // One step of the top level or of a box body. `members` and `out` receive
  // what the step writes to the box; `depth` is the box's instantiation
  // depth (0 at the top level).
  void EvalStep(const Step& step, Scope* scope, std::map<std::string, MemberValue>* members,
                ViewInstance* out, const BoxDecl* decl, int depth) {
    switch (step.kind) {
      case Step::Kind::kPlot: {
        auto value = EvalExpr(step.plot, scope, 0);
        if (!value.ok()) {
          WarnUnlessUndone([&] { return "plot: " + value.status().ToString(); });
          return;
        }
        switch (value->kind) {
          case VclValue::Kind::kBox:
            AddRoot(value->box);
            break;
          case VclValue::Kind::kBoxSet:
            AddRoot(MakeContainerBox("plot", value->box_set, value->set_kind));
            break;
          case VclValue::Kind::kRawSet:
            AddRoot(
                MakeContainerBox("plot", MakeRawBoxes("item", value->raw_set), value->set_kind));
            break;
          default:
            Warn("plot produced no boxes");
        }
        return;
      }
      case Step::Kind::kBinding:
      case Step::Kind::kBoxWhere:
      case Step::Kind::kViewWhere: {
        const Binding& binding = *step.binding;
        bool top = step.kind == Step::Kind::kBinding;
        auto v = EvalExpr(binding.value.get(), scope, top ? 0 : depth + 1);
        if (!v.ok()) {
          WarnUnlessUndone([&] {
            return (top ? "binding '" : "where '") + binding.name +
                   (step.kind == Step::Kind::kBoxWhere ? "' in " + decl->name : "'") + ": " +
                   v.status().ToString();
          });
          scope->Set(binding.name, VclValue::Null());
        } else {
          if (!top) {
            RecordMember(members, binding.name, *v);
          }
          scope->Set(binding.name, std::move(v).value());
        }
        return;
      }
      case Step::Kind::kItem:
        EvalItem(*step.item, scope, decl->name, members, out, depth);
        return;
      case Step::Kind::kBadView:
        return;  // EvalBody stops before it
    }
  }

  // --- the batched walk ---

  // A box reference inside a task: the child is queued as a task of its own
  // and stands in the task's graph as a placeholder (its address and type
  // are all the task's evaluation can observe of it). Virtual boxes are
  // evaluated inline, as part of the task.
  vl::StatusOr<VclValue> DeferBox(const BoxDecl* decl, Value object, Scope* lexical,
                                  int depth) {
    DepthOk(depth);
    if (decl->kernel_type.empty()) {
      VBox* box = NewBox(decl->name, decl->kernel_type, 0, 0);
      VL_RETURN_IF_ERROR(EvalBody(decl, box, lexical, nullptr, depth));
      return VclValue::Box(box->id());
    }
    uint64_t addr = object.is_lvalue() ? object.addr() : object.bits();
    if (addr == 0) {
      return VclValue::Null();
    }
    auto [it, inserted] = task_->placeholders.emplace(std::make_pair(decl, addr), 0);
    if (inserted) {
      it->second = graph_->NewBox(decl->name, decl->kernel_type, addr, 0)->id();
      Enqueue(decl, addr);
    }
    events_->push_back(
        {.kind = Event::Kind::kChild, .id = it->second, .decl = decl, .depth = depth});
    return VclValue::Box(it->second);
  }

  void Enqueue(const BoxDecl* decl, uint64_t addr) {
    auto [it, inserted] = walk_->index.emplace(std::make_pair(decl, addr), nullptr);
    if (!inserted) {
      return;
    }
    auto task = std::make_unique<Task>();
    task->decl = decl;
    task->addr = addr;
    task->steps = &in_->StepsOf(decl);
    task->results.resize(task->steps->size());
    it->second = task.get();
    if (MemoEnabled()) {
      auto memo = in_->memo_.find(it->first);
      if (memo != in_->memo_.end() && MemoClean(memo->second)) {
        // The assembly replays the memo; its subtree needs no reads.
        task->memo = true;
        task->done = true;
        walk_->boxes += memo->second.boxes.size() - 1;
      }
    }
    walk_->boxes++;
    if (!task->memo) {
      walk_->queue.push_back(task.get());
    }
    walk_->tasks.push_back(std::move(task));
  }

  bool MemoClean(const BoxMemo& memo) {
    dbg::ReadSession& session = dbg_->session();
    (void)session.SyncEpoch();
    for (uint64_t page : memo.pages) {
      if (!session.RangeCleanSince(page, 1, memo.epoch)) {
        return false;
      }
    }
    return true;
  }

  // Runs every level: the level's tasks (and the tasks they discover) run
  // with the session deferring misses, then one batch fetches what they
  // recorded and the stopped tasks retry in the next level. False when the
  // walk must give way to the recursive one.
  bool WalkLevels(Walk* walk, WalkStats* stats) {
    dbg::ReadSession::LevelStats levels;
    const bool complete = dbg_->session().RunLevels(
        "viewcl.batch",
        [&] {
          size_t progress = walk->progress + walk->tasks.size();
          std::vector<Task*> stopped;
          bool limit = false;
          // The queue grows as this level's tasks discover children: they
          // run in this level too, so their objects join its batch.
          for (size_t i = 0; i < walk->queue.size() && !limit; ++i) {
            RunTask(walk->queue[i]);
            if (!walk->queue[i]->done) {
              stopped.push_back(walk->queue[i]);
            }
            limit = walk->boxes >= in_->limits_.max_boxes;  // the limit would trip
          }
          walk->queue = std::move(stopped);
          return dbg::ReadSession::Level{
              .stopped = !walk->queue.empty(),
              .advanced = walk->progress + walk->tasks.size() != progress,
              .abort = limit};
        },
        &levels);
    stats->levels += levels.levels;
    stats->batches += levels.batches;
    return complete;
  }

  // One attempt at a task: completed steps keep their results; the others
  // run now. A step that deferred a read is undone (and, for a binding,
  // leaves it unbound for the steps after it, which then only discover).
  void RunTask(Task* task) {
    dbg::ReadSession& session = dbg_->session();
    const BoxDecl* decl = task->decl;
    const Type* type = decl != nullptr ? dbg_->types().FindByName(decl->kernel_type) : nullptr;
    if (++task->runs == 1 && decl != nullptr) {
      task->local.NewBox(decl->name, decl->kernel_type, task->addr,
                         type != nullptr ? type->size : 0);
      session.PrefetchObject(task->addr, type);
      if (type != nullptr && session.WouldDefer(task->addr, type->size)) {
        walk_->progress++;
        return;  // the object joins this level's batch; its steps read it
      }
    }
    task_ = task;
    graph_ = &task->local;
    Scope box_scope;
    std::optional<dbg::Target::TagScope> read_tag;
    if (decl != nullptr) {
      read_tag.emplace(session.target(), decl->kernel_type.c_str());
      if (type != nullptr) {
        box_scope.Set("this", VclValue::Dbg(Value::MakeLValue(type, task->addr)));
      }
    }
    // The pages an attempt reads go to the task's record, for the memo
    // captures its replay joins; the top level logs none. A step that
    // deferred reads no page its completed retry does not.
    std::vector<uint64_t>* run_log =
        session.set_page_log(decl != nullptr && MemoEnabled() ? &task->pages : nullptr);
    std::optional<Scope> view_scope;
    int current_view = -1;
    bool stopped = false;
    bool unbound = false;  // a binding before this step deferred
    for (size_t i = 0; i < task->steps->size(); ++i) {
      const Step& step = (*task->steps)[i];
      Task::Result& result = task->results[i];
      if (step.view != current_view) {
        current_view = step.view;
        view_scope.emplace(&box_scope);
      }
      Scope* scope = step.view < 0 ? &box_scope : &*view_scope;
      if (result.done) {
        if (step.binds()) {
          scope->Set(step.binding->name, result.value);
        }
        continue;
      }
      Task::Result attempt;
      events_ = &attempt.events;
      step_deferrals_ = session.deferrals();
      EvalStep(step, scope, &attempt.members, &attempt.out, decl, 0);
      events_ = nullptr;
      if (Undone() || unbound) {
        stopped = true;
        if (step.binds()) {
          unbound = true;
          scope->Set(step.binding->name, VclValue::Null());
        }
        continue;
      }
      if (step.binds()) {
        attempt.value = *scope->Find(step.binding->name);
      }
      attempt.done = true;
      walk_->boxes += std::count_if(attempt.events.begin(), attempt.events.end(),
                                    [](const Event& e) { return e.kind == Event::Kind::kBox; });
      result = std::move(attempt);
      walk_->progress++;
    }
    session.set_page_log(run_log);
    task->done = !stopped;
    if (task->done) {
      Dedupe(&task->pages, 0);
    }
    task_ = nullptr;
    graph_ = out_.get();
  }

  // Replays a task's record into the graph at `depth`, as the recursive walk
  // would evaluate it there: its boxes and warnings in evaluation order, each
  // child instantiated (or found interned) where it is referenced.
  void ReplayTask(Task* task, VBox* own, int depth) {
    if (depth + task->max_depth > in_->limits_.max_depth) {
      aborted_ = true;
      return;
    }
    const size_t max_boxes = in_->limits_.max_boxes;
    std::vector<uint64_t> ids(task->local.size(), kNoBox);
    if (own != nullptr) {
      ids[0] = own->id();
    }
    auto remap = [&ids](std::vector<ViewInstance>* views) {
      for (ViewInstance& view : *views) {
        for (LinkItem& link : view.links) {
          link.target = link.target == kNoBox ? kNoBox : ids[link.target];
        }
        for (ContainerItem& container : view.containers) {
          for (uint64_t& member : container.members) {
            member = member == kNoBox ? kNoBox : ids[member];
          }
        }
      }
    };
    std::vector<ViewInstance> views = own != nullptr ? EmptyViews(task->decl)
                                                     : std::vector<ViewInstance>{};
    for (size_t i = 0; i < task->results.size(); ++i) {
      // Records are replayed once (the box is interned), so their contents
      // move into the graph.
      Task::Result& result = task->results[i];
      for (const Event& event : result.events) {
        switch (event.kind) {
          case Event::Kind::kBox: {
            if (graph_->size() >= max_boxes) {
              aborted_ = true;
              return;
            }
            VBox* src = task->local.box(event.id);
            VBox* box = graph_->NewBox(src->decl_name(), src->kernel_type(), src->addr(),
                                       src->object_size());
            ids[event.id] = box->id();
            box->members() = std::move(src->members());
            box->views() = std::move(src->views());
            break;
          }
          case Event::Kind::kChild: {
            // InstantiateBox takes the type from the declaration.
            Value object =
                Value::MakeLValue(dbg_->types().void_type(), task->local.box(event.id)->addr());
            auto child = InstantiateBox(event.decl, object, nullptr, depth + event.depth);
            if (!child.ok() || aborted_) {
              aborted_ = true;
              return;
            }
            ids[event.id] = child->box;
            break;
          }
          case Event::Kind::kWarn:
            in_->warnings_.push_back(event.text);
            break;
          case Event::Kind::kRoot:
            graph_->roots().push_back(ids[event.id]);
            break;
        }
      }
      if (graph_->size() >= max_boxes) {
        aborted_ = true;
        return;
      }
      // The step's boxes reference only ids its events (or earlier steps')
      // assigned.
      for (const Event& event : result.events) {
        if (event.kind == Event::Kind::kBox) {
          remap(&graph_->box(ids[event.id])->views());
        }
      }
      if (own == nullptr) {
        continue;
      }
      for (auto& [name, value] : result.members) {
        own->members()[name] = std::move(value);
      }
      const Step& step = (*task->steps)[i];
      if (step.kind == Step::Kind::kItem) {
        ViewInstance& out = result.out;
        ViewInstance& view = views[step.view];
        std::move(out.texts.begin(), out.texts.end(), std::back_inserter(view.texts));
        std::move(out.links.begin(), out.links.end(), std::back_inserter(view.links));
        std::move(out.containers.begin(), out.containers.end(),
                  std::back_inserter(view.containers));
      }
    }
    if (own != nullptr) {
      remap(&views);
      own->views() = std::move(views);
      // The record performed the box's own reads; their pages belong to the
      // memo captures in progress.
      page_log_.insert(page_log_.end(), task->pages.begin(), task->pages.end());
    }
  }

  // --- box memoization (incremental refresh) ---

  // Replays a memoized subtree into the current graph: copies the snapshot
  // boxes, remaps window-local references by offset and external references
  // through the current run's intern map. Returns the new root id, or kNoBox
  // when the snapshot is stale (a touched page is dirty) or no longer
  // replayable (evaluation drift changed what is interned when).
  uint64_t TryReplayMemo(const BoxMemo& memo) {
    if (!MemoClean(memo)) {
      return kNoBox;
    }
    if (graph_->size() + memo.boxes.size() > in_->limits_.max_boxes) {
      return kNoBox;
    }
    std::map<uint64_t, uint64_t> externals;  // capture-run id -> current id
    for (const auto& [orig, key] : memo.externals) {
      auto it = interned_.find(key);
      if (it == interned_.end()) {
        return kNoBox;
      }
      externals[orig] = it->second;
    }
    for (const auto& [local, key] : memo.interns) {
      // The root (local 0) is known un-interned — the caller's intern lookup
      // just missed. A non-root key already interned means this run built
      // the shared box elsewhere first; replaying would duplicate it.
      if (local != 0 && interned_.find(key) != interned_.end()) {
        return kNoBox;
      }
    }
    uint64_t new_base = graph_->size();
    for (const BoxMemo::BoxSnap& snap : memo.boxes) {
      VBox* box = graph_->NewBox(snap.decl_name, snap.kernel_type, snap.addr,
                                 snap.object_size);
      box->members() = snap.members;
      box->views() = snap.views;
      for (ViewInstance& view : box->views()) {
        for (LinkItem& link : view.links) {
          link.target = RemapMemoId(memo, externals, new_base, link.target);
        }
        for (ContainerItem& container : view.containers) {
          for (uint64_t& member : container.members) {
            member = RemapMemoId(memo, externals, new_base, member);
          }
        }
      }
    }
    for (const auto& [local, key] : memo.interns) {
      interned_[key] = new_base + local;
      intern_by_id_[new_base + local] = key;
    }
    // The replay performed no reads; its page coverage still belongs to any
    // enclosing capture in progress.
    page_log_.insert(page_log_.end(), memo.pages.begin(), memo.pages.end());
    return new_base;
  }

  uint64_t RemapMemoId(const BoxMemo& memo, const std::map<uint64_t, uint64_t>& externals,
                       uint64_t new_base, uint64_t id) const {
    if (id == kNoBox) {
      return kNoBox;
    }
    if (id >= memo.base && id < memo.base + memo.boxes.size()) {
      return new_base + (id - memo.base);
    }
    auto it = externals.find(id);
    return it != externals.end() ? it->second : kNoBox;
  }

  // Snapshots the boxes created in [window_start, graph size) as the memo
  // for (decl, addr), with the pages logged from log_start on. Gives up
  // (storing nothing) if the subtree references an out-of-window box that
  // carries no intern key — such a reference could not be resolved in a
  // future run.
  void CaptureMemo(const BoxDecl* decl, uint64_t addr, size_t window_start,
                   uint64_t epoch, size_t log_start) {
    // Deduped in place: the range of every enclosing capture covers it.
    Dedupe(&page_log_, log_start);
    BoxMemo memo;
    memo.epoch = epoch;
    memo.base = window_start;
    memo.pages.assign(page_log_.begin() + log_start, page_log_.end());
    size_t end = graph_->size();
    memo.boxes.reserve(end - window_start);
    for (size_t id = window_start; id < end; ++id) {
      const VBox* box = graph_->box(id);
      BoxMemo::BoxSnap snap;
      snap.decl_name = box->decl_name();
      snap.kernel_type = box->kernel_type();
      snap.addr = box->addr();
      snap.object_size = box->object_size();
      snap.views = box->views();
      snap.members = box->members();
      for (const ViewInstance& view : snap.views) {
        for (const LinkItem& link : view.links) {
          if (!NoteMemoRef(&memo, link.target, window_start, end)) {
            return;
          }
        }
        for (const ContainerItem& container : view.containers) {
          for (uint64_t member : container.members) {
            if (!NoteMemoRef(&memo, member, window_start, end)) {
              return;
            }
          }
        }
      }
      memo.boxes.push_back(std::move(snap));
      auto it = intern_by_id_.find(id);
      if (it != intern_by_id_.end()) {
        memo.interns.emplace_back(id - window_start, it->second);
      }
    }
    memo_updates_.emplace_back(std::make_pair(decl, addr), std::move(memo));
  }

  // Sorts the pages from `from` on and drops the repeats among them.
  static void Dedupe(std::vector<uint64_t>* pages, size_t from) {
    auto first = pages->begin() + from;
    std::sort(first, pages->end());
    pages->erase(std::unique(first, pages->end()), pages->end());
  }

  bool NoteMemoRef(BoxMemo* memo, uint64_t target, size_t start, size_t end) {
    if (target == kNoBox) {
      return true;
    }
    if (target >= start && target < end) {
      return true;
    }
    auto it = intern_by_id_.find(target);
    if (it == intern_by_id_.end()) {
      return false;
    }
    memo->externals[target] = it->second;
    return true;
  }

  // --- items ---

  void EvalItem(const ItemDecl& item, Scope* scope, const std::string& box_name,
                std::map<std::string, MemberValue>* members, ViewInstance* out, int depth) {
    auto value = EvalExpr(item.value.get(), scope, depth + 1);
    if (!value.ok()) {
      if (item.kind == ItemDecl::Kind::kText) {
        out->texts.push_back(TextItem{item.name, "?"});
      } else if (item.kind == ItemDecl::Kind::kLink) {
        out->links.push_back(LinkItem{item.name, kNoBox});
      }
      WarnUnlessUndone([&] {
        return "item '" + item.name + "' in " + box_name + ": " + value.status().ToString();
      });
      return;
    }
    switch (item.kind) {
      case ItemDecl::Kind::kText:
        EvalTextItem(item, *value, members, out);
        return;
      case ItemDecl::Kind::kLink: {
        uint64_t target = kNoBox;
        if (value->kind == VclValue::Kind::kBox) {
          target = value->box;
        } else if (value->kind == VclValue::Kind::kBoxSet) {
          target = MakeContainerBox(item.name, value->box_set, value->set_kind);
        } else if (value->kind == VclValue::Kind::kRawSet) {
          target = MakeContainerBox(item.name, MakeRawBoxes(item.name, value->raw_set),
                                    value->set_kind);
        } else if (value->kind == VclValue::Kind::kDbg) {
          Warn("link '" + item.name + "' targets a plain value, not a box");
        }
        out->links.push_back(LinkItem{item.name, target});
        return;
      }
      case ItemDecl::Kind::kContainer: {
        ContainerItem container;
        container.name = item.name;
        if (value->kind == VclValue::Kind::kBoxSet) {
          container.members = value->box_set;
        } else if (value->kind == VclValue::Kind::kRawSet) {
          container.members = MakeRawBoxes(item.name, value->raw_set);
        } else if (value->kind == VclValue::Kind::kBox) {
          container.members.push_back(value->box);
        }
        (*members)[item.name + ".size"] =
            MemberValue::Int(static_cast<int64_t>(container.members.size()));
        out->containers.push_back(std::move(container));
        return;
      }
    }
  }

  void EvalTextItem(const ItemDecl& item, const VclValue& value,
                    std::map<std::string, MemberValue>* members, ViewInstance* out) {
    if (value.kind == VclValue::Kind::kNull) {
      out->texts.push_back(TextItem{item.name, "<null>"});
      (*members)[item.name] = MemberValue::Null();
      return;
    }
    if (value.kind != VclValue::Kind::kDbg) {
      out->texts.push_back(TextItem{item.name, "<box>"});
      return;
    }
    auto formatted = FormatDecorated(ctx_, &in_->emoji_, item.decorator, value.dbg);
    if (!formatted.ok()) {
      out->texts.push_back(TextItem{item.name, "?"});
      WarnUnlessUndone(
          [&] { return "text '" + item.name + "': " + formatted.status().ToString(); });
      return;
    }
    out->texts.push_back(TextItem{item.name, formatted->display});
    if (formatted->is_string) {
      (*members)[item.name] = MemberValue::Str(formatted->display);
    } else if (formatted->has_raw) {
      (*members)[item.name] = MemberValue::Int(static_cast<int64_t>(formatted->raw_bits));
    } else {
      (*members)[item.name] = MemberValue::Str(formatted->display);
    }
  }

  void RecordMember(std::map<std::string, MemberValue>* members, const std::string& name,
                    const VclValue& value) {
    if (value.kind != VclValue::Kind::kDbg) {
      return;
    }
    const Value& v = value.dbg;
    if (v.type() != nullptr && v.IsNull() && !v.is_lvalue()) {
      (*members)[name] = MemberValue::Null();
      return;
    }
    if (!v.is_lvalue() && v.type() != nullptr && v.type()->IsScalar()) {
      (*members)[name] = MemberValue::Int(static_cast<int64_t>(v.bits()));
    }
  }

  // A virtual box that groups a set of member boxes (used for plotted sets
  // and links-to-containers).
  uint64_t MakeContainerBox(const std::string& name, const std::vector<uint64_t>& members,
                            const std::string& kind = "") {
    VBox* box = NewBox(kind.empty() ? "<container:" + name + ">" : kind, "", 0, 0);
    ViewInstance view;
    view.name = "default";
    ContainerItem container;
    container.name = name;
    container.members = members;
    view.containers.push_back(std::move(container));
    box->members()[name + ".size"] = MemberValue::Int(static_cast<int64_t>(members.size()));
    box->views().push_back(std::move(view));
    return box->id();
  }

  // Wraps raw scalar elements into single-text virtual boxes.
  std::vector<uint64_t> MakeRawBoxes(const std::string& name,
                                     const std::vector<Value>& values) {
    std::vector<uint64_t> ids;
    for (size_t i = 0; i < values.size(); ++i) {
      if (task_ == nullptr && graph_->size() >= in_->limits_.max_boxes) {
        (void)LimitError();
        break;
      }
      VBox* box = NewBox("<value>", "", 0, 0);
      ViewInstance view;
      view.name = "default";
      auto formatted = FormatDecorated(ctx_, &in_->emoji_, "", values[i]);
      std::string display = formatted.ok() ? formatted->display : "?";
      view.texts.push_back(TextItem{vl::StrFormat("%s[%zu]", name.c_str(), i), display});
      if (formatted.ok() && formatted->has_raw) {
        box->members()["value"] = MemberValue::Int(static_cast<int64_t>(formatted->raw_bits));
      }
      box->views().push_back(std::move(view));
      ids.push_back(box->id());
    }
    return ids;
  }

  Interpreter* in_;
  dbg::KernelDebugger* dbg_;
  dbg::EvalContext* ctx_;
  std::unique_ptr<ViewGraph> out_;  // the graph the run produces
  ViewGraph* graph_;                // out_, or the running task's own graph
  std::map<std::pair<const BoxDecl*, uint64_t>, uint64_t> interned_;
  // Reverse intern map (box id -> key), so memo capture can name the shared
  // boxes a snapshot references and a future replay can resolve them.
  std::map<uint64_t, std::pair<const BoxDecl*, uint64_t>> intern_by_id_;

  // Batched-walk state: the walk (during tasks and the assembly), the task
  // running now, the event list of its running step, and whether the
  // assembly met a limit the records were taken without.
  Walk* walk_ = nullptr;
  Task* task_ = nullptr;
  std::vector<Event>* events_ = nullptr;
  uint64_t step_deferrals_ = 0;  // session deferrals when the step started
  bool aborted_ = false;

  // Memo updates of this run (nullopt erases), applied in order by Finish().
  std::vector<std::pair<InternKey, std::optional<BoxMemo>>> memo_updates_;
  uint64_t replays_ = 0;
  uint64_t misses_ = 0;
  // This run's page log: the granules its reads and replays touched, in
  // order. A capture dedupes the part logged since its box started.
  std::vector<uint64_t> page_log_;
  std::vector<uint64_t>* outer_log_ = nullptr;  // the session's log before this run

  size_t off_list_next_ = 0;
  size_t off_hlist_first_ = 0;
  size_t off_hnode_next_ = 0;
  size_t off_rbroot_node_ = 0;
  size_t off_rbcached_root_ = 0;
  size_t off_rb_left_ = 0;
  size_t off_rb_right_ = 0;
  size_t off_radix_rnode_ = 0;
  size_t off_radix_shift_ = 0;
  size_t off_radix_slots_ = 0;
  size_t off_mt_root_ = 0;
  size_t off_mr64_pivot_ = 0;
  size_t off_mr64_slot_ = 0;
  size_t off_ma64_pivot_ = 0;
  size_t off_ma64_slot_ = 0;
};

// ---------------------------------------------------------------------------
// Interpreter façade
// ---------------------------------------------------------------------------

Interpreter::Interpreter(dbg::KernelDebugger* debugger, InterpLimits limits)
    : debugger_(debugger), limits_(limits) {}

Interpreter::~Interpreter() = default;

namespace {

// True when `expr` reads no variable but `var` (globals and memory aside).
bool DependsOnlyOn(const Expr* expr, const std::string& var) {
  auto all = [&var](const std::vector<ExprPtr>& exprs) {
    return std::all_of(exprs.begin(), exprs.end(),
                       [&var](const ExprPtr& e) { return DependsOnlyOn(e.get(), var); });
  };
  if (expr == nullptr) {
    return true;
  }
  switch (expr->kind) {
    case Expr::Kind::kAtRef:
      return expr->text == var;
    case Expr::Kind::kInt:
    case Expr::Kind::kNull:
      return true;
    case Expr::Kind::kCExpr: {
      const std::string& text = expr->text;
      for (size_t at = text.find('@'); at != std::string::npos; at = text.find('@', at + 1)) {
        size_t end = at + 1;
        while (end < text.size() && (std::isalnum(static_cast<unsigned char>(text[end])) ||
                                     text[end] == '_')) {
          ++end;
        }
        if (text.substr(at + 1, end - at - 1) != var) {
          return false;
        }
      }
      return true;
    }
    case Expr::Kind::kBoxCtor:
      return all(expr->kids);
    case Expr::Kind::kSwitch:
      return all(expr->kids) && DependsOnlyOn(expr->otherwise.get(), var) &&
             std::all_of(expr->cases.begin(), expr->cases.end(), [&](const SwitchCase& sc) {
               return all(sc.labels) && DependsOnlyOn(sc.body.get(), var);
             });
    default:
      return false;
  }
}

}  // namespace

bool Interpreter::PureYield(const ForEachClause* clause) {
  auto it = pure_yields_.find(clause);
  if (it == pure_yields_.end()) {
    it = pure_yields_.emplace(clause, DependsOnlyOn(clause->yield.get(), clause->var)).first;
  }
  return it->second;
}

const dbg::CExpression& Interpreter::ParsedC(const Expr* expr) {
  auto it = parsed_.find(expr);
  if (it == parsed_.end()) {
    it = parsed_.emplace(expr, dbg::CExpression::Parse(expr->text)).first;
  }
  return it->second;
}

const std::vector<Interpreter::Step>& Interpreter::StepsOf(const BoxDecl* decl) {
  auto it = steps_.find(decl);
  if (it != steps_.end()) {
    return it->second;
  }
  std::vector<Step> steps;
  for (const Binding& binding : decl->where) {
    steps.push_back({.kind = Step::Kind::kBoxWhere, .binding = &binding});
  }
  for (size_t index = 0; index < decl->views.size(); ++index) {
    // The inheritance chain, parent first (the last view of the parent's
    // name is the parent); an unknown parent is an error at the view's start.
    std::vector<const ViewDecl*> chain = {&decl->views[index]};
    while (!chain.back()->parent.empty() && chain.size() <= decl->views.size()) {
      const ViewDecl* parent = nullptr;
      for (const ViewDecl& candidate : decl->views) {
        parent = candidate.name == chain.back()->parent ? &candidate : parent;
      }
      if (parent == nullptr) {
        break;
      }
      chain.push_back(parent);
    }
    int at = static_cast<int>(index);
    if (!chain.back()->parent.empty()) {
      steps.push_back({.kind = Step::Kind::kBadView, .view = at,
                       .error = "view :" + chain.back()->name + " inherits unknown :" +
                                chain.back()->parent});
      continue;
    }
    for (auto view = chain.rbegin(); view != chain.rend(); ++view) {
      for (const Binding& binding : (*view)->where) {
        steps.push_back({.kind = Step::Kind::kViewWhere, .binding = &binding, .view = at});
      }
      for (const ItemDecl& item : (*view)->items) {
        steps.push_back({.kind = Step::Kind::kItem, .item = &item, .view = at});
      }
    }
  }
  return steps_.emplace(decl, std::move(steps)).first->second;
}

namespace {

// Walks an expression tree collecting every inline box declaration, so the
// Load-time decorator audit sees `Box [ Text<bogus> x ]` too.
void CollectInlineBoxes(const Expr* e, std::vector<const BoxDecl*>* out);

void CollectBoxDecls(const BoxDecl* decl, std::vector<const BoxDecl*>* out) {
  out->push_back(decl);
  for (const ViewDecl& view : decl->views) {
    for (const ItemDecl& item : view.items) {
      CollectInlineBoxes(item.value.get(), out);
    }
    for (const Binding& binding : view.where) {
      CollectInlineBoxes(binding.value.get(), out);
    }
  }
  for (const Binding& binding : decl->where) {
    CollectInlineBoxes(binding.value.get(), out);
  }
}

void CollectInlineBoxes(const Expr* e, std::vector<const BoxDecl*>* out) {
  if (e == nullptr) {
    return;
  }
  if (e->kind == Expr::Kind::kInlineBox && e->inline_box != nullptr) {
    CollectBoxDecls(e->inline_box.get(), out);
    return;
  }
  for (const ExprPtr& kid : e->kids) {
    CollectInlineBoxes(kid.get(), out);
  }
  for (const SwitchCase& sc : e->cases) {
    for (const ExprPtr& label : sc.labels) {
      CollectInlineBoxes(label.get(), out);
    }
    CollectInlineBoxes(sc.body.get(), out);
  }
  CollectInlineBoxes(e->otherwise.get(), out);
  if (e->for_each != nullptr) {
    for (const Binding& binding : e->for_each->bindings) {
      CollectInlineBoxes(binding.value.get(), out);
    }
    CollectInlineBoxes(e->for_each->yield.get(), out);
  }
}

}  // namespace

vl::Status Interpreter::Load(std::string_view source) {
  vl::ScopedSpan span("viewcl.parse");
  VL_ASSIGN_OR_RETURN(Program program, ParseViewCl(source));

  // Structured errors instead of the old silent behaviors: a duplicate
  // definition inside one chunk used to be last-writer-wins, and an unknown
  // decorator head only surfaced as a per-item eval warning.
  std::vector<const BoxDecl*> decls;
  std::map<std::string, int> chunk_lines;
  for (const std::unique_ptr<BoxDecl>& decl : program.defines) {
    auto [it, inserted] = chunk_lines.emplace(decl->name, decl->line);
    if (!inserted) {
      return vl::ParseError(vl::StrFormat("duplicate definition of '%s' at %d:%d (first "
                                          "defined at line %d)",
                                          decl->name.c_str(), decl->span.line, decl->span.col,
                                          it->second));
    }
    CollectBoxDecls(decl.get(), &decls);
  }
  for (const Binding& binding : program.bindings) {
    CollectInlineBoxes(binding.value.get(), &decls);
  }
  for (const ExprPtr& plot : program.plots) {
    CollectInlineBoxes(plot.get(), &decls);
  }
  for (const BoxDecl* decl : decls) {
    for (const ViewDecl& view : decl->views) {
      for (const ItemDecl& item : view.items) {
        // Only unknown heads are rejected here: argument problems (e.g. an
        // emoji set registered after Load) stay legal until lint/eval.
        if (CheckDecoratorSpec(debugger_->types(), &emoji_, item.decorator) ==
            DecoratorIssue::kUnknownHead) {
          return vl::ParseError(vl::StrFormat("unknown decorator '%s' at %d:%d",
                                              item.decorator.c_str(),
                                              item.decorator_span.line,
                                              item.decorator_span.col));
        }
      }
    }
  }
  if (load_validator_ != nullptr) {
    VL_RETURN_IF_ERROR(load_validator_(program, source));
  }

  for (std::unique_ptr<BoxDecl>& decl : program.defines) {
    defines_[decl->name] = decl.get();
    owned_decls_.push_back(std::move(decl));
  }
  for (Binding& binding : program.bindings) {
    bindings_.push_back(std::move(binding));
  }
  for (ExprPtr& plot : program.plots) {
    plots_.push_back(std::move(plot));
  }
  // A new chunk can redefine declarations out from under the snapshots;
  // memoization restarts from the next Run.
  memo_.clear();
  return vl::Status::Ok();
}

vl::StatusOr<std::unique_ptr<ViewGraph>> Interpreter::Run() {
  warnings_.clear();
  vl::ScopedSpan span("viewcl.eval");
  RunState state(this);
  // The batched walk needs somewhere to hold a batch (a block cache), the
  // interning that makes a task of each box, and box bodies that cannot fail
  // as a whole (a broken view inheritance fails its box where referenced).
  bool batched = debugger_->session().cache_enabled() && limits_.intern_boxes;
  for (const auto& [name, decl] : defines_) {
    for (const Step& step : StepsOf(decl)) {
      batched = batched && step.kind != Step::Kind::kBadView;
    }
  }
  if (!batched) {
    return state.RunRecursive();
  }
  WalkStats run;
  auto graph = state.RunBatched(&run);
  walk_stats_ += run;
  return graph;
}

}  // namespace viewcl
