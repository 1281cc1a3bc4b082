#include "src/analysis/lint.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <set>

#include "src/support/str.h"
#include "src/support/trace.h"
#include "src/viewcl/parser.h"
#include "src/viewql/parse.h"

namespace analysis {

namespace {

using dbg::Type;
using dbg::TypeKind;
using vl::Severity;
using vl::Span;

// Identifiers the C-expression evaluator understands without any registry:
// operators, casts, and literal keywords.
const char* const kCExprKeywords[] = {
    "sizeof", "struct", "union", "enum",  "NULL",     "null",   "true",
    "false",  "bool",   "void",  "char",  "short",    "int",    "long",
    "signed", "unsigned", "const",
};

bool IsCExprKeyword(const std::string& word) {
  for (const char* kw : kCExprKeywords) {
    if (word == kw) {
      return true;
    }
  }
  return false;
}

size_t EditDistance(const std::string& a, const std::string& b, size_t cap) {
  size_t la = a.size();
  size_t lb = b.size();
  size_t diff = la > lb ? la - lb : lb - la;
  if (diff > cap) {
    return cap + 1;
  }
  std::vector<size_t> prev(lb + 1);
  std::vector<size_t> cur(lb + 1);
  for (size_t j = 0; j <= lb; ++j) {
    prev[j] = j;
  }
  for (size_t i = 1; i <= la; ++i) {
    cur[0] = i;
    size_t row_min = cur[0];
    for (size_t j = 1; j <= lb; ++j) {
      size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
      row_min = std::min(row_min, cur[j]);
    }
    if (row_min > cap) {
      return cap + 1;
    }
    std::swap(prev, cur);
  }
  return prev[lb];
}

// Mirrors Value::Member: auto-derefs pointer chains, then looks the field up
// in the aggregate. Returns the field's type, or null with `bad_seg`/`owner`
// describing the first unresolvable segment.
const Type* WalkFieldPath(const Type* base, const std::vector<std::string>& path, size_t start,
                          size_t* bad_seg, const Type** owner) {
  const Type* t = base;
  for (size_t i = start; i < path.size(); ++i) {
    while (t != nullptr && t->kind == TypeKind::kPointer) {
      t = t->pointee;
    }
    if (t == nullptr || !t->IsAggregate()) {
      *bad_seg = i;
      *owner = t;
      return nullptr;
    }
    const dbg::Field* f = t->FindField(path[i]);
    if (f == nullptr) {
      *bad_seg = i;
      *owner = t;
      return nullptr;
    }
    t = f->type;
  }
  return t;
}

std::vector<std::string> FieldNames(const Type* t) {
  std::vector<std::string> names;
  if (t != nullptr) {
    for (const dbg::Field& f : t->fields) {
      names.push_back(f.name);
    }
  }
  return names;
}

// The node type a container adapter expects its (bare field path) argument to
// resolve to; empty predicate set means "no static shape opinion".
bool ContainerShapeOk(const std::string& kind, const Type* resolved) {
  const Type* t = resolved;
  while (t != nullptr && t->kind == TypeKind::kPointer) {
    t = t->pointee;
  }
  if (t == nullptr) {
    return true;
  }
  if (kind == "Array") {
    return resolved->kind == TypeKind::kArray || resolved->kind == TypeKind::kPointer;
  }
  const std::string& n = t->name;
  if (kind == "List") return n == "list_head";
  if (kind == "HList") return n == "hlist_head";
  if (kind == "RBTree") return n == "rb_root" || n == "rb_root_cached" || n == "rb_node";
  if (kind == "XArray" || kind == "RadixTree") return n == "xarray" || n == "radix_tree_root";
  if (kind == "MapleTree") return n == "maple_tree";
  return true;
}

const char* ContainerShapeName(const std::string& kind) {
  if (kind == "List") return "list_head";
  if (kind == "HList") return "hlist_head";
  if (kind == "RBTree") return "rb_root / rb_root_cached / rb_node";
  if (kind == "XArray" || kind == "RadixTree") return "xarray / radix_tree_root";
  if (kind == "MapleTree") return "maple_tree";
  return "array or pointer";
}

// Best-effort position extraction from a parser error message ("... at 3:14"
// or "... on line 7"); parse failures become a single VL000 diagnostic.
Span PosFromMessage(const std::string& message) {
  Span span;
  for (size_t i = message.size(); i-- > 0;) {
    if (message[i] == ':' && i > 0 && std::isdigit(static_cast<unsigned char>(message[i - 1]))) {
      size_t e = i + 1;
      size_t ce = e;
      while (ce < message.size() && std::isdigit(static_cast<unsigned char>(message[ce]))) {
        ++ce;
      }
      if (ce == e) {
        continue;
      }
      size_t ls = i;
      while (ls > 0 && std::isdigit(static_cast<unsigned char>(message[ls - 1]))) {
        --ls;
      }
      span.line = std::atoi(message.substr(ls, i - ls).c_str());
      span.col = std::atoi(message.substr(e, ce - e).c_str());
      return span;
    }
  }
  size_t p = message.find("line ");
  if (p != std::string::npos) {
    span.line = std::atoi(message.c_str() + p + 5);
    span.col = 1;
  }
  return span;
}

}  // namespace

std::string NearestName(const std::string& name, const std::vector<std::string>& candidates) {
  std::string best;
  size_t best_dist = 3;  // Levenshtein distance <= 2
  for (const std::string& c : candidates) {
    if (c == name || c.empty()) {
      continue;
    }
    size_t d = EditDistance(name, c, 2);
    if (d < best_dist || (d == best_dist && !best.empty() && c < best)) {
      best = c;
      best_dist = d;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// ViewCL checker
// ---------------------------------------------------------------------------

class Linter::ViewClChecker {
 public:
  ViewClChecker(const Linter& linter, const viewcl::Program& program, vl::DiagnosticList* diags)
      : lint_(linter), program_(program), diags_(diags) {
    BuildUniverse();
  }

  void Run() {
    // Every box declaration in the program, inline boxes included, so
    // kBoxCtor references resolve wherever the definition lives.
    for (const auto& decl : program_.defines) {
      CollectDecl(decl.get());
    }
    for (const viewcl::Binding& b : program_.bindings) {
      CollectExprDecls(b.value.get());
      toplevel_names_.insert(b.name);
    }
    for (const viewcl::ExprPtr& p : program_.plots) {
      CollectExprDecls(p.get());
    }

    // VL002: duplicate top-level definitions.
    std::map<std::string, Span> first_def;
    for (const auto& decl : program_.defines) {
      auto [it, inserted] = first_def.emplace(decl->name, decl->span);
      if (!inserted) {
        diags_->AddRule("VL002", Severity::kError, decl->span,
                        vl::StrFormat("duplicate definition of '%s' (first defined at line %d)",
                                      decl->name.c_str(), it->second.line));
      }
    }

    // Top-level bindings are evaluated in one root scope; names are visible
    // to each other and to every box instantiated beneath a plot.
    scopes_.push_back(toplevel_names_);
    for (const auto& decl : program_.defines) {
      CheckBox(*decl);
    }
    for (const viewcl::Binding& b : program_.bindings) {
      CheckExpr(b.value.get());
    }
    for (const viewcl::ExprPtr& p : program_.plots) {
      CheckExpr(p.get());
    }
    scopes_.pop_back();

    CheckReachability();
  }

 private:
  enum class ThisState { kNone, kUnknown, kKnown };

  void BuildUniverse() {
    if (lint_.symbols_ != nullptr) {
      for (const auto& [name, value] : lint_.symbols_->globals()) {
        universe_.insert(name);
      }
    }
    if (lint_.helpers_ != nullptr) {
      for (const std::string& name : lint_.helpers_->names()) {
        universe_.insert(name);
      }
    }
    if (lint_.types_ != nullptr) {
      for (const Type* t : lint_.types_->named_types()) {
        universe_.insert(t->name);
        for (const auto& [name, value] : t->enumerators) {
          universe_.insert(name);
        }
      }
    }
  }

  void CollectDecl(const viewcl::BoxDecl* decl) {
    if (decl == nullptr) {
      return;
    }
    boxes_.emplace(decl->name, decl);
    for (const viewcl::Binding& b : decl->where) {
      CollectExprDecls(b.value.get());
    }
    for (const viewcl::ViewDecl& view : decl->views) {
      for (const viewcl::Binding& b : view.where) {
        CollectExprDecls(b.value.get());
      }
      for (const viewcl::ItemDecl& item : view.items) {
        CollectExprDecls(item.value.get());
      }
    }
  }

  void CollectExprDecls(const viewcl::Expr* e) {
    if (e == nullptr) {
      return;
    }
    if (e->kind == viewcl::Expr::Kind::kInlineBox) {
      CollectDecl(e->inline_box.get());
    }
    for (const viewcl::ExprPtr& kid : e->kids) {
      CollectExprDecls(kid.get());
    }
    for (const viewcl::SwitchCase& sc : e->cases) {
      for (const viewcl::ExprPtr& label : sc.labels) {
        CollectExprDecls(label.get());
      }
      CollectExprDecls(sc.body.get());
    }
    CollectExprDecls(e->otherwise.get());
    if (e->for_each != nullptr) {
      for (const viewcl::Binding& b : e->for_each->bindings) {
        CollectExprDecls(b.value.get());
      }
      CollectExprDecls(e->for_each->yield.get());
    }
  }

  bool InScope(const std::string& name) const {
    for (const auto& frame : scopes_) {
      if (frame.count(name) != 0) {
        return true;
      }
    }
    return false;
  }

  std::vector<std::string> ScopeNames() const {
    std::set<std::string> all;
    for (const auto& frame : scopes_) {
      all.insert(frame.begin(), frame.end());
    }
    return std::vector<std::string>(all.begin(), all.end());
  }

  void CheckBox(const viewcl::BoxDecl& box) {
    ThisState saved_state = this_state_;
    const Type* saved_type = this_type_;

    if (!box.kernel_type.empty()) {
      const Type* t =
          lint_.types_ != nullptr ? lint_.types_->FindByName(box.kernel_type) : nullptr;
      if (t == nullptr && lint_.types_ != nullptr) {
        std::vector<std::string> names;
        for (const Type* cand : lint_.types_->named_types()) {
          if (cand->IsAggregate()) {
            names.push_back(cand->name);
          }
        }
        Span span = box.type_span.valid() ? box.type_span : box.span;
        vl::Diagnostic& d = diags_->AddRule(
            "VL001", Severity::kError, span,
            vl::StrFormat("unknown kernel type '%s' in define '%s'", box.kernel_type.c_str(),
                          box.name.c_str()));
        AttachFixIt(&d, span, NearestName(box.kernel_type, names));
      }
      this_state_ = ThisState::kKnown;
      this_type_ = t;  // null when VL001 fired: field checks degrade silently
      if (t == nullptr) {
        this_state_ = ThisState::kUnknown;
      }
    } else if (this_state_ == ThisState::kNone && !IsToplevelDefine(box)) {
      // Virtual inline box with no enclosing concrete box: @this stays unbound.
    } else if (this_state_ == ThisState::kNone) {
      // A virtual top-level define may be instantiated under a caller that
      // has @this bound; its field paths can't be resolved statically.
      this_state_ = ThisState::kUnknown;
      this_type_ = nullptr;
    }

    // Box scope: box-level where names (order-independent, mutually visible).
    std::set<std::string> frame;
    for (const viewcl::Binding& b : box.where) {
      frame.insert(b.name);
    }
    scopes_.push_back(frame);
    for (const viewcl::Binding& b : box.where) {
      CheckExpr(b.value.get());
    }

    // VL010 duplicate views; VL009 unknown parents.
    std::set<std::string> view_names;
    for (const viewcl::ViewDecl& view : box.views) {
      view_names.insert(view.name);
    }
    std::set<std::string> seen_views;
    for (const viewcl::ViewDecl& view : box.views) {
      if (!seen_views.insert(view.name).second) {
        diags_->AddRule("VL010", Severity::kWarning, view.span,
                        vl::StrFormat("duplicate view '%s' in '%s' shadows the earlier one",
                                      view.name.c_str(), box.name.c_str()));
      }
      if (!view.parent.empty() && view_names.count(view.parent) == 0) {
        Span span = view.parent_span.valid() ? view.parent_span : view.span;
        vl::Diagnostic& d = diags_->AddRule(
            "VL009", Severity::kError, span,
            vl::StrFormat("view '%s' inherits unknown view '%s'", view.name.c_str(),
                          view.parent.c_str()));
        AttachFixIt(&d, span,
                    NearestName(view.parent, {view_names.begin(), view_names.end()}));
      }
    }

    for (const viewcl::ViewDecl& view : box.views) {
      CheckView(box, view);
    }

    scopes_.pop_back();
    this_state_ = saved_state;
    this_type_ = saved_type;
  }

  bool IsToplevelDefine(const viewcl::BoxDecl& box) const {
    for (const auto& decl : program_.defines) {
      if (decl.get() == &box) {
        return true;
      }
    }
    return false;
  }

  void CheckView(const viewcl::BoxDecl& box, const viewcl::ViewDecl& view) {
    // A view sees its parent chain's where bindings plus its own.
    std::set<std::string> frame;
    std::set<std::string> visited;
    const viewcl::ViewDecl* cur = &view;
    while (cur != nullptr && visited.insert(cur->name).second) {
      for (const viewcl::Binding& b : cur->where) {
        frame.insert(b.name);
      }
      const viewcl::ViewDecl* parent = nullptr;
      if (!cur->parent.empty()) {
        for (const viewcl::ViewDecl& v : box.views) {
          if (v.name == cur->parent) {
            parent = &v;
            break;
          }
        }
      }
      cur = parent;
    }
    scopes_.push_back(frame);
    for (const viewcl::Binding& b : view.where) {
      CheckExpr(b.value.get());
    }
    for (const viewcl::ItemDecl& item : view.items) {
      CheckDecorator(item);
      CheckExpr(item.value.get());
    }
    scopes_.pop_back();
  }

  void CheckDecorator(const viewcl::ItemDecl& item) {
    if (item.decorator.empty() || lint_.types_ == nullptr) {
      return;
    }
    std::string detail;
    viewcl::DecoratorIssue issue =
        viewcl::CheckDecoratorSpec(*lint_.types_, lint_.emoji_, item.decorator, &detail);
    Span span = item.decorator_span.valid() ? item.decorator_span : item.span;
    if (issue == viewcl::DecoratorIssue::kUnknownHead) {
      vl::Diagnostic& d = diags_->AddRule("VL007", Severity::kError, span, detail);
      std::vector<std::string> heads = {"string", "bool",  "char", "raw_ptr",
                                        "fptr",   "enum",  "flag", "emoji"};
      for (const Type* t : lint_.types_->named_types()) {
        if (t->IsScalar() && t->kind != TypeKind::kEnum) {
          heads.push_back(t->name);
        }
      }
      AttachFixIt(&d, span, NearestName(vl::StrSplit(item.decorator, ':')[0], heads));
    } else if (issue == viewcl::DecoratorIssue::kBadArgument) {
      // Unknown emoji sets are hard runtime errors; a non-enum enum:/flag:
      // argument silently degrades to a plain number, so only warn.
      bool is_emoji = item.decorator.rfind("emoji", 0) == 0;
      diags_->AddRule("VL008", is_emoji ? Severity::kError : Severity::kWarning, span, detail);
    }
  }

  void CheckExpr(const viewcl::Expr* e) {
    if (e == nullptr) {
      return;
    }
    switch (e->kind) {
      case viewcl::Expr::Kind::kInt:
      case viewcl::Expr::Kind::kNull:
        return;
      case viewcl::Expr::Kind::kCExpr:
        CheckCExpr(*e);
        return;
      case viewcl::Expr::Kind::kAtRef:
        CheckAtRef(e->text, e->span);
        return;
      case viewcl::Expr::Kind::kFieldPath:
        CheckFieldPath(*e);
        return;
      case viewcl::Expr::Kind::kSwitch: {
        for (const viewcl::ExprPtr& kid : e->kids) {
          CheckExpr(kid.get());
        }
        for (const viewcl::SwitchCase& sc : e->cases) {
          for (const viewcl::ExprPtr& label : sc.labels) {
            CheckExpr(label.get());
          }
          CheckExpr(sc.body.get());
        }
        CheckExpr(e->otherwise.get());
        return;
      }
      case viewcl::Expr::Kind::kBoxCtor: {
        if (boxes_.count(e->text) == 0) {
          std::vector<std::string> names;
          for (const auto& [name, decl] : boxes_) {
            names.push_back(name);
          }
          vl::Diagnostic& d =
              diags_->AddRule("VL003", Severity::kError, e->span,
                              vl::StrFormat("unknown Box '%s'", e->text.c_str()));
          AttachFixIt(&d, e->span, NearestName(e->text, names));
        }
        CheckAnchor(*e);
        for (const viewcl::ExprPtr& kid : e->kids) {
          CheckExpr(kid.get());
        }
        return;
      }
      case viewcl::Expr::Kind::kContainerCtor:
        CheckContainerCtor(*e);
        return;
      case viewcl::Expr::Kind::kSelectFrom: {
        CheckExpr(e->kids.empty() ? nullptr : e->kids[0].get());
        if (boxes_.count(e->text) == 0) {
          std::vector<std::string> names;
          for (const auto& [name, decl] : boxes_) {
            names.push_back(name);
          }
          vl::Diagnostic& d = diags_->AddRule(
              "VL003", Severity::kError, e->span,
              vl::StrFormat("selectFrom element Box '%s' is not defined", e->text.c_str()));
          AttachFixIt(&d, e->span, NearestName(e->text, names));
        }
        return;
      }
      case viewcl::Expr::Kind::kInlineBox:
        if (e->inline_box != nullptr) {
          CheckBox(*e->inline_box);
        }
        return;
    }
  }

  void CheckAtRef(const std::string& name, Span span) {
    if (name == "this") {
      if (this_state_ == ThisState::kNone) {
        diags_->AddRule("VL011", Severity::kError, span, "@this outside a box context");
      }
      return;
    }
    if (InScope(name)) {
      return;
    }
    vl::Diagnostic& d = diags_->AddRule("VL011", Severity::kError, span,
                                        vl::StrFormat("unbound @ref '@%s'", name.c_str()));
    AttachFixIt(&d, span, NearestName(name, ScopeNames()));
  }

  void CheckFieldPath(const viewcl::Expr& e) {
    if (this_state_ == ThisState::kNone) {
      diags_->AddRule("VL004", Severity::kError, e.span,
                      vl::StrFormat("field path '%s' outside a box context",
                                    vl::StrJoin(e.path, ".").c_str()));
      return;
    }
    ResolveFieldPath(e.path, e.span);
  }

  // Resolves `path` against the enclosing box type; reports VL004 and returns
  // null when a segment misses, returns null silently when @this is unknown.
  const Type* ResolveFieldPath(const std::vector<std::string>& path, Span span) {
    if (this_state_ != ThisState::kKnown || this_type_ == nullptr) {
      return nullptr;
    }
    size_t bad_seg = 0;
    const Type* owner = nullptr;
    const Type* t = WalkFieldPath(this_type_, path, 0, &bad_seg, &owner);
    if (t != nullptr) {
      return t;
    }
    if (owner != nullptr && owner->IsAggregate()) {
      vl::Diagnostic& d = diags_->AddRule(
          "VL004", Severity::kError, span,
          vl::StrFormat("'%s' has no field '%s'", owner->name.c_str(), path[bad_seg].c_str()));
      AttachFixIt(&d, span, NearestName(path[bad_seg], FieldNames(owner)));
    } else {
      const char* base = owner != nullptr ? owner->name.c_str() : "<scalar>";
      diags_->AddRule("VL004", Severity::kError, span,
                      vl::StrFormat("cannot access field '%s' of non-struct type '%s'",
                                    path[bad_seg].c_str(), base));
    }
    return nullptr;
  }

  void CheckAnchor(const viewcl::Expr& e) {
    if (e.path.empty() || lint_.types_ == nullptr) {
      return;
    }
    const Type* t = lint_.types_->FindByName(e.path[0]);
    if (t == nullptr) {
      std::vector<std::string> names;
      for (const Type* cand : lint_.types_->named_types()) {
        if (cand->IsAggregate()) {
          names.push_back(cand->name);
        }
      }
      vl::Diagnostic& d = diags_->AddRule(
          "VL005", Severity::kError, e.span,
          vl::StrFormat("unknown type '%s' in anchor path", e.path[0].c_str()));
      AttachFixIt(&d, e.span, NearestName(e.path[0], names));
      return;
    }
    // Anchor segments are offsets within the object: arrays decay to their
    // element, pointers must not be followed (the offset would escape the
    // containing object, and container_of arithmetic would be meaningless).
    for (size_t i = 1; i < e.path.size(); ++i) {
      while (t->kind == TypeKind::kArray) {
        t = t->element;
      }
      if (!t->IsAggregate()) {
        diags_->AddRule("VL005", Severity::kError, e.span,
                        vl::StrFormat("anchor segment '%s' is not inside a struct",
                                      e.path[i].c_str()));
        return;
      }
      const dbg::Field* f = t->FindField(e.path[i]);
      if (f == nullptr) {
        vl::Diagnostic& d = diags_->AddRule(
            "VL005", Severity::kError, e.span,
            vl::StrFormat("'%s' has no field '%s' in anchor path", t->name.c_str(),
                          e.path[i].c_str()));
        AttachFixIt(&d, e.span, NearestName(e.path[i], FieldNames(t)));
        return;
      }
      t = f->type;
    }
  }

  void CheckContainerCtor(const viewcl::Expr& e) {
    // VL015: Array takes (base [, count]); every other adapter takes exactly
    // the container head.
    size_t argc = e.kids.size();
    bool arity_ok = e.text == "Array" ? (argc == 1 || argc == 2) : argc == 1;
    if (!arity_ok) {
      const char* expect = e.text == "Array" ? "1 or 2 arguments" : "exactly 1 argument";
      diags_->AddRule("VL015", Severity::kError, e.span,
                      vl::StrFormat("%s takes %s, got %zu", e.text.c_str(), expect, argc));
    }
    for (const viewcl::ExprPtr& kid : e.kids) {
      CheckExpr(kid.get());
    }
    // VL006: when the head argument is a bare field path we can type it.
    if (!e.kids.empty() && e.kids[0]->kind == viewcl::Expr::Kind::kFieldPath &&
        this_state_ == ThisState::kKnown && this_type_ != nullptr) {
      size_t bad_seg = 0;
      const Type* owner = nullptr;
      const Type* resolved = WalkFieldPath(this_type_, e.kids[0]->path, 0, &bad_seg, &owner);
      if (resolved != nullptr && !ContainerShapeOk(e.text, resolved)) {
        diags_->AddRule(
            "VL006", Severity::kError, e.kids[0]->span,
            vl::StrFormat("%s expects a %s, but '%s' has type '%s'", e.text.c_str(),
                          ContainerShapeName(e.text),
                          vl::StrJoin(e.kids[0]->path, ".").c_str(),
                          resolved->ToString().c_str()));
      }
    }
    if (e.for_each != nullptr) {
      std::set<std::string> frame;
      frame.insert(e.for_each->var);
      for (const viewcl::Binding& b : e.for_each->bindings) {
        frame.insert(b.name);
      }
      scopes_.push_back(frame);
      for (const viewcl::Binding& b : e.for_each->bindings) {
        CheckExpr(b.value.get());
      }
      CheckExpr(e.for_each->yield.get());
      scopes_.pop_back();
    }
  }

  // VL012/VL013: syntax-check the ${...} text, then scan it for identifiers
  // that neither the scope chain nor any registry can resolve. Member names
  // after '.' or '->' are skipped — they belong to whatever the prefix
  // evaluates to, which the expression grammar resolves dynamically.
  void CheckCExpr(const viewcl::Expr& e) {
    vl::Status syntax = dbg::CheckCExpression(e.text);
    if (!syntax.ok()) {
      diags_->AddRule("VL013", Severity::kError, e.span,
                      vl::StrFormat("C-expression syntax error: %s",
                                    std::string(syntax.message()).c_str()));
      return;
    }
    const std::string& s = e.text;
    std::set<std::string> reported;
    char prev1 = 0;
    char prev2 = 0;
    size_t i = 0;
    while (i < s.size()) {
      char c = s[i];
      if (c == '@') {
        size_t j = i + 1;
        while (j < s.size() &&
               (std::isalnum(static_cast<unsigned char>(s[j])) || s[j] == '_')) {
          ++j;
        }
        if (j > i + 1) {
          CheckAtRef(s.substr(i + 1, j - i - 1), e.span);
        }
        prev2 = prev1;
        prev1 = 'a';
        i = j;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t j = i;
        while (j < s.size() &&
               (std::isalnum(static_cast<unsigned char>(s[j])) || s[j] == '_')) {
          ++j;
        }
        std::string word = s.substr(i, j - i);
        bool member = prev1 == '.' || (prev1 == '>' && prev2 == '-');
        if (!member && !IsCExprKeyword(word) && !InScope(word) &&
            universe_.count(word) == 0 && reported.insert(word).second) {
          std::vector<std::string> candidates = ScopeNames();
          candidates.insert(candidates.end(), universe_.begin(), universe_.end());
          vl::Diagnostic& d = diags_->AddRule(
              "VL012", Severity::kError, e.span,
              vl::StrFormat("unknown identifier '%s' in C-expression", word.c_str()));
          AttachFixIt(&d, e.span, NearestName(word, candidates));
        }
        prev2 = prev1;
        prev1 = 'a';
        i = j;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        size_t j = i;
        while (j < s.size() && (std::isalnum(static_cast<unsigned char>(s[j])) ||
                                s[j] == '.' || s[j] == '_')) {
          ++j;
        }
        prev2 = prev1;
        prev1 = '0';
        i = j;
        continue;
      }
      if (!std::isspace(static_cast<unsigned char>(c))) {
        prev2 = prev1;
        prev1 = c;
      }
      ++i;
    }
  }

  // VL014: a top-level define no plot can reach is dead weight. Roots are the
  // plot expressions; box references propagate through items, where clauses,
  // and top-level bindings pulled in by @refs.
  void CheckReachability() {
    if (program_.plots.empty()) {
      return;  // a prelude chunk: everything is intentionally "unused" so far
    }
    std::set<std::string> reached_boxes;
    std::set<std::string> reached_bindings;
    std::vector<const viewcl::Expr*> work;
    for (const viewcl::ExprPtr& p : program_.plots) {
      work.push_back(p.get());
    }
    while (!work.empty()) {
      const viewcl::Expr* e = work.back();
      work.pop_back();
      if (e == nullptr) {
        continue;
      }
      if (e->kind == viewcl::Expr::Kind::kBoxCtor ||
          e->kind == viewcl::Expr::Kind::kSelectFrom) {
        if (reached_boxes.insert(e->text).second) {
          EnqueueBox(e->text, &work);
        }
      }
      if (e->kind == viewcl::Expr::Kind::kInlineBox && e->inline_box != nullptr) {
        EnqueueDecl(e->inline_box.get(), &work);
      }
      if (e->kind == viewcl::Expr::Kind::kAtRef && toplevel_names_.count(e->text) != 0 &&
          reached_bindings.insert(e->text).second) {
        for (const viewcl::Binding& b : program_.bindings) {
          if (b.name == e->text) {
            work.push_back(b.value.get());
          }
        }
      }
      for (const viewcl::ExprPtr& kid : e->kids) {
        work.push_back(kid.get());
      }
      for (const viewcl::SwitchCase& sc : e->cases) {
        for (const viewcl::ExprPtr& label : sc.labels) {
          work.push_back(label.get());
        }
        work.push_back(sc.body.get());
      }
      work.push_back(e->otherwise.get());
      if (e->for_each != nullptr) {
        for (const viewcl::Binding& b : e->for_each->bindings) {
          work.push_back(b.value.get());
        }
        work.push_back(e->for_each->yield.get());
      }
    }
    for (const auto& decl : program_.defines) {
      if (reached_boxes.count(decl->name) == 0) {
        diags_->AddRule("VL014", Severity::kWarning, decl->span,
                        vl::StrFormat("'%s' is defined but unreachable from any plot",
                                      decl->name.c_str()));
      }
    }
  }

  void EnqueueBox(const std::string& name, std::vector<const viewcl::Expr*>* work) {
    auto it = boxes_.find(name);
    if (it != boxes_.end()) {
      EnqueueDecl(it->second, work);
    }
  }

  void EnqueueDecl(const viewcl::BoxDecl* decl, std::vector<const viewcl::Expr*>* work) {
    for (const viewcl::Binding& b : decl->where) {
      work->push_back(b.value.get());
    }
    for (const viewcl::ViewDecl& view : decl->views) {
      for (const viewcl::Binding& b : view.where) {
        work->push_back(b.value.get());
      }
      for (const viewcl::ItemDecl& item : view.items) {
        work->push_back(item.value.get());
      }
    }
  }

  void AttachFixIt(vl::Diagnostic* d, Span span, const std::string& suggestion) {
    if (suggestion.empty() || !span.valid() || span.length == 0) {
      return;
    }
    d->has_fixit = true;
    d->fixit.span = span;
    d->fixit.replacement = suggestion;
    d->message += vl::StrFormat(" (did you mean '%s'?)", suggestion.c_str());
  }

  const Linter& lint_;
  const viewcl::Program& program_;
  vl::DiagnosticList* diags_;

  std::map<std::string, const viewcl::BoxDecl*> boxes_;
  std::set<std::string> toplevel_names_;
  std::set<std::string> universe_;
  std::vector<std::set<std::string>> scopes_;
  ThisState this_state_ = ThisState::kNone;
  const Type* this_type_ = nullptr;
};

// ---------------------------------------------------------------------------
// ViewQL checker
// ---------------------------------------------------------------------------

class Linter::ViewQlChecker {
 public:
  ViewQlChecker(const Linter& linter, const ProgramSummary* summary,
                const std::vector<std::string>& known_sets, vl::DiagnosticList* diags)
      : lint_(linter), summary_(summary), diags_(diags) {
    sets_.insert(known_sets.begin(), known_sets.end());
  }

  void Run(const std::vector<viewql::Statement>& stmts) {
    for (const viewql::Statement& stmt : stmts) {
      if (stmt.kind == viewql::Statement::Kind::kSelect) {
        CheckSelect(stmt.select);
      } else {
        CheckUpdate(stmt.update);
      }
    }
  }

 private:
  bool HasSummary() const { return summary_ != nullptr && summary_->valid; }

  void CheckSelect(const viewql::SelectStmt& stmt) {
    CheckSetExpr(stmt.source.get());

    std::vector<const BoxSummary*> matched;
    if (!stmt.type_name.empty()) {
      CheckType(stmt, &matched);
    } else if (HasSummary()) {
      for (const auto& [name, box] : summary_->boxes) {
        matched.push_back(&box);
      }
    }

    if (!stmt.item_path.empty() && HasSummary() && !matched.empty()) {
      // VL110: the item must be displayed by at least one matching box.
      const std::string& item = stmt.item_path[0];
      bool found = false;
      std::vector<std::string> members;
      for (const BoxSummary* box : matched) {
        for (const std::string& m : box->members) {
          members.push_back(m);
          if (m == item) {
            found = true;
          }
        }
      }
      if (!found) {
        vl::Diagnostic& d = diags_->AddRule(
            "VL110", Severity::kWarning, stmt.item_span,
            vl::StrFormat("no '%s' box displays an item '%s'", stmt.type_name.c_str(),
                          item.c_str()));
        AttachFixIt(&d, stmt.item_span, NearestName(item, members));
      }
    }

    if (stmt.has_where) {
      for (const auto& clause : stmt.where.clauses) {
        for (const viewql::CondExpr& cond : clause) {
          CheckCondition(stmt, matched, cond);
        }
      }
    }

    // VL102 after the statement body: `a = SELECT ... FROM a` is checked
    // against the *previous* binding of `a`, matching the engine, which
    // rebinds the result name only after evaluating the source.
    if (sets_.count(stmt.result_name) != 0) {
      diags_->AddRule("VL102", Severity::kWarning, stmt.result_span,
                      vl::StrFormat("'%s' redefines an existing set", stmt.result_name.c_str()));
    }
    sets_.insert(stmt.result_name);
  }

  static bool IsContainerKind(const std::string& name) {
    return name == "List" || name == "HList" || name == "RBTree" || name == "Array" ||
           name == "XArray" || name == "MapleTree" || name == "RadixTree";
  }

  void CheckType(const viewql::SelectStmt& stmt, std::vector<const BoxSummary*>* matched) {
    const std::string& type = stmt.type_name;
    if (IsContainerKind(type)) {
      return;  // paper idiom: SELECT RBTree FROM * targets container panes
    }
    bool in_summary = false;
    if (HasSummary()) {
      for (const auto& [name, box] : summary_->boxes) {
        // The engine matches a box by its kernel type or its declared name.
        if (name == type || box.kernel_type == type) {
          matched->push_back(&box);
          in_summary = true;
        }
      }
    }
    if (in_summary) {
      return;
    }
    bool in_registry =
        lint_.types_ != nullptr && lint_.types_->FindByName(type) != nullptr;
    if (HasSummary()) {
      std::vector<std::string> names;
      for (const auto& [name, box] : summary_->boxes) {
        names.push_back(name);
        if (!box.kernel_type.empty()) {
          names.push_back(box.kernel_type);
        }
      }
      if (in_registry) {
        diags_->AddRule("VL103", Severity::kWarning, stmt.type_span,
                        vl::StrFormat("'%s' matches no box in this pane", type.c_str()));
      } else {
        vl::Diagnostic& d = diags_->AddRule(
            "VL103", Severity::kError, stmt.type_span,
            vl::StrFormat("unknown SELECT type '%s'", type.c_str()));
        AttachFixIt(&d, stmt.type_span, NearestName(type, names));
      }
    } else if (!in_registry) {
      // Without a program summary a miss may still be a declared box name.
      diags_->AddRule("VL103", Severity::kWarning, stmt.type_span,
                      vl::StrFormat("'%s' is not a registered kernel type", type.c_str()));
    }
  }

  void CheckCondition(const viewql::SelectStmt& stmt,
                      const std::vector<const BoxSummary*>& matched,
                      const viewql::CondExpr& cond) {
    // VL109: identifier comparison values must be enumerators.
    if (cond.val_kind == viewql::CondExpr::ValKind::kIdent && lint_.types_ != nullptr) {
      int64_t value = 0;
      if (!lint_.types_->FindEnumerator(cond.str_val, &value)) {
        diags_->AddRule("VL109", Severity::kError, cond.val_span,
                        vl::StrFormat("unknown enumerator '%s'", cond.str_val.c_str()));
      }
    }
    if (cond.member.empty()) {
      return;
    }
    // VL107: the member should be resolvable as the alias, a displayed item,
    // or a raw kernel field of the selected type.
    if (!stmt.alias.empty() && cond.member[0] == stmt.alias) {
      return;
    }
    std::vector<std::string> candidates;
    for (const BoxSummary* box : matched) {
      for (const std::string& m : box->members) {
        candidates.push_back(m);
        if (m == cond.member[0]) {
          return;
        }
      }
    }
    if (lint_.types_ != nullptr) {
      std::vector<const Type*> bases;
      if (!stmt.type_name.empty()) {
        if (const Type* t = lint_.types_->FindByName(stmt.type_name)) {
          bases.push_back(t);
        }
      }
      for (const BoxSummary* box : matched) {
        if (!box->kernel_type.empty()) {
          if (const Type* t = lint_.types_->FindByName(box->kernel_type)) {
            bases.push_back(t);
          }
        }
      }
      for (const Type* base : bases) {
        size_t bad_seg = 0;
        const Type* owner = nullptr;
        if (WalkFieldPath(base, cond.member, 0, &bad_seg, &owner) != nullptr) {
          return;
        }
        for (const std::string& f : FieldNames(base)) {
          candidates.push_back(f);
        }
      }
      if (bases.empty() && matched.empty()) {
        return;  // nothing to check against: '*' with no summary
      }
    } else if (matched.empty()) {
      return;
    }
    vl::Diagnostic& d = diags_->AddRule(
        "VL107", Severity::kWarning, cond.member_span,
        vl::StrFormat("WHERE member '%s' is neither a displayed item nor a kernel field",
                      vl::StrJoin(cond.member, ".").c_str()));
    AttachFixIt(&d, cond.member_span, NearestName(cond.member[0], candidates));
  }

  void CheckUpdate(const viewql::UpdateStmt& stmt) {
    CheckSetExpr(stmt.target.get());
    for (const viewql::UpdateAttr& attr : stmt.attrs) {
      if (attr.name == "view") {
        if (HasSummary()) {
          std::set<std::string> views;
          for (const auto& [name, box] : summary_->boxes) {
            views.insert(box.views.begin(), box.views.end());
          }
          if (views.count(attr.value) == 0) {
            vl::Diagnostic& d = diags_->AddRule(
                "VL104", Severity::kError, attr.value_span,
                vl::StrFormat("no box declares a view '%s'", attr.value.c_str()));
            AttachFixIt(&d, attr.value_span,
                        NearestName(attr.value, {views.begin(), views.end()}));
          }
        }
      } else if (attr.name == "collapsed" || attr.name == "trimmed") {
        if (attr.value != "true" && attr.value != "false") {
          diags_->AddRule("VL106", Severity::kError, attr.value_span,
                          vl::StrFormat("'%s' expects true or false, got '%s'",
                                        attr.name.c_str(), attr.value.c_str()));
        }
      } else if (attr.name == "direction") {
        if (attr.value != "horizontal" && attr.value != "vertical") {
          diags_->AddRule("VL106", Severity::kError, attr.value_span,
                          vl::StrFormat("direction expects horizontal or vertical, got '%s'",
                                        attr.value.c_str()));
        }
      } else {
        vl::Diagnostic& d = diags_->AddRule(
            "VL105", Severity::kWarning, attr.name_span,
            vl::StrFormat("unknown display attribute '%s'", attr.name.c_str()));
        AttachFixIt(&d, attr.name_span,
                    NearestName(attr.name, {"view", "collapsed", "trimmed", "direction"}));
      }
    }
  }

  void CheckSetExpr(const viewql::SetExpr* e) {
    if (e == nullptr) {
      return;
    }
    switch (e->kind) {
      case viewql::SetExpr::Kind::kAll:
        return;
      case viewql::SetExpr::Kind::kName: {
        if (sets_.count(e->name) == 0) {
          vl::Diagnostic& d = diags_->AddRule(
              "VL101", Severity::kError, e->span,
              vl::StrFormat("unknown set '%s'", e->name.c_str()));
          AttachFixIt(&d, e->span,
                      NearestName(e->name, {sets_.begin(), sets_.end()}));
        }
        return;
      }
      case viewql::SetExpr::Kind::kReachable:
      case viewql::SetExpr::Kind::kMembers: {
        const char* fn = e->kind == viewql::SetExpr::Kind::kReachable ? "REACHABLE" : "MEMBERS";
        if (e->arg != nullptr && e->arg->kind == viewql::SetExpr::Kind::kAll) {
          diags_->AddRule("VL108", Severity::kWarning, e->span,
                          vl::StrFormat("%s(*) is the whole graph; drop the wrapper", fn));
        }
        CheckSetExpr(e->arg.get());
        return;
      }
      case viewql::SetExpr::Kind::kBinary:
        CheckSetExpr(e->lhs.get());
        CheckSetExpr(e->rhs.get());
        return;
    }
  }

  void AttachFixIt(vl::Diagnostic* d, Span span, const std::string& suggestion) {
    if (suggestion.empty() || !span.valid() || span.length == 0) {
      return;
    }
    d->has_fixit = true;
    d->fixit.span = span;
    d->fixit.replacement = suggestion;
    d->message += vl::StrFormat(" (did you mean '%s'?)", suggestion.c_str());
  }

  const Linter& lint_;
  const ProgramSummary* summary_;
  vl::DiagnosticList* diags_;
  std::set<std::string> sets_;
};

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

namespace {

// Annotates the open `vlint` span with the diagnostic counts (tracing only:
// with tracing off there is no span to carry them).
void CountLint(const vl::DiagnosticList& diags) {
  vl::Tracer& tracer = vl::Tracer::Instance();
  if (!tracer.enabled()) {
    return;
  }
  tracer.Annotate("lint.errors", static_cast<int64_t>(diags.errors()));
  tracer.Annotate("lint.warnings", static_cast<int64_t>(diags.warnings()));
  tracer.Annotate("lint.notes", static_cast<int64_t>(diags.Count(Severity::kNote)));
}

vl::Diagnostic ParseFailure(const vl::Status& status) {
  vl::Diagnostic d;
  d.rule = "VL000";
  d.severity = Severity::kError;
  d.message = std::string(status.message());
  d.span = PosFromMessage(d.message);
  return d;
}

}  // namespace

LintResult Linter::LintViewCl(std::string_view source) const {
  vl::ScopedSpan span("vlint");
  LintResult result;
  vl::StatusOr<viewcl::Program> program = viewcl::ParseViewCl(source);
  if (!program.ok()) {
    result.diagnostics.Add(ParseFailure(program.status()));
    CountLint(result.diagnostics);
    return result;
  }
  result.parse_ok = true;
  ViewClChecker(*this, *program, &result.diagnostics).Run();
  result.diagnostics.Sort();
  CountLint(result.diagnostics);
  return result;
}

LintResult Linter::LintViewCl(const viewcl::Program& program, std::string_view source) const {
  vl::ScopedSpan span("vlint");
  (void)source;
  LintResult result;
  result.parse_ok = true;
  ViewClChecker(*this, program, &result.diagnostics).Run();
  result.diagnostics.Sort();
  CountLint(result.diagnostics);
  return result;
}

LintResult Linter::LintViewQl(std::string_view source, const ProgramSummary* summary,
                              const std::vector<std::string>& known_sets) const {
  vl::ScopedSpan span("vlint");
  LintResult result;
  vl::StatusOr<std::vector<viewql::Statement>> stmts = viewql::ParseViewQlProgram(source);
  if (!stmts.ok()) {
    result.diagnostics.Add(ParseFailure(stmts.status()));
    CountLint(result.diagnostics);
    return result;
  }
  result.parse_ok = true;
  ViewQlChecker(*this, summary, known_sets, &result.diagnostics).Run(*stmts);
  result.diagnostics.Sort();
  CountLint(result.diagnostics);
  return result;
}

std::function<vl::Status(const viewcl::Program&, std::string_view)>
Linter::MakeLoadValidator() const {
  return [this](const viewcl::Program& program, std::string_view source) -> vl::Status {
    LintResult result = LintViewCl(program, source);
    if (result.diagnostics.errors() == 0) {
      return vl::Status::Ok();
    }
    return vl::ParseError("lint failed:\n" + result.diagnostics.RenderText(source, "load"));
  };
}

ProgramSummary Linter::SummarizeViewCl(std::string_view source) const {
  ProgramSummary summary;
  vl::StatusOr<viewcl::Program> program = viewcl::ParseViewCl(source);
  if (!program.ok()) {
    return summary;
  }
  summary.valid = true;
  // Inline boxes count too: the engine matches boxes by declared name, and
  // inline declarations produce real boxes in the graph.
  std::vector<const viewcl::BoxDecl*> decls;
  std::vector<const viewcl::Expr*> work;
  for (const auto& decl : program->defines) {
    decls.push_back(decl.get());
  }
  auto push_decl_exprs = [&work](const viewcl::BoxDecl* decl) {
    for (const viewcl::Binding& b : decl->where) {
      work.push_back(b.value.get());
    }
    for (const viewcl::ViewDecl& view : decl->views) {
      for (const viewcl::Binding& b : view.where) {
        work.push_back(b.value.get());
      }
      for (const viewcl::ItemDecl& item : view.items) {
        work.push_back(item.value.get());
      }
    }
  };
  for (const viewcl::BoxDecl* decl : decls) {
    push_decl_exprs(decl);
  }
  for (const viewcl::Binding& b : program->bindings) {
    work.push_back(b.value.get());
  }
  for (const viewcl::ExprPtr& p : program->plots) {
    work.push_back(p.get());
  }
  while (!work.empty()) {
    const viewcl::Expr* e = work.back();
    work.pop_back();
    if (e == nullptr) {
      continue;
    }
    if (e->kind == viewcl::Expr::Kind::kInlineBox && e->inline_box != nullptr) {
      decls.push_back(e->inline_box.get());
      push_decl_exprs(e->inline_box.get());
    }
    for (const viewcl::ExprPtr& kid : e->kids) {
      work.push_back(kid.get());
    }
    for (const viewcl::SwitchCase& sc : e->cases) {
      for (const viewcl::ExprPtr& label : sc.labels) {
        work.push_back(label.get());
      }
      work.push_back(sc.body.get());
    }
    work.push_back(e->otherwise.get());
    if (e->for_each != nullptr) {
      for (const viewcl::Binding& b : e->for_each->bindings) {
        work.push_back(b.value.get());
      }
      work.push_back(e->for_each->yield.get());
    }
  }
  for (const viewcl::BoxDecl* decl : decls) {
    BoxSummary& box = summary.boxes[decl->name];
    box.kernel_type = decl->kernel_type;
    std::set<std::string> members;
    for (const viewcl::ViewDecl& view : decl->views) {
      box.views.push_back(view.name);
      for (const viewcl::ItemDecl& item : view.items) {
        members.insert(item.name);
      }
    }
    box.members.assign(members.begin(), members.end());
  }
  return summary;
}

}  // namespace analysis
