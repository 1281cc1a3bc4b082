// The C-expression engine behind ViewCL's ${...} escapes.
//
// Supports the C subset a kernel debugger needs: member access (./->), array
// indexing, pointer arithmetic, casts to registered types, the usual
// unary/binary/ternary operators, enumerator and symbol resolution, and calls
// into registered helper functions (the "GDB scripts exposing static inline
// kernel functions" of §4). `@name` tokens resolve through a caller-provided
// environment — that is how ViewCL binds @this and local variables.

#ifndef SRC_DBG_EXPR_H_
#define SRC_DBG_EXPR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/dbg/read_session.h"
#include "src/dbg/symbols.h"
#include "src/dbg/type.h"
#include "src/dbg/value.h"
#include "src/support/status.h"

namespace dbg {

class EvalContext;

// A helper ("kernel inline function" exposed to the debugger).
using HelperFn = std::function<vl::StatusOr<Value>(EvalContext*, std::vector<Value>&)>;

class HelperRegistry {
 public:
  void Register(std::string_view name, HelperFn fn) { fns_[std::string(name)] = std::move(fn); }
  const HelperFn* Find(std::string_view name) const {
    auto it = fns_.find(name);
    return it != fns_.end() ? &it->second : nullptr;
  }
  size_t size() const { return fns_.size(); }
  // Registered helper names, sorted — the static analyzer's identifier
  // universe for C-expression call heads.
  std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(fns_.size());
    for (const auto& [name, fn] : fns_) {
      out.push_back(name);
    }
    return out;
  }

 private:
  std::map<std::string, HelperFn, std::less<>> fns_;
};

// Name -> value bindings for @refs (ViewCL scope variables).
using Environment = std::map<std::string, Value, std::less<>>;

// Everything an expression evaluation needs. Reads flow through a
// ReadSession (the block-cached front-end API); code that needs raw,
// per-request-accounted access goes to session()->target() explicitly.
class EvalContext {
 public:
  EvalContext(TypeRegistry* types, ReadSession* session, const SymbolTable* symbols,
              const HelperRegistry* helpers)
      : types_(types), session_(session), symbols_(symbols), helpers_(helpers) {}

  TypeRegistry* types() { return types_; }
  ReadSession* session() { return session_; }
  const SymbolTable* symbols() const { return symbols_; }
  const HelperRegistry* helpers() const { return helpers_; }

 private:
  TypeRegistry* types_;
  ReadSession* session_;
  const SymbolTable* symbols_;
  const HelperRegistry* helpers_;
};

struct CExprNode;

// A parsed expression: parse once, evaluate many times. A failed parse is
// remembered, and every Eval returns its error (the same text
// EvalCExpression gives).
class CExpression {
 public:
  static CExpression Parse(std::string_view text);

  bool ok() const { return root_ != nullptr; }
  const vl::Status& status() const { return status_; }
  // Evaluates against the context. `env` may be nullptr.
  vl::StatusOr<Value> Eval(EvalContext* ctx, const Environment* env) const;

 private:
  std::shared_ptr<const CExprNode> root_;
  vl::Status status_;
};

// Parses and evaluates `expr` against the context. `env` may be nullptr.
vl::StatusOr<Value> EvalCExpression(EvalContext* ctx, std::string_view expr,
                                    const Environment* env);

// Parse-only check (used by ViewCL's front-end for early diagnostics).
vl::Status CheckCExpression(std::string_view expr);

}  // namespace dbg

#endif  // SRC_DBG_EXPR_H_
