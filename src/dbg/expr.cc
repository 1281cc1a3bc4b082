#include "src/dbg/expr.h"

#include <cassert>
#include <cctype>

#include "src/support/str.h"

namespace dbg {

namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

enum class Tok {
  kEnd,
  kInt,
  kIdent,
  kAtIdent,
  kPunct,
};

struct Token {
  Tok kind = Tok::kEnd;
  uint64_t ival = 0;
  std::string text;   // identifier text or punctuation spelling
  size_t pos = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) {}

  vl::Status Run(std::vector<Token>* out) {
    while (true) {
      SkipSpace();
      if (pos_ >= src_.size()) {
        out->push_back(Token{Tok::kEnd, 0, "", pos_});
        return vl::Status::Ok();
      }
      char c = src_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        VL_RETURN_IF_ERROR(LexNumber(out));
      } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        LexIdent(out);
      } else if (c == '@') {
        ++pos_;
        if (pos_ >= src_.size() ||
            (!std::isalpha(static_cast<unsigned char>(src_[pos_])) && src_[pos_] != '_')) {
          return vl::ParseError("'@' must be followed by a name");
        }
        size_t start = pos_;
        while (pos_ < src_.size() &&
               (std::isalnum(static_cast<unsigned char>(src_[pos_])) || src_[pos_] == '_')) {
          ++pos_;
        }
        out->push_back(Token{Tok::kAtIdent, 0, std::string(src_.substr(start, pos_ - start)),
                             start - 1});
      } else if (c == '\'') {
        VL_RETURN_IF_ERROR(LexChar(out));
      } else {
        VL_RETURN_IF_ERROR(LexPunct(out));
      }
    }
  }

 private:
  void SkipSpace() {
    while (pos_ < src_.size() && std::isspace(static_cast<unsigned char>(src_[pos_]))) {
      ++pos_;
    }
  }

  vl::Status LexNumber(std::vector<Token>* out) {
    size_t start = pos_;
    int base = 10;
    if (src_[pos_] == '0' && pos_ + 1 < src_.size() &&
        (src_[pos_ + 1] == 'x' || src_[pos_ + 1] == 'X')) {
      base = 16;
      pos_ += 2;
    } else if (src_[pos_] == '0' && pos_ + 1 < src_.size() &&
               std::isdigit(static_cast<unsigned char>(src_[pos_ + 1]))) {
      base = 8;
      ++pos_;
    }
    uint64_t value = 0;
    bool any = false;
    while (pos_ < src_.size()) {
      char c = static_cast<char>(std::tolower(static_cast<unsigned char>(src_[pos_])));
      int digit;
      if (c >= '0' && c <= '9') {
        digit = c - '0';
      } else if (base == 16 && c >= 'a' && c <= 'f') {
        digit = c - 'a' + 10;
      } else {
        break;
      }
      if (digit >= base) {
        return vl::ParseError(vl::StrFormat("bad digit in numeric literal at %zu", pos_));
      }
      value = value * static_cast<uint64_t>(base) + static_cast<uint64_t>(digit);
      ++pos_;
      any = true;
    }
    if (!any && base == 16) {
      return vl::ParseError("incomplete hex literal");
    }
    // Swallow integer suffixes (ul, ull, u, l).
    while (pos_ < src_.size() &&
           (src_[pos_] == 'u' || src_[pos_] == 'U' || src_[pos_] == 'l' || src_[pos_] == 'L')) {
      ++pos_;
    }
    out->push_back(Token{Tok::kInt, value, "", start});
    return vl::Status::Ok();
  }

  void LexIdent(std::vector<Token>* out) {
    size_t start = pos_;
    while (pos_ < src_.size() &&
           (std::isalnum(static_cast<unsigned char>(src_[pos_])) || src_[pos_] == '_')) {
      ++pos_;
    }
    out->push_back(Token{Tok::kIdent, 0, std::string(src_.substr(start, pos_ - start)), start});
  }

  vl::Status LexChar(std::vector<Token>* out) {
    size_t start = pos_++;
    if (pos_ >= src_.size()) {
      return vl::ParseError("unterminated character literal");
    }
    uint64_t value;
    if (src_[pos_] == '\\' && pos_ + 1 < src_.size()) {
      ++pos_;
      switch (src_[pos_]) {
        case 'n':
          value = '\n';
          break;
        case 't':
          value = '\t';
          break;
        case '0':
          value = 0;
          break;
        case '\\':
          value = '\\';
          break;
        case '\'':
          value = '\'';
          break;
        default:
          return vl::ParseError("unknown escape in character literal");
      }
      ++pos_;
    } else {
      value = static_cast<uint64_t>(src_[pos_++]);
    }
    if (pos_ >= src_.size() || src_[pos_] != '\'') {
      return vl::ParseError("unterminated character literal");
    }
    ++pos_;
    out->push_back(Token{Tok::kInt, value, "", start});
    return vl::Status::Ok();
  }

  vl::Status LexPunct(std::vector<Token>* out) {
    static const char* kTwoChar[] = {"->", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||"};
    size_t start = pos_;
    for (const char* two : kTwoChar) {
      if (src_.substr(pos_, 2) == two) {
        pos_ += 2;
        out->push_back(Token{Tok::kPunct, 0, two, start});
        return vl::Status::Ok();
      }
    }
    static const std::string_view kOneChar = "()[].*&!~+-/%<>^|?:,";
    char c = src_[pos_];
    if (kOneChar.find(c) == std::string_view::npos) {
      return vl::ParseError(vl::StrFormat("unexpected character '%c' at %zu", c, pos_));
    }
    ++pos_;
    out->push_back(Token{Tok::kPunct, 0, std::string(1, c), start});
    return vl::Status::Ok();
  }

  std::string_view src_;
  size_t pos_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------------

struct CExprNode {
  enum Kind {
    kInt,
    kIdent,
    kAtRef,
    kUnary,    // op in text
    kBinary,   // op in text
    kTernary,
    kCall,     // text = callee name
    kMember,   // text = field name (covers both . and ->)
    kIndex,
    kCast,     // text = type spelling (e.g. "task_struct**")
    kSizeofType,
  };
  Kind kind;
  uint64_t ival = 0;
  std::string text;
  std::vector<std::unique_ptr<CExprNode>> kids;
};

namespace {

using Node = CExprNode;

std::unique_ptr<Node> MakeNode(Node::Kind kind) {
  auto n = std::make_unique<Node>();
  n->kind = kind;
  return n;
}

// ---------------------------------------------------------------------------
// Parser (recursive descent with precedence climbing for binaries)
// ---------------------------------------------------------------------------

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : toks_(std::move(tokens)) {}

  vl::StatusOr<std::unique_ptr<Node>> Parse() {
    VL_ASSIGN_OR_RETURN(std::unique_ptr<Node> node, ParseTernary());
    if (!AtEnd()) {
      return Err("trailing tokens after expression");
    }
    return node;
  }

 private:
  const Token& Cur() const { return toks_[idx_]; }
  bool AtEnd() const { return Cur().kind == Tok::kEnd; }
  void Advance() { ++idx_; }

  bool IsPunct(std::string_view p) const {
    return Cur().kind == Tok::kPunct && Cur().text == p;
  }
  bool EatPunct(std::string_view p) {
    if (IsPunct(p)) {
      Advance();
      return true;
    }
    return false;
  }

  vl::Status Err(std::string_view message) const {
    return vl::ParseError(vl::StrFormat("%.*s (near position %zu)",
                                        static_cast<int>(message.size()), message.data(),
                                        Cur().pos));
  }

  // Type-name detection for casts: `( words *... )` where the first word is a
  // type keyword or a registered-looking name followed by at least one '*',
  // or any multi-word builtin spelling.
  static bool IsTypeKeyword(const std::string& word) {
    static const char* kWords[] = {"struct", "union", "enum", "unsigned", "signed",
                                   "void",   "bool",  "char", "short",    "int",
                                   "long",   "u8",    "u16",  "u32",      "u64",
                                   "s8",     "s16",   "s32",  "s64",      "size_t",
                                   "uintptr_t"};
    for (const char* w : kWords) {
      if (word == w) {
        return true;
      }
    }
    return false;
  }

  // Tries to parse "(typename)" starting at the current '('; returns the type
  // spelling or empty if this is not a cast. Only commits on success.
  std::string TryParseCastType() {
    size_t save = idx_;
    if (!EatPunct("(")) {
      return "";
    }
    std::vector<std::string> words;
    while (Cur().kind == Tok::kIdent) {
      words.push_back(Cur().text);
      Advance();
    }
    int stars = 0;
    while (IsPunct("*")) {
      ++stars;
      Advance();
    }
    bool closed = EatPunct(")");
    bool type_like =
        !words.empty() && (IsTypeKeyword(words[0]) || words.size() > 1 || stars > 0);
    // A cast must be followed by the start of a unary expression.
    bool followed = !AtEnd() && (Cur().kind != Tok::kPunct || IsPunct("(") || IsPunct("*") ||
                                 IsPunct("&") || IsPunct("!") || IsPunct("~") || IsPunct("-"));
    if (!closed || !type_like || !followed) {
      idx_ = save;
      return "";
    }
    std::string spelling = vl::StrJoin(words, " ");
    for (int i = 0; i < stars; ++i) {
      spelling += "*";
    }
    return spelling;
  }

  vl::StatusOr<std::unique_ptr<Node>> ParseTernary() {
    VL_ASSIGN_OR_RETURN(std::unique_ptr<Node> cond, ParseBinary(0));
    if (!EatPunct("?")) {
      return cond;
    }
    VL_ASSIGN_OR_RETURN(std::unique_ptr<Node> then_expr, ParseTernary());
    if (!EatPunct(":")) {
      return Err("expected ':' in ternary expression");
    }
    VL_ASSIGN_OR_RETURN(std::unique_ptr<Node> else_expr, ParseTernary());
    auto node = MakeNode(Node::kTernary);
    node->kids.push_back(std::move(cond));
    node->kids.push_back(std::move(then_expr));
    node->kids.push_back(std::move(else_expr));
    return node;
  }

  static int Precedence(const std::string& op) {
    if (op == "||") return 1;
    if (op == "&&") return 2;
    if (op == "|") return 3;
    if (op == "^") return 4;
    if (op == "&") return 5;
    if (op == "==" || op == "!=") return 6;
    if (op == "<" || op == "<=" || op == ">" || op == ">=") return 7;
    if (op == "<<" || op == ">>") return 8;
    if (op == "+" || op == "-") return 9;
    if (op == "*" || op == "/" || op == "%") return 10;
    return -1;
  }

  vl::StatusOr<std::unique_ptr<Node>> ParseBinary(int min_prec) {
    VL_ASSIGN_OR_RETURN(std::unique_ptr<Node> lhs, ParseUnary());
    while (Cur().kind == Tok::kPunct) {
      int prec = Precedence(Cur().text);
      if (prec < 0 || prec < min_prec) {
        break;
      }
      std::string op = Cur().text;
      Advance();
      VL_ASSIGN_OR_RETURN(std::unique_ptr<Node> rhs, ParseBinary(prec + 1));
      auto node = MakeNode(Node::kBinary);
      node->text = op;
      node->kids.push_back(std::move(lhs));
      node->kids.push_back(std::move(rhs));
      lhs = std::move(node);
    }
    return lhs;
  }

  vl::StatusOr<std::unique_ptr<Node>> ParseUnary() {
    for (std::string_view op : {"*", "&", "!", "~", "-", "+"}) {
      if (IsPunct(op)) {
        std::string spelling(op);
        Advance();
        VL_ASSIGN_OR_RETURN(std::unique_ptr<Node> operand, ParseUnary());
        if (spelling == "+") {
          return operand;
        }
        auto node = MakeNode(Node::kUnary);
        node->text = spelling;
        node->kids.push_back(std::move(operand));
        return node;
      }
    }
    if (Cur().kind == Tok::kIdent && Cur().text == "sizeof") {
      Advance();
      if (!EatPunct("(")) {
        return Err("expected '(' after sizeof");
      }
      std::vector<std::string> words;
      while (Cur().kind == Tok::kIdent) {
        words.push_back(Cur().text);
        Advance();
      }
      std::string spelling = vl::StrJoin(words, " ");
      while (IsPunct("*")) {
        spelling += "*";
        Advance();
      }
      if (!EatPunct(")")) {
        return Err("expected ')' after sizeof type");
      }
      auto node = MakeNode(Node::kSizeofType);
      node->text = spelling;
      return node;
    }
    if (IsPunct("(")) {
      std::string cast_type = TryParseCastType();
      if (!cast_type.empty()) {
        VL_ASSIGN_OR_RETURN(std::unique_ptr<Node> operand, ParseUnary());
        auto node = MakeNode(Node::kCast);
        node->text = cast_type;
        node->kids.push_back(std::move(operand));
        return node;
      }
    }
    return ParsePostfix();
  }

  vl::StatusOr<std::unique_ptr<Node>> ParsePostfix() {
    VL_ASSIGN_OR_RETURN(std::unique_ptr<Node> node, ParsePrimary());
    while (true) {
      if (EatPunct(".") || (IsPunct("->") && (Advance(), true))) {
        if (Cur().kind != Tok::kIdent) {
          return Err("expected member name");
        }
        auto member = MakeNode(Node::kMember);
        member->text = Cur().text;
        Advance();
        member->kids.push_back(std::move(node));
        node = std::move(member);
      } else if (EatPunct("[")) {
        VL_ASSIGN_OR_RETURN(std::unique_ptr<Node> index, ParseTernary());
        if (!EatPunct("]")) {
          return Err("expected ']'");
        }
        auto idx = MakeNode(Node::kIndex);
        idx->kids.push_back(std::move(node));
        idx->kids.push_back(std::move(index));
        node = std::move(idx);
      } else {
        break;
      }
    }
    return node;
  }

  vl::StatusOr<std::unique_ptr<Node>> ParsePrimary() {
    if (Cur().kind == Tok::kInt) {
      auto node = MakeNode(Node::kInt);
      node->ival = Cur().ival;
      Advance();
      return node;
    }
    if (Cur().kind == Tok::kAtIdent) {
      auto node = MakeNode(Node::kAtRef);
      node->text = Cur().text;
      Advance();
      return node;
    }
    if (Cur().kind == Tok::kIdent) {
      std::string name = Cur().text;
      Advance();
      if (EatPunct("(")) {
        auto node = MakeNode(Node::kCall);
        node->text = name;
        if (!EatPunct(")")) {
          while (true) {
            VL_ASSIGN_OR_RETURN(std::unique_ptr<Node> arg, ParseTernary());
            node->kids.push_back(std::move(arg));
            if (EatPunct(")")) {
              break;
            }
            if (!EatPunct(",")) {
              return Err("expected ',' or ')' in call");
            }
          }
        }
        return node;
      }
      auto node = MakeNode(Node::kIdent);
      node->text = name;
      return node;
    }
    if (EatPunct("(")) {
      VL_ASSIGN_OR_RETURN(std::unique_ptr<Node> inner, ParseTernary());
      if (!EatPunct(")")) {
        return Err("expected ')'");
      }
      return inner;
    }
    return Err("expected an expression");
  }

  std::vector<Token> toks_;
  size_t idx_ = 0;
};

// ---------------------------------------------------------------------------
// Evaluator
// ---------------------------------------------------------------------------

class Evaluator {
 public:
  Evaluator(EvalContext* ctx, const Environment* env) : ctx_(ctx), env_(env) {}

  vl::StatusOr<Value> Eval(const Node* node) {
    switch (node->kind) {
      case Node::kInt:
        return Value::MakeInt(ctx_->types()->u64(), node->ival);
      case Node::kAtRef:
        return EvalAtRef(node);
      case Node::kIdent:
        return EvalIdent(node);
      case Node::kUnary:
        return EvalUnary(node);
      case Node::kBinary:
        return EvalBinary(node);
      case Node::kTernary:
        return EvalTernary(node);
      case Node::kCall:
        return EvalCall(node);
      case Node::kMember: {
        VL_ASSIGN_OR_RETURN(Value base, Eval(node->kids[0].get()));
        return base.Member(ctx_->session(), ctx_->types(), node->text);
      }
      case Node::kIndex: {
        VL_ASSIGN_OR_RETURN(Value base, Eval(node->kids[0].get()));
        VL_ASSIGN_OR_RETURN(Value index, Eval(node->kids[1].get()));
        VL_ASSIGN_OR_RETURN(index, index.Load(ctx_->session()));
        return base.Index(ctx_->session(), ctx_->types(), index.AsSigned());
      }
      case Node::kCast:
        return EvalCast(node);
      case Node::kSizeofType: {
        const Type* type = ResolveTypeSpelling(node->text);
        if (type == nullptr) {
          return vl::EvalError("sizeof of unknown type '" + node->text + "'");
        }
        return Value::MakeInt(ctx_->types()->u64(), type->size);
      }
    }
    return vl::InternalError("unhandled AST node");
  }

 private:
  vl::StatusOr<Value> EvalAtRef(const Node* node) {
    if (env_ != nullptr) {
      auto it = env_->find(node->text);
      if (it != env_->end()) {
        return it->second;
      }
    }
    return vl::EvalError("unbound @" + node->text);
  }

  vl::StatusOr<Value> EvalIdent(const Node* node) {
    const std::string& name = node->text;
    if (name == "NULL" || name == "null" || name == "nullptr") {
      return Value::MakePointer(ctx_->types()->PointerTo(ctx_->types()->void_type()), 0);
    }
    if (name == "true") {
      return Value::MakeInt(ctx_->types()->bool_type(), 1);
    }
    if (name == "false") {
      return Value::MakeInt(ctx_->types()->bool_type(), 0);
    }
    int64_t enum_value = 0;
    if (ctx_->types()->FindEnumerator(name, &enum_value)) {
      return Value::MakeInt(ctx_->types()->u64(), static_cast<uint64_t>(enum_value));
    }
    Value global;
    if (ctx_->symbols() != nullptr && ctx_->symbols()->FindGlobal(name, &global)) {
      return global;
    }
    return vl::EvalError("unknown identifier '" + name + "'");
  }

  vl::StatusOr<Value> EvalUnary(const Node* node) {
    VL_ASSIGN_OR_RETURN(Value operand, Eval(node->kids[0].get()));
    const std::string& op = node->text;
    if (op == "*") {
      return operand.Deref(ctx_->session(), ctx_->types());
    }
    if (op == "&") {
      return operand.AddressOf(ctx_->types());
    }
    VL_ASSIGN_OR_RETURN(Value loaded, operand.Load(ctx_->session()));
    if (op == "!") {
      return Value::MakeInt(ctx_->types()->IntType(4, true), loaded.bits() == 0 ? 1 : 0);
    }
    if (op == "~") {
      return Value::MakeInt(loaded.type(), ~loaded.bits());
    }
    if (op == "-") {
      return Value::MakeInt(ctx_->types()->IntType(8, true),
                            static_cast<uint64_t>(-loaded.AsSigned()));
    }
    return vl::InternalError("unhandled unary operator " + op);
  }

  vl::StatusOr<Value> EvalBinary(const Node* node) {
    const std::string& op = node->text;
    // Short-circuit logical operators.
    if (op == "&&" || op == "||") {
      VL_ASSIGN_OR_RETURN(Value lhs, Eval(node->kids[0].get()));
      VL_ASSIGN_OR_RETURN(bool lb, lhs.ToBool(ctx_->session()));
      if (op == "&&" && !lb) {
        return Value::MakeInt(ctx_->types()->IntType(4, true), 0);
      }
      if (op == "||" && lb) {
        return Value::MakeInt(ctx_->types()->IntType(4, true), 1);
      }
      VL_ASSIGN_OR_RETURN(Value rhs, Eval(node->kids[1].get()));
      VL_ASSIGN_OR_RETURN(bool rb, rhs.ToBool(ctx_->session()));
      return Value::MakeInt(ctx_->types()->IntType(4, true), rb ? 1 : 0);
    }

    VL_ASSIGN_OR_RETURN(Value lhs_raw, Eval(node->kids[0].get()));
    VL_ASSIGN_OR_RETURN(Value rhs_raw, Eval(node->kids[1].get()));
    VL_ASSIGN_OR_RETURN(Value lhs, lhs_raw.Load(ctx_->session()));
    VL_ASSIGN_OR_RETURN(Value rhs, rhs_raw.Load(ctx_->session()));

    // Pointer arithmetic: ptr +/- int is scaled by the pointee size.
    if (lhs.type() != nullptr && lhs.type()->kind == TypeKind::kPointer &&
        (op == "+" || op == "-") && rhs.type() != nullptr &&
        rhs.type()->kind != TypeKind::kPointer) {
      uint64_t scale = lhs.type()->pointee->size;
      scale = scale == 0 ? 1 : scale;
      uint64_t delta = rhs.bits() * scale;
      return Value::MakePointer(lhs.type(),
                                op == "+" ? lhs.bits() + delta : lhs.bits() - delta);
    }

    uint64_t a = lhs.bits();
    uint64_t b = rhs.bits();
    bool is_signed = (lhs.type() != nullptr && lhs.type()->is_signed) &&
                     (rhs.type() != nullptr && rhs.type()->is_signed);
    const Type* int_type = ctx_->types()->IntType(8, is_signed);
    const Type* cmp_type = ctx_->types()->IntType(4, true);

    if (op == "+") return Value::MakeInt(int_type, a + b);
    if (op == "-") return Value::MakeInt(int_type, a - b);
    if (op == "*") return Value::MakeInt(int_type, a * b);
    if (op == "/") {
      if (b == 0) {
        return vl::EvalError("division by zero");
      }
      return Value::MakeInt(
          int_type, is_signed ? static_cast<uint64_t>(lhs.AsSigned() / rhs.AsSigned()) : a / b);
    }
    if (op == "%") {
      if (b == 0) {
        return vl::EvalError("modulo by zero");
      }
      return Value::MakeInt(
          int_type, is_signed ? static_cast<uint64_t>(lhs.AsSigned() % rhs.AsSigned()) : a % b);
    }
    if (op == "&") return Value::MakeInt(int_type, a & b);
    if (op == "|") return Value::MakeInt(int_type, a | b);
    if (op == "^") return Value::MakeInt(int_type, a ^ b);
    if (op == "<<") return Value::MakeInt(int_type, a << (b & 63));
    if (op == ">>") return Value::MakeInt(int_type, a >> (b & 63));
    if (op == "==") return Value::MakeInt(cmp_type, a == b ? 1 : 0);
    if (op == "!=") return Value::MakeInt(cmp_type, a != b ? 1 : 0);
    if (op == "<") {
      return Value::MakeInt(cmp_type,
                            (is_signed ? lhs.AsSigned() < rhs.AsSigned() : a < b) ? 1 : 0);
    }
    if (op == "<=") {
      return Value::MakeInt(cmp_type,
                            (is_signed ? lhs.AsSigned() <= rhs.AsSigned() : a <= b) ? 1 : 0);
    }
    if (op == ">") {
      return Value::MakeInt(cmp_type,
                            (is_signed ? lhs.AsSigned() > rhs.AsSigned() : a > b) ? 1 : 0);
    }
    if (op == ">=") {
      return Value::MakeInt(cmp_type,
                            (is_signed ? lhs.AsSigned() >= rhs.AsSigned() : a >= b) ? 1 : 0);
    }
    return vl::InternalError("unhandled binary operator " + op);
  }

  vl::StatusOr<Value> EvalTernary(const Node* node) {
    VL_ASSIGN_OR_RETURN(Value cond, Eval(node->kids[0].get()));
    VL_ASSIGN_OR_RETURN(bool b, cond.ToBool(ctx_->session()));
    return Eval(node->kids[b ? 1 : 2].get());
  }

  vl::StatusOr<Value> EvalCall(const Node* node) {
    const HelperFn* fn =
        ctx_->helpers() != nullptr ? ctx_->helpers()->Find(node->text) : nullptr;
    if (fn == nullptr) {
      return vl::EvalError("unknown helper function '" + node->text + "'");
    }
    std::vector<Value> args;
    for (const auto& kid : node->kids) {
      VL_ASSIGN_OR_RETURN(Value arg, Eval(kid.get()));
      args.push_back(arg);
    }
    return (*fn)(ctx_, args);
  }

  const Type* ResolveTypeSpelling(std::string_view spelling) {
    // Split trailing '*'s from the base name.
    int stars = 0;
    while (!spelling.empty() && spelling.back() == '*') {
      spelling.remove_suffix(1);
      ++stars;
    }
    spelling = vl::StrTrim(spelling);
    const Type* base = ctx_->types()->FindByName(spelling);
    if (base == nullptr) {
      return nullptr;
    }
    for (int i = 0; i < stars; ++i) {
      base = ctx_->types()->PointerTo(base);
    }
    return base;
  }

  vl::StatusOr<Value> EvalCast(const Node* node) {
    const Type* target_type = ResolveTypeSpelling(node->text);
    if (target_type == nullptr) {
      return vl::EvalError("cast to unknown type '" + node->text + "'");
    }
    VL_ASSIGN_OR_RETURN(Value operand, Eval(node->kids[0].get()));
    VL_ASSIGN_OR_RETURN(Value loaded, operand.Load(ctx_->session()));
    if (loaded.is_lvalue()) {
      // Aggregate reinterpretation: retype the location.
      return Value::MakeLValue(target_type, loaded.addr());
    }
    if (target_type->kind == TypeKind::kPointer) {
      return Value::MakePointer(target_type, loaded.bits());
    }
    uint64_t bits = loaded.bits();
    if (target_type->size < 8) {
      uint64_t mask = (1ull << (target_type->size * 8)) - 1;
      bits &= mask;
      if (target_type->is_signed && (bits & (1ull << (target_type->size * 8 - 1))) != 0) {
        bits |= ~mask;
      }
    }
    return Value::MakeInt(target_type, bits);
  }

  EvalContext* ctx_;
  const Environment* env_;
};

vl::StatusOr<std::unique_ptr<Node>> ParseExpression(std::string_view expr) {
  Lexer lexer(expr);
  std::vector<Token> tokens;
  VL_RETURN_IF_ERROR(lexer.Run(&tokens));
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace

CExpression CExpression::Parse(std::string_view text) {
  CExpression out;
  auto parsed = ParseExpression(text);
  if (!parsed.ok()) {
    out.status_ = vl::ParseError(parsed.status().message() + " in '" + std::string(text) + "'");
    return out;
  }
  out.root_ = std::shared_ptr<const CExprNode>(std::move(parsed).value());
  return out;
}

vl::StatusOr<Value> CExpression::Eval(EvalContext* ctx, const Environment* env) const {
  if (root_ == nullptr) {
    return status_;
  }
  Evaluator evaluator(ctx, env);
  return evaluator.Eval(root_.get());
}

vl::StatusOr<Value> EvalCExpression(EvalContext* ctx, std::string_view expr,
                                    const Environment* env) {
  return CExpression::Parse(expr).Eval(ctx, env);
}

vl::Status CheckCExpression(std::string_view expr) {
  auto parsed = ParseExpression(expr);
  return parsed.ok() ? vl::Status::Ok() : parsed.status();
}

}  // namespace dbg
