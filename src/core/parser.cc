#include "core/parser.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <vector>

namespace gelc {

namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

struct Token {
  enum class Kind { kIdent, kNumber, kSymbol, kEnd };
  Kind kind = Kind::kEnd;
  std::string text;   // identifier text or symbol
  double number = 0;  // for kNumber
  size_t pos = 0;     // byte offset, for diagnostics
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    size_t i = 0;
    while (i < text_.size()) {
      char c = text_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c))) {
        size_t start = i;
        while (i < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[i])) ||
                text_[i] == '_')) {
          ++i;
        }
        // '_' immediately before '{' is the aggregate binder separator,
        // not part of the identifier ("agg[sum]_{x1}").
        std::string ident = text_.substr(start, i - start);
        if (!ident.empty() && ident.back() == '_' && i < text_.size() &&
            text_[i] == '{') {
          ident.pop_back();
          --i;
        }
        out.push_back({Token::Kind::kIdent, ident, 0, start});
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
          c == '+' || c == '.') {
        char* end = nullptr;
        double value = std::strtod(text_.c_str() + i, &end);
        size_t consumed = end - (text_.c_str() + i);
        if (consumed == 0) {
          return Status::IOError("stray character '" + std::string(1, c) +
                                 "' at position " + std::to_string(i));
        }
        if (!std::isfinite(value)) {
          return Status::IOError("number '" + text_.substr(i, consumed) +
                                 "' at position " + std::to_string(i) +
                                 " is not finite");
        }
        out.push_back({Token::Kind::kNumber,
                       text_.substr(i, consumed), value, i});
        i += consumed;
        continue;
      }
      if (c == '!' && i + 1 < text_.size() && text_[i + 1] == '=') {
        out.push_back({Token::Kind::kSymbol, "!=", 0, i});
        i += 2;
        continue;
      }
      static const std::string kSymbols = "()[]{},|=_";
      if (kSymbols.find(c) != std::string::npos) {
        out.push_back({Token::Kind::kSymbol, std::string(1, c), 0, i});
        ++i;
        continue;
      }
      return Status::IOError("unexpected character '" + std::string(1, c) +
                             "' at position " + std::to_string(i));
    }
    out.push_back({Token::Kind::kEnd, "", 0, text_.size()});
    return out;
  }

 private:
  const std::string& text_;
};

// ---------------------------------------------------------------------------
// Parser (recursive descent)
// ---------------------------------------------------------------------------

// Deepest expression nesting accepted. Parsing recurses once per level,
// and so do evaluation, printing and destruction of the tree, so the
// bound keeps hostile input from overflowing the stack.
constexpr size_t kMaxNestingDepth = 256;

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<ExprPtr> Parse() {
    GELC_ASSIGN_OR_RETURN(ExprPtr e, ParseExprRule());
    if (!AtEnd()) {
      return Err("trailing input after expression");
    }
    return e;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  bool AtEnd() const { return Peek().kind == Token::Kind::kEnd; }
  const Token& Advance() { return tokens_[pos_++]; }

  bool MatchSymbol(const std::string& s) {
    if (Peek().kind == Token::Kind::kSymbol && Peek().text == s) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Err(const std::string& msg) const {
    return Status::IOError(msg + " at position " +
                           std::to_string(Peek().pos) + " (near '" +
                           Peek().text + "')");
  }

  Status ExpectSymbol(const std::string& s) {
    if (!MatchSymbol(s)) return Err("expected '" + s + "'");
    return Status::OK();
  }

  // var := 'x' INT — lexed as a single identifier like "x12".
  Result<Var> ParseVar() {
    if (Peek().kind != Token::Kind::kIdent || Peek().text.size() < 2 ||
        Peek().text[0] != 'x') {
      return Err("expected a variable like x0");
    }
    const std::string& t = Peek().text;
    for (size_t i = 1; i < t.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(t[i]))) {
        return Err("expected a variable like x0");
      }
    }
    unsigned long v = std::strtoul(t.c_str() + 1, nullptr, 10);
    if (v >= kMaxVariables) return Err("variable index out of range");
    Advance();
    return static_cast<Var>(v);
  }

  Result<double> ParseNumber() {
    if (Peek().kind != Token::Kind::kNumber) return Err("expected a number");
    return Advance().number;
  }

  Result<ExprPtr> ParseExprRule() {
    if (depth_ == kMaxNestingDepth) {
      return Err("expression nested deeper than " +
                 std::to_string(kMaxNestingDepth) + " levels");
    }
    ++depth_;
    Result<ExprPtr> e = ParseExprBody();
    --depth_;
    return e;
  }

  Result<ExprPtr> ParseExprBody() {
    const Token& t = Peek();
    if (t.kind == Token::Kind::kSymbol && t.text == "[") {
      return ParseConst();
    }
    if (t.kind == Token::Kind::kNumber && t.text == "1" &&
        tokens_[pos_ + 1].kind == Token::Kind::kSymbol &&
        tokens_[pos_ + 1].text == "[") {
      return ParseCompare();
    }
    if (t.kind != Token::Kind::kIdent) {
      return Err("expected an expression");
    }
    if (t.text == "agg") return ParseAggregate();
    if (t.text == "E") return ParseEdge();
    if (t.text.rfind("lab", 0) == 0 && t.text.size() > 3) {
      return ParseLabel();
    }
    return ParseApply();
  }

  Result<ExprPtr> ParseConst() {
    GELC_RETURN_NOT_OK(ExpectSymbol("["));
    std::vector<double> values;
    do {
      GELC_ASSIGN_OR_RETURN(double v, ParseNumber());
      values.push_back(v);
    } while (MatchSymbol(","));
    GELC_RETURN_NOT_OK(ExpectSymbol("]"));
    return Expr::Constant(std::move(values));
  }

  Result<ExprPtr> ParseCompare() {
    Advance();  // the '1'
    GELC_RETURN_NOT_OK(ExpectSymbol("["));
    GELC_ASSIGN_OR_RETURN(Var a, ParseVar());
    CmpOp op;
    if (MatchSymbol("=")) {
      op = CmpOp::kEq;
    } else if (MatchSymbol("!=")) {
      op = CmpOp::kNeq;
    } else {
      return Err("expected '=' or '!='");
    }
    GELC_ASSIGN_OR_RETURN(Var b, ParseVar());
    GELC_RETURN_NOT_OK(ExpectSymbol("]"));
    return Expr::Compare(a, b, op);
  }

  Result<ExprPtr> ParseEdge() {
    Advance();  // 'E'
    GELC_RETURN_NOT_OK(ExpectSymbol("("));
    GELC_ASSIGN_OR_RETURN(Var a, ParseVar());
    GELC_RETURN_NOT_OK(ExpectSymbol(","));
    GELC_ASSIGN_OR_RETURN(Var b, ParseVar());
    GELC_RETURN_NOT_OK(ExpectSymbol(")"));
    return Expr::Edge(a, b);
  }

  Result<ExprPtr> ParseLabel() {
    const std::string& t = Peek().text;  // "lab<digits>"
    for (size_t i = 3; i < t.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(t[i]))) {
        return Err("malformed label atom");
      }
    }
    errno = 0;
    size_t index = std::strtoul(t.c_str() + 3, nullptr, 10);
    if (errno == ERANGE) return Err("label index out of range");
    Advance();
    GELC_RETURN_NOT_OK(ExpectSymbol("("));
    GELC_ASSIGN_OR_RETURN(Var v, ParseVar());
    GELC_RETURN_NOT_OK(ExpectSymbol(")"));
    return Expr::Label(index, v);
  }

  Result<ExprPtr> ParseAggregate() {
    Advance();  // 'agg'
    GELC_RETURN_NOT_OK(ExpectSymbol("["));
    if (Peek().kind != Token::Kind::kIdent) return Err("expected aggregator");
    std::string agg_name = Advance().text;
    GELC_RETURN_NOT_OK(ExpectSymbol("]"));
    GELC_RETURN_NOT_OK(ExpectSymbol("_"));
    GELC_RETURN_NOT_OK(ExpectSymbol("{"));
    VarSet bound = 0;
    do {
      GELC_ASSIGN_OR_RETURN(Var v, ParseVar());
      bound |= VarBit(v);
    } while (MatchSymbol(","));
    GELC_RETURN_NOT_OK(ExpectSymbol("}"));
    GELC_RETURN_NOT_OK(ExpectSymbol("("));
    GELC_ASSIGN_OR_RETURN(ExprPtr value, ParseExprRule());
    ExprPtr guard;
    if (MatchSymbol("|")) {
      GELC_ASSIGN_OR_RETURN(guard, ParseExprRule());
    }
    GELC_RETURN_NOT_OK(ExpectSymbol(")"));

    size_t d = value->dim();
    ThetaPtr agg;
    if (agg_name == "sum") {
      agg = theta::Sum(d);
    } else if (agg_name == "mean") {
      agg = theta::Mean(d);
    } else if (agg_name == "max") {
      agg = theta::Max(d);
    } else if (agg_name == "count") {
      agg = theta::Count(d);
    } else {
      return Status::IOError("unknown aggregator '" + agg_name + "'");
    }
    return Expr::Aggregate(std::move(agg), bound, std::move(value),
                           std::move(guard));
  }

  Result<ExprPtr> ParseApply() {
    std::string name = Advance().text;
    // Bracketed parameters: scale[c], project[b,l].
    std::vector<double> params;
    if (MatchSymbol("[")) {
      do {
        GELC_ASSIGN_OR_RETURN(double v, ParseNumber());
        params.push_back(v);
      } while (MatchSymbol(","));
      GELC_RETURN_NOT_OK(ExpectSymbol("]"));
    }
    GELC_RETURN_NOT_OK(ExpectSymbol("("));
    std::vector<ExprPtr> args;
    do {
      GELC_ASSIGN_OR_RETURN(ExprPtr e, ParseExprRule());
      args.push_back(std::move(e));
    } while (MatchSymbol(","));
    GELC_RETURN_NOT_OK(ExpectSymbol(")"));

    auto arity_error = [&](size_t want) {
      return Status::IOError("'" + name + "' expects " +
                             std::to_string(want) + " argument(s), got " +
                             std::to_string(args.size()));
    };

    Result<Activation> act = ParseActivation(name);
    if (act.ok()) {
      if (args.size() != 1) return arity_error(1);
      // Evaluate the dimension before std::move(args) can be sequenced.
      OmegaPtr fn = omega::ActivationFn(*act, args[0]->dim());
      return Expr::Apply(std::move(fn), std::move(args));
    }
    if (name == "add" || name == "mul") {
      if (args.size() != 2) return arity_error(2);
      if (args[0]->dim() != args[1]->dim()) {
        return Status::IOError("'" + name + "' argument dimension mismatch");
      }
      OmegaPtr fn = name == "add" ? omega::Add(args[0]->dim())
                                  : omega::Multiply(args[0]->dim());
      return Expr::Apply(std::move(fn), std::move(args));
    }
    if (name == "concat") {
      std::vector<size_t> dims;
      for (const ExprPtr& a : args) dims.push_back(a->dim());
      return Expr::Apply(omega::Concat(dims), std::move(args));
    }
    if (name == "scale") {
      if (params.size() != 1) {
        return Status::IOError("scale needs one parameter: scale[c](...)");
      }
      if (args.size() != 1) return arity_error(1);
      OmegaPtr fn = omega::Scale(params[0], args[0]->dim());
      return Expr::Apply(std::move(fn), std::move(args));
    }
    if (name == "project") {
      if (params.size() != 2) {
        return Status::IOError(
            "project needs two parameters: project[begin,len](...)");
      }
      if (args.size() != 1) return arity_error(1);
      // Both parameters count components: whole, non-negative and at most
      // the argument's width, checked on the double before the cast.
      const size_t d = args[0]->dim();
      for (double p : params) {
        if (!(p >= 0) || p != std::floor(p) || p > static_cast<double>(d)) {
          return Status::IOError(
              "project parameters must be whole numbers in [0, " +
              std::to_string(d) + "]");
        }
      }
      GELC_ASSIGN_OR_RETURN(
          OmegaPtr fn, omega::Project(d, static_cast<size_t>(params[0]),
                                      static_cast<size_t>(params[1])));
      return Expr::Apply(std::move(fn), std::move(args));
    }
    return Status::IOError("unknown function '" + name +
                           "' (linear/mlp have no text form)");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  size_t depth_ = 0;  // ParseExprRule calls open on the stack
};

}  // namespace

Result<ExprPtr> ParseExpr(const std::string& text) {
  Lexer lexer(text);
  GELC_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace gelc
