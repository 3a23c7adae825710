#include "lang/parser.h"

#include "common/string_util.h"
#include "lang/lexer.h"

namespace tyder {

namespace {

class Parser {
 public:
  // Recursive-descent depth cap: nesting beyond this yields a diagnostic
  // instead of a stack overflow on adversarial input (each nesting level
  // costs a bounded handful of frames, so 1000 levels is far below any real
  // stack limit while far above any legitimate TDL program).
  static constexpr int kMaxNestingDepth = 1000;

  Parser(std::vector<Token> tokens, DiagnosticEngine& diags)
      : tokens_(std::move(tokens)), diags_(diags) {}

  AstSchema Run() {
    AstSchema schema;
    while (!At(TokenKind::kEnd)) {
      size_t before = pos_;
      ParseDecl(schema);
      if (pos_ == before) Advance();  // never loop on an unexpected token
    }
    return schema;
  }

  // Entry point for single-expression parsing (query predicates).
  AstExprPtr RunExpression() {
    AstExprPtr expr = ParseExpr();
    if (!At(TokenKind::kEnd)) {
      diags_.Error(Cur().line, Cur().col,
                   "trailing input after expression");
    }
    return expr;
  }

 private:
  const Token& Cur() const { return tokens_[pos_]; }
  const Token& Peek(size_t ahead = 1) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool At(TokenKind kind) const { return Cur().kind == kind; }
  Token Advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }
  bool Accept(TokenKind kind) {
    if (!At(kind)) return false;
    Advance();
    return true;
  }
  Token Expect(TokenKind kind) {
    if (At(kind)) return Advance();
    diags_.Error(Cur().line, Cur().col,
                 "expected " + std::string(TokenKindName(kind)) + ", found " +
                     std::string(TokenKindName(Cur().kind)));
    return Cur();
  }
  // The value of a literal token; a literal that does not fit in T is
  // reported at the token and yields 0.
  template <typename T>
  T Literal(const Token& token) {
    Result<T> value = ParseNumber<T>(token.text);
    if (value.ok()) return *value;
    diags_.Error(token.line, token.col, value.status().message());
    return T{};
  }
  // Skips to just past the next token of `kind` (error recovery).
  void SyncPast(TokenKind kind) {
    while (!At(TokenKind::kEnd) && !Accept(kind)) Advance();
  }

  // True once nesting exceeds the cap. Reports a single diagnostic and jumps
  // to the end-of-input token so every recursive production unwinds without
  // descending further.
  bool DepthExceeded() {
    if (depth_ < kMaxNestingDepth) return false;
    if (!depth_reported_) {
      depth_reported_ = true;
      diags_.Error(Cur().line, Cur().col,
                   "nesting exceeds the maximum depth of " +
                       std::to_string(kMaxNestingDepth));
      pos_ = tokens_.size() - 1;  // the kEnd token
    }
    return true;
  }

  struct DepthScope {
    explicit DepthScope(Parser& p) : parser(p) { ++parser.depth_; }
    ~DepthScope() { --parser.depth_; }
    Parser& parser;
  };

  void ParseDecl(AstSchema& schema) {
    switch (Cur().kind) {
      case TokenKind::kType:
        schema.types.push_back(ParseType());
        return;
      case TokenKind::kGeneric:
        schema.generics.push_back(ParseGeneric());
        return;
      case TokenKind::kMethod:
        schema.methods.push_back(ParseMethod());
        return;
      case TokenKind::kView:
        schema.views.push_back(ParseView());
        return;
      case TokenKind::kAccessors:
        Advance();
        Expect(TokenKind::kSemicolon);
        schema.accessors_directive = true;
        return;
      default:
        diags_.Error(Cur().line, Cur().col,
                     "expected a declaration, found " +
                         std::string(TokenKindName(Cur().kind)));
        return;
    }
  }

  AstType ParseType() {
    AstType type;
    Token kw = Expect(TokenKind::kType);
    type.line = kw.line;
    type.col = kw.col;
    type.name = Expect(TokenKind::kIdent).text;
    if (Accept(TokenKind::kColon)) {
      type.supers.push_back(Expect(TokenKind::kIdent).text);
      while (Accept(TokenKind::kComma)) {
        type.supers.push_back(Expect(TokenKind::kIdent).text);
      }
    }
    Expect(TokenKind::kLBrace);
    while (!At(TokenKind::kRBrace) && !At(TokenKind::kEnd)) {
      size_t before = pos_;
      AstAttr attr;
      Token name = Expect(TokenKind::kIdent);
      attr.name = name.text;
      attr.line = name.line;
      attr.col = name.col;
      Expect(TokenKind::kColon);
      attr.type_name = Expect(TokenKind::kIdent).text;
      Expect(TokenKind::kSemicolon);
      type.attrs.push_back(std::move(attr));
      if (pos_ == before) Advance();  // never loop on an unexpected token
    }
    Expect(TokenKind::kRBrace);
    return type;
  }

  AstGeneric ParseGeneric() {
    AstGeneric gen;
    Token kw = Expect(TokenKind::kGeneric);
    gen.line = kw.line;
    gen.col = kw.col;
    gen.name = Expect(TokenKind::kIdent).text;
    Expect(TokenKind::kSlash);
    if (At(TokenKind::kIntLit)) {
      gen.arity = Literal<int>(Advance());
    } else {
      Expect(TokenKind::kIntLit);  // report the error
    }
    Expect(TokenKind::kSemicolon);
    return gen;
  }

  AstMethod ParseMethod() {
    AstMethod method;
    Token kw = Expect(TokenKind::kMethod);
    method.line = kw.line;
    method.col = kw.col;
    method.label = Expect(TokenKind::kIdent).text;
    if (Accept(TokenKind::kFor)) {
      method.gf = Expect(TokenKind::kIdent).text;
    }
    Expect(TokenKind::kLParen);
    if (!At(TokenKind::kRParen)) {
      do {
        AstParam param;
        param.name = Expect(TokenKind::kIdent).text;
        Expect(TokenKind::kColon);
        param.type_name = Expect(TokenKind::kIdent).text;
        method.params.push_back(std::move(param));
      } while (Accept(TokenKind::kComma));
    }
    Expect(TokenKind::kRParen);
    if (Accept(TokenKind::kArrow)) {
      method.result_type = Expect(TokenKind::kIdent).text;
    }
    method.body = ParseBlock();
    return method;
  }

  AstView ParseView() {
    AstView view;
    Token kw = Expect(TokenKind::kView);
    view.line = kw.line;
    view.col = kw.col;
    view.name = Expect(TokenKind::kIdent).text;
    Expect(TokenKind::kAssign);
    if (Accept(TokenKind::kProject)) {
      view.op = AstViewOp::kProject;
      view.source = Expect(TokenKind::kIdent).text;
      Expect(TokenKind::kOn);
      Expect(TokenKind::kLParen);
      if (!At(TokenKind::kRParen)) {
        do {
          view.attrs.push_back(Expect(TokenKind::kIdent).text);
        } while (Accept(TokenKind::kComma));
      }
      Expect(TokenKind::kRParen);
    } else if (Accept(TokenKind::kSelect)) {
      view.op = AstViewOp::kSelect;
      view.source = Expect(TokenKind::kIdent).text;
    } else if (Accept(TokenKind::kRename)) {
      // view V = rename T (old as new, ...);
      view.op = AstViewOp::kRename;
      view.source = Expect(TokenKind::kIdent).text;
      Expect(TokenKind::kLParen);
      if (!At(TokenKind::kRParen)) {
        do {
          AstRename rename;
          rename.attribute = Expect(TokenKind::kIdent).text;
          Expect(TokenKind::kAs);
          rename.alias = Expect(TokenKind::kIdent).text;
          view.renames.push_back(std::move(rename));
        } while (Accept(TokenKind::kComma));
      }
      Expect(TokenKind::kRParen);
    } else if (Accept(TokenKind::kGeneralize)) {
      // view V = generalize A, B;
      view.op = AstViewOp::kGeneralize;
      view.source = Expect(TokenKind::kIdent).text;
      Expect(TokenKind::kComma);
      view.source2 = Expect(TokenKind::kIdent).text;
    } else {
      diags_.Error(Cur().line, Cur().col,
                   "expected 'project', 'select', 'rename' or 'generalize' "
                   "after '='");
      SyncPast(TokenKind::kSemicolon);
      return view;
    }
    Expect(TokenKind::kSemicolon);
    return view;
  }

  std::vector<AstStmtPtr> ParseBlock() {
    std::vector<AstStmtPtr> stmts;
    Expect(TokenKind::kLBrace);
    while (!At(TokenKind::kRBrace) && !At(TokenKind::kEnd)) {
      size_t before = pos_;
      stmts.push_back(ParseStmt());
      if (pos_ == before) Advance();
    }
    Expect(TokenKind::kRBrace);
    return stmts;
  }

  AstStmtPtr ParseStmt() {
    auto stmt = std::make_shared<AstStmt>();
    stmt->line = Cur().line;
    stmt->col = Cur().col;
    if (DepthExceeded()) {
      stmt->kind = AstStmtKind::kReturn;
      return stmt;
    }
    DepthScope depth(*this);
    if (Accept(TokenKind::kReturn)) {
      stmt->kind = AstStmtKind::kReturn;
      if (!At(TokenKind::kSemicolon)) stmt->expr = ParseExpr();
      Expect(TokenKind::kSemicolon);
      return stmt;
    }
    if (Accept(TokenKind::kIf)) {
      stmt->kind = AstStmtKind::kIf;
      Expect(TokenKind::kLParen);
      stmt->expr = ParseExpr();
      Expect(TokenKind::kRParen);
      stmt->then_body = ParseBlock();
      if (Accept(TokenKind::kElse)) stmt->else_body = ParseBlock();
      return stmt;
    }
    // IDENT ':' -> local declaration; IDENT '=' (not '==') -> assignment.
    if (At(TokenKind::kIdent) && Peek().kind == TokenKind::kColon) {
      stmt->kind = AstStmtKind::kVarDecl;
      stmt->var = Advance().text;
      Advance();  // ':'
      stmt->type_name = Expect(TokenKind::kIdent).text;
      if (Accept(TokenKind::kAssign)) stmt->expr = ParseExpr();
      Expect(TokenKind::kSemicolon);
      return stmt;
    }
    if (At(TokenKind::kIdent) && Peek().kind == TokenKind::kAssign) {
      stmt->kind = AstStmtKind::kAssign;
      stmt->var = Advance().text;
      Advance();  // '='
      stmt->expr = ParseExpr();
      Expect(TokenKind::kSemicolon);
      return stmt;
    }
    stmt->kind = AstStmtKind::kExprStmt;
    stmt->expr = ParseExpr();
    Expect(TokenKind::kSemicolon);
    return stmt;
  }

  AstExprPtr ParseExpr() {
    if (DepthExceeded()) {
      auto e = std::make_shared<AstExpr>();
      e->kind = AstExprKind::kInt;
      e->line = Cur().line;
      e->col = Cur().col;
      return e;
    }
    DepthScope depth(*this);
    return ParseOr();
  }

  AstExprPtr MakeBin(BinOpKind op, AstExprPtr lhs, AstExprPtr rhs) {
    auto e = std::make_shared<AstExpr>();
    e->kind = AstExprKind::kBinOp;
    e->op = op;
    e->line = lhs->line;
    e->col = lhs->col;
    e->children = {std::move(lhs), std::move(rhs)};
    return e;
  }

  AstExprPtr ParseOr() {
    AstExprPtr lhs = ParseAnd();
    while (Accept(TokenKind::kOr)) {
      lhs = MakeBin(BinOpKind::kOr, std::move(lhs), ParseAnd());
    }
    return lhs;
  }

  AstExprPtr ParseAnd() {
    AstExprPtr lhs = ParseCmp();
    while (Accept(TokenKind::kAnd)) {
      lhs = MakeBin(BinOpKind::kAnd, std::move(lhs), ParseCmp());
    }
    return lhs;
  }

  AstExprPtr ParseCmp() {
    AstExprPtr lhs = ParseAdd();
    if (Accept(TokenKind::kEqEq)) {
      return MakeBin(BinOpKind::kEq, std::move(lhs), ParseAdd());
    }
    if (Accept(TokenKind::kLt)) {
      return MakeBin(BinOpKind::kLt, std::move(lhs), ParseAdd());
    }
    if (Accept(TokenKind::kLe)) {
      return MakeBin(BinOpKind::kLe, std::move(lhs), ParseAdd());
    }
    return lhs;
  }

  AstExprPtr ParseAdd() {
    AstExprPtr lhs = ParseMul();
    for (;;) {
      if (Accept(TokenKind::kPlus)) {
        lhs = MakeBin(BinOpKind::kAdd, std::move(lhs), ParseMul());
      } else if (Accept(TokenKind::kMinus)) {
        lhs = MakeBin(BinOpKind::kSub, std::move(lhs), ParseMul());
      } else {
        return lhs;
      }
    }
  }

  AstExprPtr ParseMul() {
    AstExprPtr lhs = ParsePrimary();
    for (;;) {
      if (Accept(TokenKind::kStar)) {
        lhs = MakeBin(BinOpKind::kMul, std::move(lhs), ParsePrimary());
      } else if (Accept(TokenKind::kSlash)) {
        lhs = MakeBin(BinOpKind::kDiv, std::move(lhs), ParsePrimary());
      } else {
        return lhs;
      }
    }
  }

  AstExprPtr ParsePrimary() {
    auto e = std::make_shared<AstExpr>();
    e->line = Cur().line;
    e->col = Cur().col;
    switch (Cur().kind) {
      case TokenKind::kIntLit:
        e->kind = AstExprKind::kInt;
        e->int_val = Literal<int64_t>(Advance());
        return e;
      case TokenKind::kFloatLit:
        e->kind = AstExprKind::kFloat;
        e->float_val = Literal<double>(Advance());
        return e;
      case TokenKind::kStringLit:
        e->kind = AstExprKind::kString;
        e->str_val = Advance().text;
        return e;
      case TokenKind::kTrue:
        Advance();
        e->kind = AstExprKind::kBool;
        e->bool_val = true;
        return e;
      case TokenKind::kFalse:
        Advance();
        e->kind = AstExprKind::kBool;
        e->bool_val = false;
        return e;
      case TokenKind::kLParen: {
        Advance();
        AstExprPtr inner = ParseExpr();
        Expect(TokenKind::kRParen);
        return inner;
      }
      case TokenKind::kIdent: {
        std::string name = Advance().text;
        if (Accept(TokenKind::kLParen)) {
          e->kind = AstExprKind::kCall;
          e->text = std::move(name);
          if (!At(TokenKind::kRParen)) {
            do {
              e->children.push_back(ParseExpr());
            } while (Accept(TokenKind::kComma));
          }
          Expect(TokenKind::kRParen);
          return e;
        }
        e->kind = AstExprKind::kIdent;
        e->text = std::move(name);
        return e;
      }
      default:
        diags_.Error(Cur().line, Cur().col,
                     "expected an expression, found " +
                         std::string(TokenKindName(Cur().kind)));
        e->kind = AstExprKind::kInt;
        return e;
    }
  }

  std::vector<Token> tokens_;
  DiagnosticEngine& diags_;
  size_t pos_ = 0;
  int depth_ = 0;
  bool depth_reported_ = false;
};

}  // namespace

Result<AstSchema> ParseTdl(std::string_view source) {
  DiagnosticEngine diags;
  std::vector<Token> tokens = Lex(source, diags);
  AstSchema schema = Parser(std::move(tokens), diags).Run();
  TYDER_RETURN_IF_ERROR(diags.ToStatus());
  return schema;
}

Result<AstExprPtr> ParseTdlExpression(std::string_view source) {
  DiagnosticEngine diags;
  std::vector<Token> tokens = Lex(source, diags);
  AstExprPtr expr = Parser(std::move(tokens), diags).RunExpression();
  TYDER_RETURN_IF_ERROR(diags.ToStatus());
  return expr;
}

}  // namespace tyder
