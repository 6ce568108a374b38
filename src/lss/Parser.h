//===- Parser.h - LSS recursive-descent parser ------------------*- C++ -*-===//
///
/// \file
/// Parser for LSS specification files and for BSL userpoint bodies (which
/// share the statement/expression grammar plus `return`).
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_LSS_PARSER_H
#define LIBERTY_LSS_PARSER_H

#include "lss/AST.h"
#include "lss/Lexer.h"

namespace liberty {
namespace lss {

class Parser {
public:
  /// Parses buffer \p BufferId into \p Ctx. AST nodes live as long as Ctx
  /// and own their names: the token spellings they are copied from view
  /// the buffer and this parser's lexer, and never outlive the parse.
  Parser(uint32_t BufferId, ASTContext &Ctx, DiagnosticEngine &Diags);

  /// Parses a whole LSS file: module declarations + top-level statements.
  /// On error, diagnostics are reported and the returned SpecFile contains
  /// whatever parsed successfully. Each module body comes back resolved
  /// (lss/Resolver.h); the top-level statements are resolved by whoever
  /// runs them, since several files' statements form one body.
  SpecFile parseFile();

  /// Parses a BSL userpoint body: a bare statement list (with `return`).
  /// The caller resolves it.
  std::vector<Stmt *> parseBslBody();

private:
  // Token management.
  const Token &cur() const { return CurTok; }
  void consume();
  bool consumeIf(TokenKind K);
  bool expect(TokenKind K, const char *Context);
  void skipToRecoveryPoint();
  void ensureProgress(unsigned NumConsumedBefore);
  bool atMaxDepth(SourceLoc Loc);

  // Grammar productions.
  ModuleDecl *parseModuleDecl();
  Stmt *parseStmt();
  Stmt *parseParamDecl();
  Stmt *parsePortDecl(bool IsInput);
  Stmt *parseInstanceDecl();
  Stmt *parseVarDecl(bool IsRuntime);
  Stmt *parseEventDecl();
  Stmt *parseConstrain();
  Stmt *parseIf();
  Stmt *parseFor();
  Stmt *parseWhile();
  Stmt *parseBlock();
  Stmt *parseReturn();
  /// Assignment / connection / expression statement (shared by `for` headers
  /// which omit the trailing semicolon).
  Stmt *parseSimpleStmt(bool RequireSemicolon);

  Expr *parseExpr();
  Expr *parseBinaryRHS(int MinPrec, Expr *LHS);
  Expr *parseUnary();
  Expr *parsePostfix();
  Expr *parsePrimary();

  TypeExpr *parseTypeExpr();
  TypeExpr *parseTypePostfix();
  TypeExpr *parseTypeAtom();

  std::unique_ptr<UserpointSig> parseUserpointSig();

  ASTContext &Ctx;
  DiagnosticEngine &Diags;
  Lexer Lex;
  Token CurTok;
  /// Tokens consumed so far — the parse loops' forward-progress witness.
  unsigned NumConsumed = 0;
  /// Current recursion depth across the statement/expression/type
  /// productions. Recursive descent uses the call stack, so input nesting
  /// is capped (see atMaxDepth) to keep adversarial inputs from
  /// overflowing it.
  unsigned Depth = 0;
};

} // namespace lss
} // namespace liberty

#endif // LIBERTY_LSS_PARSER_H
