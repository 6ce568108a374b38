//===- Parser.cpp - LSS recursive-descent parser ---------------------------===//

#include "lss/Parser.h"

#include "lss/Resolver.h"
#include "support/Casting.h"

#include <cassert>

using namespace liberty;
using namespace liberty::lss;

Parser::Parser(uint32_t BufferId, ASTContext &Ctx, DiagnosticEngine &Diags)
    : Ctx(Ctx), Diags(Diags), Lex(BufferId, Diags) {
  CurTok = Lex.lex();
}

void Parser::consume() {
  CurTok = Lex.lex();
  ++NumConsumed;
}

/// Keywords that can only begin a declaration/statement — safe tokens to
/// resynchronize on after a parse error without consuming them.
static bool isDeclKeyword(TokenKind K) {
  switch (K) {
  case TokenKind::KwModule:
  case TokenKind::KwParameter:
  case TokenKind::KwInport:
  case TokenKind::KwOutport:
  case TokenKind::KwInstance:
  case TokenKind::KwVar:
  case TokenKind::KwRuntime:
  case TokenKind::KwEvent:
  case TokenKind::KwConstrain:
    return true;
  default:
    return false;
  }
}

namespace {
/// RAII increment of the parser's recursion-depth counter.
struct DepthGuard {
  unsigned &Depth;
  explicit DepthGuard(unsigned &Depth) : Depth(Depth) { ++Depth; }
  ~DepthGuard() { --Depth; }
};
} // namespace

/// The recursive-descent productions consume call stack proportional to the
/// input's nesting depth, so depth is bounded: past the cap the offending
/// construct is diagnosed and panic-mode recovery takes over. 512 levels is
/// far beyond any real specification (fuzzers reach it routinely —
/// fuzz/regressions/deep-nesting.lss).
static constexpr unsigned MaxNestingDepth = 512;

bool Parser::atMaxDepth(SourceLoc Loc) {
  if (Depth <= MaxNestingDepth)
    return false;
  Diags.error(Loc, "construct nested more than " +
                       std::to_string(MaxNestingDepth) +
                       " levels deep; simplify the input");
  return true;
}

bool Parser::consumeIf(TokenKind K) {
  if (!cur().is(K))
    return false;
  consume();
  return true;
}

bool Parser::expect(TokenKind K, const char *Context) {
  if (consumeIf(K))
    return true;
  Diags.error(cur().Loc, std::string("expected ") + tokenKindName(K) +
                             " in " + Context + ", found " +
                             tokenKindName(cur().Kind));
  return false;
}

/// Panic-mode recovery: skips tokens until just past the next ';', or up to
/// (not past) a '}', a declaration keyword, or EOF. Syncing on declaration
/// keywords means one bad statement costs at most the tokens up to the next
/// declaration, so a single malformed line still yields diagnostics for
/// everything after it. When tokens were actually discarded, a note marks
/// where parsing resumed.
void Parser::skipToRecoveryPoint() {
  unsigned Discarded = 0;
  auto NoteResume = [&] {
    if (Discarded >= 2)
      Diags.note(cur().Loc, "discarded " + std::to_string(Discarded) +
                                " tokens while recovering; parsing resumed "
                                "here");
  };
  while (!cur().is(TokenKind::Eof)) {
    if (cur().is(TokenKind::Semicolon)) {
      consume();
      ++Discarded;
      NoteResume();
      return;
    }
    if (cur().is(TokenKind::RBrace) || isDeclKeyword(cur().Kind)) {
      NoteResume();
      return;
    }
    consume();
    ++Discarded;
  }
}

SpecFile Parser::parseFile() {
  SpecFile File;
  while (!cur().is(TokenKind::Eof) && !Diags.errorLimitReached()) {
    unsigned Before = NumConsumed;
    if (cur().is(TokenKind::KwModule)) {
      if (ModuleDecl *M = parseModuleDecl())
        File.Modules.push_back(M);
    } else if (Stmt *S = parseStmt()) {
      File.TopLevel.push_back(S);
    }
    ensureProgress(Before);
  }
  return File;
}

std::vector<Stmt *> Parser::parseBslBody() {
  std::vector<Stmt *> Body;
  while (!cur().is(TokenKind::Eof) && !Diags.errorLimitReached()) {
    unsigned Before = NumConsumed;
    if (Stmt *S = parseStmt())
      Body.push_back(S);
    ensureProgress(Before);
  }
  return Body;
}

/// Guarantees forward progress in a parse loop: if the last production
/// neither consumed a token nor will the loop's own condition end (e.g. a
/// stray '}' at the top level that every recovery point refuses to eat),
/// diagnose and consume the offender. Without this a single unexpected
/// token could stall parseFile forever.
void Parser::ensureProgress(unsigned NumConsumedBefore) {
  if (NumConsumed != NumConsumedBefore || cur().is(TokenKind::Eof))
    return;
  Diags.error(cur().Loc, std::string("unexpected ") +
                             tokenKindName(cur().Kind) + "; skipping it");
  consume();
}

ModuleDecl *Parser::parseModuleDecl() {
  SourceLoc Loc = cur().Loc;
  assert(cur().is(TokenKind::KwModule));
  consume();
  if (!cur().is(TokenKind::Identifier)) {
    Diags.error(cur().Loc, "expected module name after 'module'");
    skipToRecoveryPoint();
    return nullptr;
  }
  std::string_view Name = cur().Spelling;
  consume();
  if (!expect(TokenKind::LBrace, "module declaration")) {
    skipToRecoveryPoint();
    return nullptr;
  }
  std::vector<Stmt *> Body;
  while (!cur().is(TokenKind::RBrace) && !cur().is(TokenKind::Eof) &&
         !Diags.errorLimitReached()) {
    unsigned Before = NumConsumed;
    if (Stmt *S = parseStmt())
      Body.push_back(S);
    ensureProgress(Before);
  }
  expect(TokenKind::RBrace, "module declaration");
  consumeIf(TokenKind::Semicolon); // Trailing ';' is optional.
  auto *M = Ctx.create<ModuleDecl>(Name, std::move(Body), Loc);
  // Resolved here, before the module can be shared between compiles.
  resolveBody(M->getBody(), M->getLayoutMutable());
  return M;
}

Stmt *Parser::parseStmt() {
  DepthGuard Guard(Depth);
  if (atMaxDepth(cur().Loc))
    return nullptr;
  switch (cur().Kind) {
  case TokenKind::KwParameter:
    return parseParamDecl();
  case TokenKind::KwInport:
    return parsePortDecl(/*IsInput=*/true);
  case TokenKind::KwOutport:
    return parsePortDecl(/*IsInput=*/false);
  case TokenKind::KwInstance:
    return parseInstanceDecl();
  case TokenKind::KwVar:
    consume();
    return parseVarDecl(/*IsRuntime=*/false);
  case TokenKind::KwRuntime: {
    consume();
    if (!expect(TokenKind::KwVar, "runtime variable declaration")) {
      skipToRecoveryPoint();
      return nullptr;
    }
    return parseVarDecl(/*IsRuntime=*/true);
  }
  case TokenKind::KwEvent:
    return parseEventDecl();
  case TokenKind::KwConstrain:
    return parseConstrain();
  case TokenKind::KwIf:
    return parseIf();
  case TokenKind::KwFor:
    return parseFor();
  case TokenKind::KwWhile:
    return parseWhile();
  case TokenKind::LBrace:
    return parseBlock();
  case TokenKind::KwReturn:
    return parseReturn();
  case TokenKind::KwBreak: {
    SourceLoc Loc = cur().Loc;
    consume();
    expect(TokenKind::Semicolon, "break statement");
    return Ctx.create<BreakStmt>(Loc);
  }
  case TokenKind::KwContinue: {
    SourceLoc Loc = cur().Loc;
    consume();
    expect(TokenKind::Semicolon, "continue statement");
    return Ctx.create<ContinueStmt>(Loc);
  }
  case TokenKind::Semicolon:
    consume(); // Stray empty statement.
    return nullptr;
  default:
    return parseSimpleStmt(/*RequireSemicolon=*/true);
  }
}

Stmt *Parser::parseParamDecl() {
  SourceLoc Loc = cur().Loc;
  assert(cur().is(TokenKind::KwParameter));
  consume();
  if (!cur().is(TokenKind::Identifier)) {
    Diags.error(cur().Loc, "expected parameter name");
    skipToRecoveryPoint();
    return nullptr;
  }
  std::string_view Name = cur().Spelling;
  consume();

  TypeExpr *Ty = nullptr;
  Expr *Default = nullptr;
  std::unique_ptr<UserpointSig> Sig;

  if (consumeIf(TokenKind::Assign)) {
    // Figure 5 syntax: parameter name = default : type;
    Default = parseExpr();
    if (!Default || !expect(TokenKind::Colon, "parameter declaration")) {
      skipToRecoveryPoint();
      return nullptr;
    }
    Ty = parseTypeExpr();
  } else if (consumeIf(TokenKind::Colon)) {
    if (cur().is(TokenKind::KwUserpoint)) {
      Sig = parseUserpointSig();
      if (!Sig) {
        skipToRecoveryPoint();
        return nullptr;
      }
      if (consumeIf(TokenKind::Assign))
        Default = parseExpr();
    } else {
      Ty = parseTypeExpr();
      if (consumeIf(TokenKind::Assign))
        Default = parseExpr();
    }
  } else {
    Diags.error(cur().Loc, "expected ':' or '=' in parameter declaration");
    skipToRecoveryPoint();
    return nullptr;
  }
  if (!Sig && !Ty) {
    skipToRecoveryPoint();
    return nullptr;
  }
  expect(TokenKind::Semicolon, "parameter declaration");
  return Ctx.create<ParamDeclStmt>(Name, Ty, Default, std::move(Sig), Loc);
}

std::unique_ptr<UserpointSig> Parser::parseUserpointSig() {
  assert(cur().is(TokenKind::KwUserpoint));
  consume();
  if (!expect(TokenKind::LParen, "userpoint signature"))
    return nullptr;
  auto Sig = std::make_unique<UserpointSig>();
  if (!cur().is(TokenKind::FatArrow)) {
    while (true) {
      if (!cur().is(TokenKind::Identifier)) {
        Diags.error(cur().Loc, "expected argument name in userpoint signature");
        return nullptr;
      }
      std::string_view ArgName = cur().Spelling;
      consume();
      if (!expect(TokenKind::Colon, "userpoint signature"))
        return nullptr;
      TypeExpr *ArgTy = parseTypeExpr();
      if (!ArgTy)
        return nullptr;
      Sig->Args.emplace_back(ArgName, ArgTy);
      if (!consumeIf(TokenKind::Comma))
        break;
    }
  }
  if (!expect(TokenKind::FatArrow, "userpoint signature"))
    return nullptr;
  Sig->Ret = parseTypeExpr();
  if (!Sig->Ret)
    return nullptr;
  if (!expect(TokenKind::RParen, "userpoint signature"))
    return nullptr;
  return Sig;
}

Stmt *Parser::parsePortDecl(bool IsInput) {
  SourceLoc Loc = cur().Loc;
  consume();
  if (!cur().is(TokenKind::Identifier)) {
    Diags.error(cur().Loc, "expected port name");
    skipToRecoveryPoint();
    return nullptr;
  }
  std::string_view Name = cur().Spelling;
  consume();
  if (!expect(TokenKind::Colon, "port declaration")) {
    skipToRecoveryPoint();
    return nullptr;
  }
  TypeExpr *Ty = parseTypeExpr();
  if (!Ty) {
    skipToRecoveryPoint();
    return nullptr;
  }
  expect(TokenKind::Semicolon, "port declaration");
  return Ctx.create<PortDeclStmt>(IsInput, Name, Ty, Loc);
}

Stmt *Parser::parseInstanceDecl() {
  SourceLoc Loc = cur().Loc;
  assert(cur().is(TokenKind::KwInstance));
  consume();
  if (!cur().is(TokenKind::Identifier)) {
    Diags.error(cur().Loc, "expected instance name");
    skipToRecoveryPoint();
    return nullptr;
  }
  std::string_view Name = cur().Spelling;
  consume();
  if (!expect(TokenKind::Colon, "instance declaration")) {
    skipToRecoveryPoint();
    return nullptr;
  }
  if (!cur().is(TokenKind::Identifier)) {
    Diags.error(cur().Loc, "expected module name in instance declaration");
    skipToRecoveryPoint();
    return nullptr;
  }
  std::string_view ModuleName = cur().Spelling;
  consume();
  expect(TokenKind::Semicolon, "instance declaration");
  return Ctx.create<InstanceDeclStmt>(Name, ModuleName, Loc);
}

Stmt *Parser::parseVarDecl(bool IsRuntime) {
  SourceLoc Loc = cur().Loc;
  if (!cur().is(TokenKind::Identifier)) {
    Diags.error(cur().Loc, "expected variable name");
    skipToRecoveryPoint();
    return nullptr;
  }
  std::string_view Name = cur().Spelling;
  consume();
  if (!expect(TokenKind::Colon, "variable declaration")) {
    skipToRecoveryPoint();
    return nullptr;
  }
  TypeExpr *Ty = parseTypeExpr();
  if (!Ty) {
    skipToRecoveryPoint();
    return nullptr;
  }
  Expr *Init = nullptr;
  if (consumeIf(TokenKind::Assign)) {
    Init = parseExpr();
    if (!Init) {
      skipToRecoveryPoint();
      return nullptr;
    }
  }
  expect(TokenKind::Semicolon, "variable declaration");
  return Ctx.create<VarDeclStmt>(Name, Ty, Init, IsRuntime, Loc);
}

Stmt *Parser::parseEventDecl() {
  SourceLoc Loc = cur().Loc;
  assert(cur().is(TokenKind::KwEvent));
  consume();
  if (!cur().is(TokenKind::Identifier)) {
    Diags.error(cur().Loc, "expected event name");
    skipToRecoveryPoint();
    return nullptr;
  }
  std::string_view Name = cur().Spelling;
  consume();
  expect(TokenKind::Semicolon, "event declaration");
  return Ctx.create<EventDeclStmt>(Name, Loc);
}

Stmt *Parser::parseConstrain() {
  SourceLoc Loc = cur().Loc;
  assert(cur().is(TokenKind::KwConstrain));
  consume();
  if (!cur().is(TokenKind::TypeVar)) {
    Diags.error(cur().Loc, "expected type variable after 'constrain'");
    skipToRecoveryPoint();
    return nullptr;
  }
  std::string_view VarName = cur().Spelling;
  consume();
  if (!expect(TokenKind::Colon, "constrain statement")) {
    skipToRecoveryPoint();
    return nullptr;
  }
  TypeExpr *Scheme = parseTypeExpr();
  if (!Scheme) {
    skipToRecoveryPoint();
    return nullptr;
  }
  expect(TokenKind::Semicolon, "constrain statement");
  return Ctx.create<ConstrainStmt>(VarName, Scheme, Loc);
}

Stmt *Parser::parseIf() {
  SourceLoc Loc = cur().Loc;
  assert(cur().is(TokenKind::KwIf));
  consume();
  if (!expect(TokenKind::LParen, "if statement")) {
    skipToRecoveryPoint();
    return nullptr;
  }
  Expr *Cond = parseExpr();
  if (!Cond || !expect(TokenKind::RParen, "if statement")) {
    skipToRecoveryPoint();
    return nullptr;
  }
  Stmt *Then = parseStmt();
  if (!Then)
    return nullptr;
  Stmt *Else = nullptr;
  if (consumeIf(TokenKind::KwElse)) {
    Else = parseStmt();
    if (!Else)
      return nullptr;
  }
  return Ctx.create<IfStmt>(Cond, Then, Else, Loc);
}

Stmt *Parser::parseFor() {
  SourceLoc Loc = cur().Loc;
  assert(cur().is(TokenKind::KwFor));
  consume();
  if (!expect(TokenKind::LParen, "for statement")) {
    skipToRecoveryPoint();
    return nullptr;
  }
  Stmt *Init = nullptr;
  if (!cur().is(TokenKind::Semicolon))
    Init = parseSimpleStmt(/*RequireSemicolon=*/false);
  if (!expect(TokenKind::Semicolon, "for statement")) {
    skipToRecoveryPoint();
    return nullptr;
  }
  Expr *Cond = nullptr;
  if (!cur().is(TokenKind::Semicolon)) {
    Cond = parseExpr();
    if (!Cond) {
      skipToRecoveryPoint();
      return nullptr;
    }
  }
  if (!expect(TokenKind::Semicolon, "for statement")) {
    skipToRecoveryPoint();
    return nullptr;
  }
  Stmt *Step = nullptr;
  if (!cur().is(TokenKind::RParen))
    Step = parseSimpleStmt(/*RequireSemicolon=*/false);
  if (!expect(TokenKind::RParen, "for statement")) {
    skipToRecoveryPoint();
    return nullptr;
  }
  Stmt *Body = parseStmt();
  if (!Body)
    return nullptr;
  return Ctx.create<ForStmt>(Init, Cond, Step, Body, Loc);
}

Stmt *Parser::parseWhile() {
  SourceLoc Loc = cur().Loc;
  assert(cur().is(TokenKind::KwWhile));
  consume();
  if (!expect(TokenKind::LParen, "while statement")) {
    skipToRecoveryPoint();
    return nullptr;
  }
  Expr *Cond = parseExpr();
  if (!Cond || !expect(TokenKind::RParen, "while statement")) {
    skipToRecoveryPoint();
    return nullptr;
  }
  Stmt *Body = parseStmt();
  if (!Body)
    return nullptr;
  return Ctx.create<WhileStmt>(Cond, Body, Loc);
}

Stmt *Parser::parseBlock() {
  SourceLoc Loc = cur().Loc;
  assert(cur().is(TokenKind::LBrace));
  consume();
  std::vector<Stmt *> Body;
  while (!cur().is(TokenKind::RBrace) && !cur().is(TokenKind::Eof) &&
         !Diags.errorLimitReached()) {
    unsigned Before = NumConsumed;
    if (Stmt *S = parseStmt())
      Body.push_back(S);
    ensureProgress(Before);
  }
  expect(TokenKind::RBrace, "block");
  return Ctx.create<BlockStmt>(std::move(Body), Loc);
}

Stmt *Parser::parseReturn() {
  SourceLoc Loc = cur().Loc;
  assert(cur().is(TokenKind::KwReturn));
  consume();
  Expr *Value = nullptr;
  if (!cur().is(TokenKind::Semicolon)) {
    Value = parseExpr();
    if (!Value) {
      skipToRecoveryPoint();
      return nullptr;
    }
  }
  expect(TokenKind::Semicolon, "return statement");
  return Ctx.create<ReturnStmt>(Value, Loc);
}

Stmt *Parser::parseSimpleStmt(bool RequireSemicolon) {
  SourceLoc Loc = cur().Loc;
  Expr *LHS = parseExpr();
  if (!LHS) {
    skipToRecoveryPoint();
    return nullptr;
  }
  Stmt *Result = nullptr;
  if (consumeIf(TokenKind::Assign)) {
    Expr *RHS = parseExpr();
    if (!RHS) {
      skipToRecoveryPoint();
      return nullptr;
    }
    Result = Ctx.create<AssignStmt>(LHS, RHS, Loc);
  } else if (consumeIf(TokenKind::Arrow)) {
    Expr *To = parseExpr();
    if (!To) {
      skipToRecoveryPoint();
      return nullptr;
    }
    TypeExpr *Annotation = nullptr;
    if (consumeIf(TokenKind::Colon)) {
      Annotation = parseTypeExpr();
      if (!Annotation) {
        skipToRecoveryPoint();
        return nullptr;
      }
    }
    Result = Ctx.create<ConnectStmt>(LHS, To, Annotation, Loc);
  } else {
    Result = Ctx.create<ExprStmt>(LHS, Loc);
  }
  if (RequireSemicolon)
    expect(TokenKind::Semicolon, "statement");
  return Result;
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

/// Binding strengths for the binary operators; higher binds tighter.
static int binaryPrecedence(TokenKind K) {
  switch (K) {
  case TokenKind::PipePipe:
    return 1;
  case TokenKind::AmpAmp:
    return 2;
  case TokenKind::EqEq:
  case TokenKind::NotEq:
    return 3;
  case TokenKind::Less:
  case TokenKind::Greater:
  case TokenKind::LessEq:
  case TokenKind::GreaterEq:
    return 4;
  case TokenKind::Plus:
  case TokenKind::Minus:
    return 5;
  case TokenKind::Star:
  case TokenKind::Slash:
  case TokenKind::Percent:
    return 6;
  default:
    return -1;
  }
}

static BinaryOp binaryOpFor(TokenKind K) {
  switch (K) {
  case TokenKind::PipePipe:
    return BinaryOp::Or;
  case TokenKind::AmpAmp:
    return BinaryOp::And;
  case TokenKind::EqEq:
    return BinaryOp::Eq;
  case TokenKind::NotEq:
    return BinaryOp::Ne;
  case TokenKind::Less:
    return BinaryOp::Lt;
  case TokenKind::Greater:
    return BinaryOp::Gt;
  case TokenKind::LessEq:
    return BinaryOp::Le;
  case TokenKind::GreaterEq:
    return BinaryOp::Ge;
  case TokenKind::Plus:
    return BinaryOp::Add;
  case TokenKind::Minus:
    return BinaryOp::Sub;
  case TokenKind::Star:
    return BinaryOp::Mul;
  case TokenKind::Slash:
    return BinaryOp::Div;
  case TokenKind::Percent:
    return BinaryOp::Rem;
  default:
    assert(false && "not a binary operator");
    return BinaryOp::Add;
  }
}

Expr *Parser::parseExpr() {
  Expr *LHS = parseUnary();
  if (!LHS)
    return nullptr;
  return parseBinaryRHS(1, LHS);
}

Expr *Parser::parseBinaryRHS(int MinPrec, Expr *LHS) {
  while (true) {
    int Prec = binaryPrecedence(cur().Kind);
    if (Prec < MinPrec)
      return LHS;
    TokenKind OpKind = cur().Kind;
    SourceLoc OpLoc = cur().Loc;
    consume();
    Expr *RHS = parseUnary();
    if (!RHS)
      return nullptr;
    int NextPrec = binaryPrecedence(cur().Kind);
    if (NextPrec > Prec) {
      RHS = parseBinaryRHS(Prec + 1, RHS);
      if (!RHS)
        return nullptr;
    }
    LHS = Ctx.create<BinaryExpr>(binaryOpFor(OpKind), LHS, RHS, OpLoc);
  }
}

Expr *Parser::parseUnary() {
  // The depth guard lives here rather than in parseExpr: unary chains
  // (`!!…!x`) recurse through parseUnary directly, and every other
  // expression recursion (parens, calls, indices) passes through it too.
  DepthGuard Guard(Depth);
  if (atMaxDepth(cur().Loc))
    return nullptr;
  if (cur().is(TokenKind::Minus)) {
    SourceLoc Loc = cur().Loc;
    consume();
    Expr *Operand = parseUnary();
    if (!Operand)
      return nullptr;
    return Ctx.create<UnaryExpr>(UnaryOp::Neg, Operand, Loc);
  }
  if (cur().is(TokenKind::Not)) {
    SourceLoc Loc = cur().Loc;
    consume();
    Expr *Operand = parseUnary();
    if (!Operand)
      return nullptr;
    return Ctx.create<UnaryExpr>(UnaryOp::Not, Operand, Loc);
  }
  return parsePostfix();
}

Expr *Parser::parsePostfix() {
  Expr *E = parsePrimary();
  if (!E)
    return nullptr;
  while (true) {
    if (cur().is(TokenKind::Dot)) {
      SourceLoc Loc = cur().Loc;
      consume();
      if (!cur().is(TokenKind::Identifier)) {
        Diags.error(cur().Loc, "expected member name after '.'");
        return nullptr;
      }
      std::string_view Member = cur().Spelling;
      consume();
      E = Ctx.create<MemberExpr>(E, Member, Loc);
      continue;
    }
    if (cur().is(TokenKind::LBracket)) {
      SourceLoc Loc = cur().Loc;
      consume();
      Expr *Index = parseExpr();
      if (!Index || !expect(TokenKind::RBracket, "index expression"))
        return nullptr;
      E = Ctx.create<IndexExpr>(E, Index, Loc);
      continue;
    }
    return E;
  }
}

Expr *Parser::parsePrimary() {
  SourceLoc Loc = cur().Loc;
  switch (cur().Kind) {
  case TokenKind::IntLiteral: {
    int64_t V = cur().IntValue;
    consume();
    return Ctx.create<IntLitExpr>(V, Loc);
  }
  case TokenKind::FloatLiteral: {
    double V = cur().FloatValue;
    consume();
    return Ctx.create<FloatLitExpr>(V, Loc);
  }
  case TokenKind::StringLiteral: {
    std::string_view V = cur().Spelling;
    consume();
    return Ctx.create<StringLitExpr>(V, Loc);
  }
  case TokenKind::KwTrue:
    consume();
    return Ctx.create<BoolLitExpr>(true, Loc);
  case TokenKind::KwFalse:
    consume();
    return Ctx.create<BoolLitExpr>(false, Loc);
  case TokenKind::Identifier: {
    std::string_view Name = cur().Spelling;
    consume();
    if (cur().is(TokenKind::LParen)) {
      consume();
      std::vector<Expr *> Args;
      if (!cur().is(TokenKind::RParen)) {
        while (true) {
          Expr *Arg = parseExpr();
          if (!Arg)
            return nullptr;
          Args.push_back(Arg);
          if (!consumeIf(TokenKind::Comma))
            break;
        }
      }
      if (!expect(TokenKind::RParen, "call expression"))
        return nullptr;
      return Ctx.create<CallExpr>(Name, std::move(Args), Loc);
    }
    return Ctx.create<IdentExpr>(Name, Loc);
  }
  case TokenKind::LParen: {
    consume();
    Expr *E = parseExpr();
    if (!E || !expect(TokenKind::RParen, "parenthesized expression"))
      return nullptr;
    return E;
  }
  case TokenKind::KwInt:
  case TokenKind::KwFloat:
  case TokenKind::KwBool:
  case TokenKind::KwString: {
    // Conversion calls spell the type keyword: int(x), float(x), str-like.
    std::string_view Name = cur().is(TokenKind::KwInt)     ? "int"
                            : cur().is(TokenKind::KwFloat) ? "float"
                            : cur().is(TokenKind::KwBool)  ? "bool"
                                                           : "string";
    consume();
    if (!expect(TokenKind::LParen, "conversion call"))
      return nullptr;
    Expr *Arg = parseExpr();
    if (!Arg || !expect(TokenKind::RParen, "conversion call"))
      return nullptr;
    return Ctx.create<CallExpr>(Name, std::vector<Expr *>{Arg}, Loc);
  }
  case TokenKind::KwNew: {
    consume();
    if (!expect(TokenKind::KwInstance, "new-instance expression"))
      return nullptr;
    if (!expect(TokenKind::LBracket, "new-instance expression"))
      return nullptr;
    Expr *Size = parseExpr();
    if (!Size || !expect(TokenKind::RBracket, "new-instance expression"))
      return nullptr;
    if (!expect(TokenKind::LParen, "new-instance expression"))
      return nullptr;
    if (!cur().is(TokenKind::Identifier)) {
      Diags.error(cur().Loc, "expected module name in new-instance expression");
      return nullptr;
    }
    std::string_view ModuleName = cur().Spelling;
    consume();
    if (!expect(TokenKind::Comma, "new-instance expression"))
      return nullptr;
    Expr *NameExpr = parseExpr();
    if (!NameExpr || !expect(TokenKind::RParen, "new-instance expression"))
      return nullptr;
    return Ctx.create<NewInstanceArrayExpr>(Size, ModuleName, NameExpr, Loc);
  }
  default:
    Diags.error(Loc, std::string("expected expression, found ") +
                         tokenKindName(cur().Kind));
    return nullptr;
  }
}

//===----------------------------------------------------------------------===//
// Type expressions
//===----------------------------------------------------------------------===//

TypeExpr *Parser::parseTypeExpr() {
  DepthGuard Guard(Depth);
  if (atMaxDepth(cur().Loc))
    return nullptr;
  SourceLoc Loc = cur().Loc;
  TypeExpr *First = parseTypePostfix();
  if (!First)
    return nullptr;
  if (!cur().is(TokenKind::Pipe))
    return First;
  std::vector<TypeExpr *> Alts;
  Alts.push_back(First);
  while (consumeIf(TokenKind::Pipe)) {
    TypeExpr *Alt = parseTypePostfix();
    if (!Alt)
      return nullptr;
    Alts.push_back(Alt);
  }
  return Ctx.create<DisjunctTypeExpr>(std::move(Alts), Loc);
}

TypeExpr *Parser::parseTypePostfix() {
  TypeExpr *T = parseTypeAtom();
  if (!T)
    return nullptr;
  while (cur().is(TokenKind::LBracket)) {
    SourceLoc Loc = cur().Loc;
    consume();
    Expr *Size = nullptr;
    if (!cur().is(TokenKind::RBracket)) {
      Size = parseExpr();
      if (!Size)
        return nullptr;
    }
    if (!expect(TokenKind::RBracket, "array type"))
      return nullptr;
    T = Ctx.create<ArrayTypeExpr>(T, Size, Loc);
  }
  return T;
}

TypeExpr *Parser::parseTypeAtom() {
  SourceLoc Loc = cur().Loc;
  switch (cur().Kind) {
  case TokenKind::KwInt:
    consume();
    return Ctx.create<BasicTypeExpr>(BasicTypeExpr::Basic::Int, Loc);
  case TokenKind::KwBool:
    consume();
    return Ctx.create<BasicTypeExpr>(BasicTypeExpr::Basic::Bool, Loc);
  case TokenKind::KwFloat:
    consume();
    return Ctx.create<BasicTypeExpr>(BasicTypeExpr::Basic::Float, Loc);
  case TokenKind::KwString:
    consume();
    return Ctx.create<BasicTypeExpr>(BasicTypeExpr::Basic::String, Loc);
  case TokenKind::TypeVar: {
    std::string_view Name = cur().Spelling;
    consume();
    return Ctx.create<VarTypeExpr>(Name, Loc);
  }
  case TokenKind::KwStruct: {
    consume();
    if (!expect(TokenKind::LBrace, "struct type"))
      return nullptr;
    std::vector<StructTypeExpr::Field> Fields;
    while (!cur().is(TokenKind::RBrace) && !cur().is(TokenKind::Eof)) {
      if (!cur().is(TokenKind::Identifier)) {
        Diags.error(cur().Loc, "expected field name in struct type");
        return nullptr;
      }
      std::string_view FieldName = cur().Spelling;
      consume();
      if (!expect(TokenKind::Colon, "struct type"))
        return nullptr;
      TypeExpr *FieldTy = parseTypeExpr();
      if (!FieldTy)
        return nullptr;
      Fields.emplace_back(FieldName, FieldTy);
      if (!consumeIf(TokenKind::Semicolon))
        break;
    }
    if (!expect(TokenKind::RBrace, "struct type"))
      return nullptr;
    return Ctx.create<StructTypeExpr>(std::move(Fields), Loc);
  }
  case TokenKind::KwInstance: {
    consume();
    if (!expect(TokenKind::KwRef, "instance-ref type"))
      return nullptr;
    return Ctx.create<InstanceRefTypeExpr>(Loc);
  }
  case TokenKind::LParen: {
    consume();
    TypeExpr *T = parseTypeExpr();
    if (!T || !expect(TokenKind::RParen, "parenthesized type"))
      return nullptr;
    return T;
  }
  default:
    Diags.error(Loc, std::string("expected type, found ") +
                         tokenKindName(cur().Kind));
    return nullptr;
  }
}
