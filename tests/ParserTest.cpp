//===- ParserTest.cpp - LSS parser unit tests ----------------------------------===//

#include "lss/Parser.h"
#include "support/Casting.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace liberty;
using namespace liberty::lss;

namespace {

struct ParseResult {
  SourceMgr SM;
  DiagnosticEngine Diags{SM};
  ASTContext Ctx;
  SpecFile File;
};

std::unique_ptr<ParseResult> parse(const std::string &Src) {
  auto R = std::make_unique<ParseResult>();
  uint32_t Id = R->SM.addBuffer("test.lss", Src);
  Parser P(Id, R->Ctx, R->Diags);
  R->File = P.parseFile();
  return R;
}

std::string printStmt(const Stmt *S) {
  std::ostringstream OS;
  S->print(OS);
  return OS.str();
}

std::string printExpr(const Expr *E) {
  std::ostringstream OS;
  E->print(OS);
  return OS.str();
}

TEST(Parser, EmptyFile) {
  auto R = parse("");
  EXPECT_FALSE(R->Diags.hasErrors());
  EXPECT_TRUE(R->File.Modules.empty());
  EXPECT_TRUE(R->File.TopLevel.empty());
}

TEST(Parser, Figure5LeafModule) {
  auto R = parse(R"(
module delay {
  parameter initial_state = 0:int;
  inport in:int;
  outport out:int;
  tar_file="corelib/delay.tar";
};
)");
  ASSERT_FALSE(R->Diags.hasErrors());
  ASSERT_EQ(R->File.Modules.size(), 1u);
  const ModuleDecl *M = R->File.Modules[0];
  EXPECT_EQ(M->getName(), "delay");
  ASSERT_EQ(M->getBody().size(), 4u);

  const auto *P = dyn_cast<ParamDeclStmt>(M->getBody()[0]);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P->getName(), "initial_state");
  ASSERT_NE(P->getDefault(), nullptr);
  EXPECT_EQ(cast<IntLitExpr>(P->getDefault())->getValue(), 0);

  const auto *In = dyn_cast<PortDeclStmt>(M->getBody()[1]);
  ASSERT_NE(In, nullptr);
  EXPECT_TRUE(In->isInput());
  const auto *Out = dyn_cast<PortDeclStmt>(M->getBody()[2]);
  ASSERT_NE(Out, nullptr);
  EXPECT_FALSE(Out->isInput());

  EXPECT_TRUE(isa<AssignStmt>(M->getBody()[3]));
}

TEST(Parser, ParamColonTypeEqualsDefault) {
  auto R = parse("module m { parameter n:int = 4; };");
  ASSERT_FALSE(R->Diags.hasErrors());
  const auto *P = cast<ParamDeclStmt>(R->File.Modules[0]->getBody()[0]);
  ASSERT_NE(P->getDefault(), nullptr);
  EXPECT_EQ(cast<IntLitExpr>(P->getDefault())->getValue(), 4);
}

TEST(Parser, UserpointParameter) {
  auto R = parse(R"(
module m {
  parameter policy : userpoint(mask:int, last:int => int) = "return 0;";
};
)");
  ASSERT_FALSE(R->Diags.hasErrors());
  const auto *P = cast<ParamDeclStmt>(R->File.Modules[0]->getBody()[0]);
  ASSERT_TRUE(P->isUserpoint());
  const UserpointSig *Sig = P->getUserpointSig();
  ASSERT_EQ(Sig->Args.size(), 2u);
  EXPECT_EQ(Sig->Args[0].first, "mask");
  EXPECT_EQ(Sig->Args[1].first, "last");
  ASSERT_NE(Sig->Ret, nullptr);
  ASSERT_NE(P->getDefault(), nullptr);
}

TEST(Parser, UserpointNoArgs) {
  auto R = parse("module m { parameter f : userpoint(=> bool); };");
  ASSERT_FALSE(R->Diags.hasErrors());
  const auto *P = cast<ParamDeclStmt>(R->File.Modules[0]->getBody()[0]);
  ASSERT_TRUE(P->isUserpoint());
  EXPECT_TRUE(P->getUserpointSig()->Args.empty());
}

TEST(Parser, InstanceAndConnections) {
  auto R = parse(R"(
instance d1:delay;
instance d2:delay;
d1.initial_state = 1;
d1.out -> d2.in;
)");
  ASSERT_FALSE(R->Diags.hasErrors());
  ASSERT_EQ(R->File.TopLevel.size(), 4u);
  EXPECT_TRUE(isa<InstanceDeclStmt>(R->File.TopLevel[0]));
  EXPECT_TRUE(isa<AssignStmt>(R->File.TopLevel[2]));
  const auto *C = dyn_cast<ConnectStmt>(R->File.TopLevel[3]);
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(printExpr(C->getFrom()), "d1.out");
  EXPECT_EQ(printExpr(C->getTo()), "d2.in");
  EXPECT_EQ(C->getAnnotation(), nullptr);
}

TEST(Parser, ConnectionWithTypeAnnotation) {
  auto R = parse("a.out -> b.in : int[4];");
  ASSERT_FALSE(R->Diags.hasErrors());
  const auto *C = cast<ConnectStmt>(R->File.TopLevel[0]);
  ASSERT_NE(C->getAnnotation(), nullptr);
  EXPECT_EQ(C->getAnnotation()->getKind(), TypeExpr::Kind::Array);
}

TEST(Parser, NewInstanceArray) {
  auto R = parse(R"(
var delays:instance ref[];
delays = new instance[n](delay, "delays");
)");
  ASSERT_FALSE(R->Diags.hasErrors());
  const auto *V = cast<VarDeclStmt>(R->File.TopLevel[0]);
  EXPECT_EQ(V->getType()->getKind(), TypeExpr::Kind::Array);
  const auto *A = cast<AssignStmt>(R->File.TopLevel[1]);
  const auto *N = dyn_cast<NewInstanceArrayExpr>(A->getRHS());
  ASSERT_NE(N, nullptr);
  EXPECT_EQ(N->getModuleName(), "delay");
}

TEST(Parser, ForLoopFigure8) {
  auto R = parse("for(i=1;i<n;i=i+1) { delays[i-1].out -> delays[i].in; }");
  ASSERT_FALSE(R->Diags.hasErrors());
  const auto *F = dyn_cast<ForStmt>(R->File.TopLevel[0]);
  ASSERT_NE(F, nullptr);
  ASSERT_NE(F->getInit(), nullptr);
  ASSERT_NE(F->getCond(), nullptr);
  ASSERT_NE(F->getStep(), nullptr);
  const auto *Body = dyn_cast<BlockStmt>(F->getBody());
  ASSERT_NE(Body, nullptr);
  EXPECT_TRUE(isa<ConnectStmt>(Body->getBody()[0]));
}

TEST(Parser, ForLoopEmptyClauses) {
  auto R = parse("for(;;) { break; }");
  ASSERT_FALSE(R->Diags.hasErrors());
  const auto *F = cast<ForStmt>(R->File.TopLevel[0]);
  EXPECT_EQ(F->getInit(), nullptr);
  EXPECT_EQ(F->getCond(), nullptr);
  EXPECT_EQ(F->getStep(), nullptr);
}

TEST(Parser, IfElseChain) {
  auto R = parse("if (a < b) { x = 1; } else if (a > b) x = 2; else x = 3;");
  ASSERT_FALSE(R->Diags.hasErrors());
  const auto *I = cast<IfStmt>(R->File.TopLevel[0]);
  ASSERT_NE(I->getElse(), nullptr);
  EXPECT_TRUE(isa<IfStmt>(I->getElse()));
}

TEST(Parser, WhileAndContinue) {
  auto R = parse("while (i < 10) { i = i + 1; continue; }");
  ASSERT_FALSE(R->Diags.hasErrors());
  EXPECT_TRUE(isa<WhileStmt>(R->File.TopLevel[0]));
}

TEST(Parser, OperatorPrecedence) {
  auto R = parse("x = 1 + 2 * 3 - 4 / 2;");
  ASSERT_FALSE(R->Diags.hasErrors());
  const auto *A = cast<AssignStmt>(R->File.TopLevel[0]);
  EXPECT_EQ(printExpr(A->getRHS()), "((1 + (2 * 3)) - (4 / 2))");
}

TEST(Parser, LogicalPrecedence) {
  auto R = parse("x = a || b && c == d < e;");
  ASSERT_FALSE(R->Diags.hasErrors());
  const auto *A = cast<AssignStmt>(R->File.TopLevel[0]);
  EXPECT_EQ(printExpr(A->getRHS()), "(a || (b && (c == (d < e))))");
}

TEST(Parser, UnaryOperators) {
  auto R = parse("x = -a + !b;");
  ASSERT_FALSE(R->Diags.hasErrors());
  const auto *A = cast<AssignStmt>(R->File.TopLevel[0]);
  EXPECT_EQ(printExpr(A->getRHS()), "(-a + !b)");
}

TEST(Parser, CallExpressions) {
  auto R = parse("LSS_connect_bus(in, delays[0].in, width);");
  ASSERT_FALSE(R->Diags.hasErrors());
  const auto *E = cast<ExprStmt>(R->File.TopLevel[0]);
  const auto *C = dyn_cast<CallExpr>(E->getExpr());
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->getCallee(), "LSS_connect_bus");
  EXPECT_EQ(C->getArgs().size(), 3u);
}

TEST(Parser, TypeVarPorts) {
  auto R = parse("module m { inport in: 'a; outport out: 'a; };");
  ASSERT_FALSE(R->Diags.hasErrors());
  const auto *In = cast<PortDeclStmt>(R->File.Modules[0]->getBody()[0]);
  const auto *V = dyn_cast<VarTypeExpr>(In->getType());
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->getName(), "a");
}

TEST(Parser, DisjunctiveTypes) {
  auto R = parse("module m { inport a: int|float; inport b: (int | float | "
                 "string); };");
  ASSERT_FALSE(R->Diags.hasErrors());
  const auto *A = cast<PortDeclStmt>(R->File.Modules[0]->getBody()[0]);
  const auto *DA = dyn_cast<DisjunctTypeExpr>(A->getType());
  ASSERT_NE(DA, nullptr);
  EXPECT_EQ(DA->getAlternatives().size(), 2u);
  const auto *B = cast<PortDeclStmt>(R->File.Modules[0]->getBody()[1]);
  const auto *DB = dyn_cast<DisjunctTypeExpr>(B->getType());
  ASSERT_NE(DB, nullptr);
  EXPECT_EQ(DB->getAlternatives().size(), 3u);
}

TEST(Parser, StructTypes) {
  auto R = parse(
      "module m { inport t: struct{pc:int; op:int; data:float[2];}; };");
  ASSERT_FALSE(R->Diags.hasErrors());
  const auto *P = cast<PortDeclStmt>(R->File.Modules[0]->getBody()[0]);
  const auto *S = dyn_cast<StructTypeExpr>(P->getType());
  ASSERT_NE(S, nullptr);
  ASSERT_EQ(S->getFields().size(), 3u);
  EXPECT_EQ(S->getFields()[2].first, "data");
  EXPECT_EQ(S->getFields()[2].second->getKind(), TypeExpr::Kind::Array);
}

TEST(Parser, ArrayTypeWithExprExtent) {
  auto R = parse("module m { parameter n:int; inport v: int[n*2]; };");
  ASSERT_FALSE(R->Diags.hasErrors());
  const auto *P = cast<PortDeclStmt>(R->File.Modules[0]->getBody()[1]);
  const auto *A = cast<ArrayTypeExpr>(P->getType());
  ASSERT_NE(A->getSizeExpr(), nullptr);
}

TEST(Parser, ConstrainStatement) {
  auto R = parse("module m { inport a:'a; constrain 'a : (int|float); };");
  ASSERT_FALSE(R->Diags.hasErrors());
  const auto *C = dyn_cast<ConstrainStmt>(R->File.Modules[0]->getBody()[1]);
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->getVarName(), "a");
}

TEST(Parser, RuntimeVarAndEvent) {
  auto R = parse("module m { runtime var count:int = 0; event fired; };");
  ASSERT_FALSE(R->Diags.hasErrors());
  const auto *V = cast<VarDeclStmt>(R->File.Modules[0]->getBody()[0]);
  EXPECT_TRUE(V->isRuntime());
  EXPECT_TRUE(isa<EventDeclStmt>(R->File.Modules[0]->getBody()[1]));
}

TEST(Parser, ModuleTrailingSemicolonOptional) {
  auto R = parse("module a { } module b { };");
  EXPECT_FALSE(R->Diags.hasErrors());
  EXPECT_EQ(R->File.Modules.size(), 2u);
}

TEST(Parser, IndexedPortConnection) {
  auto R = parse("gen.out[3] -> chain.in[0];");
  ASSERT_FALSE(R->Diags.hasErrors());
  const auto *C = cast<ConnectStmt>(R->File.TopLevel[0]);
  EXPECT_EQ(printExpr(C->getFrom()), "gen.out[3]");
}

TEST(Parser, WidthMemberAccess) {
  auto R = parse("if (out.width < in.width) { x = in.width; }");
  EXPECT_FALSE(R->Diags.hasErrors());
}

TEST(Parser, ErrorRecoveryContinuesParsing) {
  auto R = parse(R"(
module good1 { inport a:int; };
module bad { inport : ; };
module good2 { outport b:int; };
)");
  EXPECT_TRUE(R->Diags.hasErrors());
  // Both well-formed modules survive.
  ASSERT_GE(R->File.Modules.size(), 2u);
  EXPECT_EQ(R->File.Modules.front()->getName(), "good1");
  EXPECT_EQ(R->File.Modules.back()->getName(), "good2");
}

TEST(Parser, MissingSemicolonDiagnosed) {
  auto R = parse("x = 1\ny = 2;");
  EXPECT_TRUE(R->Diags.hasErrors());
}

TEST(Parser, BslBodyWithReturn) {
  SourceMgr SM;
  DiagnosticEngine Diags(SM);
  ASTContext Ctx;
  uint32_t Id = SM.addBuffer("up.bsl", "var i:int; i = last + 1; return i;");
  Parser P(Id, Ctx, Diags);
  auto Body = P.parseBslBody();
  EXPECT_FALSE(Diags.hasErrors());
  ASSERT_EQ(Body.size(), 3u);
  EXPECT_TRUE(isa<ReturnStmt>(Body[2]));
}

TEST(Parser, AstOutlivesParserAndLexer) {
  // Tokens borrow their spellings from the buffer and the lexer; the AST
  // copies them. Parse, destroy the parser (and its lexer, which held the
  // decoded escaped literal) and the source buffer, then read the AST.
  ASTContext Ctx;
  SpecFile File;
  {
    SourceMgr SM;
    DiagnosticEngine Diags(SM);
    uint32_t Id = SM.addBuffer(
        "names.lss",
        "module a_rather_long_module_name {\n"
        "  parameter a_rather_long_parameter_name:int;\n"
        "  var s:string = \"tab\\there \\\"quoted\\\" and long enough\";\n"
        "};\n"
        "instance inst_with_long_name:a_rather_long_module_name;\n"
        "inst_with_long_name.a_rather_long_parameter_name = 3;\n");
    Parser P(Id, Ctx, Diags);
    File = P.parseFile();
    ASSERT_FALSE(Diags.hasErrors());
  }
  ASSERT_EQ(File.Modules.size(), 1u);
  const ModuleDecl *M = File.Modules[0];
  EXPECT_EQ(M->getName(), "a_rather_long_module_name");
  ASSERT_EQ(M->getBody().size(), 2u);
  EXPECT_EQ(cast<ParamDeclStmt>(M->getBody()[0])->getName(),
            "a_rather_long_parameter_name");
  const auto *V = cast<VarDeclStmt>(M->getBody()[1]);
  ASSERT_TRUE(V->getInit());
  EXPECT_EQ(cast<StringLitExpr>(V->getInit())->getValue(),
            "tab\there \"quoted\" and long enough");
  ASSERT_EQ(File.TopLevel.size(), 2u);
  const auto *I = cast<InstanceDeclStmt>(File.TopLevel[0]);
  EXPECT_EQ(I->getName(), "inst_with_long_name");
  EXPECT_EQ(I->getModuleName(), "a_rather_long_module_name");
  EXPECT_EQ(printStmt(File.TopLevel[1]),
            "inst_with_long_name.a_rather_long_parameter_name = 3;\n");
}

TEST(Parser, StmtPrintRoundTrip) {
  auto R = parse("module m { parameter n:int; inport in:'a; };");
  ASSERT_FALSE(R->Diags.hasErrors());
  EXPECT_EQ(printStmt(R->File.Modules[0]->getBody()[0]),
            "parameter n: int;\n");
  EXPECT_EQ(printStmt(R->File.Modules[0]->getBody()[1]),
            "inport in: 'a;\n");
}

} // namespace
