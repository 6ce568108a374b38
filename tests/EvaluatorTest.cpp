//===- EvaluatorTest.cpp - Module bodies and userpoints agree -------------===//
///
/// Module bodies and userpoint code run on one evaluator core. Each
/// snippet below runs twice: as a module body that prints its result, and
/// as userpoint code that returns it. Both must give the expected value
/// and the same diagnostics.
///
//===----------------------------------------------------------------------===//

#include "bsl/BslProgram.h"
#include "driver/Compiler.h"
#include "interp/Interpreter.h"

#include <gtest/gtest.h>

using namespace liberty;
using interp::Value;

namespace {

struct Snippet {
  const char *Stmts;    ///< Statements run first (may be empty).
  const char *Expr;     ///< The result expression.
  const char *Expected; ///< Its rendering, as print() writes it.
};

const Snippet Snippets[] = {
    // int/float promotion.
    {"", "7 / 2", "3"},
    {"", "7.0 / 2", "3.5"},
    {"", "1 + 2.5", "3.5"},
    {"", "2 == 2.0", "true"},
    {"", "3 < 2.5", "false"},
    {"", "1 / 0", "<unset>"},
    {"", "\"a\" + 1", "<unset>"},
    // Short-circuit && and ||.
    {"", "false && nope", "false"},
    {"", "true || nope", "true"},
    {"", "true && nope", "<unset>"},
    {"", "1 && true", "<unset>"},
    // Indexing and members.
    {"var a:int[3] = array(3, 7);", "a[1]", "7"},
    {"var a:int[3] = array(3, 7);", "a[3]", "<unset>"},
    {"var a:int[3] = array(3, 7); a[5] = 1;", "a[0]", "7"},
    {"var a:int[3] = array(3, 7); a[2] = 1;", "a", "[7, 7, 1]"},
    // Struct values: a copy shares the fields until one side is written.
    {"var a:struct{x:int; y:int}; var b:struct{x:int; y:int};"
     "a.x = 1; b = a; b.x = 2;",
     "a", "{x: 1, y: 0}"},
    {"var a:struct{x:int; y:int}; var b:struct{x:int; y:int};"
     "a.x = 1; b = a; b.x = 2;",
     "b", "{x: 2, y: 0}"},
    {"var a:struct{p:struct{q:int}; n:bool}; var b:struct{p:struct{q:int};"
     " n:bool}; b = a; b.p.q = 5;",
     "a.p.q + b.p.q", "5"},
    {"var a:struct{x:int; y:int}; var b:struct{x:int; y:int}; b.y = 0;",
     "a == b", "true"},
    {"var a:struct{x:int; y:int}; var b:struct{x:int; y:int}; b = a;"
     "b.y = 1;",
     "a == b", "false"},
    {"var a:int[3] = array(3, 7);", "a[true]", "<unset>"},
    {"", "5[0]", "<unset>"},
    {"var x:int = 3;", "x.f", "<unset>"},
    {"var x:int = 3; x.f = 1;", "x", "3"},
    {"", "nope + 1", "<unset>"},
    // The common builtins.
    {"", "min(3, 2.5)", "2.5"},
    {"", "max(2, 7)", "7"},
    {"", "min(1)", "<unset>"},
    {"", "abs(0 - 4)", "4"},
    {"", "abs(-2.5)", "2.5"},
    {"", "len(\"abcd\")", "4"},
    {"", "len(array(3, 0))", "3"},
    {"", "str(42)", "42"},
    {"", "int(2.9)", "2"},
    {"", "int(true)", "1"},
    {"", "float(3) / 2", "1.5"},
    {"", "bit(6, 1)", "1"},
    {"", "bit(1, 99)", "<unset>"},
    {"", "array(2, 5)", "[5, 5]"},
    {"", "append(array(1, 1), 2)", "[1, 2]"},
    {"", "foo(1)", "<unset>"},
    // var defaults by declared type.
    {"var v:int;", "v", "0"},
    {"var v:bool;", "v", "false"},
    {"var v:float;", "v + 0.5", "0.5"},
    {"var v:string;", "len(v)", "0"},
    {"var v:int[2];", "v", "[]"},
    {"var b:bool; var r:int = 1; if (b) { r = 2; }", "r", "1"},
    {"var r:int = 1; if (r) { r = 2; }", "r", "1"},
    // Loops with break and continue.
    {"var s:int = 0; var i:int;"
     "for (i = 0; i < 10; i = i + 1) {"
     "  if (i % 2 == 0) { continue; } if (i > 7) { break; } s = s + i; }",
     "s", "16"},
    {"var n:int = 0; while (true) { n = n + 1; if (n == 5) { break; } }", "n",
     "5"},
    {"var n:int = 0; var k:int = 0;"
     "while (n < 6) { n = n + 1; if (n % 3 == 0) { continue; } k = k + n; }",
     "k", "12"},
    {"break;", "1", "<unset>"},
};

/// Name resolution: locals live in per-body slots, and which scope a name
/// resolves to is decided by what actually ran, as with one map per scope.
const Snippet ResolutionSnippets[] = {
    // Shadowing in nested blocks; assignments reach the innermost binding.
    {"var x:int = 1; { var x:int = 2; x = x + 1; }", "x", "1"},
    {"var x:int = 1; { var x:int = 2; { x = 3; } }", "x", "1"},
    {"var x:int = 1; if (true) { if (true) { x = 5; } }", "x", "5"},
    {"var x:int = 1; var r:int = 0; { if (true) var x:int = 7; r = x; }",
     "r * 10 + x", "71"},
    // A binding on an untaken branch leaves the outer one visible.
    {"var x:int = 1; { if (false) { var x:int = 9; } x = x + 1; }", "x", "2"},
    {"var x:int = 1; { if (false) var x:int = 9; x = x + 1; }", "x", "2"},
    // A local bound only on an untaken branch, then read.
    {"if (true) z = 4;", "z", "4"},
    {"if (false) z = 4;", "z", "<unset>"},
    {"if (false) { z = 4; } else { y = 2; }", "y", "<unset>"},
    // A name read before the statement that binds it in the same scope.
    {"var r:int = 0; { r = q; var q:int = 3; }", "r", "<unset>"},
    // Each entry of a loop body opens a fresh scope.
    {"var s:int = 0; var i:int;"
     "for (i = 0; i < 3; i = i + 1) { var y:int; y = y + i; s = s + y; }",
     "s", "3"},
    {"var s:int = 0; var i:int;"
     "for (i = 0; i < 2; i = i + 1) { if (i == 1) { s = t; } t = 5; }",
     "s", "<unset>"},
    {"var n:int = 0; var s:int = 0;"
     "while (n < 3) { n = n + 1; var t:int = n * 2; s = s + t; }",
     "s", "12"},
    // A for loop's header binds in the loop's own scope.
    {"for (j = 0; j < 3; j = j + 1) { }", "j", "<unset>"},
    {"var j:int = 7; for (j = 0; j < 3; j = j + 1) { }", "j", "3"},
    {"var k:int = 0; for (m = 0; m < 2; m = m + 1) k = k + m + 1;", "k",
     "3"},
    // A redeclared var in the same scope replaces the binding.
    {"var v:int = 1; var v:int = v + 1;", "v", "2"},
};

struct Outcome {
  std::string Result;
  std::vector<std::string> Diags;
};

std::vector<std::string> messages(const DiagnosticEngine &Diags) {
  std::vector<std::string> Out;
  for (const Diagnostic &D : Diags.getDiagnostics())
    Out.push_back(D.Message);
  return Out;
}

Outcome asModuleBody(const Snippet &S) {
  driver::Compiler C;
  C.addSource("snippet.lss", std::string(S.Stmts) + "\nprint(" + S.Expr +
                                 ");\n");
  C.elaborate();
  const auto &Log = C.getInterpreter()->getPrintLog();
  return {Log.empty() ? Value().str() : Log.back(), messages(C.getDiags())};
}

Outcome asUserpoint(const Snippet &S) {
  SourceMgr SM;
  DiagnosticEngine Diags(SM);
  auto P = bsl::BslProgram::compile(std::string(S.Stmts) + "\nreturn " +
                                        S.Expr + ";\n",
                                    "userpoint:snippet", SM, Diags);
  if (!P)
    return {"<parse error>", messages(Diags)};
  std::vector<Value> Args;
  bsl::StateTable RuntimeVars;
  std::map<std::string, Value> Params;
  Value V = P->run(nullptr, Args, RuntimeVars, Params, Diags);
  return {V.isString() ? V.getString() : V.str(), messages(Diags)};
}

TEST(Evaluator, ModuleBodiesAndUserpointsAgree) {
  for (const Snippet &S : Snippets) {
    SCOPED_TRACE(std::string(S.Stmts) + " => " + S.Expr);
    Outcome Module = asModuleBody(S);
    Outcome Userpoint = asUserpoint(S);
    EXPECT_EQ(Module.Result, S.Expected);
    EXPECT_EQ(Userpoint.Result, S.Expected);
    EXPECT_EQ(Module.Diags, Userpoint.Diags);
    // Unset results come from diagnosed errors, so the comparison above
    // covers the error wording too.
    if (std::string(S.Expected) == "<unset>") {
      EXPECT_FALSE(Module.Diags.empty());
    }
  }
}

TEST(Evaluator, NameResolutionAgrees) {
  for (const Snippet &S : ResolutionSnippets) {
    SCOPED_TRACE(std::string(S.Stmts) + " => " + S.Expr);
    Outcome Module = asModuleBody(S);
    Outcome Userpoint = asUserpoint(S);
    EXPECT_EQ(Module.Result, S.Expected);
    EXPECT_EQ(Userpoint.Result, S.Expected);
    EXPECT_EQ(Module.Diags, Userpoint.Diags);
    if (std::string(S.Expected) == "<unset>") {
      EXPECT_FALSE(Module.Diags.empty());
    } else {
      EXPECT_TRUE(Module.Diags.empty());
    }
  }
}

} // namespace
