//===- BslTest.cpp - BSL userpoint engine tests ---------------------------------===//

#include "bsl/BslProgram.h"

#include <gtest/gtest.h>

using namespace liberty;
using namespace liberty::bsl;
using interp::Value;

namespace {

struct BslFixture {
  SourceMgr SM;
  DiagnosticEngine Diags{SM};
  StateTable RuntimeVars;
  std::map<std::string, Value> Params;

  /// Runs \p Code as a userpoint whose signature names \p Args, in order.
  Value run(const std::string &Code,
            std::vector<std::pair<std::string, Value>> Args = {}) {
    auto P = BslProgram::compile(Code, "test.bsl", SM, Diags);
    EXPECT_NE(P, nullptr) << "BSL failed to compile";
    if (!P)
      return Value();
    lss::UserpointSig Sig;
    std::vector<Value> ArgValues;
    for (auto &[Name, V] : Args) {
      Sig.Args.emplace_back(Name, nullptr);
      ArgValues.push_back(std::move(V));
    }
    return P->run(&Sig, ArgValues, RuntimeVars, Params, Diags);
  }
};

TEST(Bsl, ReturnLiteral) {
  BslFixture F;
  Value V = F.run("return 42;");
  ASSERT_TRUE(V.isInt());
  EXPECT_EQ(V.getInt(), 42);
}

TEST(Bsl, EmptyProgramReturnsUnset) {
  BslFixture F;
  EXPECT_TRUE(F.run("").isUnset());
}

TEST(Bsl, ArgumentsAreVisible) {
  BslFixture F;
  Value V = F.run("return a + b * 2;", {{"a", Value::makeInt(3)},
                                        {"b", Value::makeInt(10)}});
  EXPECT_EQ(V.getInt(), 23);
}

TEST(Bsl, RuntimeVarsMutateAcrossInvocations) {
  BslFixture F;
  F.RuntimeVars["count"] = Value::makeInt(0);
  for (int I = 0; I != 5; ++I)
    F.run("count = count + 1;");
  EXPECT_EQ(F.RuntimeVars["count"].getInt(), 5);
}

TEST(Bsl, ParamsReadable) {
  BslFixture F;
  F.Params["depth"] = Value::makeInt(16);
  Value V = F.run("return depth / 4;");
  EXPECT_EQ(V.getInt(), 4);
}

TEST(Bsl, ParamsAreReadOnly) {
  BslFixture F;
  F.Params["depth"] = Value::makeInt(16);
  Value V = F.run("depth = 5; return depth;");
  EXPECT_EQ(V.getInt(), 16);
  EXPECT_EQ(F.Params["depth"].getInt(), 16);
  EXPECT_EQ(F.Diags.getFirstErrorMessage(),
            "cannot assign to read-only parameter 'depth'");
}

TEST(Bsl, VarDefaultsByDeclaredType) {
  BslFixture F;
  Value B = F.run("var b:bool; return b;");
  ASSERT_TRUE(B.isBool());
  EXPECT_FALSE(B.getBool());
  EXPECT_EQ(F.run("var b:bool; if (b) { return 1; } return 2;").getInt(), 2);
  Value Fl = F.run("var f:float; return f;");
  ASSERT_TRUE(Fl.isFloat());
  EXPECT_EQ(Fl.getFloat(), 0.0);
  EXPECT_FALSE(F.Diags.hasErrors());
}

TEST(Bsl, TopLevelBreakReported) {
  BslFixture F;
  EXPECT_TRUE(F.run("break; return 7;").isUnset());
  EXPECT_EQ(F.Diags.getFirstErrorMessage(),
            "break/continue outside of a loop");
}

TEST(Bsl, LocalsShadowAndDoNotLeak) {
  BslFixture F;
  F.RuntimeVars["x"] = Value::makeInt(100);
  Value V = F.run("var x:int = 1; x = x + 1; return x;");
  EXPECT_EQ(V.getInt(), 2);
  EXPECT_EQ(F.RuntimeVars["x"].getInt(), 100) << "runtime var untouched";
}

TEST(Bsl, LocalsShadowArgumentsRuntimeVarsAndParams) {
  BslFixture F;
  F.RuntimeVars["r"] = Value::makeInt(100);
  F.Params["p"] = Value::makeInt(7);
  Value V = F.run(R"(
var total:int = 0;
{
  var a:int = 1;
  var r:int = 2;
  var p:int = 3;
  a = a + 10;
  r = r + 10;
  p = p + 10;
  total = a + r + p;
}
return total * 1000 + a + r + p;
)",
                  {{"a", Value::makeInt(5)}});
  // Inside the block: 11 + 12 + 13; after it: the argument, the runtime
  // variable and the parameter, all untouched.
  EXPECT_EQ(V.getInt(), 36 * 1000 + 5 + 100 + 7);
  EXPECT_EQ(F.RuntimeVars["r"].getInt(), 100);
  EXPECT_EQ(F.Diags.getNumErrors(), 0u);
}

TEST(Bsl, UnboundLocalFallsBackToTheEnvironment) {
  // A local bound only on an untaken branch leaves the runtime variable
  // visible; an assignment to its name on a taken branch writes it.
  BslFixture F;
  F.RuntimeVars["x"] = Value::makeInt(100);
  EXPECT_EQ(F.run("if (false) { var x:int = 1; } return x;").getInt(), 100);
  EXPECT_EQ(F.run("if (true) x = 1; return x;").getInt(), 1);
  EXPECT_EQ(F.RuntimeVars["x"].getInt(), 1);
  EXPECT_EQ(F.Diags.getNumErrors(), 0u);
}

TEST(Bsl, LoopBodiesStartWithFreshLocals) {
  // Each pass reads y before its own block binds it, so every pass sees
  // the runtime variable, not the local of the pass before.
  BslFixture F;
  F.RuntimeVars["y"] = Value::makeInt(7);
  Value V = F.run(R"(
var s:int = 0;
var i:int;
for (i = 0; i < 3; i = i + 1) {
  s = s * 10 + y;
  var y:int = i;
}
return s;
)");
  EXPECT_EQ(V.getInt(), 777);
  EXPECT_TRUE(F.run("for (j = 0; j < 2; j = j + 1) { } return j;").isUnset());
  EXPECT_EQ(F.Diags.getFirstErrorMessage(), "use of undefined name 'j'");
}

TEST(Bsl, ControlFlow) {
  BslFixture F;
  Value V = F.run(R"(
var sum:int = 0;
var i:int;
for (i = 0; i < 10; i = i + 1) {
  if (i % 2 == 0) { continue; }
  if (i == 9) { break; }
  sum = sum + i;
}
return sum;
)");
  EXPECT_EQ(V.getInt(), 1 + 3 + 5 + 7);
}

TEST(Bsl, WhileLoop) {
  BslFixture F;
  Value V = F.run("var n:int = 1; while (n < 100) { n = n * 2; } return n;");
  EXPECT_EQ(V.getInt(), 128);
}

TEST(Bsl, ReturnExitsEarly) {
  BslFixture F;
  F.RuntimeVars["after"] = Value::makeInt(0);
  Value V = F.run("return 1; after = 99;");
  EXPECT_EQ(V.getInt(), 1);
  EXPECT_EQ(F.RuntimeVars["after"].getInt(), 0);
}

TEST(Bsl, RoundRobinPolicyLikeArbiters) {
  // The corelib arbiter's default policy, exercised standalone.
  BslFixture F;
  const char *Policy = R"(
var i:int;
for (i = 1; i <= width; i = i + 1) {
  var c:int;
  c = (last + i) % width;
  if (bit(mask, c) == 1) { return c; }
}
return -1;
)";
  auto Pick = [&](int64_t Mask, int64_t Last, int64_t Width) {
    return F
        .run(Policy, {{"mask", Value::makeInt(Mask)},
                      {"last", Value::makeInt(Last)},
                      {"width", Value::makeInt(Width)}})
        .getInt();
  };
  EXPECT_EQ(Pick(0b11, -1, 2), 0);
  EXPECT_EQ(Pick(0b11, 0, 2), 1);
  EXPECT_EQ(Pick(0b10, 1, 2), 1); // Only requester 1: granted again.
  EXPECT_EQ(Pick(0b101, 0, 3), 2);
  EXPECT_EQ(Pick(0, 0, 3), -1);
}

TEST(Bsl, ArraysAndStructs) {
  BslFixture F;
  F.RuntimeVars["hist"] =
      Value::makeArray({Value::makeInt(0), Value::makeInt(0)});
  F.run("hist[1] = hist[1] + 7;", {});
  EXPECT_EQ(F.RuntimeVars["hist"].getElems()[1].getInt(), 7);

  Value S = F.run("return s.pc + 1;",
                  {{"s", Value::makeStruct({{"pc", Value::makeInt(4)}})}});
  EXPECT_EQ(S.getInt(), 5);
}

TEST(Bsl, CommonBuiltins) {
  BslFixture F;
  EXPECT_EQ(F.run("return min(3, 5) + max(3, 5) + abs(0 - 2);").getInt(),
            10);
  EXPECT_EQ(F.run("return len(array(7, 0));").getInt(), 7);
  EXPECT_EQ(F.run("return int(2.9);").getInt(), 2);
}

TEST(Bsl, ParseErrorReturnsNull) {
  SourceMgr SM;
  DiagnosticEngine Diags(SM);
  auto P = BslProgram::compile("return ;;;garbage(", "bad.bsl", SM, Diags);
  EXPECT_EQ(P, nullptr);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Bsl, RuntimeErrorReported) {
  BslFixture F;
  F.run("return 1 / 0;");
  EXPECT_TRUE(F.Diags.hasErrors());
}

TEST(Bsl, UndefinedNameReported) {
  BslFixture F;
  F.run("return nonexistent;");
  EXPECT_TRUE(F.Diags.hasErrors());
}

TEST(Bsl, StepBudgetStopsRunaway) {
  BslFixture F;
  F.run("while (true) { }");
  EXPECT_TRUE(F.Diags.hasErrors());
  EXPECT_NE(F.Diags.getFirstErrorMessage().find("step budget"),
            std::string::npos);
}

TEST(Bsl, StructuralStatementsRejected) {
  BslFixture F;
  F.run("instance d:delay;");
  EXPECT_TRUE(F.Diags.hasErrors());
}

} // namespace
