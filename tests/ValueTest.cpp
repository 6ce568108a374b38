//===- ValueTest.cpp - Value and expression-operation tests ---------------------===//

#include "interp/Evaluator.h"
#include "types/TypeContext.h"

#include <gtest/gtest.h>

using namespace liberty;
using namespace liberty::interp;
using lss::BinaryOp;
using lss::UnaryOp;

namespace {

struct OpFixture {
  SourceMgr SM;
  DiagnosticEngine Diags{SM};

  Value bin(BinaryOp Op, Value A, Value B) {
    return applyBinary(Op, A, B, SourceLoc(), Diags);
  }
};

TEST(Value, KindsAndAccessors) {
  EXPECT_TRUE(Value().isUnset());
  EXPECT_EQ(Value::makeInt(5).getInt(), 5);
  EXPECT_EQ(Value::makeBool(true).getBool(), true);
  EXPECT_DOUBLE_EQ(Value::makeFloat(2.5).getFloat(), 2.5);
  EXPECT_EQ(Value::makeString("hi").getString(), "hi");
  EXPECT_TRUE(Value::makeInt(1).isData());
  EXPECT_FALSE(Value().isData());
}

TEST(Value, NumericWidening) {
  EXPECT_DOUBLE_EQ(Value::makeInt(3).getNumeric(), 3.0);
  EXPECT_DOUBLE_EQ(Value::makeFloat(3.5).getNumeric(), 3.5);
}

TEST(Value, StructFields) {
  Value S = Value::makeStruct(
      {{"pc", Value::makeInt(4)}, {"ok", Value::makeBool(true)}});
  ASSERT_NE(S.getField("pc"), nullptr);
  EXPECT_EQ(S.getField("pc")->getInt(), 4);
  EXPECT_EQ(S.getField("missing"), nullptr);
  *S.getFieldMutable("pc") = Value::makeInt(8);
  EXPECT_EQ(S.getField("pc")->getInt(), 8);
}

TEST(Value, StructCopiesSharePayload) {
  Value A = Value::makeStruct(
      {{"pc", Value::makeInt(4)}, {"ok", Value::makeBool(true)}});
  Value B = A;
  EXPECT_EQ(&A.getFields(), &B.getFields());
  EXPECT_TRUE(A.equals(B));
  Value C = std::move(B);
  EXPECT_EQ(&A.getFields(), &C.getFields());
}

TEST(Value, StructWriteCopiesOnWrite) {
  Value A = Value::makeStruct(
      {{"pc", Value::makeInt(4)}, {"ok", Value::makeBool(true)}});
  Value B = A;
  *B.getFieldMutable("pc") = Value::makeInt(8);
  EXPECT_NE(&A.getFields(), &B.getFields());
  EXPECT_EQ(A.getField("pc")->getInt(), 4);
  EXPECT_EQ(B.getField("pc")->getInt(), 8);
  EXPECT_FALSE(A.equals(B));
  // A sole owner writes in place.
  const Value::FieldList *Before = &B.getFields();
  *B.getFieldMutable("ok") = Value::makeBool(false);
  EXPECT_EQ(&B.getFields(), Before);
  EXPECT_TRUE(A.getField("ok")->getBool());
}

TEST(Value, NestedStructWriteCopiesOnWrite) {
  Value Inner = Value::makeStruct({{"q", Value::makeInt(1)}});
  Value A = Value::makeStruct({{"p", Inner}, {"n", Value::makeInt(0)}});
  Value B = A;
  *B.getFieldMutable("p")->getFieldMutable("q") = Value::makeInt(5);
  EXPECT_EQ(A.getField("p")->getField("q")->getInt(), 1);
  EXPECT_EQ(B.getField("p")->getField("q")->getInt(), 5);
  EXPECT_EQ(Inner.getField("q")->getInt(), 1);
  EXPECT_EQ(A.str(), "{p: {q: 1}, n: 0}");
  EXPECT_EQ(B.str(), "{p: {q: 5}, n: 0}");
  // An array copy is deep, but its struct elements share until written.
  Value Arr = Value::makeArray({A});
  Value Arr2 = Arr;
  EXPECT_EQ(&Arr.getElems()[0].getFields(), &Arr2.getElems()[0].getFields());
  *Arr2.getElemsMutable()[0].getFieldMutable("n") = Value::makeInt(3);
  EXPECT_EQ(Arr.getElems()[0].getField("n")->getInt(), 0);
  EXPECT_EQ(A.getField("n")->getInt(), 0);
}

TEST(Value, StructEqualsIsStructuralAcrossPayloads) {
  Value A = Value::makeStruct(
      {{"pc", Value::makeInt(4)}, {"ok", Value::makeBool(true)}});
  Value B = Value::makeStruct(
      {{"pc", Value::makeInt(4)}, {"ok", Value::makeBool(true)}});
  EXPECT_NE(&A.getFields(), &B.getFields());
  EXPECT_TRUE(A.equals(B));
  EXPECT_FALSE(A.equals(Value::makeStruct({{"pc", Value::makeInt(4)}})));
  EXPECT_FALSE(A.equals(Value::makeStruct(
      {{"pc", Value::makeInt(4)}, {"ko", Value::makeBool(true)}})));
}

TEST(Value, InPlaceScalarStores) {
  Value V = Value::makeStruct({{"a", Value::makeInt(1)}});
  V.setBool(true);
  ASSERT_TRUE(V.isBool());
  EXPECT_TRUE(V.getBool());
  V.setBool(false);
  EXPECT_FALSE(V.getBool());
  V.setInt(7);
  ASSERT_TRUE(V.isInt());
  EXPECT_EQ(V.getInt(), 7);
}

TEST(Value, EqualsIsStructural) {
  Value A = Value::makeArray({Value::makeInt(1), Value::makeInt(2)});
  Value B = Value::makeArray({Value::makeInt(1), Value::makeInt(2)});
  Value C = Value::makeArray({Value::makeInt(1)});
  EXPECT_TRUE(A.equals(B));
  EXPECT_FALSE(A.equals(C));
  EXPECT_FALSE(A.equals(Value::makeInt(1)));
  EXPECT_TRUE(Value().equals(Value()));
}

TEST(Value, ConformsTo) {
  types::TypeContext TC;
  EXPECT_TRUE(Value::makeInt(1).conformsTo(TC.getInt()));
  EXPECT_FALSE(Value::makeInt(1).conformsTo(TC.getBool()));
  // Integer literals accepted for float parameters (Figure 5 precedent).
  EXPECT_TRUE(Value::makeInt(1).conformsTo(TC.getFloat()));
  EXPECT_FALSE(Value::makeFloat(1).conformsTo(TC.getInt()));
  const types::Type *Arr = TC.getArray(TC.getInt(), 2);
  EXPECT_TRUE(Value::makeArray({Value::makeInt(1), Value::makeInt(2)})
                  .conformsTo(Arr));
  EXPECT_FALSE(Value::makeArray({Value::makeInt(1)}).conformsTo(Arr));
  const types::Type *D = TC.getDisjunct({TC.getInt(), TC.getString()});
  EXPECT_TRUE(Value::makeString("x").conformsTo(D));
  EXPECT_FALSE(Value::makeBool(true).conformsTo(D));
}

TEST(Value, StrRendering) {
  EXPECT_EQ(Value::makeInt(-3).str(), "-3");
  EXPECT_EQ(Value::makeString("x").str(), "\"x\"");
  EXPECT_EQ(Value::makeArray({Value::makeInt(1), Value::makeInt(2)}).str(),
            "[1, 2]");
  EXPECT_EQ(Value::makeStruct({{"a", Value::makeBool(true)}}).str(),
            "{a: true}");
}

//===----------------------------------------------------------------------===//
// Operator semantics (shared by LSS and BSL)
//===----------------------------------------------------------------------===//

struct ArithCase {
  BinaryOp Op;
  int64_t A, B, Expected;
};

class IntArithTest : public ::testing::TestWithParam<ArithCase> {};

TEST_P(IntArithTest, Computes) {
  OpFixture F;
  const ArithCase &C = GetParam();
  Value R = F.bin(C.Op, Value::makeInt(C.A), Value::makeInt(C.B));
  ASSERT_TRUE(R.isInt());
  EXPECT_EQ(R.getInt(), C.Expected);
  EXPECT_FALSE(F.Diags.hasErrors());
}

INSTANTIATE_TEST_SUITE_P(
    Table, IntArithTest,
    ::testing::Values(ArithCase{BinaryOp::Add, 7, 5, 12},
                      ArithCase{BinaryOp::Sub, 7, 5, 2},
                      ArithCase{BinaryOp::Mul, 7, 5, 35},
                      ArithCase{BinaryOp::Div, 7, 5, 1},
                      ArithCase{BinaryOp::Rem, 7, 5, 2},
                      ArithCase{BinaryOp::Add, -3, 3, 0},
                      ArithCase{BinaryOp::Div, -8, 2, -4},
                      ArithCase{BinaryOp::Mul, 0, 99, 0}));

TEST(ExprOps, MixedIntFloatPromotes) {
  OpFixture F;
  Value R = F.bin(BinaryOp::Add, Value::makeInt(1), Value::makeFloat(0.5));
  ASSERT_TRUE(R.isFloat());
  EXPECT_DOUBLE_EQ(R.getFloat(), 1.5);
}

TEST(ExprOps, StringConcatAndCompare) {
  OpFixture F;
  EXPECT_EQ(F.bin(BinaryOp::Add, Value::makeString("ab"),
                  Value::makeString("cd"))
                .getString(),
            "abcd");
  EXPECT_TRUE(F.bin(BinaryOp::Lt, Value::makeString("a"),
                    Value::makeString("b"))
                  .getBool());
  EXPECT_TRUE(F.bin(BinaryOp::Eq, Value::makeString("x"),
                    Value::makeString("x"))
                  .getBool());
}

TEST(ExprOps, Comparisons) {
  OpFixture F;
  EXPECT_TRUE(F.bin(BinaryOp::Le, Value::makeInt(3), Value::makeInt(3))
                  .getBool());
  EXPECT_FALSE(F.bin(BinaryOp::Gt, Value::makeInt(3), Value::makeInt(3))
                   .getBool());
  EXPECT_TRUE(
      F.bin(BinaryOp::Ne, Value::makeInt(3), Value::makeFloat(3.5))
          .getBool());
  EXPECT_TRUE(
      F.bin(BinaryOp::Eq, Value::makeInt(3), Value::makeFloat(3.0))
          .getBool());
}

TEST(ExprOps, LogicalOps) {
  OpFixture F;
  EXPECT_TRUE(F.bin(BinaryOp::And, Value::makeBool(true),
                    Value::makeBool(true))
                  .getBool());
  EXPECT_TRUE(F.bin(BinaryOp::Or, Value::makeBool(false),
                    Value::makeBool(true))
                  .getBool());
  F.bin(BinaryOp::And, Value::makeInt(1), Value::makeBool(true));
  EXPECT_TRUE(F.Diags.hasErrors());
}

TEST(ExprOps, DivisionByZeroDiagnosed) {
  OpFixture F;
  Value R = F.bin(BinaryOp::Div, Value::makeInt(1), Value::makeInt(0));
  EXPECT_TRUE(R.isUnset());
  EXPECT_TRUE(F.Diags.hasErrors());
}

TEST(ExprOps, TypeErrorsDiagnosed) {
  OpFixture F;
  F.bin(BinaryOp::Add, Value::makeBool(true), Value::makeInt(1));
  EXPECT_TRUE(F.Diags.hasErrors());
}

TEST(ExprOps, Unary) {
  SourceMgr SM;
  DiagnosticEngine Diags(SM);
  EXPECT_EQ(applyUnary(UnaryOp::Neg, Value::makeInt(5), SourceLoc(), Diags)
                .getInt(),
            -5);
  EXPECT_DOUBLE_EQ(
      applyUnary(UnaryOp::Neg, Value::makeFloat(2.5), SourceLoc(), Diags)
          .getFloat(),
      -2.5);
  EXPECT_FALSE(
      applyUnary(UnaryOp::Not, Value::makeBool(true), SourceLoc(), Diags)
          .getBool());
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(ExprOps, CommonBuiltinsDispatch) {
  SourceMgr SM;
  DiagnosticEngine Diags(SM);
  auto Call = [&](const std::string &Name, std::vector<Value> Args) {
    return applyCommonBuiltin(Name, Args, SourceLoc(), Diags);
  };
  EXPECT_EQ(Call("min", {Value::makeInt(2), Value::makeInt(9)})->getInt(), 2);
  EXPECT_EQ(Call("bit", {Value::makeInt(0b1010), Value::makeInt(3)})
                ->getInt(),
            1);
  EXPECT_EQ(Call("str", {Value::makeInt(12)})->getString(), "12");
  EXPECT_EQ(Call("float", {Value::makeInt(2)})->getFloat(), 2.0);
  Value Appended =
      *Call("append", {Value::makeArray({}), Value::makeInt(1)});
  EXPECT_EQ(Appended.getElems().size(), 1u);
  // Unknown builtin: nullopt, no diagnostic (caller decides).
  EXPECT_FALSE(Call("no_such_builtin", {}).has_value());
  EXPECT_FALSE(Diags.hasErrors());
  // Arity error: diagnostic.
  Call("min", {Value::makeInt(1)});
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(ExprOps, ConditionRequiresBool) {
  SourceMgr SM;
  DiagnosticEngine Diags(SM);
  EXPECT_EQ(asCondition(Value::makeBool(true), SourceLoc(), Diags), true);
  EXPECT_EQ(asCondition(Value::makeInt(1), SourceLoc(), Diags),
            std::nullopt);
  EXPECT_TRUE(Diags.hasErrors());
}

} // namespace
