//===- TypesTest.cpp - Type system and conversion tests ------------------------===//

#include "lss/Parser.h"
#include "lss/Resolver.h"
#include "support/Casting.h"
#include "types/TypeContext.h"
#include "types/Type.h"

#include <gtest/gtest.h>

using namespace liberty;
using types::Type;
using types::TypeContext;

namespace {

/// Parses \p Src as a type annotation (wrapped in a port declaration) and
/// converts it.
struct ConvertFixture {
  SourceMgr SM;
  DiagnosticEngine Diags{SM};
  lss::ASTContext Ctx;
  TypeContext TC;
  /// Every annotation converted so far, resolved as one body so that a
  /// spelling names the same variable across calls.
  std::vector<lss::Stmt *> Body;
  std::vector<const Type *> Vars;

  const Type *convert(const std::string &TypeSrc) {
    uint32_t Id = SM.addBuffer("t.lss", "inport p: " + TypeSrc + ";");
    lss::Parser P(Id, Ctx, Diags);
    lss::SpecFile File = P.parseFile();
    if (File.TopLevel.empty())
      return nullptr;
    auto *Port = static_cast<lss::PortDeclStmt *>(File.TopLevel[0]);
    Body.push_back(Port);
    lss::BodyLayout Layout;
    lss::resolveBody(Body, Layout);
    auto EvalSize = [](const lss::Expr *E) -> std::optional<int64_t> {
      if (auto *I = dyn_cast<lss::IntLitExpr>(E))
        return I->getValue();
      return std::nullopt;
    };
    return TC.convert(Port->getType(), Vars, EvalSize, Diags);
  }
};

TEST(Types, ScalarsAreUniqued) {
  TypeContext TC;
  EXPECT_EQ(TC.getInt(), TC.getInt());
  EXPECT_NE(TC.getInt(), TC.getFloat());
  EXPECT_TRUE(TC.getInt()->isGround());
  EXPECT_TRUE(TC.getInt()->isScalar());
}

TEST(Types, FreshVarsAreDistinct) {
  TypeContext TC;
  const Type *A = TC.freshVar("a");
  const Type *B = TC.freshVar("a");
  EXPECT_NE(A->getVarId(), B->getVarId());
  EXPECT_FALSE(A->isGround());
}

TEST(Types, StrRendering) {
  TypeContext TC;
  EXPECT_EQ(TC.getInt()->str(), "int");
  EXPECT_EQ(TC.getArray(TC.getFloat(), 4)->str(), "float[4]");
  EXPECT_EQ(TC.getDisjunct({TC.getInt(), TC.getFloat()})->str(),
            "(int|float)");
  const Type *S = TC.getStruct({{"pc", TC.getInt()}, {"ok", TC.getBool()}});
  EXPECT_EQ(S->str(), "struct{pc:int;ok:bool;}");
}

TEST(Types, GroundnessPropagates) {
  TypeContext TC;
  const Type *V = TC.freshVar("a");
  EXPECT_FALSE(TC.getArray(V, 2)->isGround());
  EXPECT_FALSE(TC.getStruct({{"x", V}})->isGround());
  EXPECT_FALSE(TC.getDisjunct({TC.getInt(), TC.getFloat()})->isGround());
  EXPECT_TRUE(TC.getArray(TC.getInt(), 2)->isGround());
}

TEST(Types, StructuralEquality) {
  TypeContext TC;
  const Type *A1 = TC.getArray(TC.getInt(), 3);
  const Type *A2 = TC.getArray(TC.getInt(), 3);
  const Type *A3 = TC.getArray(TC.getInt(), 4);
  EXPECT_TRUE(types::structurallyEqual(A1, A2));
  EXPECT_FALSE(types::structurallyEqual(A1, A3));
  const Type *V = TC.freshVar("a");
  EXPECT_TRUE(types::structurallyEqual(V, V));
  EXPECT_FALSE(types::structurallyEqual(V, TC.freshVar("a")));
}

TEST(Types, StructuralEqualityOfStructs) {
  // Distinct nodes throughout, so no comparison takes the pointer-equality
  // shortcut and every case reaches the field loop.
  TypeContext TC;
  auto Pair = [&TC](const char *Second, const Type *SecondTy) {
    return TC.getStruct({{"x", TC.getInt()}, {Second, SecondTy}});
  };
  const Type *S1 = Pair("y", TC.getBool());
  EXPECT_TRUE(types::structurallyEqual(S1, Pair("y", TC.getBool())));
  // A differing field name, and a differing type under the same name.
  EXPECT_FALSE(types::structurallyEqual(S1, Pair("z", TC.getBool())));
  EXPECT_FALSE(types::structurallyEqual(S1, Pair("y", TC.getFloat())));
  // A differing field count, in both directions.
  const Type *One = TC.getStruct({{"x", TC.getInt()}});
  EXPECT_FALSE(types::structurallyEqual(S1, One));
  EXPECT_FALSE(types::structurallyEqual(One, S1));
  // A difference nested two levels down: equal outer names and counts.
  auto Nested = [&](int64_t Extent) {
    return Pair("y", TC.getArray(Pair("y", TC.getInt()), Extent));
  };
  EXPECT_TRUE(types::structurallyEqual(Nested(2), Nested(2)));
  EXPECT_FALSE(types::structurallyEqual(Nested(2), Nested(3)));
  const Type *Inner = Pair("y", TC.getArray(Pair("w", TC.getInt()), 2));
  EXPECT_FALSE(types::structurallyEqual(Nested(2), Inner));
}

TEST(Types, ConvertBasics) {
  ConvertFixture F;
  EXPECT_EQ(F.convert("int"), F.TC.getInt());
  EXPECT_EQ(F.convert("bool"), F.TC.getBool());
  EXPECT_EQ(F.convert("float"), F.TC.getFloat());
  EXPECT_EQ(F.convert("string"), F.TC.getString());
  EXPECT_FALSE(F.Diags.hasErrors());
}

TEST(Types, ConvertSharesVarSpellings) {
  ConvertFixture F;
  const Type *A1 = F.convert("'a");
  const Type *A2 = F.convert("'a");
  const Type *B = F.convert("'b");
  EXPECT_EQ(A1, A2); // Same spelling, same module instance => same var.
  EXPECT_NE(A1, B);
}

TEST(Types, ConvertArrayWithExtent) {
  ConvertFixture F;
  const Type *T = F.convert("int[8]");
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->getKind(), Type::Kind::Array);
  EXPECT_EQ(T->getArraySize(), 8);
}

TEST(Types, ConvertNestedDisjunct) {
  ConvertFixture F;
  const Type *T = F.convert("(int|float)[2]");
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->getKind(), Type::Kind::Array);
  EXPECT_TRUE(T->getElem()->isDisjunct());
}

TEST(Types, ConvertStruct) {
  ConvertFixture F;
  const Type *T = F.convert("struct{pc:int; taken:bool;}");
  ASSERT_NE(T, nullptr);
  ASSERT_EQ(T->getFields().size(), 2u);
  EXPECT_EQ(T->getFields()[1].first, "taken");
}

TEST(Types, InstanceRefRejectedAsDataType) {
  ConvertFixture F;
  EXPECT_EQ(F.convert("instance ref"), nullptr);
  EXPECT_TRUE(F.Diags.hasErrors());
}

TEST(Types, ArrayWithoutExtentRejected) {
  ConvertFixture F;
  EXPECT_EQ(F.convert("int[]"), nullptr);
  EXPECT_TRUE(F.Diags.hasErrors());
}

} // namespace
