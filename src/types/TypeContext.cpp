//===- TypeContext.cpp - Type arena and conversion -------------------------===//

#include "types/TypeContext.h"

#include "lss/AST.h"
#include "support/Casting.h"
#include "support/Diagnostics.h"

using namespace liberty;
using namespace liberty::types;

TypeContext::TypeContext() {
  IntTy = create(Type::Kind::Int);
  BoolTy = create(Type::Kind::Bool);
  FloatTy = create(Type::Kind::Float);
  StringTy = create(Type::Kind::String);
}

Type *TypeContext::create(Type::Kind K) {
  Arena.push_back(std::unique_ptr<Type>(new Type(K)));
  return Arena.back().get();
}

const Type *TypeContext::getArray(const Type *Elem, int64_t Size) {
  Type *T = create(Type::Kind::Array);
  T->Elem = Elem;
  T->ArraySize = Size;
  return T;
}

const Type *TypeContext::getStruct(
    std::vector<std::pair<std::string, const Type *>> Fields) {
  Type *T = create(Type::Kind::Struct);
  T->Fields = std::move(Fields);
  return T;
}

const Type *
TypeContext::getDisjunct(std::vector<const Type *> Alternatives) {
  Type *T = create(Type::Kind::Disjunct);
  T->Alternatives = std::move(Alternatives);
  return T;
}

const Type *TypeContext::freshVar(const std::string &NameHint) {
  Type *T = create(Type::Kind::Var);
  T->VarId = NextVarId++;
  T->VarName = NameHint + "#" + std::to_string(T->VarId);
  return T;
}

const Type *TypeContext::convert(const lss::TypeExpr *TE,
                                 std::vector<const Type *> &Vars,
                                 const SizeEvaluator &EvalSize,
                                 DiagnosticEngine &Diags) {
  using lss::TypeExpr;
  switch (TE->getKind()) {
  case TypeExpr::Kind::Basic: {
    switch (cast<lss::BasicTypeExpr>(TE)->getBasicKind()) {
    case lss::BasicTypeExpr::Basic::Int:
      return getInt();
    case lss::BasicTypeExpr::Basic::Bool:
      return getBool();
    case lss::BasicTypeExpr::Basic::Float:
      return getFloat();
    case lss::BasicTypeExpr::Basic::String:
      return getString();
    }
    return nullptr;
  }
  case TypeExpr::Kind::Var: {
    const auto *V = cast<lss::VarTypeExpr>(TE);
    if (V->getVarIdx() >= Vars.size())
      Vars.resize(V->getVarIdx() + 1);
    const Type *&Slot = Vars[V->getVarIdx()];
    if (!Slot)
      Slot = freshVar(V->getName());
    return Slot;
  }
  case TypeExpr::Kind::Array: {
    const auto *A = cast<lss::ArrayTypeExpr>(TE);
    const Type *Elem = convert(A->getElem(), Vars, EvalSize, Diags);
    if (!Elem)
      return nullptr;
    if (!A->getSizeExpr()) {
      Diags.error(TE->getLoc(),
                  "array type in a data annotation requires an extent");
      return nullptr;
    }
    std::optional<int64_t> Size = EvalSize(A->getSizeExpr());
    if (!Size) {
      Diags.error(TE->getLoc(), "cannot evaluate array extent");
      return nullptr;
    }
    if (*Size < 0) {
      Diags.error(TE->getLoc(), "array extent must be non-negative");
      return nullptr;
    }
    return getArray(Elem, *Size);
  }
  case TypeExpr::Kind::Struct: {
    const auto *S = cast<lss::StructTypeExpr>(TE);
    std::vector<std::pair<std::string, const Type *>> Fields;
    Fields.reserve(S->getFields().size());
    for (const auto &[Name, FieldTE] : S->getFields()) {
      const Type *FieldTy = convert(FieldTE, Vars, EvalSize, Diags);
      if (!FieldTy)
        return nullptr;
      Fields.emplace_back(Name, FieldTy);
    }
    return getStruct(std::move(Fields));
  }
  case TypeExpr::Kind::Disjunct: {
    const auto *D = cast<lss::DisjunctTypeExpr>(TE);
    std::vector<const Type *> Alts;
    Alts.reserve(D->getAlternatives().size());
    for (const lss::TypeExpr *AltTE : D->getAlternatives()) {
      const Type *Alt = convert(AltTE, Vars, EvalSize, Diags);
      if (!Alt)
        return nullptr;
      Alts.push_back(Alt);
    }
    return getDisjunct(std::move(Alts));
  }
  case TypeExpr::Kind::InstanceRef:
    Diags.error(TE->getLoc(),
                "'instance ref' is not a data type; it may only type "
                "elaboration variables");
    return nullptr;
  }
  return nullptr;
}
