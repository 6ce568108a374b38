//===- Type.cpp - LSS type terms -------------------------------------------===//

#include "types/Type.h"

#include <cassert>

using namespace liberty;
using namespace liberty::types;

bool Type::isGround() const {
  switch (K) {
  case Kind::Int:
  case Kind::Bool:
  case Kind::Float:
  case Kind::String:
    return true;
  case Kind::Var:
  case Kind::Disjunct:
    return false;
  case Kind::Array:
    return Elem->isGround();
  case Kind::Struct:
    for (const auto &[Name, FieldTy] : Fields)
      if (!FieldTy->isGround())
        return false;
    return true;
  }
  return false;
}

const std::string &Type::getVarName() const {
  assert(K == Kind::Var && "not a type variable");
  return VarName;
}

std::string Type::str() const {
  switch (K) {
  case Kind::Int:
    return "int";
  case Kind::Bool:
    return "bool";
  case Kind::Float:
    return "float";
  case Kind::String:
    return "string";
  case Kind::Var:
    return "'" + VarName;
  case Kind::Array:
    return Elem->str() + "[" + std::to_string(ArraySize) + "]";
  case Kind::Struct: {
    std::string S = "struct{";
    for (const auto &[Name, FieldTy] : Fields)
      S += Name + ":" + FieldTy->str() + ";";
    return S + "}";
  }
  case Kind::Disjunct: {
    std::string S = "(";
    for (unsigned I = 0; I != Alternatives.size(); ++I) {
      if (I)
        S += "|";
      S += Alternatives[I]->str();
    }
    return S + ")";
  }
  }
  return "<invalid>";
}

bool liberty::types::structurallyEqual(const Type *A, const Type *B) {
  if (A == B)
    return true;
  if (A->getKind() != B->getKind())
    return false;
  switch (A->getKind()) {
  case Type::Kind::Int:
  case Type::Kind::Bool:
  case Type::Kind::Float:
  case Type::Kind::String:
    return true; // Same kind, scalar => equal.
  case Type::Kind::Var:
    return A->getVarId() == B->getVarId();
  case Type::Kind::Array:
    return A->getArraySize() == B->getArraySize() &&
           structurallyEqual(A->getElem(), B->getElem());
  case Type::Kind::Struct: {
    const auto &FA = A->getFields();
    const auto &FB = B->getFields();
    if (FA.size() != FB.size())
      return false;
    for (unsigned I = 0; I != FA.size(); ++I)
      if (FA[I].first != FB[I].first ||
          !structurallyEqual(FA[I].second, FB[I].second))
        return false;
    return true;
  }
  case Type::Kind::Disjunct: {
    const auto &DA = A->getAlternatives();
    const auto &DB = B->getAlternatives();
    if (DA.size() != DB.size())
      return false;
    for (unsigned I = 0; I != DA.size(); ++I)
      if (!structurallyEqual(DA[I], DB[I]))
        return false;
    return true;
  }
  }
  return false;
}
