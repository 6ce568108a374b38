//===- Type.h - LSS type terms ----------------------------------*- C++ -*-===//
///
/// \file
/// The semantic type representation used by the inference engine and the
/// simulator. One arena-allocated `Type` class covers the paper's whole
/// grammar (Section 5):
///
///   Basic types   t  ::= int | bool | float | string | t[n] | struct{...}
///   Type schemes  t* ::= a | t | t*[n] | struct{i:t*;...} | (t1*|...|tn*)
///
/// Ground types and schemes share the representation; a scheme is simply a
/// Type containing Var or Disjunct nodes. The unifier (src/infer) resolves
/// Var nodes through a binding store, never mutating Types themselves.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_TYPES_TYPE_H
#define LIBERTY_TYPES_TYPE_H

#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace liberty {
namespace types {

class Type {
public:
  enum class Kind {
    Int,
    Bool,
    Float,
    String,
    Array,    ///< t[n], fixed extent
    Struct,   ///< struct { name : t; ... }
    Var,      ///< a type variable (scheme only)
    Disjunct, ///< (t1 | ... | tn) — exactly one alternative statically
  };

  Kind getKind() const { return K; }

  bool isVar() const { return K == Kind::Var; }
  bool isDisjunct() const { return K == Kind::Disjunct; }
  bool isScalar() const {
    return K == Kind::Int || K == Kind::Bool || K == Kind::Float ||
           K == Kind::String;
  }

  /// True if no Var or Disjunct occurs anywhere in this type.
  bool isGround() const;

  // The structural accessors are defined inline: the unifier's search
  // calls them tens of millions of times per compile.

  /// For Var types: the globally unique variable id.
  uint32_t getVarId() const {
    assert(K == Kind::Var && "not a type variable");
    return VarId;
  }
  /// For Var types: a display name such as "'a#3".
  const std::string &getVarName() const;

  /// For Array types.
  const Type *getElem() const {
    assert(K == Kind::Array && "not an array type");
    return Elem;
  }
  int64_t getArraySize() const {
    assert(K == Kind::Array && "not an array type");
    return ArraySize;
  }

  /// For Struct types.
  const std::vector<std::pair<std::string, const Type *>> &getFields() const {
    assert(K == Kind::Struct && "not a struct type");
    return Fields;
  }

  /// For Disjunct types.
  const std::vector<const Type *> &getAlternatives() const {
    assert(K == Kind::Disjunct && "not a disjunctive type");
    return Alternatives;
  }

  /// Renders the type in LSS syntax, e.g. "int[4]" or "(int|float)".
  std::string str() const;

private:
  friend class TypeContext;

  explicit Type(Kind K) : K(K) {}

  Kind K;
  // Var:
  uint32_t VarId = 0;
  std::string VarName;
  // Array:
  const Type *Elem = nullptr;
  int64_t ArraySize = 0;
  // Struct:
  std::vector<std::pair<std::string, const Type *>> Fields;
  // Disjunct:
  std::vector<const Type *> Alternatives;
};

/// Structural equality ignoring nothing — two types are equal iff they have
/// identical shape (Var nodes compare by id).
bool structurallyEqual(const Type *A, const Type *B);

} // namespace types
} // namespace liberty

#endif // LIBERTY_TYPES_TYPE_H
