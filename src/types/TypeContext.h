//===- TypeContext.h - Type arena and conversion ----------------*- C++ -*-===//
///
/// \file
/// Allocates and (for scalars) uniques Types, mints fresh type variables,
/// and converts syntactic lss::TypeExpr annotations into semantic Types.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_TYPES_TYPECONTEXT_H
#define LIBERTY_TYPES_TYPECONTEXT_H

#include "types/Type.h"

#include <functional>
#include <memory>
#include <optional>

namespace liberty {

class DiagnosticEngine;
struct SourceLoc;

namespace lss {
class TypeExpr;
class Expr;
}

namespace types {

class TypeContext {
public:
  TypeContext();

  const Type *getInt() const { return IntTy; }
  const Type *getBool() const { return BoolTy; }
  const Type *getFloat() const { return FloatTy; }
  const Type *getString() const { return StringTy; }

  const Type *getArray(const Type *Elem, int64_t Size);
  const Type *
  getStruct(std::vector<std::pair<std::string, const Type *>> Fields);
  const Type *getDisjunct(std::vector<const Type *> Alternatives);

  /// Mints a fresh type variable. \p NameHint is the source spelling (e.g.
  /// "a" for 'a); the printed name also carries the unique id.
  const Type *freshVar(const std::string &NameHint);

  /// Number of variables minted so far; variable ids are in [0, count).
  uint32_t getNumVars() const { return NextVarId; }

  /// Callback used to evaluate array-extent expressions inside type
  /// annotations (extents may reference structural parameters).
  using SizeEvaluator =
      std::function<std::optional<int64_t>(const lss::Expr *)>;

  /// Converts a syntactic annotation to a semantic Type. A type variable
  /// is looked up in \p Vars by the number name resolution gave its
  /// spelling (lss::VarTypeExpr::getVarIdx); an empty entry gets a fresh
  /// variable, so all ports of one module instance share its variables.
  /// Returns null and reports through \p Diags on error.
  const Type *convert(const lss::TypeExpr *TE, std::vector<const Type *> &Vars,
                      const SizeEvaluator &EvalSize, DiagnosticEngine &Diags);

private:
  Type *create(Type::Kind K);

  std::vector<std::unique_ptr<Type>> Arena;
  const Type *IntTy;
  const Type *BoolTy;
  const Type *FloatTy;
  const Type *StringTy;
  uint32_t NextVarId = 0;
};

} // namespace types
} // namespace liberty

#endif // LIBERTY_TYPES_TYPECONTEXT_H
