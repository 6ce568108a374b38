//===- ExprEvaluator.h - Shared value operations ----------------*- C++ -*-===//
///
/// \file
/// Operator and builtin-function semantics. The evaluator core
/// (interp/Evaluator) is their one caller, for module bodies and
/// userpoints alike.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_INTERP_EXPREVALUATOR_H
#define LIBERTY_INTERP_EXPREVALUATOR_H

#include "interp/Value.h"
#include "lss/AST.h"
#include "support/Diagnostics.h"

#include <optional>
#include <vector>

namespace liberty {
namespace interp {

/// Applies binary operator \p Op. Returns Unset and reports a diagnostic on
/// type mismatch. Numeric operators promote int to float when mixed.
Value applyBinary(lss::BinaryOp Op, const Value &A, const Value &B,
                  SourceLoc Loc, DiagnosticEngine &Diags);

/// Applies unary operator \p Op with the same conventions.
Value applyUnary(lss::UnaryOp Op, const Value &A, SourceLoc Loc,
                 DiagnosticEngine &Diags);

/// Evaluates the pure builtins available in both languages (min, max, abs,
/// len, str, int, float, append, array). Returns nullopt if \p Name is not
/// one of them; returns Unset (plus diagnostic) on a usage error.
std::optional<Value> applyCommonBuiltin(const std::string &Name,
                                        const std::vector<Value> &Args,
                                        SourceLoc Loc,
                                        DiagnosticEngine &Diags);

/// The truthiness test used by if/while/for conditions: requires a Bool.
std::optional<bool> asCondition(const Value &V, SourceLoc Loc,
                                DiagnosticEngine &Diags);

} // namespace interp
} // namespace liberty

#endif // LIBERTY_INTERP_EXPREVALUATOR_H
