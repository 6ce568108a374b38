//===- Resolver.h - Name resolution for LSS and BSL bodies ------*- C++ -*-===//
///
/// \file
/// The post-parse pass that turns a body's names into slots. It runs once
/// per body, before the AST is shared: the parser resolves each module
/// body and each userpoint body, and the elaboration interpreter resolves
/// the top-level statements of its compile. Evaluation then keeps locals
/// in a flat frame indexed by slot (interp/Evaluator) and per-body port,
/// parameter and type-variable state in vectors indexed by the numbers
/// assigned here.
///
/// Resolution is static, while LSS binds locals dynamically: a `var` or a
/// plain assignment binds its name only when it runs, in the innermost
/// open scope. The pass therefore gives a scope one slot for every name
/// any of its own statements may bind, and a use of a name the list of
/// candidate slots, innermost first (BodyLayout). Which candidate is bound
/// is decided at run time, so an assignment on an untaken branch, a
/// shadowing `var` in a loop body, or a name read before the statement
/// that binds it behaves exactly as with a stack of per-scope maps.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_LSS_RESOLVER_H
#define LIBERTY_LSS_RESOLVER_H

#include "lss/AST.h"

#include <vector>

namespace liberty {
namespace lss {

/// Resolves the names of \p Body: writes slots into its identifiers,
/// declarations and scopes, numbers its ports, parameters and type
/// variables, and describes the result in \p Layout (replacing what it
/// held). Resolving a body again gives the same result.
void resolveBody(const std::vector<Stmt *> &Body, BodyLayout &Layout);

} // namespace lss
} // namespace liberty

#endif // LIBERTY_LSS_RESOLVER_H
