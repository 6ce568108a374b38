//===- Evaluator.h - The LSS statement and expression core ------*- C++ -*-===//
///
/// \file
/// The one tree walker for LSS statements and expressions. Module bodies
/// (interp/Interpreter, at elaboration time) and userpoint code
/// (bsl/BslProgram, at simulation time) both run on it, so a construct
/// means the same thing, and fails with the same diagnostic, in both.
///
/// The core owns control flow (`if`, `for`, `while`, blocks, `break`,
/// `continue`), local scopes, `var` declarations with their by-type
/// defaults, assignment to locals and to array or struct lvalues,
/// literals, operators, struct and array access, the common builtins and
/// step counting. An environment derives from it and supplies only what
/// differs through the virtual hooks: elaboration adds parameters, ports,
/// instance references, pending assignments, connections and the LSS_*
/// builtins; userpoints add their arguments, runtime variables, read-only
/// parameters and `return`.
///
/// Locals live in one flat frame per body, indexed by the slots name
/// resolution (lss/Resolver.h) assigned before the body runs; a slot that
/// nothing bound on the path taken reads as absent, exactly like a name
/// missing from every scope.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_INTERP_EVALUATOR_H
#define LIBERTY_INTERP_EVALUATOR_H

#include "interp/Value.h"
#include "lss/AST.h"
#include "support/Diagnostics.h"

#include <cstdint>
#include <optional>
#include <string>
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

class Evaluator {
protected:
  /// How a statement completed.
  enum class Flow { Normal, Break, Continue, Return };

  /// \p MaxSteps bounds the statement and expression steps before
  /// evaluation aborts (see aborted()).
  Evaluator(DiagnosticEngine &Diags, uint64_t MaxSteps);

  /// Runs the top-level statements of a body, resolved into \p Layout, in
  /// a fresh frame. Stops at a `return`, when aborted, or at a
  /// `break`/`continue` outside of any loop, which it reports. Returns
  /// false if it stopped for either of the last two reasons.
  bool runBody(const std::vector<lss::Stmt *> &Body,
               const lss::BodyLayout &Layout);

  Flow exec(const lss::Stmt *S);
  Value eval(const lss::Expr *E);

  /// Binds local slot \p Slot (a declaration's own slot) to \p V.
  void define(int Slot, Value V) {
    Local &L = Frame[size_t(Slot)];
    L.V = std::move(V);
    L.Bound = true;
  }
  /// The innermost bound local among the candidates starting at \p Slot
  /// (an identifier's or a declaration's slot), or null.
  Value *lookupLocal(int Slot) {
    for (; Slot >= 0; Slot = Layout->Outer[size_t(Slot)])
      if (Frame[size_t(Slot)].Bound)
        return &Frame[size_t(Slot)].V;
    return nullptr;
  }

  /// True once evaluation must stop. The core stops when the step budget
  /// is spent, reporting it once through stepBudgetExceeded().
  virtual bool aborted();

  //===--------------------------------------------------------------------===//
  // Environment hooks
  //===--------------------------------------------------------------------===//

  /// Executes a statement the core does not own: declarations of
  /// parameters, ports, instances, events, runtime variables and
  /// constraints, connections and `return`.
  virtual Flow execOther(const lss::Stmt *S) = 0;

  /// Evaluates an expression the core does not own (instance arrays).
  virtual Value evalOther(const lss::Expr *E) = 0;

  /// Reports the spent step budget. \p StmtLoc is the location of the
  /// top-level statement that was running.
  virtual void stepBudgetExceeded(SourceLoc StmtLoc) = 0;

  /// What a name that no local scope binds refers to: writable storage,
  /// a read-only parameter, or (both null) nothing.
  struct Binding {
    Value *Var = nullptr;
    const Value *Param = nullptr;
  };
  virtual Binding lookupFree(const std::string &Name);

  /// Assignment to a name bound nowhere. Returns false to let the core
  /// define it as a new local.
  virtual bool assignUndeclared(const std::string &Name, Value &RHS,
                                SourceLoc Loc);

  /// Builtins beyond the common ones; nullopt if \p Name is not one.
  virtual std::optional<Value> callEnvBuiltin(const std::string &Name,
                                              const std::vector<Value> &Args,
                                              SourceLoc Loc);

  /// `Base.Member` where \p Base is a port or an instance reference, and
  /// `Port[Index]`, and `Inst.Member = RHS`. Only elaboration creates
  /// such values; the defaults report them like any other non-struct,
  /// non-array value.
  virtual Value evalHandleMember(const Value &Base, const lss::MemberExpr *E);
  virtual Value evalPortIndex(const Value &Port, int64_t Index,
                              const lss::IndexExpr *E);
  virtual void assignInstanceMember(const Value &Inst,
                                    const lss::MemberExpr *LHS, Value RHS,
                                    SourceLoc Loc);

  DiagnosticEngine &Diags;
  uint64_t Steps = 0;
  const uint64_t MaxSteps;
  bool Aborted = false;

private:
  void execVarDecl(const lss::VarDeclStmt *S);
  void execAssign(const lss::AssignStmt *S);
  Value *resolveLValue(const lss::Expr *E);
  Value evalCall(const lss::CallExpr *E);

  /// Unbinds the slots of a scope that is closing.
  void closeScope(lss::SlotRange R);

  struct Local {
    Value V;
    bool Bound = false;
  };
  /// The running body's locals, one per slot of its layout.
  std::vector<Local> Frame;
  const lss::BodyLayout *Layout = nullptr;
  /// The running top-level statement's location (for the budget report).
  SourceLoc TopLoc;
};

} // namespace interp
} // namespace liberty

#endif // LIBERTY_INTERP_EVALUATOR_H
