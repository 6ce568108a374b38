//===- Interpreter.h - Compile-time LSS elaboration -------------*- C++ -*-===//
///
/// \file
/// The elaboration interpreter: executes LSS module bodies at compile time
/// to build the static netlist, implementing the paper's novel evaluation
/// semantics (Section 6.2).
///
/// The 7-tuple machine state (M, Is, L, A, B, e, S) maps onto this
/// implementation as follows:
///   M  — the netlist::Netlist under construction
///   Is — InstStack, the stack of instances whose bodies are deferred
///   L  — the Evaluator core's local scopes while the body runs
///   A  — InstanceNode::APendingAssigns/APendingConns of the instance whose
///        body is running (recorded by its parent, consumed by parameter
///        and port declarations — use-based specialization)
///   B  — the same pending lists on *child* nodes while the parent runs
///        (extract(c.n, B) is implicit in this distribution)
///   e/S — the C++ call stack walking the AST
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_INTERP_INTERPRETER_H
#define LIBERTY_INTERP_INTERPRETER_H

#include "interp/Evaluator.h"
#include "interp/Value.h"
#include "lss/AST.h"
#include "netlist/Netlist.h"
#include "support/Diagnostics.h"
#include "types/TypeContext.h"

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace liberty {
namespace interp {

/// Elaboration is the Evaluator core run over module bodies; this class
/// supplies the structural statements, ports, instance references and
/// LSS_* builtins, and keeps the instantiation stack.
class Interpreter : private Evaluator {
public:
  struct Options {
    /// Abort elaboration after this many statement/expression steps
    /// (guards against non-terminating compile-time loops).
    uint64_t MaxSteps = 100000000;
    /// Abort after creating this many instances.
    uint64_t MaxInstances = 1000000;
    // Note: the error cap is no longer per-interpreter. Elaboration stops
    // when the shared DiagnosticEngine's limit is reached
    // (DiagnosticEngine::setMaxErrors / lssc --max-errors).
  };

  Interpreter(types::TypeContext &TC, DiagnosticEngine &Diags);
  Interpreter(types::TypeContext &TC, DiagnosticEngine &Diags, Options Opts);

  /// Registers the module declarations of \p File. Duplicate module names
  /// are diagnosed.
  void addModules(const lss::SpecFile &File);

  /// Returns the registered module with the given name, or null.
  const lss::ModuleDecl *lookupModule(const std::string &Name) const;

  /// Elaborates \p TopLevel (the system description S0) into a netlist.
  /// Always returns a netlist; callers must check Diags.hasErrors().
  std::unique_ptr<netlist::Netlist> run(const std::vector<lss::Stmt *> &TopLevel);

  /// Instances in body-evaluation order — the pop order of the
  /// instantiation stack, used by the semantics tests (Figure 13) and
  /// `lssc --trace-order`. The root comes first.
  const std::vector<const netlist::InstanceNode *> &getProcessingOrder() const {
    return ProcessingOrder;
  }

  /// Messages produced by the print() builtin during elaboration.
  const std::vector<std::string> &getPrintLog() const { return PrintLog; }

  /// Total statement/expression steps executed (used by benches).
  uint64_t getSteps() const { return Steps; }

private:
  /// All state for the body currently being evaluated (its locals live in
  /// the Evaluator core's frame). The vectors are indexed by the numbers
  /// name resolution gave the body's names, and keep their capacity from
  /// body to body.
  struct BodyState {
    netlist::InstanceNode *Node = nullptr;
    /// Per-instance type variables shared by all the body's ports, by
    /// VarTypeExpr::getVarIdx; null until minted.
    std::vector<const types::Type *> TypeVars;
    /// Declared parameter and port names, by ParamDeclStmt::getParamIdx
    /// and PortDeclStmt::getPortIdx.
    std::vector<bool> DeclaredParams;
    std::vector<bool> DeclaredPorts;
    /// Auto-index counters for unindexed internal uses of own ports, by
    /// position in Node->Ports.
    std::vector<int> SelfPortAutoIdx;
    /// Scratch for execPortDecl: the explicit indices seen, sorted.
    std::vector<int> UsedIdx;
    /// The body's connections to sub-instance ports, in order, until the
    /// body ends and hands each instance its own (handOutChildConns).
    std::vector<std::pair<netlist::InstanceNode *, netlist::PendingConn>>
        ChildConns;
  };

  void evalBody(netlist::InstanceNode *Node,
                const std::vector<lss::Stmt *> &Body,
                const lss::BodyLayout &Layout);

  void execParamDecl(const lss::ParamDeclStmt *S);
  void execPortDecl(const lss::PortDeclStmt *S);
  void execInstanceDecl(const lss::InstanceDeclStmt *S);
  void execRuntimeVarDecl(const lss::VarDeclStmt *S);
  void execConnect(const lss::ConnectStmt *S);

  // Evaluator hooks.
  Flow execOther(const lss::Stmt *S) override;
  Value evalOther(const lss::Expr *E) override;
  void stepBudgetExceeded(SourceLoc StmtLoc) override;
  bool aborted() override;
  bool assignUndeclared(const std::string &Name, Value &RHS,
                        SourceLoc Loc) override;
  std::optional<Value> callEnvBuiltin(const std::string &Name,
                                      const std::vector<Value> &Args,
                                      SourceLoc Loc) override;
  Value evalHandleMember(const Value &Base, const lss::MemberExpr *E) override;
  Value evalPortIndex(const Value &Port, int64_t Index,
                      const lss::IndexExpr *E) override;
  void assignInstanceMember(const Value &Inst, const lss::MemberExpr *LHS,
                            Value RHS, SourceLoc Loc) override;

  /// Creates one sub-instance of \p Parent, pushes it on the
  /// instantiation stack, and returns it (null on error).
  netlist::InstanceNode *makeInstance(netlist::InstanceNode *Parent,
                                      const std::string &Name,
                                      const std::string &ModuleName,
                                      SourceLoc Loc);

  /// Creates a connection between two endpoint handles, recording pending
  /// resolutions on child endpoints (the B context).
  void makeConnection(const PortHandle &From, const PortHandle &To,
                      const lss::TypeExpr *Annotation, SourceLoc Loc);

  /// Appends the current body's ChildConns to the instances' APendingConns,
  /// keeping each instance's in connection order. Each list grows once,
  /// to its final size.
  void handOutChildConns();

  /// Resolves one endpoint that refers to the current module's own port.
  void resolveSelfEndpoint(netlist::Connection *Conn, bool IsFrom,
                           const PortHandle &H, SourceLoc Loc);

  /// Converts a syntactic type in the current body's scope (type variables
  /// shared per instance; extents evaluated in the environment).
  const types::Type *convertType(const lss::TypeExpr *TE);

  types::TypeContext &TC;
  Options Opts;

  std::map<std::string, const lss::ModuleDecl *> ModuleTable;
  /// Deterministic registration order, for printing and stats.
  std::vector<const lss::ModuleDecl *> ModuleOrder;

  netlist::Netlist *NL = nullptr;
  std::vector<netlist::InstanceNode *> InstStack;
  BodyState Cur;
  std::vector<const netlist::InstanceNode *> ProcessingOrder;
  /// The resolved top-level statements of the current run().
  lss::BodyLayout TopLayout;
  std::vector<std::string> PrintLog;
  uint64_t NumInstances = 0;
};

} // namespace interp
} // namespace liberty

#endif // LIBERTY_INTERP_INTERPRETER_H
