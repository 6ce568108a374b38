//===- BslProgram.cpp - Userpoint BSL programs -------------------------------===//

#include "bsl/BslProgram.h"

#include "interp/Evaluator.h"
#include "lss/Parser.h"
#include "lss/Resolver.h"
#include "support/Casting.h"

#include <algorithm>

using namespace liberty;
using namespace liberty::bsl;
using namespace liberty::lss;
using interp::Value;

std::unique_ptr<BslProgram> BslProgram::compile(const std::string &Code,
                                                const std::string &BufferName,
                                                SourceMgr &SM,
                                                DiagnosticEngine &Diags) {
  unsigned ErrorsBefore = Diags.getNumErrors();
  uint32_t BufferId = SM.addBuffer(BufferName, Code);
  std::unique_ptr<BslProgram> P(new BslProgram());
  Parser Parse(BufferId, P->Ctx, Diags);
  P->Body = Parse.parseBslBody();
  if (Diags.getNumErrors() != ErrorsBefore)
    return nullptr;
  resolveBody(P->Body, P->Layout);
  return P;
}

namespace {

/// One userpoint call: the evaluator core over the call's arguments, the
/// instance's runtime variables and its read-only parameters. Names a
/// local scope does not bind resolve in that order.
class UserpointCall final : public interp::Evaluator {
public:
  UserpointCall(const UserpointSig *Sig, std::vector<Value> &Args,
                StateTable &RuntimeVars,
                const std::map<std::string, Value> &Params,
                DiagnosticEngine &Diags)
      : Evaluator(Diags, StepBudget), Sig(Sig), Args(Args),
        RuntimeVars(RuntimeVars), Params(Params) {}

  Value run(const std::vector<Stmt *> &Body, const BodyLayout &Layout) {
    runBody(Body, Layout);
    return std::move(ReturnValue);
  }

private:
  static constexpr uint64_t StepBudget = 10000000;

  Binding lookupFree(const std::string &Name) override {
    if (Sig)
      for (size_t I = 0, N = std::min(Args.size(), Sig->Args.size()); I != N;
           ++I)
        if (Sig->Args[I].first == Name)
          return {&Args[I], nullptr};
    if (Value *RV = RuntimeVars.lookup(Name))
      return {RV, nullptr};
    auto It = Params.find(Name);
    if (It != Params.end())
      return {nullptr, &It->second};
    return {};
  }

  Flow execOther(const Stmt *S) override {
    if (const auto *R = dyn_cast<ReturnStmt>(S)) {
      ReturnValue = R->getValue() ? eval(R->getValue()) : Value();
      return Flow::Return;
    }
    Diags.error(S->getLoc(), "statement not permitted in BSL userpoint code");
    return Flow::Normal;
  }

  Value evalOther(const Expr *E) override {
    Diags.error(E->getLoc(), "expression not permitted in BSL userpoint");
    return Value();
  }

  void stepBudgetExceeded(SourceLoc StmtLoc) override {
    Diags.error(StmtLoc, "userpoint exceeded its step budget");
  }

  const UserpointSig *Sig;
  std::vector<Value> &Args;
  StateTable &RuntimeVars;
  const std::map<std::string, Value> &Params;
  Value ReturnValue;
};

} // namespace

Value BslProgram::run(const UserpointSig *Sig, std::vector<Value> &Args,
                      StateTable &RuntimeVars,
                      const std::map<std::string, Value> &Params,
                      DiagnosticEngine &Diags) const {
  return UserpointCall(Sig, Args, RuntimeVars, Params, Diags)
      .run(Body, Layout);
}
