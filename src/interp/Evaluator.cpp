//===- Evaluator.cpp - The LSS statement and expression core --------------===//

#include "interp/Evaluator.h"

#include "support/Casting.h"

#include <cmath>
#include <cstdlib>

using namespace liberty;
using namespace liberty::interp;
using namespace liberty::lss;

Evaluator::Evaluator(DiagnosticEngine &Diags, uint64_t MaxSteps)
    : Diags(Diags), MaxSteps(MaxSteps) {}

void Evaluator::closeScope(SlotRange R) {
  for (unsigned I = R.Begin; I != R.End; ++I)
    Frame[I] = Local();
}

bool Evaluator::aborted() {
  if (!Aborted && Steps > MaxSteps) {
    stepBudgetExceeded(TopLoc);
    Aborted = true;
  }
  return Aborted;
}

bool Evaluator::runBody(const std::vector<Stmt *> &Body,
                        const BodyLayout &L) {
  // The frame keeps its capacity from body to body.
  Frame.assign(L.getNumSlots(), Local());
  Layout = &L;
  for (const Stmt *S : Body) {
    if (aborted())
      return false;
    TopLoc = S->getLoc();
    Flow F = exec(S);
    if (F == Flow::Return)
      return true;
    if (F != Flow::Normal) {
      Diags.error(S->getLoc(), "break/continue outside of a loop");
      return false;
    }
  }
  return true;
}

Evaluator::Flow Evaluator::exec(const Stmt *S) {
  ++Steps;
  switch (S->getKind()) {
  case Stmt::Kind::VarDecl:
    if (cast<VarDeclStmt>(S)->isRuntime())
      return execOther(S);
    execVarDecl(cast<VarDeclStmt>(S));
    return Flow::Normal;
  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(S);
    Value CondV = eval(I->getCond());
    std::optional<bool> Cond =
        asCondition(CondV, I->getCond()->getLoc(), Diags);
    if (!Cond)
      return Flow::Normal;
    if (*Cond)
      return exec(I->getThen());
    if (I->getElse())
      return exec(I->getElse());
    return Flow::Normal;
  }
  case Stmt::Kind::For: {
    const auto *F = cast<ForStmt>(S);
    if (F->getInit())
      exec(F->getInit());
    Flow Result = Flow::Normal;
    while (!aborted()) {
      ++Steps;
      if (F->getCond()) {
        Value CondV = eval(F->getCond());
        std::optional<bool> Cond =
            asCondition(CondV, F->getCond()->getLoc(), Diags);
        if (!Cond || !*Cond)
          break;
      }
      Flow BodyFlow = exec(F->getBody());
      if (BodyFlow == Flow::Return) {
        Result = Flow::Return;
        break;
      }
      if (BodyFlow == Flow::Break)
        break;
      if (F->getStep())
        exec(F->getStep());
    }
    closeScope(F->getScope());
    return Result;
  }
  case Stmt::Kind::While: {
    const auto *W = cast<WhileStmt>(S);
    while (!aborted()) {
      ++Steps;
      Value CondV = eval(W->getCond());
      std::optional<bool> Cond =
          asCondition(CondV, W->getCond()->getLoc(), Diags);
      if (!Cond || !*Cond)
        break;
      Flow BodyFlow = exec(W->getBody());
      if (BodyFlow == Flow::Return)
        return Flow::Return;
      if (BodyFlow == Flow::Break)
        break;
    }
    return Flow::Normal;
  }
  case Stmt::Kind::Block: {
    const auto *B = cast<BlockStmt>(S);
    Flow Result = Flow::Normal;
    for (const Stmt *Sub : B->getBody()) {
      if (aborted())
        break;
      Result = exec(Sub);
      if (Result != Flow::Normal)
        break;
    }
    closeScope(B->getScope());
    return Result;
  }
  case Stmt::Kind::Assign:
    execAssign(cast<AssignStmt>(S));
    return Flow::Normal;
  case Stmt::Kind::ExprStmt:
    eval(cast<ExprStmt>(S)->getExpr());
    return Flow::Normal;
  case Stmt::Kind::Break:
    return Flow::Break;
  case Stmt::Kind::Continue:
    return Flow::Continue;
  default:
    return execOther(S);
  }
}

/// The value a `var` of declared type \p TE starts with when it has no
/// initializer: zero, false, 0.0, "" or [] by type, and for a struct its
/// fields' defaults. Other types (instance refs) stay Unset until
/// assigned.
static Value declDefault(const TypeExpr *TE) {
  if (isa<ArrayTypeExpr>(TE))
    return Value::makeArray({});
  if (const auto *STE = dyn_cast<StructTypeExpr>(TE)) {
    Value::FieldList Fields;
    for (const auto &[Name, FieldTE] : STE->getFields())
      Fields.emplace_back(Name, declDefault(FieldTE));
    return Value::makeStruct(std::move(Fields));
  }
  if (const auto *BTE = dyn_cast<BasicTypeExpr>(TE)) {
    switch (BTE->getBasicKind()) {
    case BasicTypeExpr::Basic::Int:
      return Value::makeInt(0);
    case BasicTypeExpr::Basic::Bool:
      return Value::makeBool(false);
    case BasicTypeExpr::Basic::Float:
      return Value::makeFloat(0.0);
    case BasicTypeExpr::Basic::String:
      return Value::makeString("");
    }
  }
  return Value();
}

void Evaluator::execVarDecl(const VarDeclStmt *S) {
  define(S->getSlot(),
         S->getInit() ? eval(S->getInit()) : declDefault(S->getType()));
}

void Evaluator::execAssign(const AssignStmt *S) {
  Value RHS = eval(S->getRHS());

  // A plain name: a local, else the environment's binding, else a new
  // local.
  if (const auto *Id = dyn_cast<IdentExpr>(S->getLHS())) {
    const std::string &Name = Id->getName();
    if (Value *Slot = lookupLocal(Id->getSlot())) {
      if (Slot->isPort()) {
        Diags.error(S->getLoc(), "cannot assign to port '" + Name + "'");
        return;
      }
      *Slot = std::move(RHS);
      return;
    }
    Binding B = lookupFree(Name);
    if (B.Var) {
      *B.Var = std::move(RHS);
      return;
    }
    if (B.Param) {
      Diags.error(S->getLoc(),
                  "cannot assign to read-only parameter '" + Name + "'");
      return;
    }
    // The resolver gave the name a slot in this statement's own scope,
    // which is where the identifier's candidates start.
    if (!assignUndeclared(Name, RHS, S->getLoc()))
      define(Id->getSlot(), std::move(RHS));
    return;
  }

  // A sub-instance field is a parameter assignment, not storage.
  if (const auto *M = dyn_cast<MemberExpr>(S->getLHS())) {
    Value Base = eval(M->getBase());
    if (Base.isInstanceRef()) {
      assignInstanceMember(Base, M, std::move(RHS), S->getLoc());
      return;
    }
  }

  // A compound lvalue: an array element or struct field.
  if (Value *Slot = resolveLValue(S->getLHS())) {
    *Slot = std::move(RHS);
    return;
  }
  Diags.error(S->getLoc(), "invalid assignment target");
}

Value *Evaluator::resolveLValue(const Expr *E) {
  switch (E->getKind()) {
  case Expr::Kind::Ident: {
    const auto *Id = cast<IdentExpr>(E);
    if (Value *V = lookupLocal(Id->getSlot()))
      return V;
    return lookupFree(Id->getName()).Var;
  }
  case Expr::Kind::Index: {
    const auto *I = cast<IndexExpr>(E);
    // The index first: a copy made while evaluating it must not share a
    // struct payload that the pointers taken below then write through.
    Value Idx = eval(I->getIndex());
    Value *Base = resolveLValue(I->getBase());
    if (!Base || !Base->isArray() || !Idx.isInt())
      return nullptr;
    auto &Elems = Base->getElemsMutable();
    int64_t N = Idx.getInt();
    if (N < 0 || N >= static_cast<int64_t>(Elems.size())) {
      Diags.error(E->getLoc(), "array index " + std::to_string(N) +
                                   " out of bounds (size " +
                                   std::to_string(Elems.size()) + ")");
      return nullptr;
    }
    return &Elems[N];
  }
  case Expr::Kind::Member: {
    const auto *M = cast<MemberExpr>(E);
    Value *Base = resolveLValue(M->getBase());
    if (!Base || !Base->isStruct())
      return nullptr;
    Value *Field = Base->getFieldMutable(M->getMember());
    if (!Field)
      Diags.error(E->getLoc(), "no field named '" + M->getMember() + "'");
    return Field;
  }
  default:
    return nullptr;
  }
}

Value Evaluator::eval(const Expr *E) {
  ++Steps;
  switch (E->getKind()) {
  case Expr::Kind::IntLit:
    return Value::makeInt(cast<IntLitExpr>(E)->getValue());
  case Expr::Kind::FloatLit:
    return Value::makeFloat(cast<FloatLitExpr>(E)->getValue());
  case Expr::Kind::StringLit:
    return Value::makeString(cast<StringLitExpr>(E)->getValue());
  case Expr::Kind::BoolLit:
    return Value::makeBool(cast<BoolLitExpr>(E)->getValue());
  case Expr::Kind::Ident: {
    const auto *Id = cast<IdentExpr>(E);
    if (const Value *V = lookupLocal(Id->getSlot()))
      return *V;
    const std::string &Name = Id->getName();
    Binding B = lookupFree(Name);
    if (B.Var)
      return *B.Var;
    if (B.Param)
      return *B.Param;
    Diags.error(E->getLoc(), "use of undefined name '" + Name + "'");
    return Value();
  }
  case Expr::Kind::Member: {
    const auto *M = cast<MemberExpr>(E);
    Value Base = eval(M->getBase());
    if (Base.isPort() || Base.isInstanceRef())
      return evalHandleMember(Base, M);
    if (Base.isStruct()) {
      if (const Value *F = Base.getField(M->getMember()))
        return *F;
      Diags.error(E->getLoc(), "no field named '" + M->getMember() + "'");
      return Value();
    }
    if (!Base.isUnset())
      Diags.error(E->getLoc(), "cannot access member '" + M->getMember() +
                                   "' of " + Base.str());
    return Value();
  }
  case Expr::Kind::Index: {
    const auto *I = cast<IndexExpr>(E);
    Value Base = eval(I->getBase());
    Value Idx = eval(I->getIndex());
    if (!Idx.isInt()) {
      if (!Idx.isUnset())
        Diags.error(I->getIndex()->getLoc(), "index must be an int");
      return Value();
    }
    int64_t N = Idx.getInt();
    if (Base.isArray()) {
      const auto &Elems = Base.getElems();
      if (N < 0 || N >= static_cast<int64_t>(Elems.size())) {
        Diags.error(E->getLoc(), "array index " + std::to_string(N) +
                                     " out of bounds (size " +
                                     std::to_string(Elems.size()) + ")");
        return Value();
      }
      return Elems[N];
    }
    if (Base.isPort())
      return evalPortIndex(Base, N, I);
    if (!Base.isUnset())
      Diags.error(E->getLoc(), "cannot index " + Base.str());
    return Value();
  }
  case Expr::Kind::Call:
    return evalCall(cast<CallExpr>(E));
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    Value A = eval(U->getOperand());
    if (A.isUnset())
      return Value();
    return applyUnary(U->getOp(), A, E->getLoc(), Diags);
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    Value L = eval(B->getLHS());
    if (L.isUnset())
      return Value();
    // Short-circuit evaluation for the logical operators.
    if (B->getOp() == BinaryOp::And && L.isBool() && !L.getBool())
      return Value::makeBool(false);
    if (B->getOp() == BinaryOp::Or && L.isBool() && L.getBool())
      return Value::makeBool(true);
    Value R = eval(B->getRHS());
    if (R.isUnset())
      return Value();
    return applyBinary(B->getOp(), L, R, E->getLoc(), Diags);
  }
  default:
    return evalOther(E);
  }
}

Value Evaluator::evalCall(const CallExpr *E) {
  std::vector<Value> Args;
  Args.reserve(E->getArgs().size());
  for (const Expr *Arg : E->getArgs())
    Args.push_back(eval(Arg));

  const std::string &Name = E->getCallee();
  if (std::optional<Value> R = callEnvBuiltin(Name, Args, E->getLoc()))
    return *R;
  if (std::optional<Value> R =
          applyCommonBuiltin(Name, Args, E->getLoc(), Diags))
    return *R;
  Diags.error(E->getLoc(), "unknown function '" + Name + "'");
  return Value();
}

Evaluator::Binding Evaluator::lookupFree(const std::string &) { return {}; }

bool Evaluator::assignUndeclared(const std::string &, Value &, SourceLoc) {
  return false;
}

std::optional<Value> Evaluator::callEnvBuiltin(const std::string &,
                                               const std::vector<Value> &,
                                               SourceLoc) {
  return std::nullopt;
}

Value Evaluator::evalHandleMember(const Value &Base, const MemberExpr *E) {
  Diags.error(E->getLoc(), "cannot access member '" + E->getMember() +
                               "' of " + Base.str());
  return Value();
}

Value Evaluator::evalPortIndex(const Value &Port, int64_t,
                               const IndexExpr *E) {
  Diags.error(E->getLoc(), "cannot index " + Port.str());
  return Value();
}

void Evaluator::assignInstanceMember(const Value &, const MemberExpr *,
                                     Value, SourceLoc Loc) {
  Diags.error(Loc, "invalid assignment target");
}

//===----------------------------------------------------------------------===//
// Operators and common builtins
//===----------------------------------------------------------------------===//

static Value typeError(SourceLoc Loc, DiagnosticEngine &Diags,
                       const std::string &Msg) {
  Diags.error(Loc, Msg);
  return Value();
}

Value liberty::interp::applyBinary(BinaryOp Op, const Value &A, const Value &B,
                                   SourceLoc Loc, DiagnosticEngine &Diags) {
  const bool BothNumeric = (A.isInt() || A.isFloat()) &&
                           (B.isInt() || B.isFloat());
  const bool BothInt = A.isInt() && B.isInt();

  switch (Op) {
  case BinaryOp::Add:
    if (A.isString() && B.isString())
      return Value::makeString(A.getString() + B.getString());
    [[fallthrough]];
  case BinaryOp::Sub:
  case BinaryOp::Mul: {
    if (!BothNumeric)
      return typeError(Loc, Diags,
                       "arithmetic operands must be numeric, got " + A.str() +
                           " and " + B.str());
    if (BothInt) {
      int64_t X = A.getInt(), Y = B.getInt();
      switch (Op) {
      case BinaryOp::Add:
        return Value::makeInt(X + Y);
      case BinaryOp::Sub:
        return Value::makeInt(X - Y);
      default:
        return Value::makeInt(X * Y);
      }
    }
    double X = A.getNumeric(), Y = B.getNumeric();
    switch (Op) {
    case BinaryOp::Add:
      return Value::makeFloat(X + Y);
    case BinaryOp::Sub:
      return Value::makeFloat(X - Y);
    default:
      return Value::makeFloat(X * Y);
    }
  }
  case BinaryOp::Div:
  case BinaryOp::Rem: {
    if (!BothNumeric)
      return typeError(Loc, Diags, "arithmetic operands must be numeric");
    if (BothInt) {
      int64_t Y = B.getInt();
      if (Y == 0)
        return typeError(Loc, Diags, "division by zero");
      return Value::makeInt(Op == BinaryOp::Div ? A.getInt() / Y
                                                : A.getInt() % Y);
    }
    double Y = B.getNumeric();
    if (Op == BinaryOp::Rem)
      return Value::makeFloat(std::fmod(A.getNumeric(), Y));
    if (Y == 0.0)
      return typeError(Loc, Diags, "division by zero");
    return Value::makeFloat(A.getNumeric() / Y);
  }
  case BinaryOp::Lt:
  case BinaryOp::Gt:
  case BinaryOp::Le:
  case BinaryOp::Ge: {
    double Cmp;
    if (BothNumeric)
      Cmp = A.getNumeric() - B.getNumeric();
    else if (A.isString() && B.isString())
      Cmp = static_cast<double>(A.getString().compare(B.getString()));
    else
      return typeError(Loc, Diags,
                       "comparison operands must both be numeric or string");
    switch (Op) {
    case BinaryOp::Lt:
      return Value::makeBool(Cmp < 0);
    case BinaryOp::Gt:
      return Value::makeBool(Cmp > 0);
    case BinaryOp::Le:
      return Value::makeBool(Cmp <= 0);
    default:
      return Value::makeBool(Cmp >= 0);
    }
  }
  case BinaryOp::Eq:
  case BinaryOp::Ne: {
    bool Equal;
    if (BothNumeric && !BothInt)
      Equal = A.getNumeric() == B.getNumeric();
    else
      Equal = A.equals(B);
    return Value::makeBool(Op == BinaryOp::Eq ? Equal : !Equal);
  }
  case BinaryOp::And:
  case BinaryOp::Or: {
    if (!A.isBool() || !B.isBool())
      return typeError(Loc, Diags, "logical operands must be bool");
    return Value::makeBool(Op == BinaryOp::And
                               ? (A.getBool() && B.getBool())
                               : (A.getBool() || B.getBool()));
  }
  }
  return Value();
}

Value liberty::interp::applyUnary(UnaryOp Op, const Value &A, SourceLoc Loc,
                                  DiagnosticEngine &Diags) {
  switch (Op) {
  case UnaryOp::Neg:
    if (A.isInt())
      return Value::makeInt(-A.getInt());
    if (A.isFloat())
      return Value::makeFloat(-A.getFloat());
    return typeError(Loc, Diags, "operand of unary '-' must be numeric");
  case UnaryOp::Not:
    if (A.isBool())
      return Value::makeBool(!A.getBool());
    return typeError(Loc, Diags, "operand of '!' must be bool");
  }
  return Value();
}

std::optional<Value>
liberty::interp::applyCommonBuiltin(const std::string &Name,
                                    const std::vector<Value> &Args,
                                    SourceLoc Loc, DiagnosticEngine &Diags) {
  auto RequireArgs = [&](unsigned N) {
    if (Args.size() == N)
      return true;
    Diags.error(Loc, Name + "() expects " + std::to_string(N) +
                         " argument(s), got " + std::to_string(Args.size()));
    return false;
  };

  if (Name == "min" || Name == "max") {
    if (!RequireArgs(2))
      return Value();
    const Value &A = Args[0], &B = Args[1];
    if (A.isInt() && B.isInt()) {
      int64_t X = A.getInt(), Y = B.getInt();
      return Value::makeInt(Name == "min" ? std::min(X, Y) : std::max(X, Y));
    }
    if ((A.isInt() || A.isFloat()) && (B.isInt() || B.isFloat())) {
      double X = A.getNumeric(), Y = B.getNumeric();
      return Value::makeFloat(Name == "min" ? std::min(X, Y)
                                            : std::max(X, Y));
    }
    Diags.error(Loc, Name + "() expects numeric arguments");
    return Value();
  }
  if (Name == "abs") {
    if (!RequireArgs(1))
      return Value();
    if (Args[0].isInt())
      return Value::makeInt(std::llabs(Args[0].getInt()));
    if (Args[0].isFloat())
      return Value::makeFloat(std::fabs(Args[0].getFloat()));
    Diags.error(Loc, "abs() expects a numeric argument");
    return Value();
  }
  if (Name == "len") {
    if (!RequireArgs(1))
      return Value();
    if (Args[0].isArray())
      return Value::makeInt(static_cast<int64_t>(Args[0].getElems().size()));
    if (Args[0].isString())
      return Value::makeInt(static_cast<int64_t>(Args[0].getString().size()));
    Diags.error(Loc, "len() expects an array or string");
    return Value();
  }
  if (Name == "str") {
    if (!RequireArgs(1))
      return Value();
    if (Args[0].isString())
      return Args[0];
    if (Args[0].isInt())
      return Value::makeString(std::to_string(Args[0].getInt()));
    return Value::makeString(Args[0].str());
  }
  if (Name == "int") {
    if (!RequireArgs(1))
      return Value();
    if (Args[0].isInt())
      return Args[0];
    if (Args[0].isFloat())
      return Value::makeInt(static_cast<int64_t>(Args[0].getFloat()));
    if (Args[0].isBool())
      return Value::makeInt(Args[0].getBool() ? 1 : 0);
    Diags.error(Loc, "int() cannot convert " + Args[0].str());
    return Value();
  }
  if (Name == "float") {
    if (!RequireArgs(1))
      return Value();
    if (Args[0].isFloat())
      return Args[0];
    if (Args[0].isInt())
      return Value::makeFloat(static_cast<double>(Args[0].getInt()));
    Diags.error(Loc, "float() cannot convert " + Args[0].str());
    return Value();
  }
  if (Name == "bit") {
    // bit(x, i) — bit i of integer x.
    if (!RequireArgs(2))
      return Value();
    if (!Args[0].isInt() || !Args[1].isInt() || Args[1].getInt() < 0 ||
        Args[1].getInt() > 62) {
      Diags.error(Loc, "bit(x, i) expects ints with 0 <= i <= 62");
      return Value();
    }
    return Value::makeInt((Args[0].getInt() >> Args[1].getInt()) & 1);
  }
  if (Name == "array") {
    // array(n, init) — an n-element array filled with init.
    if (!RequireArgs(2))
      return Value();
    if (!Args[0].isInt() || Args[0].getInt() < 0) {
      Diags.error(Loc, "array() size must be a non-negative int");
      return Value();
    }
    std::vector<Value> Elems(static_cast<size_t>(Args[0].getInt()), Args[1]);
    return Value::makeArray(std::move(Elems));
  }
  if (Name == "append") {
    if (!RequireArgs(2))
      return Value();
    if (!Args[0].isArray()) {
      Diags.error(Loc, "append() expects an array first argument");
      return Value();
    }
    std::vector<Value> Elems = Args[0].getElems();
    Elems.push_back(Args[1]);
    return Value::makeArray(std::move(Elems));
  }
  return std::nullopt;
}

std::optional<bool> liberty::interp::asCondition(const Value &V, SourceLoc Loc,
                                                 DiagnosticEngine &Diags) {
  if (V.isBool())
    return V.getBool();
  Diags.error(Loc, "condition must be a bool, got " + V.str());
  return std::nullopt;
}
