//===- Interpreter.cpp - Compile-time LSS elaboration -----------------------===//

#include "interp/Interpreter.h"

#include "lss/Resolver.h"
#include "support/Casting.h"

#include <algorithm>
#include <cassert>

using namespace liberty;
using namespace liberty::interp;
using namespace liberty::lss;

Interpreter::Interpreter(types::TypeContext &TC, DiagnosticEngine &Diags)
    : Interpreter(TC, Diags, Options()) {}

Interpreter::Interpreter(types::TypeContext &TC, DiagnosticEngine &Diags,
                         Options Opts)
    : Evaluator(Diags, Opts.MaxSteps), TC(TC), Opts(Opts) {}

void Interpreter::addModules(const SpecFile &File) {
  for (ModuleDecl *M : File.Modules) {
    auto [It, Inserted] = ModuleTable.emplace(M->getName(), M);
    if (!Inserted) {
      Diags.error(M->getLoc(),
                  "redefinition of module '" + M->getName() + "'");
      continue;
    }
    ModuleOrder.push_back(M);
  }
}

const ModuleDecl *Interpreter::lookupModule(const std::string &Name) const {
  auto It = ModuleTable.find(Name);
  return It == ModuleTable.end() ? nullptr : It->second;
}

void Interpreter::stepBudgetExceeded(SourceLoc) {
  Diags.error(SourceLoc(), "elaboration step limit exceeded; "
                           "non-terminating compile-time loop?");
}

bool Interpreter::aborted() {
  if (Evaluator::aborted())
    return true;
  // Shared --max-errors cap: stop elaborating new instances; the engine
  // has already noted the cut for the user.
  if (Diags.errorLimitReached())
    Aborted = true;
  return Aborted;
}

std::unique_ptr<netlist::Netlist>
Interpreter::run(const std::vector<Stmt *> &TopLevel) {
  auto Result = std::make_unique<netlist::Netlist>();
  NL = Result.get();
  InstStack.clear();
  ProcessingOrder.clear();

  // The top level is the body of the synthetic root instance. Module
  // bodies were resolved when parsed; the top-level statements of all the
  // compile's files form one body, resolved here.
  resolveBody(TopLevel, TopLayout);
  evalBody(NL->getRoot(), TopLevel, TopLayout);

  // Pop and evaluate deferred instance bodies (LIFO, Section 6.2).
  while (!InstStack.empty() && !aborted()) {
    netlist::InstanceNode *Node = InstStack.back();
    InstStack.pop_back();
    assert(Node->Module && "deferred instance without a module");
    evalBody(Node, Node->Module->getBody(), Node->Module->getLayout());
  }

  NL = nullptr;
  return Result;
}

void Interpreter::evalBody(netlist::InstanceNode *Node,
                           const std::vector<Stmt *> &Body,
                           const BodyLayout &Layout) {
  ProcessingOrder.push_back(Node);

  Cur.Node = Node;
  Cur.TypeVars.assign(Layout.NumTypeVars, nullptr);
  Cur.DeclaredParams.assign(Layout.NumParamNames, false);
  Cur.DeclaredPorts.assign(Layout.NumPortNames, false);
  Cur.SelfPortAutoIdx.clear();
  Node->Ports.reserve(Layout.NumPortDecls);
  bool Completed = runBody(Body, Layout);
  handOutChildConns();
  if (!Completed)
    return;

  Node->NumTypeVars = unsigned(
      Layout.NumTypeVars -
      std::count(Cur.TypeVars.begin(), Cur.TypeVars.end(), nullptr));

  // A-context leftovers: the paper's check that no assignments or
  // connections were made to non-existent parameters or ports (A = Ø).
  for (netlist::PendingAssign &PA : Node->APendingAssigns) {
    if (PA.Consumed)
      continue;
    // The system userpoints init/end_of_timestep exist on every module
    // without declaration (Section 4.3).
    if ((PA.Field == "init" || PA.Field == "end_of_timestep") &&
        PA.V.isString()) {
      netlist::UserpointValue UV;
      UV.Sig = nullptr;
      UV.Code = PA.V.getString();
      UV.Loc = PA.Loc;
      Node->Userpoints[PA.Field] = std::move(UV);
      PA.Consumed = true;
      continue;
    }
    Diags.error(PA.Loc, "no parameter named '" + PA.Field + "' on module '" +
                            (Node->Module ? Node->Module->getName() : "?") +
                            "' (instance '" + Node->Path + "')");
  }
  for (netlist::PendingConn &PC : Node->APendingConns) {
    if (PC.Consumed)
      continue;
    Diags.error(PC.Loc, "no port named '" + PC.Port + "' on module '" +
                            (Node->Module ? Node->Module->getName() : "?") +
                            "' (instance '" + Node->Path + "')");
  }
}

Interpreter::Flow Interpreter::execOther(const Stmt *S) {
  switch (S->getKind()) {
  case Stmt::Kind::ParamDecl:
    execParamDecl(cast<ParamDeclStmt>(S));
    return Flow::Normal;
  case Stmt::Kind::PortDecl:
    execPortDecl(cast<PortDeclStmt>(S));
    return Flow::Normal;
  case Stmt::Kind::InstanceDecl:
    execInstanceDecl(cast<InstanceDeclStmt>(S));
    return Flow::Normal;
  case Stmt::Kind::VarDecl:
    execRuntimeVarDecl(cast<VarDeclStmt>(S));
    return Flow::Normal;
  case Stmt::Kind::EventDecl:
    Cur.Node->Events.push_back(cast<EventDeclStmt>(S)->getName());
    return Flow::Normal;
  case Stmt::Kind::Constrain: {
    const auto *C = cast<ConstrainStmt>(S);
    const types::Type *&Slot = Cur.TypeVars[C->getVarIdx()];
    if (!Slot)
      Slot = TC.freshVar(C->getVarName());
    const types::Type *Var = Slot;
    const types::Type *Scheme = convertType(C->getScheme());
    if (Scheme)
      Cur.Node->ExtraConstraints.emplace_back(Var, Scheme);
    return Flow::Normal;
  }
  case Stmt::Kind::Connect:
    execConnect(cast<ConnectStmt>(S));
    return Flow::Normal;
  case Stmt::Kind::Return:
    Diags.error(S->getLoc(),
                "'return' is only valid inside BSL userpoint code");
    return Flow::Normal;
  default:
    break; // The Evaluator core's statements never reach here.
  }
  return Flow::Normal;
}

const types::Type *Interpreter::convertType(const TypeExpr *TE) {
  auto EvalSize = [&](const Expr *E) -> std::optional<int64_t> {
    Value V = eval(E);
    if (!V.isInt())
      return std::nullopt;
    return V.getInt();
  };
  return TC.convert(TE, Cur.TypeVars, EvalSize, Diags);
}

void Interpreter::execParamDecl(const ParamDeclStmt *S) {
  netlist::InstanceNode *Node = Cur.Node;
  const std::string &Name = S->getName();
  if (Cur.DeclaredParams[S->getParamIdx()]) {
    Diags.error(S->getLoc(), "redeclaration of parameter '" + Name + "'");
    return;
  }
  Cur.DeclaredParams[S->getParamIdx()] = true;

  // Consult the A context for a use-site value (use-based specialization:
  // the parameter value arrives from the instantiating body).
  const Value *UseValue = nullptr;
  SourceLoc UseLoc;
  for (netlist::PendingAssign &PA : Node->APendingAssigns) {
    if (PA.Field != Name)
      continue;
    if (UseValue)
      Diags.warning(PA.Loc, "parameter '" + Name + "' assigned more than "
                            "once; the last assignment wins");
    PA.Consumed = true;
    UseValue = &PA.V;
    UseLoc = PA.Loc;
  }

  if (S->isUserpoint()) {
    netlist::UserpointValue UV;
    UV.Sig = S->getUserpointSig();
    UV.Loc = S->getLoc();
    if (UseValue) {
      if (!UseValue->isString()) {
        Diags.error(UseLoc, "userpoint parameter '" + Name +
                                "' requires a BSL code string");
        return;
      }
      UV.Code = UseValue->getString();
    } else if (S->getDefault()) {
      Value Def = eval(S->getDefault());
      if (!Def.isString()) {
        Diags.error(S->getLoc(), "default of userpoint parameter '" + Name +
                                     "' must be a BSL code string");
        return;
      }
      UV.Code = Def.getString();
      UV.IsDefault = true;
    } else {
      Diags.error(S->getLoc(),
                  "userpoint parameter '" + Name + "' on instance '" +
                      Node->Path + "' has no value and no default");
      return;
    }
    // The code string is also visible in the body so it can be forwarded
    // to sub-instance userpoints (Figure 12, line 10).
    define(S->getSlot(), Value::makeString(UV.Code));
    Node->Userpoints[Name] = std::move(UV);
    return;
  }

  const types::Type *DeclTy = convertType(S->getType());
  if (!DeclTy)
    return;

  Value V;
  if (UseValue) {
    V = *UseValue;
  } else if (S->getDefault()) {
    V = eval(S->getDefault());
  } else {
    Diags.error(S->getLoc(), "parameter '" + Name + "' on instance '" +
                                 Node->Path + "' has no value and no default");
    return;
  }
  if (!V.conformsTo(DeclTy)) {
    Diags.error(UseValue ? UseLoc : S->getLoc(),
                "value " + V.str() + " does not match type " + DeclTy->str() +
                    " of parameter '" + Name + "'");
    return;
  }
  define(S->getSlot(), V);
  Node->Params[Name] = std::move(V);
}

/// Fills in a connection endpoint and checks direction legality for a
/// child-port endpoint resolved during the child's own port declaration.
static void resolveChildEndpoint(netlist::PendingConn &PC,
                                 netlist::InstanceNode *Node,
                                 const netlist::Port &P, int Index,
                                 DiagnosticEngine &Diags) {
  // The From side of a connection carries data out of the child; the To
  // side carries data in.
  if (PC.IsFrom && P.isInput())
    Diags.error(PC.Loc, "inport '" + P.Name + "' of instance '" + Node->Path +
                            "' cannot be a connection source");
  if (!PC.IsFrom && !P.isInput())
    Diags.error(PC.Loc, "outport '" + P.Name + "' of instance '" +
                            Node->Path + "' cannot be a connection target");
  netlist::PortRef &Ref = PC.IsFrom ? PC.Conn->From : PC.Conn->To;
  Ref.Inst = Node;
  Ref.Port = P.Name;
  Ref.Index = Index;
  PC.Consumed = true;
}

void Interpreter::execPortDecl(const PortDeclStmt *S) {
  netlist::InstanceNode *Node = Cur.Node;
  const std::string &Name = S->getName();
  if (Cur.DeclaredPorts[S->getPortIdx()]) {
    Diags.error(S->getLoc(), "redeclaration of port '" + Name + "'");
    return;
  }
  Cur.DeclaredPorts[S->getPortIdx()] = true;

  netlist::Port P;
  P.Name = Name;
  P.Dir = S->isInput() ? netlist::PortDirection::In
                       : netlist::PortDirection::Out;
  P.Loc = S->getLoc();
  P.AnnotationTE = S->getType();
  P.Scheme = convertType(S->getType());

  // Consume the A context's recorded connections to this port, assigning
  // port-instance indices: explicit indices are honored, unindexed
  // connections get the next free slot (Section 4.2).
  std::vector<int> &Used = Cur.UsedIdx;
  Used.clear();
  int MaxIdx = -1;
  // First pass: explicit indices.
  for (netlist::PendingConn &PC : Node->APendingConns) {
    if (PC.Port != Name || PC.Consumed || PC.ExplicitIndex < 0)
      continue;
    // Repeating an explicit index is fan-out for an outport (one driver,
    // many readers) but multiple drivers for an inport.
    auto It = std::lower_bound(Used.begin(), Used.end(), PC.ExplicitIndex);
    if (It == Used.end() || *It != PC.ExplicitIndex)
      Used.insert(It, PC.ExplicitIndex);
    else if (P.isInput())
      Diags.warning(PC.Loc, "inport instance " + Name + "[" +
                                std::to_string(PC.ExplicitIndex) +
                                "] connected more than once");
    MaxIdx = std::max(MaxIdx, PC.ExplicitIndex);
    resolveChildEndpoint(PC, Node, P, PC.ExplicitIndex, Diags);
  }
  // Second pass: inferred indices, each the lowest one not yet taken.
  int Cursor = 0;
  size_t NextUsed = 0;
  for (netlist::PendingConn &PC : Node->APendingConns) {
    if (PC.Port != Name || PC.Consumed)
      continue;
    while (NextUsed != Used.size() && Used[NextUsed] <= Cursor) {
      if (Used[NextUsed] == Cursor)
        ++Cursor;
      ++NextUsed;
    }
    MaxIdx = std::max(MaxIdx, Cursor);
    resolveChildEndpoint(PC, Node, P, Cursor, Diags);
    ++Cursor;
  }

  P.Width = MaxIdx + 1;
  P.WidthInferred = true;
  Node->Ports.push_back(P);

  // The port name is visible in the body; `name.width` reads the inferred
  // width like any other parameter.
  PortHandle H;
  H.Inst = Node;
  H.Port = Name;
  H.OnSelf = true;
  define(S->getSlot(), Value::makePort(std::move(H)));
}

void Interpreter::execInstanceDecl(const InstanceDeclStmt *S) {
  if (lookupLocal(S->getSlot())) {
    Diags.error(S->getLoc(), "redefinition of name '" + S->getName() + "'");
    return;
  }
  netlist::InstanceNode *Child =
      makeInstance(Cur.Node, S->getName(), S->getModuleName(), S->getLoc());
  if (!Child)
    return;
  define(S->getSlot(), Value::makeInstanceRef(Child));
}

netlist::InstanceNode *Interpreter::makeInstance(
    netlist::InstanceNode *Parent, const std::string &Name,
    const std::string &ModuleName, SourceLoc Loc) {
  const ModuleDecl *M = lookupModule(ModuleName);
  if (!M) {
    Diags.error(Loc, "unknown module '" + ModuleName + "'");
    return nullptr;
  }
  if (++NumInstances > Opts.MaxInstances) {
    if (!Aborted)
      Diags.error(Loc, "instance limit exceeded");
    Aborted = true;
    return nullptr;
  }
  netlist::InstanceNode *Child = NL->createInstance(Parent, Name, M, Loc);
  InstStack.push_back(Child);
  return Child;
}

void Interpreter::execRuntimeVarDecl(const VarDeclStmt *S) {
  // Runtime variables are simulation state (Section 4.3): evaluate the
  // initializer now, but expose the name only to BSL code.
  netlist::RuntimeVar RV;
  RV.Name = S->getName();
  RV.Loc = S->getLoc();
  if (S->getInit()) {
    RV.Init = eval(S->getInit());
    if (!RV.Init.isData()) {
      Diags.error(S->getLoc(), "runtime variable initializer must be a "
                               "data value");
      return;
    }
  } else {
    RV.Init = Value::makeInt(0);
  }
  Cur.Node->RuntimeVars.push_back(std::move(RV));
}

bool Interpreter::assignUndeclared(const std::string &Name, Value &RHS,
                                   SourceLoc Loc) {
  // tar_file is the distinguished internal parameter naming the leaf
  // behavior (Figure 5, line 6); any other undeclared name becomes a
  // local.
  if (Name != "tar_file")
    return false;
  if (!RHS.isString())
    Diags.error(Loc, "tar_file must be a string");
  else
    Cur.Node->BehaviorId = RHS.getString();
  return true;
}

void Interpreter::assignInstanceMember(const Value &Inst,
                                       const MemberExpr *LHS, Value RHS,
                                       SourceLoc Loc) {
  // Record a potential parameter assignment in the B context (consumed
  // when the child's body runs).
  netlist::InstanceNode *Child = Inst.getInstance();
  if (Child->Parent != Cur.Node) {
    Diags.error(Loc, "can only parameterize direct sub-instances");
    return;
  }
  netlist::PendingAssign PA;
  PA.Field = LHS->getMember();
  PA.V = std::move(RHS);
  PA.Loc = Loc;
  Child->APendingAssigns.push_back(std::move(PA));
}

void Interpreter::execConnect(const ConnectStmt *S) {
  Value FromV = eval(S->getFrom());
  Value ToV = eval(S->getTo());
  if (!FromV.isPort() || !ToV.isPort()) {
    if (!FromV.isUnset() && !ToV.isUnset())
      Diags.error(S->getLoc(), "both sides of '->' must be ports");
    return;
  }
  makeConnection(FromV.getPort(), ToV.getPort(), S->getAnnotation(),
                 S->getLoc());
}

void Interpreter::makeConnection(const PortHandle &From, const PortHandle &To,
                                 const TypeExpr *Annotation, SourceLoc Loc) {
  netlist::Connection *Conn = NL->createConnection(Loc);
  if (Annotation)
    Conn->Annotation = convertType(Annotation);

  auto HandleEndpoint = [&](const PortHandle &H, bool IsFrom) {
    if (H.OnSelf) {
      resolveSelfEndpoint(Conn, IsFrom, H, Loc);
      return;
    }
    netlist::PendingConn PC;
    PC.Conn = Conn;
    PC.IsFrom = IsFrom;
    PC.Port = H.Port;
    PC.ExplicitIndex = H.Index;
    PC.Loc = Loc;
    Cur.ChildConns.emplace_back(H.Inst, std::move(PC));
  };
  HandleEndpoint(From, /*IsFrom=*/true);
  HandleEndpoint(To, /*IsFrom=*/false);
}

void Interpreter::handOutChildConns() {
  auto &Conns = Cur.ChildConns;
  auto ById = [](const auto &A, const auto &B) {
    return A.first->Id < B.first->Id;
  };
  // Bodies usually connect their children in creation order.
  if (!std::is_sorted(Conns.begin(), Conns.end(), ById))
    std::stable_sort(Conns.begin(), Conns.end(), ById);
  for (size_t I = 0; I != Conns.size();) {
    netlist::InstanceNode *Inst = Conns[I].first;
    size_t End = I;
    while (End != Conns.size() && Conns[End].first == Inst)
      ++End;
    Inst->APendingConns.reserve(Inst->APendingConns.size() + (End - I));
    for (; I != End; ++I)
      Inst->APendingConns.push_back(std::move(Conns[I].second));
  }
  Conns.clear();
}

void Interpreter::resolveSelfEndpoint(netlist::Connection *Conn, bool IsFrom,
                                      const PortHandle &H, SourceLoc Loc) {
  netlist::Port *P = Cur.Node->findPort(H.Port);
  if (!P) {
    Diags.error(Loc, "use of undeclared port '" + H.Port + "'");
    return;
  }
  // Inside a module body, the module's own inport sources data into the
  // interior and its own outport sinks data from the interior.
  if (IsFrom && !P->isInput())
    Diags.error(Loc, "own outport '" + H.Port +
                         "' cannot source an internal connection");
  if (!IsFrom && P->isInput())
    Diags.error(Loc, "own inport '" + H.Port +
                         "' cannot be the target of an internal connection");
  int Index = H.Index;
  if (Index < 0) {
    size_t PI = size_t(P - Cur.Node->Ports.data());
    if (PI >= Cur.SelfPortAutoIdx.size())
      Cur.SelfPortAutoIdx.resize(Cur.Node->Ports.size(), 0);
    Index = Cur.SelfPortAutoIdx[PI]++;
  }
  netlist::PortRef &Ref = IsFrom ? Conn->From : Conn->To;
  Ref.Inst = Cur.Node;
  Ref.Port = H.Port;
  Ref.Index = Index;
}

Value Interpreter::evalHandleMember(const Value &Base, const MemberExpr *E) {
  if (Base.isInstanceRef()) {
    // A sub-instance member in expression position denotes one of its
    // ports (whose existence is verified when the child's body runs).
    PortHandle H;
    H.Inst = Base.getInstance();
    H.Port = E->getMember();
    H.OnSelf = false;
    return Value::makePort(std::move(H));
  }
  const PortHandle &H = Base.getPort();
  if (E->getMember() == "width") {
    if (!H.OnSelf) {
      Diags.error(E->getLoc(), "a port's width is only available inside "
                               "its own module body");
      return Value();
    }
    const netlist::Port *P = Cur.Node->findPort(H.Port);
    assert(P && "self port handle without declared port");
    return Value::makeInt(P->Width);
  }
  Diags.error(E->getLoc(), "unknown port attribute '" + E->getMember() + "'");
  return Value();
}

Value Interpreter::evalPortIndex(const Value &Port, int64_t Index,
                                 const IndexExpr *E) {
  PortHandle H = Port.getPort();
  if (H.hasIndex()) {
    Diags.error(E->getLoc(), "port instance already selected");
    return Value();
  }
  if (Index < 0) {
    Diags.error(E->getLoc(), "port instance index must be non-negative");
    return Value();
  }
  H.Index = static_cast<int>(Index);
  return Value::makePort(std::move(H));
}

Value Interpreter::evalOther(const Expr *E) {
  const auto *N = cast<NewInstanceArrayExpr>(E);
  Value SizeV = eval(N->getSizeExpr());
  Value NameV = eval(N->getNameExpr());
  if (!SizeV.isInt() || SizeV.getInt() < 0) {
    Diags.error(E->getLoc(), "instance array size must be a non-negative "
                             "int");
    return Value();
  }
  if (!NameV.isString()) {
    Diags.error(E->getLoc(), "instance array base name must be a string");
    return Value();
  }
  std::vector<Value> Refs;
  int64_t Count = SizeV.getInt();
  Refs.reserve(Count);
  for (int64_t I = 0; I != Count; ++I) {
    std::string Name = NameV.getString() + "[" + std::to_string(I) + "]";
    netlist::InstanceNode *Child =
        makeInstance(Cur.Node, Name, N->getModuleName(), E->getLoc());
    if (!Child)
      return Value();
    Refs.push_back(Value::makeInstanceRef(Child));
  }
  return Value::makeArray(std::move(Refs));
}

std::optional<Value>
Interpreter::callEnvBuiltin(const std::string &Name,
                            const std::vector<Value> &Args, SourceLoc Loc) {
  if (Name == "LSS_connect_bus") {
    // LSS_connect_bus(x, y, z): for (i = 0; i < z; i++) x[i] -> y[i];
    // (Figure 10.)
    if (Args.size() != 3 || !Args[0].isPort() || !Args[1].isPort() ||
        !Args[2].isInt()) {
      Diags.error(Loc,
                  "LSS_connect_bus(from, to, width) expects two ports and "
                  "an int");
      return Value();
    }
    if (Args[0].getPort().hasIndex() || Args[1].getPort().hasIndex()) {
      Diags.error(Loc, "LSS_connect_bus endpoints must be whole ports");
      return Value();
    }
    int64_t W = Args[2].getInt();
    for (int64_t I = 0; I != W; ++I) {
      PortHandle From = Args[0].getPort();
      PortHandle To = Args[1].getPort();
      From.Index = static_cast<int>(I);
      To.Index = static_cast<int>(I);
      makeConnection(From, To, /*Annotation=*/nullptr, Loc);
    }
    return Value();
  }
  if (Name == "LSS_assert") {
    if (Args.size() < 1 || Args.size() > 2 || !Args[0].isBool()) {
      Diags.error(Loc, "LSS_assert(cond [, message]) expects a bool");
      return Value();
    }
    if (!Args[0].getBool()) {
      std::string Msg = Args.size() == 2 && Args[1].isString()
                            ? Args[1].getString()
                            : "LSS_assert failed";
      Diags.error(Loc, "assertion failed on instance '" + Cur.Node->Path +
                           "': " + Msg);
    }
    return Value();
  }
  if (Name == "LSS_error") {
    std::string Msg = !Args.empty() && Args[0].isString()
                          ? Args[0].getString()
                          : "explicit error";
    Diags.error(Loc, Msg);
    return Value();
  }
  if (Name == "print") {
    std::string Line;
    for (const Value &V : Args)
      Line += V.isString() ? V.getString() : V.str();
    PrintLog.push_back(std::move(Line));
    return Value();
  }
  return std::nullopt;
}
