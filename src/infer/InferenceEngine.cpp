//===- InferenceEngine.cpp - LSS type inference ------------------------------===//

#include "infer/InferenceEngine.h"

#include "netlist/Netlist.h"
#include "support/PhaseTimer.h"
#include "support/ThreadPool.h"
#include "types/Type.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <functional>
#include <list>
#include <map>
#include <mutex>
#include <numeric>
#include <string_view>
#include <thread>
#include <unordered_map>

using namespace liberty;
using namespace liberty::infer;
using types::Type;

std::string Constraint::renderContext() const {
  if (!Context.empty() || !Inst)
    return Context;
  switch (Origin) {
  case ConstraintOriginKind::PortAnnotation:
    return "annotation of port '" +
           Inst->Ports[static_cast<size_t>(PortIdx)].Name +
           "' on instance '" + Inst->Path + "'";
  case ConstraintOriginKind::ConstrainStmt:
    return "constrain statement of instance '" + Inst->Path + "'";
  case ConstraintOriginKind::Connection:
    return "connection";
  case ConstraintOriginKind::ConnAnnotation:
    return "connection annotation";
  case ConstraintOriginKind::None:
    break;
  }
  return Context;
}

const std::string &Constraint::instancePath() const {
  if (!InstancePath.empty() || !Inst)
    return InstancePath;
  return Inst->Path;
}

/// Total number of alternatives across every disjunct node in \p T —
/// the "how overloaded is this constraint" figure reported when a group
/// exhausts its budget.
static unsigned countAlternatives(const Type *T) {
  switch (T->getKind()) {
  case Type::Kind::Disjunct: {
    unsigned N = T->getAlternatives().size();
    for (const Type *Alt : T->getAlternatives())
      N += countAlternatives(Alt);
    return N;
  }
  case Type::Kind::Array:
    return countAlternatives(T->getElem());
  case Type::Kind::Struct: {
    unsigned N = 0;
    for (const auto &[Name, FieldTy] : T->getFields())
      N += countAlternatives(FieldTy);
    return N;
  }
  default:
    return 0;
  }
}

/// True if a disjunct node occurs anywhere in \p T (syntactically; the
/// caller resolves bindings as needed).
static bool containsDisjunct(const Type *T) {
  switch (T->getKind()) {
  case Type::Kind::Disjunct:
    return true;
  case Type::Kind::Array:
    return containsDisjunct(T->getElem());
  case Type::Kind::Struct:
    for (const auto &[Name, FieldTy] : T->getFields())
      if (containsDisjunct(FieldTy))
        return true;
    return false;
  default:
    return false;
  }
}

bool InferenceEngine::overBudget(const Unifier &WU, const SolveOptions &Opts,
                                 SolveStats &Stats) const {
  if (WU.getSteps() > Opts.MaxSteps) {
    Stats.HitLimit = true;
    return true;
  }
  // The wall-clock deadline is polled at a coarse step granularity so the
  // common (no-deadline) hot path never reads the clock.
  if (HasDeadline && (WU.getSteps() & 0x3FF) == 0 &&
      std::chrono::steady_clock::now() > Deadline) {
    Stats.HitDeadline = true;
    return true;
  }
  return false;
}

/// The pending work of one depth-first search (one H3 group, or the serial
/// H2 trials): an arena of immutable {pair, next} nodes. Trying an
/// alternative pushes one node in front of the shared suffix, so sibling
/// alternatives see the same suffix without copying it; backtracking
/// truncates the arena to the mark taken before the push, next to the
/// unifier's rollback. Nodes above a mark are only reachable from the
/// branch that pushed them, so truncation never cuts a live list.
struct InferenceEngine::WorkList {
  static constexpr uint32_t End = ~0u;
  struct Node {
    TypePair P;
    uint32_t Next;
  };
  std::vector<Node> Nodes;
  std::vector<TypePair> Deferred; ///< Scratch for unifyStructural.

  uint32_t push(TypePair P, uint32_t Next) {
    Nodes.push_back(Node{P, Next});
    return uint32_t(Nodes.size() - 1);
  }
  /// Pushes \p Pairs in front of \p Next, keeping their order.
  uint32_t pushAll(const std::vector<TypePair> &Pairs, uint32_t Next) {
    for (size_t I = Pairs.size(); I-- != 0;)
      Next = push(Pairs[I], Next);
    return Next;
  }
  size_t mark() const { return Nodes.size(); }
  void truncate(size_t Mark) { Nodes.resize(Mark); }
};

/// True when unifying (\p A, \p B) deferred exactly that pair: a choice
/// pair, which the search branches on instead of unifying.
static bool deferredItself(const std::vector<TypePair> &Deferred,
                           const Type *A, const Type *B) {
  return Deferred.size() == 1 && Deferred.front().A == A &&
         Deferred.front().B == B;
}

namespace {

/// Each non-scalar pointer of a group's key, by its number there.
using NodeNumbers = std::unordered_map<const Type *, uint32_t>;

/// The canonical form of one H3 group's residual work as its search sees
/// it: the residual pairs in list order, every node resolved through the
/// shared bindings, with unbound variables and non-scalar nodes numbered by
/// first appearance. A repeated pointer is written as a back-reference to
/// its number, so the key records node sharing as well as structure: the
/// search compares nodes by pointer (unifyStructural's A == B,
/// substitute's T == D, deferredItself), and two groups whose sharing
/// differs can take different paths. Groups with equal keys therefore
/// search identically under the renaming Nodes[k] -> Nodes'[k]; see
/// docs/INFERENCE.md, "Solving each distinct group once".
struct GroupShape {
  std::string Key;
  /// Every non-scalar pointer the key walk met, by number: unbound
  /// variables, variables the serial phases bound (as they sit, unresolved,
  /// in a child slot), and array, struct and disjunct nodes.
  std::vector<const Type *> Nodes;
};

class ShapeEncoder {
public:
  /// \p VarNumber, indexed by variable id, receives each unbound
  /// variable's number in the key of the (one) group it belongs to.
  ShapeEncoder(const Unifier &U, std::vector<uint32_t> &VarNumber)
      : U(U), VarNumber(VarNumber) {}

  void begin(GroupShape &Out) {
    S = &Out;
    Seen.clear();
  }

  /// Appends \p T, as it sits in a pair or child slot, to the key.
  void term(const Type *T) {
    std::string &Key = S->Key;
    switch (T->getKind()) {
    case Type::Kind::Int:
      Key.push_back('i');
      return;
    case Type::Kind::Bool:
      Key.push_back('b');
      return;
    case Type::Kind::Float:
      Key.push_back('f');
      return;
    case Type::Kind::String:
      Key.push_back('t');
      return;
    default:
      break;
    }
    auto [It, New] = Seen.try_emplace(T, uint32_t(S->Nodes.size()));
    const uint32_t Number = It->second;
    if (!New) {
      Key.push_back('r');
      number(Number);
      return;
    }
    S->Nodes.push_back(T);
    switch (T->getKind()) {
    case Type::Kind::Var:
      // A bound variable is transparent to the search, which always looks
      // through it; it is numbered anyway because a rebuilt node copies
      // the slot holding it (Unifier::substitute).
      if (U.lookup(T->getVarId())) {
        Key.push_back('w');
        term(U.find(T));
      } else {
        Key.push_back('v');
        VarNumber[T->getVarId()] = Number;
      }
      return;
    case Type::Kind::Array:
      Key.push_back('a');
      number(uint64_t(T->getArraySize()));
      term(T->getElem());
      return;
    case Type::Kind::Struct:
      Key.push_back('s');
      number(T->getFields().size());
      for (const auto &[Name, FieldTy] : T->getFields()) {
        number(Name.size());
        Key += Name;
        term(FieldTy);
      }
      return;
    case Type::Kind::Disjunct:
      Key.push_back('d');
      number(T->getAlternatives().size());
      for (const Type *Alt : T->getAlternatives())
        term(Alt);
      return;
    default:
      return; // Scalars are handled above.
    }
  }

private:
  /// LEB128, so the key stays a prefix-free code.
  void number(uint64_t N) {
    do {
      S->Key.push_back(char((N & 0x7F) | (N > 0x7F ? 0x80 : 0)));
      N >>= 7;
    } while (N);
  }

  const Unifier &U;
  std::vector<uint32_t> &VarNumber;
  GroupShape *S = nullptr;
  NodeNumbers Seen;
};

/// Rewrites a representative's group bindings for a sibling with an equal
/// key: numbered pointers map position for position, scalars map to
/// themselves, and any other node was allocated by the representative's
/// search (a choice branch's rebuilt term) and is rebuilt, once, from its
/// renamed children.
class SiblingRenaming {
public:
  /// \p RepNumbers numbers the representative's Nodes; \p VarNumber is
  /// the key walk's variable numbering.
  SiblingRenaming(const NodeNumbers &RepNumbers,
                  const std::vector<uint32_t> &VarNumber,
                  const GroupShape &Sib, types::TypeContext &TC)
      : RepNumbers(RepNumbers), VarNumber(VarNumber), Sib(Sib), TC(TC) {}

  uint32_t var(uint32_t VarId) const {
    return Sib.Nodes[VarNumber[VarId]]->getVarId();
  }

  const Type *term(const Type *T) {
    if (T->isScalar())
      return T;
    if (auto It = RepNumbers.find(T); It != RepNumbers.end())
      return Sib.Nodes[It->second];
    if (auto It = Rebuilt.find(T); It != Rebuilt.end())
      return It->second;
    const Type *R = nullptr;
    switch (T->getKind()) {
    case Type::Kind::Array:
      R = TC.getArray(term(T->getElem()), T->getArraySize());
      break;
    case Type::Kind::Struct: {
      std::vector<std::pair<std::string, const Type *>> Fields;
      Fields.reserve(T->getFields().size());
      for (const auto &[Name, FieldTy] : T->getFields())
        Fields.emplace_back(Name, term(FieldTy));
      R = TC.getStruct(std::move(Fields));
      break;
    }
    default:
      // The search allocates arrays and structs only; every variable and
      // disjunct it reaches was numbered by the key walk.
      assert(false && "node outside the group");
      return T;
    }
    Rebuilt.emplace(T, R);
    return R;
  }

private:
  const NodeNumbers &RepNumbers;
  const std::vector<uint32_t> &VarNumber;
  const GroupShape &Sib;
  types::TypeContext &TC;
  std::unordered_map<const Type *, const Type *> Rebuilt;
};

} // namespace

bool InferenceEngine::solveList(Unifier &WU, WorkList &WL, uint32_t Head,
                                const SolveOptions &Opts, SolveStats &Stats) {
  while (Head != WorkList::End) {
    if (overBudget(WU, Opts, Stats))
      return false;
    const WorkList::Node N = WL.Nodes[Head]; // Copy: pushes may reallocate.
    const Type *A = WU.find(N.P.A);
    const Type *B = WU.find(N.P.B);
    // Branch on a disjunct side, or on the disjunct inside a choice pair's
    // term; otherwise unify, solving any nested work it exposes next.
    const Type *D = nullptr, *O = nullptr, *Var = nullptr;
    if (A->isDisjunct() || B->isDisjunct()) {
      D = A->isDisjunct() ? A : B;
      O = A->isDisjunct() ? B : A;
    } else {
      WL.Deferred.clear();
      if (!WU.unifyStructural(A, B, WL.Deferred))
        return false;
      if (!deferredItself(WL.Deferred, A, B)) {
        Head = WL.pushAll(WL.Deferred, N.Next);
        continue;
      }
      Var = A->isVar() ? A : B;
      O = A->isVar() ? B : A;
      D = WU.findChoice(Var->getVarId(), O);
    }
    ++Stats.BranchPoints;
    for (const Type *Alt : D->getAlternatives()) {
      Unifier::Checkpoint CP = WU.checkpoint();
      size_t Mark = WL.mark();
      TypePair P{Alt, O};
      if (Var) {
        // Rare: the rebuilt term is allocated, and group workers share
        // the TypeContext.
        std::lock_guard<std::mutex> Lock(TypeAllocMutex);
        P = TypePair{Var, WU.substitute(O, D, Alt)};
      }
      if (solveList(WU, WL, WL.push(P, N.Next), Opts, Stats))
        return true;
      WU.rollback(CP);
      WL.truncate(Mark);
      if (overBudget(WU, Opts, Stats))
        return false;
    }
    return false;
  }
  return true;
}

SolveStats InferenceEngine::solve(const std::vector<Constraint> &Constraints,
                                  const SolveOptions &Opts) {
  SolveStats Stats;
  Stats.NumConstraints = Constraints.size();
  uint64_t StepsBefore = U.getSteps();

  // Arm the wall-clock deadline before any work (and before group workers
  // start, so they read HasDeadline/Deadline without synchronization).
  HasDeadline = Opts.DeadlineMs != 0;
  if (HasDeadline)
    Deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(Opts.DeadlineMs);

  auto Fail = [&](const std::string &Msg, SourceLoc Loc) {
    Stats.Success = false;
    Stats.FailMessage = Msg;
    Stats.FailLoc = Loc;
    Stats.UnifySteps = U.getSteps() - StepsBefore;
    Stats.UnifyStepsSearched = Stats.UnifySteps;
    return Stats;
  };
  auto BudgetMessage = [&Stats]() -> std::string {
    return Stats.HitDeadline && !Stats.HitLimit
               ? "type inference exceeded its wall-clock deadline"
               : "type inference exceeded its work budget";
  };

  // Pending disjunctive work. Provenance stays a pointer to the original
  // constraint — contexts and instance paths are rendered only on the
  // (cold) failure paths, never copied per work item.
  struct PendingItem {
    TypePair P;
    const Constraint *From = nullptr;
  };
  std::list<PendingItem> Pending;
  // The serial phases' search state: H2's trial unifications, and the one
  // whole-residual search when H3 is off.
  WorkList Trials;
  std::vector<TypePair> &Deferred = Trials.Deferred;

  if (Opts.ReorderSimpleFirst) {
    // Heuristic 1: unify the non-disjunctive constraints up front. They can
    // never branch, and their bindings prune disjuncts later.
    for (const Constraint &C : Constraints) {
      if (containsDisjunct(C.A) || containsDisjunct(C.B)) {
        ++Stats.NumDisjunctive;
        Pending.push_back(PendingItem{{C.A, C.B}, &C});
        continue;
      }
      if (!U.unifyStructural(C.A, C.B, Deferred))
        return Fail(U.getLastFailure() + " (" + C.renderContext() + ")",
                    C.Loc);
      assert(Deferred.empty() && "non-disjunctive constraint deferred work");
    }
  } else {
    for (const Constraint &C : Constraints) {
      if (containsDisjunct(C.A) || containsDisjunct(C.B))
        ++Stats.NumDisjunctive;
      Pending.push_back(PendingItem{{C.A, C.B}, &C});
    }
  }

  if (Opts.ForcedDisjunctElimination) {
    // Heuristic 2: solve forced disjuncts without recursion. Trial-unify
    // each alternative in isolation; prune the impossible ones; commit when
    // exactly one remains.
    bool Progress = true;
    while (Progress && !Pending.empty()) {
      Progress = false;
      for (auto It = Pending.begin(); It != Pending.end();) {
        if (overBudget(U, Opts, Stats))
          return Fail(BudgetMessage(), It->From->Loc);
        const Type *A = U.find(It->P.A);
        const Type *B = U.find(It->P.B);
        if (!A->isDisjunct() && !B->isDisjunct()) {
          // The constraint became simple under current bindings: solve it
          // directly, queueing any nested disjuncts it exposes.
          Deferred.clear();
          if (!U.unifyStructural(A, B, Deferred))
            return Fail(U.getLastFailure() + " (" +
                            It->From->renderContext() + ")",
                        It->From->Loc);
          if (deferredItself(Deferred, A, B)) {
            ++It; // A choice pair: left for the search.
            continue;
          }
          for (const TypePair &D : Deferred)
            Pending.push_back(PendingItem{D, It->From});
          It = Pending.erase(It);
          Progress = true;
          continue;
        }
        const Type *D = A->isDisjunct() ? A : B;
        const Type *O = A->isDisjunct() ? B : A;
        std::vector<const Type *> Viable;
        for (const Type *Alt : D->getAlternatives()) {
          Unifier::Checkpoint CP = U.checkpoint();
          bool Ok = solveList(U, Trials,
                              Trials.push(TypePair{Alt, O}, WorkList::End),
                              Opts, Stats);
          U.rollback(CP);
          Trials.truncate(0);
          if (Ok)
            Viable.push_back(Alt);
        }
        if (Viable.empty())
          return Fail("no alternative of " + D->str() + " is compatible "
                      "with " + O->str() + " (" +
                      It->From->renderContext() + ")",
                      It->From->Loc);
        if (Viable.size() == 1) {
          // Commit the forced alternative and take the constraint again. A
          // choice nested inside the alternative stays open: committing the
          // trial's first solution would fix it before the constraints
          // that decide it have been seen.
          It->P = TypePair{Viable.front(), O};
          Progress = true;
          continue;
        }
        if (Viable.size() < D->getAlternatives().size()) {
          // Shrink the disjunct to the viable alternatives.
          It->P = TypePair{TC.getDisjunct(Viable), O};
          Progress = true;
        }
        ++It;
      }
    }
  }

  // The serial phases are done with rollbacks. Connected ports have bound
  // their variables into chains as long as the paths they lie on, which
  // every later find() would walk again: per group search step, per
  // H3 group key and per port resolved after the solve.
  U.compressPaths();

  // Collect the residual (genuinely ambiguous) disjunctive constraints.
  std::vector<PendingItem> Residual(Pending.begin(), Pending.end());

  if (Residual.empty()) {
    Stats.Success = true;
    Stats.UnifySteps = U.getSteps() - StepsBefore;
    Stats.UnifyStepsSearched = Stats.UnifySteps;
    return Stats;
  }

  if (!Opts.Partition) {
    uint32_t Head = WorkList::End;
    for (size_t I = Residual.size(); I-- != 0;)
      Head = Trials.push(Residual[I].P, Head);
    Stats.NumComponents = 1;
    if (!solveList(U, Trials, Head, Opts, Stats))
      return Fail(Stats.HitLimit || Stats.HitDeadline
                      ? BudgetMessage()
                      : "no consistent assignment for overloaded components",
                  Residual.front().From->Loc);
    Stats.Success = true;
    Stats.UnifySteps = U.getSteps() - StepsBefore;
    Stats.UnifyStepsSearched = Stats.UnifySteps;
    return Stats;
  }

  // Heuristic 3: partition the residual constraints into variable-disjoint
  // components and search each independently.
  unsigned N = Residual.size();
  std::vector<unsigned> Rep(N);
  std::iota(Rep.begin(), Rep.end(), 0u);
  std::function<unsigned(unsigned)> FindRep = [&](unsigned X) {
    while (Rep[X] != X)
      X = Rep[X] = Rep[Rep[X]];
    return X;
  };
  // Type-variable ids are dense (TypeContext mints them 0,1,2,...), so
  // ownership is a flat array indexed by id — no per-variable map nodes or
  // string/int hashing on this path.
  constexpr unsigned NoOwner = ~0u;
  std::vector<unsigned> VarOwner(TC.getNumVars(), NoOwner);
  std::vector<uint32_t> Vars;
  for (unsigned I = 0; I != N; ++I) {
    Vars.clear();
    U.collectUnboundVars(Residual[I].P.A, Vars);
    U.collectUnboundVars(Residual[I].P.B, Vars);
    for (uint32_t V : Vars) {
      unsigned &Owner = VarOwner[V];
      if (Owner == NoOwner)
        Owner = I;
      else
        Rep[FindRep(I)] = FindRep(Owner);
    }
  }
  // Group members by root. Scanning constraints in ascending order and
  // numbering each component at its root's first appearance yields members
  // in ascending order and components ordered by first (lowest-index)
  // member — the same deterministic group order the ordered-map + sort
  // version produced, in one linear pass.
  std::vector<unsigned> ComponentOf(N, NoOwner);
  std::vector<std::vector<unsigned>> Components;
  for (unsigned I = 0; I != N; ++I) {
    unsigned Root = FindRep(I);
    if (ComponentOf[Root] == NoOwner) {
      ComponentOf[Root] = unsigned(Components.size());
      Components.emplace_back();
    }
    Components[ComponentOf[Root]].push_back(I);
  }
  const unsigned NumGroups = unsigned(Components.size());
  Stats.NumComponents = NumGroups;

  // Reused components yield groups that are equal up to a renaming of
  // their variables. Key every group; the lowest-index group of each
  // class is its representative and the only one that searches. Its
  // siblings take its statistics and, renamed, its bindings at the join:
  // the search is deterministic and blind to the renaming, so that is
  // exactly what their own searches would have produced.
  std::vector<int> MemoOf(NumGroups, -1);
  std::vector<GroupShape> Shapes(NumGroups);
  std::vector<uint32_t> VarNumber(TC.getNumVars());
  {
    ShapeEncoder Enc(U, VarNumber);
    std::unordered_map<std::string_view, unsigned> Classes;
    for (unsigned G = 0; G != NumGroups; ++G) {
      Enc.begin(Shapes[G]);
      for (unsigned I : Components[G]) {
        Enc.term(Residual[I].P.A);
        Enc.term(Residual[I].P.B);
      }
      // Bucketed by hash, matched by comparing the whole key.
      auto [It, New] = Classes.try_emplace(Shapes[G].Key, G);
      if (!New)
        MemoOf[G] = int(It->second);
    }
  }

  // The groups touch disjoint unbound variables, so each one searches on a
  // scratch unifier seeded with the shared bindings and never contends
  // with its siblings; the shared unifier is read-only until the join.
  // Running them on a pool therefore needs no locks on the unification hot
  // path, and merging outcomes in group order makes bindings, statistics,
  // and failure diagnostics bit-identical to the serial (--jobs 1) schedule.
  struct GroupOutcome {
    bool Ran = false;
    std::thread::id Thread; ///< The thread that ran the search.
    bool Ok = false;
    SolveStats Local; ///< BranchPoints / HitLimit from this group only.
    uint64_t Steps = 0;
    double WallMs = 0.0;
    std::vector<std::pair<uint32_t, const Type *>> NewBindings;
  };
  std::vector<GroupOutcome> Outcomes(Components.size());

  // Each group gets the budget that remains after the serial phases.
  SolveOptions GroupOpts = Opts;
  GroupOpts.MaxSteps =
      Opts.MaxSteps > U.getSteps() ? Opts.MaxSteps - U.getSteps() : 0;

  auto SolveGroup = [&](unsigned G) {
    const std::vector<unsigned> &Group = Components[G];
    WorkList WL;
    uint32_t Head = WorkList::End;
    for (size_t I = Group.size(); I-- != 0;)
      Head = WL.push(Residual[Group[I]].P, Head);
    GroupOutcome &Out = Outcomes[G];
    auto Start = std::chrono::steady_clock::now();
    Unifier Scratch(TC);
    Scratch.seedFrom(U);
    Out.Ok = solveList(Scratch, WL, Head, GroupOpts, Out.Local);
    Out.Steps = Scratch.getSteps();
    if (Out.Ok) {
      Out.NewBindings.reserve(Scratch.getTrail().size());
      for (uint32_t V : Scratch.getTrail())
        Out.NewBindings.emplace_back(V, Scratch.lookup(V));
    }
    Out.WallMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - Start)
                     .count();
    Out.Thread = std::this_thread::get_id();
    Out.Ran = true;
  };

  unsigned Threads =
      Opts.NumThreads ? Opts.NumThreads : ThreadPool::getHardwareParallelism();
  if (Threads > 1 && Components.size() > 1) {
    ThreadPool Pool(std::min<unsigned>(Threads, Components.size()));
    for (unsigned G = 0; G != Components.size(); ++G)
      if (MemoOf[G] < 0)
        Pool.async([&SolveGroup, G] { SolveGroup(G); });
    Pool.wait();
    // A representative stopped by the wall clock says nothing about its
    // siblings' searches: they run their own.
    for (unsigned G = 0; G != Components.size(); ++G)
      if (MemoOf[G] >= 0 && Outcomes[unsigned(MemoOf[G])].Local.HitDeadline) {
        MemoOf[G] = -1;
        Pool.async([&SolveGroup, G] { SolveGroup(G); });
      }
    Pool.wait();
  } else {
    for (unsigned G = 0; G != Components.size(); ++G) {
      if (MemoOf[G] >= 0) {
        if (!Outcomes[unsigned(MemoOf[G])].Local.HitDeadline)
          continue;
        MemoOf[G] = -1;
      }
      SolveGroup(G);
      const GroupOutcome &Out = Outcomes[G];
      // A group that ran out of budget (or past the deadline) degrades
      // gracefully — the remaining independent groups are still solved.
      // Only genuine unsatisfiability stops the run, exactly like the
      // merge below.
      if (!Out.Ok && !Out.Local.HitLimit && !Out.Local.HitDeadline)
        break; // Later groups stay un-run, exactly like the merge below.
    }
  }
  {
    std::vector<std::thread::id> Ran;
    for (const GroupOutcome &Out : Outcomes)
      if (Out.Ran && std::find(Ran.begin(), Ran.end(), Out.Thread) == Ran.end())
        Ran.push_back(Out.Thread);
    Stats.ThreadsUsed = unsigned(Ran.size());
  }

  // Deterministic join: visit groups in index order, fold their statistics
  // and commit their bindings. A group that failed by exhausting its
  // budget/deadline is recorded (with the instance paths and disjunct
  // counts its constraints mention) and skipped — later groups still
  // commit, so one pathological group cannot take down the whole solve.
  // A genuinely unsatisfiable group stops the merge (parallel runs may
  // have solved later groups speculatively — their results are discarded
  // so both schedules report the same totals and diagnostic).
  // A memoized sibling folds its representative's outcome: the same steps,
  // branch points and verdict, with its own provenance and renamed
  // bindings. Its representative has a lower index, so the merge reached
  // it first and stopped there if it was unsatisfiable.
  uint64_t GroupSteps = 0, SearchedSteps = 0;
  std::vector<NodeNumbers> RepNumbers(NumGroups); // Built on first use.
  for (unsigned G = 0; G != Components.size(); ++G) {
    const bool Memo = MemoOf[G] >= 0;
    const GroupOutcome &Out = Outcomes[Memo ? unsigned(MemoOf[G]) : G];
    if (!Out.Ran)
      break; // Serial early-exit: a preceding group was unsatisfiable.
    GroupSteps += Out.Steps;
    if (Memo)
      ++Stats.NumMemoized;
    else
      SearchedSteps += Out.Steps;
    Stats.BranchPoints += Out.Local.BranchPoints;
    Stats.HitLimit |= Out.Local.HitLimit;
    Stats.HitDeadline |= Out.Local.HitDeadline;
    GroupStats GS;
    GS.NumConstraints = Components[G].size();
    GS.UnifySteps = Out.Steps;
    GS.BranchPoints = Out.Local.BranchPoints;
    GS.WallMs = Memo ? 0.0 : Out.WallMs;
    GS.Success = Out.Ok;
    GS.HitLimit = Out.Local.HitLimit;
    GS.HitDeadline = Out.Local.HitDeadline;
    GS.MemoOf = MemoOf[G];
    if (!Out.Ok && (Out.Local.HitLimit || Out.Local.HitDeadline)) {
      // Budget exhaustion: capture the group's provenance for the
      // structured diagnostic, leave its variables free, and keep going.
      GS.FirstLoc = Residual[Components[G].front()].From->Loc;
      for (unsigned I : Components[G]) {
        GS.NumDisjunctAlternatives += countAlternatives(Residual[I].P.A) +
                                      countAlternatives(Residual[I].P.B);
        const std::string &Path = Residual[I].From->instancePath();
        if (!Path.empty() && GS.InstancePaths.size() < 8 &&
            std::find(GS.InstancePaths.begin(), GS.InstancePaths.end(),
                      Path) == GS.InstancePaths.end())
          GS.InstancePaths.push_back(Path);
      }
      ++Stats.NumUnsolved;
      Stats.Groups.push_back(std::move(GS));
      continue;
    }
    Stats.Groups.push_back(std::move(GS));
    if (!Out.Ok) {
      Stats.Success = false;
      Stats.FailMessage = "no consistent assignment for overloaded components";
      Stats.FailLoc = Residual[Components[G].front()].From->Loc;
      Stats.UnifySteps = (U.getSteps() - StepsBefore) + GroupSteps;
      Stats.UnifyStepsSearched = (U.getSteps() - StepsBefore) + SearchedSteps;
      return Stats;
    }
    if (!Memo) {
      for (const auto &[VarId, Binding] : Out.NewBindings)
        U.adopt(VarId, Binding);
      continue;
    }
    const GroupShape &Rep = Shapes[unsigned(MemoOf[G])];
    NodeNumbers &Numbers = RepNumbers[unsigned(MemoOf[G])];
    if (Numbers.empty())
      for (uint32_t K = 0; K != Rep.Nodes.size(); ++K)
        Numbers.emplace(Rep.Nodes[K], K);
    SiblingRenaming Rename(Numbers, VarNumber, Shapes[G], TC);
    for (const auto &[VarId, Binding] : Out.NewBindings)
      U.adopt(Rename.var(VarId), Rename.term(Binding));
  }

  Stats.UnifySteps = (U.getSteps() - StepsBefore) + GroupSteps;
  Stats.UnifyStepsSearched = (U.getSteps() - StepsBefore) + SearchedSteps;
  if (Stats.NumUnsolved) {
    Stats.Success = false;
    Stats.FailMessage = BudgetMessage();
    for (const GroupStats &GS : Stats.Groups)
      if (!GS.Success) {
        Stats.FailLoc = GS.FirstLoc;
        break;
      }
    return Stats;
  }
  Stats.Success = true;
  return Stats;
}

//===----------------------------------------------------------------------===//
// Netlist integration
//===----------------------------------------------------------------------===//

std::vector<Constraint>
liberty::infer::buildNetlistConstraints(netlist::Netlist &NL,
                                        types::TypeContext &TC) {
  // Freeze the dense id layer: endpoint PortIdx resolution below replaces
  // the per-connection by-name port scans, and diagnostics-only strings
  // (contexts, instance paths) are rendered lazily from the dense origin,
  // so this loop allocates nothing per constraint beyond the vector slot.
  NL.freezeIds();
  std::vector<Constraint> Cs;
  size_t Bound = 0; // Every constraint the loops below can add.
  for (const auto &Inst : NL.getInstances()) {
    for (const netlist::Port &P : Inst->Ports)
      Bound += P.Scheme ? 1 : 0;
    Bound += Inst->ExtraConstraints.size();
  }
  for (const auto &Conn : NL.getConnections())
    Bound += Conn->Annotation ? 2 : 1;
  Cs.reserve(Bound);
  auto MakeConstraint = [](const Type *A, const Type *B, SourceLoc Loc,
                           ConstraintOriginKind Kind,
                           const netlist::InstanceNode *Inst,
                           int PortIdx = -1) {
    Constraint C;
    C.A = A;
    C.B = B;
    C.Loc = Loc;
    C.Origin = Kind;
    C.Inst = Inst;
    C.PortIdx = PortIdx;
    return C;
  };
  // One fresh variable per port; the port's annotated scheme constrains it.
  for (const auto &Inst : NL.getInstances()) {
    for (size_t PI = 0; PI != Inst->Ports.size(); ++PI) {
      netlist::Port &P = Inst->Ports[PI];
      P.InferVar = TC.freshVar(P.Name);
      if (P.Scheme)
        Cs.push_back(MakeConstraint(P.InferVar, P.Scheme, P.Loc,
                                    ConstraintOriginKind::PortAnnotation,
                                    Inst.get(), int(PI)));
    }
    for (const auto &[LHS, RHS] : Inst->ExtraConstraints)
      Cs.push_back(MakeConstraint(LHS, RHS, Inst->Loc,
                                  ConstraintOriginKind::ConstrainStmt,
                                  Inst.get()));
  }
  // Connected ports share a type (modulo unresolved endpoints, which were
  // already diagnosed during elaboration). Endpoint ports are reached by
  // the PortIdx freezeIds() resolved, not a by-name scan.
  for (const auto &Conn : NL.getConnections()) {
    if (!Conn->isFullyResolved())
      continue;
    if (Conn->From.PortIdx < 0 || Conn->To.PortIdx < 0)
      continue;
    netlist::Port &PF = Conn->From.Inst->Ports[size_t(Conn->From.PortIdx)];
    netlist::Port &PT = Conn->To.Inst->Ports[size_t(Conn->To.PortIdx)];
    if (!PF.InferVar || !PT.InferVar)
      continue;
    Cs.push_back(MakeConstraint(PF.InferVar, PT.InferVar, Conn->Loc,
                                ConstraintOriginKind::Connection,
                                Conn->From.Inst));
    if (Conn->Annotation)
      Cs.push_back(MakeConstraint(PF.InferVar, Conn->Annotation, Conn->Loc,
                                  ConstraintOriginKind::ConnAnnotation,
                                  Conn->From.Inst));
  }
  return Cs;
}

/// Replaces any residual type variables (unconstrained polymorphism) with
/// int and residual disjuncts (unconstrained overloading) with their first
/// alternative, counting the substitutions.
static const Type *groundDefault(const Type *T, types::TypeContext &TC,
                                 unsigned &NumDefaulted) {
  switch (T->getKind()) {
  case Type::Kind::Int:
  case Type::Kind::Bool:
  case Type::Kind::Float:
  case Type::Kind::String:
    return T;
  case Type::Kind::Var:
    ++NumDefaulted;
    return TC.getInt();
  case Type::Kind::Disjunct:
    ++NumDefaulted;
    return groundDefault(T->getAlternatives().front(), TC, NumDefaulted);
  case Type::Kind::Array:
    return TC.getArray(groundDefault(T->getElem(), TC, NumDefaulted),
                       T->getArraySize());
  case Type::Kind::Struct: {
    std::vector<std::pair<std::string, const Type *>> Fields;
    for (const auto &[Name, FieldTy] : T->getFields())
      Fields.emplace_back(Name, groundDefault(FieldTy, TC, NumDefaulted));
    return TC.getStruct(std::move(Fields));
  }
  }
  return T;
}

NetlistInferenceStats
liberty::infer::inferNetlistTypes(netlist::Netlist &NL, types::TypeContext &TC,
                                  DiagnosticEngine &Diags,
                                  const SolveOptions &Opts,
                                  PhaseTimer *Timer) {
  NetlistInferenceStats Stats;
  std::vector<Constraint> Cs;
  {
    PhaseTimer::Scope Scope(Timer, "constraint-gen");
    Cs = buildNetlistConstraints(NL, TC);
  }
  InferenceEngine Engine(TC);
  {
    PhaseTimer::Scope Scope(Timer, "solve");
    Stats.Solve = Engine.solve(Cs, Opts);
  }
  if (Timer) {
    Timer->setCounter("constraint-gen", "constraints", Cs.size());
    Timer->setCounter("solve", "unify_steps", Stats.Solve.UnifySteps);
    Timer->setCounter("solve", "branch_points", Stats.Solve.BranchPoints);
    Timer->setCounter("solve", "groups", Stats.Solve.NumComponents);
    Timer->setCounter("solve", "threads", Stats.Solve.ThreadsUsed);
  }
  if (!Stats.Solve.Success) {
    if (Stats.Solve.NumUnsolved == 0) {
      // Genuine unsatisfiability: one diagnostic, nothing written back.
      Diags.error(Stats.Solve.FailLoc,
                  "type inference failed: " + Stats.Solve.FailMessage);
      return Stats;
    }
    // Budget/deadline exhaustion degraded gracefully: every other group
    // was still solved and committed. Name each unsolved group with the
    // instances and overload degree that made it pathological.
    for (unsigned G = 0; G != Stats.Solve.Groups.size(); ++G) {
      const GroupStats &GS = Stats.Solve.Groups[G];
      if (GS.Success)
        continue;
      if (!GS.HitLimit && !GS.HitDeadline) {
        // A genuinely unsatisfiable group encountered after a budget
        // failure; it stopped the merge with the usual diagnostic.
        Diags.error(Stats.Solve.FailLoc,
                    "type inference failed: " + Stats.Solve.FailMessage);
        continue;
      }
      std::string Why = GS.HitDeadline && !GS.HitLimit
                            ? "exceeded its wall-clock deadline"
                            : "exceeded its work budget";
      Diags.error(GS.FirstLoc,
                  "type inference failed: " + Why + " on group " +
                      std::to_string(G) + " (" +
                      std::to_string(GS.NumConstraints) + " constraints, " +
                      std::to_string(GS.NumDisjunctAlternatives) +
                      " disjunct alternatives); other groups were still "
                      "solved");
      for (const std::string &Path : GS.InstancePaths)
        Diags.note(GS.FirstLoc, "involves instance '" + Path + "'");
    }
    return Stats;
  }
  PhaseTimer::Scope Resolve(Timer, "resolve");
  for (const auto &Inst : NL.getInstances()) {
    for (netlist::Port &P : Inst->Ports) {
      if (!P.InferVar)
        continue;
      ++Stats.NumPorts;
      if (P.Scheme && !P.Scheme->isGround())
        ++Stats.NumPolymorphicPorts;
      const Type *R = Engine.resolve(P.InferVar);
      if (!R->isGround()) {
        unsigned Before = Stats.NumDefaulted;
        R = groundDefault(R, TC, Stats.NumDefaulted);
        if (Stats.NumDefaulted != Before && P.Width > 0)
          Diags.warning(P.Loc, "type of port '" + P.Name + "' on instance '" +
                                   Inst->Path +
                                   "' is unconstrained; defaulting to " +
                                   R->str());
      }
      P.Resolved = R;
    }
  }
  return Stats;
}
