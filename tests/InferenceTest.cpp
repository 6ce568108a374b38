//===- InferenceTest.cpp - Unifier and inference-engine tests ------------------===//

#include "driver/Compiler.h"
#include "infer/Synthetic.h"
#include "types/Type.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <random>
#include <sstream>
#include <tuple>

using namespace liberty;
using namespace liberty::infer;
using types::Type;
using types::TypeContext;

namespace {

//===----------------------------------------------------------------------===//
// Unifier
//===----------------------------------------------------------------------===//

TEST(Unifier, BindsVarToGround) {
  TypeContext TC;
  Unifier U(TC);
  const Type *V = TC.freshVar("a");
  std::vector<TypePair> D;
  ASSERT_TRUE(U.unifyStructural(V, TC.getInt(), D));
  EXPECT_TRUE(D.empty());
  EXPECT_EQ(U.find(V), TC.getInt());
}

TEST(Unifier, VarVarChainsResolve) {
  TypeContext TC;
  Unifier U(TC);
  const Type *A = TC.freshVar("a");
  const Type *B = TC.freshVar("b");
  const Type *C = TC.freshVar("c");
  std::vector<TypePair> D;
  ASSERT_TRUE(U.unifyStructural(A, B, D));
  ASSERT_TRUE(U.unifyStructural(B, C, D));
  ASSERT_TRUE(U.unifyStructural(C, TC.getFloat(), D));
  EXPECT_EQ(U.find(A), TC.getFloat());
}

TEST(Unifier, ScalarMismatchFails) {
  TypeContext TC;
  Unifier U(TC);
  std::vector<TypePair> D;
  EXPECT_FALSE(U.unifyStructural(TC.getInt(), TC.getBool(), D));
  EXPECT_EQ(U.getLastFailure(), "cannot unify int with bool");
}

TEST(Unifier, ArraysUnifyElementwise) {
  TypeContext TC;
  Unifier U(TC);
  const Type *V = TC.freshVar("a");
  std::vector<TypePair> D;
  ASSERT_TRUE(U.unifyStructural(TC.getArray(V, 4),
                                TC.getArray(TC.getInt(), 4), D));
  EXPECT_EQ(U.find(V), TC.getInt());
  // Extent mismatch fails.
  EXPECT_FALSE(U.unifyStructural(TC.getArray(TC.getInt(), 4),
                                 TC.getArray(TC.getInt(), 5), D));
  EXPECT_EQ(U.getLastFailure(), "array extents differ: int[4] vs int[5]");
}

TEST(Unifier, StructsUnifyFieldwise) {
  TypeContext TC;
  Unifier U(TC);
  const Type *V = TC.freshVar("a");
  const Type *S1 = TC.getStruct({{"x", TC.getInt()}, {"y", V}});
  const Type *S2 = TC.getStruct({{"x", TC.getInt()}, {"y", TC.getBool()}});
  std::vector<TypePair> D;
  ASSERT_TRUE(U.unifyStructural(S1, S2, D));
  EXPECT_EQ(U.find(V), TC.getBool());
  // Field-name mismatch fails.
  const Type *S3 = TC.getStruct({{"x", TC.getInt()}, {"z", TC.getBool()}});
  EXPECT_FALSE(U.unifyStructural(S2, S3, D));
  EXPECT_EQ(U.getLastFailure(), "struct field names differ: "
                                "struct{x:int;y:bool;} vs "
                                "struct{x:int;z:bool;}");
  // Field-count mismatch fails.
  const Type *S4 = TC.getStruct({{"x", TC.getInt()}});
  EXPECT_FALSE(U.unifyStructural(S4, S2, D));
  EXPECT_EQ(U.getLastFailure(), "struct field counts differ: struct{x:int;} "
                                "vs struct{x:int;y:bool;}");
}

TEST(Unifier, OccursCheck) {
  TypeContext TC;
  Unifier U(TC);
  const Type *V = TC.freshVar("a");
  std::vector<TypePair> D;
  EXPECT_FALSE(U.unifyStructural(V, TC.getArray(V, 2), D));
  EXPECT_EQ(U.getLastFailure(), "occurs check failed: 'a#0 in 'a#0[2]");
  // The variable is named first whichever side it is on.
  EXPECT_FALSE(U.unifyStructural(TC.getArray(V, 3), V, D));
  EXPECT_EQ(U.getLastFailure(), "occurs check failed: 'a#0 in 'a#0[3]");
}

TEST(Unifier, OccurrenceInsideAnAlternativeIsDeferredAsAChoice) {
  // 'a = ('a | int)[1] is neither a mismatch nor a binding: the choice of
  // alternative decides, so the pair goes back to the caller unchanged.
  TypeContext TC;
  Unifier U(TC);
  const Type *V = TC.freshVar("a");
  const Type *Choice = TC.getDisjunct({V, TC.getInt()});
  const Type *T =
      TC.getStruct({{"x", TC.getBool()}, {"y", TC.getArray(Choice, 1)}});
  std::vector<TypePair> D;
  ASSERT_TRUE(U.unifyStructural(T, V, D));
  ASSERT_EQ(D.size(), 1u);
  EXPECT_EQ(D[0].A, T);
  EXPECT_EQ(D[0].B, V);
  EXPECT_EQ(U.find(V), V) << "variable must stay unbound";
  EXPECT_EQ(U.findChoice(V->getVarId(), T), Choice);
  EXPECT_EQ(U.substitute(T, Choice, TC.getInt())->str(),
            "struct{x:bool;y:int[1];}");
  EXPECT_EQ(U.substitute(T, Choice, V)->str(), "struct{x:bool;y:'a#0[1];}");
}

TEST(Unifier, FailureTextOutlivesRollbackAndSuccess) {
  // The text is rendered when asked, from the two recorded types, so a
  // rollback or a later successful unification does not change it.
  TypeContext TC;
  Unifier U(TC);
  const Type *V = TC.freshVar("a");
  std::vector<TypePair> D;
  Unifier::Checkpoint CP = U.checkpoint();
  ASSERT_TRUE(U.unifyStructural(V, TC.getArray(TC.getInt(), 2), D));
  EXPECT_FALSE(U.unifyStructural(V, TC.getArray(TC.getInt(), 3), D));
  U.rollback(CP);
  ASSERT_TRUE(U.unifyStructural(V, TC.getFloat(), D));
  EXPECT_EQ(U.getLastFailure(), "array extents differ: int[2] vs int[3]");
  // Seeding a unifier forgets its last failure.
  Unifier Scratch(TC);
  EXPECT_FALSE(Scratch.unifyStructural(TC.getInt(), TC.getBool(), D));
  Scratch.seedFrom(U);
  EXPECT_EQ(Scratch.getLastFailure(), "");
}

TEST(Unifier, DisjunctsAreDeferredNotSolved) {
  TypeContext TC;
  Unifier U(TC);
  const Type *V = TC.freshVar("a");
  const Type *D2 = TC.getDisjunct({TC.getInt(), TC.getFloat()});
  std::vector<TypePair> Deferred;
  ASSERT_TRUE(U.unifyStructural(V, D2, Deferred));
  ASSERT_EQ(Deferred.size(), 1u);
  EXPECT_EQ(U.find(V), V) << "variable must stay unbound";
}

TEST(Unifier, NestedDisjunctDeferredFromStructure) {
  TypeContext TC;
  Unifier U(TC);
  const Type *V = TC.freshVar("a");
  const Type *ArrD =
      TC.getArray(TC.getDisjunct({TC.getInt(), TC.getFloat()}), 2);
  const Type *ArrV = TC.getArray(V, 2);
  std::vector<TypePair> Deferred;
  ASSERT_TRUE(U.unifyStructural(ArrD, ArrV, Deferred));
  ASSERT_EQ(Deferred.size(), 1u);
}

TEST(Unifier, RollbackUndoesBindings) {
  TypeContext TC;
  Unifier U(TC);
  const Type *A = TC.freshVar("a");
  const Type *B = TC.freshVar("b");
  std::vector<TypePair> D;
  ASSERT_TRUE(U.unifyStructural(A, TC.getInt(), D));
  Unifier::Checkpoint CP = U.checkpoint();
  ASSERT_TRUE(U.unifyStructural(B, TC.getBool(), D));
  EXPECT_EQ(U.find(B), TC.getBool());
  U.rollback(CP);
  EXPECT_EQ(U.find(B), B) << "B unbound again";
  EXPECT_EQ(U.find(A), TC.getInt()) << "A still bound";
}

TEST(Unifier, ResolveDeepSubstitutes) {
  TypeContext TC;
  Unifier U(TC);
  const Type *V = TC.freshVar("a");
  std::vector<TypePair> D;
  ASSERT_TRUE(U.unifyStructural(V, TC.getInt(), D));
  const Type *T = U.resolveDeep(TC.getStruct({{"f", TC.getArray(V, 3)}}));
  EXPECT_TRUE(T->isGround());
  EXPECT_EQ(T->str(), "struct{f:int[3];}");
}

TEST(Unifier, CollectUnboundVars) {
  TypeContext TC;
  Unifier U(TC);
  const Type *A = TC.freshVar("a");
  const Type *B = TC.freshVar("b");
  std::vector<TypePair> D;
  ASSERT_TRUE(U.unifyStructural(A, TC.getInt(), D));
  std::vector<uint32_t> Vars;
  U.collectUnboundVars(TC.getStruct({{"x", A}, {"y", B}}), Vars);
  ASSERT_EQ(Vars.size(), 1u);
  EXPECT_EQ(Vars[0], B->getVarId());
}

//===----------------------------------------------------------------------===//
// Solver: correctness across heuristic configurations
//===----------------------------------------------------------------------===//

struct HeuristicConfig {
  bool H1, H2, H3;
};

class SolverConfigTest : public ::testing::TestWithParam<HeuristicConfig> {
protected:
  SolveOptions opts() const {
    SolveOptions O;
    O.ReorderSimpleFirst = GetParam().H1;
    O.ForcedDisjunctElimination = GetParam().H2;
    O.Partition = GetParam().H3;
    O.MaxSteps = 100000000;
    return O;
  }
};

TEST_P(SolverConfigTest, AdversarialPairsSatisfiable) {
  TypeContext TC;
  auto Cs = makeAdversarialPairs(TC, 6);
  InferenceEngine E(TC);
  SolveStats S = E.solve(Cs, opts());
  EXPECT_TRUE(S.Success) << S.FailMessage;
}

TEST_P(SolverConfigTest, IntersectionFamilyResolvesToFloat) {
  TypeContext TC;
  auto Cs = makeIntersectionFamily(TC, 5);
  InferenceEngine E(TC);
  SolveStats S = E.solve(Cs, opts());
  ASSERT_TRUE(S.Success) << S.FailMessage;
  // Every variable must have resolved to float (the only intersection).
  for (const Constraint &C : Cs)
    if (C.A->isVar()) {
      EXPECT_EQ(E.resolve(C.A), TC.getFloat());
    }
}

TEST_P(SolverConfigTest, ForcedChainResolvesToInt) {
  TypeContext TC;
  auto Cs = makeForcedChain(TC, 20);
  InferenceEngine E(TC);
  SolveStats S = E.solve(Cs, opts());
  ASSERT_TRUE(S.Success) << S.FailMessage;
  for (const Constraint &C : Cs)
    if (C.A->isVar()) {
      EXPECT_EQ(E.resolve(C.A), TC.getInt());
    }
}

TEST_P(SolverConfigTest, UnsatPairsRejected) {
  TypeContext TC;
  auto Cs = makeUnsatPairs(TC, 3);
  InferenceEngine E(TC);
  SolveStats S = E.solve(Cs, opts());
  EXPECT_FALSE(S.Success);
  EXPECT_FALSE(S.HitLimit) << "must fail by search, not by budget";
}

INSTANTIATE_TEST_SUITE_P(
    AllHeuristicConfigs, SolverConfigTest,
    ::testing::Values(HeuristicConfig{false, false, false},
                      HeuristicConfig{true, false, false},
                      HeuristicConfig{true, true, false},
                      HeuristicConfig{false, false, true},
                      HeuristicConfig{true, true, true}),
    [](const auto &Info) {
      std::string Name;
      Name += Info.param.H1 ? "H1" : "x";
      Name += Info.param.H2 ? "H2" : "x";
      Name += Info.param.H3 ? "H3" : "x";
      return Name;
    });

TEST(Solver, HeuristicsEliminateBranchingOnForcedChains) {
  TypeContext TC;
  auto Cs = makeForcedChain(TC, 50);
  InferenceEngine E(TC);
  SolveOptions O; // All heuristics on.
  SolveStats S = E.solve(Cs, O);
  ASSERT_TRUE(S.Success);
  EXPECT_EQ(S.BranchPoints, 0u)
      << "H2 must resolve forced disjuncts without recursion";
}

TEST(Solver, NaiveIsExponentialHeuristicIsNot) {
  uint64_t NaiveSteps[2], HeurSteps[2];
  unsigned Ks[2] = {6, 10};
  for (int I = 0; I != 2; ++I) {
    {
      TypeContext TC;
      auto Cs = makeAdversarialPairs(TC, Ks[I]);
      InferenceEngine E(TC);
      SolveStats S = E.solve(Cs, SolveOptions::naive());
      ASSERT_TRUE(S.Success);
      NaiveSteps[I] = S.UnifySteps;
    }
    {
      TypeContext TC;
      auto Cs = makeAdversarialPairs(TC, Ks[I]);
      InferenceEngine E(TC);
      SolveStats S = E.solve(Cs, SolveOptions());
      ASSERT_TRUE(S.Success);
      HeurSteps[I] = S.UnifySteps;
    }
  }
  // Naive work grows superlinearly (x16 per +2 here); heuristic stays
  // proportional to the constraint count.
  EXPECT_GT(NaiveSteps[1], NaiveSteps[0] * 20);
  EXPECT_LT(HeurSteps[1], HeurSteps[0] * 4);
}

TEST(Solver, BudgetCapReports) {
  TypeContext TC;
  auto Cs = makeAdversarialPairs(TC, 16);
  InferenceEngine E(TC);
  SolveOptions O = SolveOptions::naive();
  O.MaxSteps = 10000;
  SolveStats S = E.solve(Cs, O);
  EXPECT_FALSE(S.Success);
  EXPECT_TRUE(S.HitLimit);
}

TEST(Solver, DeadlineStopsRunawayGroup) {
  // A wall-clock deadline of 1ms cannot survive a 2^18-assignment search:
  // the group must come back unsolved with HitDeadline set (not crash, not
  // spin forever), and the budget-degradation stats must count it.
  TypeContext TC;
  auto Cs = makeDisjointHardGroups(TC, 1, 18);
  InferenceEngine E(TC);
  SolveOptions O;
  O.ForcedDisjunctElimination = false; // Keep the search exponential.
  O.DeadlineMs = 1;
  SolveStats S = E.solve(Cs, O);
  EXPECT_FALSE(S.Success);
  EXPECT_TRUE(S.HitDeadline);
  EXPECT_EQ(S.NumUnsolved, 1u);
  ASSERT_EQ(S.Groups.size(), 1u);
  EXPECT_FALSE(S.Groups.front().Success);
  ASSERT_FALSE(S.Groups.front().InstancePaths.empty());
  EXPECT_EQ(S.Groups.front().InstancePaths.front(), "synthetic.g0");
}

TEST(Solver, DeadlineHitIsNeverShared) {
  // Three equal runaway groups. The first runs out of wall-clock time;
  // that says nothing about the others' searches, so each runs its own
  // (and, the deadline being past, stops at once) instead of taking the
  // first one's outcome.
  for (unsigned Threads : {1u, 4u}) {
    TypeContext TC;
    auto Cs = makeDisjointHardGroups(TC, 3, 18);
    InferenceEngine E(TC);
    SolveOptions O;
    O.ForcedDisjunctElimination = false;
    O.DeadlineMs = 1;
    O.NumThreads = Threads;
    SolveStats S = E.solve(Cs, O);
    EXPECT_TRUE(S.HitDeadline);
    EXPECT_EQ(S.NumUnsolved, 3u);
    EXPECT_EQ(S.NumMemoized, 0u);
    ASSERT_EQ(S.Groups.size(), 3u);
    for (const GroupStats &G : S.Groups) {
      EXPECT_TRUE(G.HitDeadline);
      EXPECT_EQ(G.MemoOf, -1);
    }
    EXPECT_EQ(S.UnifyStepsSearched, S.UnifySteps);
  }
}

TEST(Solver, FailMessageCarriesTheUnifierText) {
  TypeContext TC;
  const Type *V = TC.freshVar("a");
  std::vector<Constraint> Cs(2);
  Cs[0].A = V;
  Cs[0].B = TC.getInt();
  Cs[1].A = V;
  Cs[1].B = TC.getBool();
  Cs[1].Context = "second constraint";
  InferenceEngine E(TC);
  SolveStats S = E.solve(Cs, SolveOptions());
  ASSERT_FALSE(S.Success);
  EXPECT_EQ(S.FailMessage, "cannot unify int with bool (second constraint)");
}

TEST(Solver, PartitionCountsComponents) {
  TypeContext TC;
  auto Cs = makeIntersectionFamily(TC, 7);
  InferenceEngine E(TC);
  SolveOptions O;
  O.ForcedDisjunctElimination = false; // Leave work for the partitioner.
  SolveStats S = E.solve(Cs, O);
  ASSERT_TRUE(S.Success);
  EXPECT_EQ(S.NumComponents, 7u);
}

//===----------------------------------------------------------------------===//
// Netlist-level inference
//===----------------------------------------------------------------------===//

std::unique_ptr<driver::Compiler> infer(const std::string &Src, bool &Ok) {
  auto C = std::make_unique<driver::Compiler>();
  Ok = C->addCoreLibrary() && C->addSource("t.lss", Src) && C->elaborate() &&
       C->inferTypes();
  return C;
}

const types::Type *portType(driver::Compiler &C, const std::string &Path,
                            const std::string &Port) {
  netlist::InstanceNode *N = C.getNetlist()->findByPath(Path);
  if (!N)
    return nullptr;
  const netlist::Port *P = N->findPort(Port);
  return P ? P->Resolved : nullptr;
}

TEST(NetlistInference, PolymorphismResolvedThroughChain) {
  bool Ok;
  auto C = infer(R"(
instance g:counter_source;
instance r1:reg;
instance r2:reg;
instance s:sink;
g.out -> r1.in;
r1.out -> r2.in;
r2.out -> s.in;
)", Ok);
  ASSERT_TRUE(Ok) << C->diagnosticsText();
  EXPECT_EQ(portType(*C, "r2", "out")->getKind(), Type::Kind::Int);
  EXPECT_EQ(portType(*C, "s", "in")->getKind(), Type::Kind::Int);
}

TEST(NetlistInference, SharedVarTiesPortsOfOneInstance) {
  bool Ok;
  auto C = infer(R"(
instance g:counter_source;
instance r:reg;
instance s:sink;
g.out -> r.in;
r.out -> s.in;
)", Ok);
  ASSERT_TRUE(Ok);
  // reg's in and out share 'a: both must resolve to int.
  EXPECT_EQ(portType(*C, "r", "in"), portType(*C, "r", "out"));
}

TEST(NetlistInference, OverloadedAdderPicksFloat) {
  bool Ok;
  auto C = infer(R"(
instance gen:source;
instance a:adder;
instance s:sink;
gen.out -> a.in1 : float;
gen.out -> a.in2;
a.out -> s.in;
)", Ok);
  ASSERT_TRUE(Ok) << C->diagnosticsText();
  EXPECT_EQ(portType(*C, "a", "out")->getKind(), Type::Kind::Float);
  EXPECT_EQ(portType(*C, "gen", "out")->getKind(), Type::Kind::Float);
}

TEST(NetlistInference, OverloadedAdderPicksIntFromNeighbor) {
  bool Ok;
  auto C = infer(R"(
instance g:counter_source;
instance a:adder;
instance s:sink;
g.out -> a.in1;
g.out -> a.in2;
a.out -> s.in;
)", Ok);
  ASSERT_TRUE(Ok) << C->diagnosticsText();
  // counter_source is int; the (int|float) family member int is selected
  // purely by connectivity — component overloading.
  EXPECT_EQ(portType(*C, "a", "out")->getKind(), Type::Kind::Int);
}

TEST(NetlistInference, ConflictingAnnotationsRejected) {
  bool Ok;
  auto C = infer(R"(
instance g:counter_source;
instance s:sink;
g.out -> s.in : float;
)", Ok);
  EXPECT_FALSE(Ok);
  EXPECT_NE(C->diagnosticsText().find("type inference failed"),
            std::string::npos);
}

TEST(NetlistInference, IncompatibleConnectionRejected) {
  bool Ok;
  auto C = infer(R"(
instance b:bool_source;
instance d:delay;
b.out -> d.in;
)", Ok);
  EXPECT_FALSE(Ok); // bool -> int port.
}

TEST(NetlistInference, UnconstrainedPolymorphismDefaultsWithWarning) {
  bool Ok;
  auto C = infer(R"(
instance r1:reg;
instance r2:reg;
r1.out -> r2.in;
)", Ok);
  ASSERT_TRUE(Ok) << C->diagnosticsText();
  EXPECT_GT(C->getDiags().getNumWarnings(), 0u);
  EXPECT_EQ(portType(*C, "r1", "out")->getKind(), Type::Kind::Int);
}

TEST(NetlistInference, StructTokensFlowThroughPolymorphicQueue) {
  bool Ok;
  auto C = infer(R"(
instance f:fetch;
instance q:queue;
instance s:sink;
f.instr -> q.in;
q.out -> s.in;
)", Ok);
  ASSERT_TRUE(Ok) << C->diagnosticsText();
  const Type *T = portType(*C, "q", "out");
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->getKind(), Type::Kind::Struct);
  EXPECT_EQ(T->getFields().size(), 6u);
}

TEST(NetlistInference, StatsCountPolymorphicPorts) {
  bool Ok;
  auto C = infer(R"(
instance g:counter_source;
instance r:reg;
instance s:sink;
g.out -> r.in;
r.out -> s.in;
)", Ok);
  ASSERT_TRUE(Ok);
  const auto &Stats = C->getInferenceStats();
  EXPECT_TRUE(Stats.Solve.Success);
  EXPECT_GT(Stats.NumPorts, 0u);
  EXPECT_GE(Stats.NumPolymorphicPorts, 3u); // reg.in/out + sink.in at least.
}

//===----------------------------------------------------------------------===//
// One overload lane: the shape of the solver benchmark's projects
//===----------------------------------------------------------------------===//

/// One lane of the overload-farm benchmark: a chain of \p Stages adders
/// into a sink, plus an overload puzzle that only the all-int assignment
/// solves. \p Depth free (float | int) variables, float first (the wrong
/// guess), are coupled by a struct disjunct whose two alternatives differ
/// only in a free field, so neither H1 nor H2 can settle it and the search
/// walks about 2^Depth assignments.
std::string laneSource(unsigned Stages, unsigned Depth) {
  std::ostringstream OS;
  OS << "module lane0 {\n";
  for (unsigned I = 0; I != Stages; ++I)
    OS << "  instance a" << I << ":adder;\n";
  OS << "  instance k:sink;\n";
  for (unsigned I = 1; I != Stages; ++I)
    OS << "  a" << I - 1 << ".out -> a" << I << ".in1;\n";
  OS << "  a" << Stages - 1 << ".out -> k.in;\n";
  for (unsigned J = 0; J != Depth; ++J)
    OS << "  constrain 'u" << J << " : (float | int);\n";
  OS << "  constrain 'w : struct{";
  for (unsigned J = 0; J != Depth; ++J)
    OS << "f" << J << ":'u" << J << "; ";
  OS << "g:'gv};\n";
  OS << "  constrain 'w : (";
  for (int Alt = 0; Alt != 2; ++Alt) {
    if (Alt)
      OS << " | ";
    OS << "struct{";
    for (unsigned J = 0; J != Depth; ++J)
      OS << "f" << J << ":int; ";
    OS << "g:" << (Alt ? "float" : "int") << "}";
  }
  OS << ");\n";
  OS << "}\n";
  return OS.str();
}

TEST(NetlistInference, OverloadLaneSearchIsPinned) {
  // The exact work of one 20-adder, depth-15 lane: any change to the order
  // in which the group search visits its nodes moves these counts.
  for (unsigned Threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(Threads));
    driver::Compiler C;
    driver::CompilerInvocation Inv;
    Inv.Solve.NumThreads = Threads;
    ASSERT_TRUE(C.addCoreLibrary() &&
                C.addSource("lane0.lss", laneSource(20, 15)) &&
                C.addSource("top.lss", "instance m0:lane0;\n") &&
                C.elaborate(Inv) && C.inferTypes(Inv))
        << C.diagnosticsText();
    const SolveStats &S = C.getInferenceStats().Solve;
    EXPECT_EQ(S.UnifySteps, 262329u);
    EXPECT_EQ(S.BranchPoints, 65555u);
    EXPECT_EQ(S.NumComponents, 2u);
    unsigned Ports = 0;
    for (const auto &Inst : C.getNetlist()->getInstances())
      for (const netlist::Port &P : Inst->Ports) {
        ++Ports;
        ASSERT_NE(P.Resolved, nullptr) << Inst->Path << "." << P.Name;
        EXPECT_EQ(P.Resolved->str(), "int") << Inst->Path << "." << P.Name;
      }
    EXPECT_EQ(Ports, 61u);
  }
}

//===----------------------------------------------------------------------===//
// Randomized differential oracle
//===----------------------------------------------------------------------===//

/// A small random constraint system over a few type variables, the four
/// scalars, arrays and structs. Each generated node becomes a disjunct with
/// a per-seed probability of 0-50% until MaxDisjuncts have been made, which
/// keeps the naive solver's search within reach.
class RandomSystem {
public:
  static constexpr unsigned MaxDisjuncts = 12;

  RandomSystem(TypeContext &TC, uint64_t Seed) : TC(TC), R(Seed) {
    unsigned NumVars = 1 + pick(5);
    for (unsigned I = 0; I != NumVars; ++I)
      Vars.push_back(TC.freshVar("v"));
    DensityPct = pick(51);
    unsigned NumConstraints = 2 + pick(7);
    for (unsigned I = 0; I != NumConstraints; ++I) {
      Constraint C;
      C.A = term(2);
      C.B = term(2);
      C.Context = "random constraint " + std::to_string(I);
      Cs.push_back(std::move(C));
    }
  }

  std::vector<Constraint> Cs;
  std::vector<const Type *> Vars;

private:
  // mt19937_64 and a plain modulo keep the systems identical on every
  // standard library (the distributions are implementation-defined).
  unsigned pick(unsigned N) { return unsigned(R() % N); }

  const Type *term(unsigned Depth) {
    if (Disjuncts < MaxDisjuncts && pick(100) < DensityPct) {
      ++Disjuncts;
      std::vector<const Type *> Alts;
      for (unsigned I = 0, N = 2 + pick(2); I != N; ++I)
        Alts.push_back(term(Depth ? Depth - 1 : 0));
      return TC.getDisjunct(std::move(Alts));
    }
    unsigned Roll = pick(Depth ? 12 : 10);
    if (Roll < 6)
      return Vars[pick(unsigned(Vars.size()))];
    if (Roll < 10) {
      const Type *Scalars[] = {TC.getInt(), TC.getBool(), TC.getFloat(),
                               TC.getString()};
      return Scalars[Roll - 6];
    }
    if (Roll < 11)
      return TC.getArray(term(Depth - 1), 1 + pick(2));
    static const char *const Names[] = {"x", "y", "z"};
    std::vector<std::pair<std::string, const Type *>> Fields;
    for (const char *Name : Names)
      if (pick(2))
        Fields.emplace_back(Name, term(Depth - 1));
    if (Fields.empty())
      Fields.emplace_back(Names[pick(3)], term(Depth - 1));
    return TC.getStruct(std::move(Fields));
  }

  TypeContext &TC;
  std::mt19937_64 R;
  unsigned DensityPct = 0;
  unsigned Disjuncts = 0;
};

/// True if the resolved types \p A and \p B have the same shape: the same
/// scalars, the same array extents, the same field names in order, and the
/// same unbound variable where one remains. A disjunct matches when one of
/// its alternatives does. Written against Type alone, not the Unifier, so
/// it checks a solution independently of the code that found it.
bool sameShape(const Type *A, const Type *B) {
  if (A->isDisjunct() || B->isDisjunct()) {
    const Type *D = A->isDisjunct() ? A : B;
    const Type *O = A->isDisjunct() ? B : A;
    for (const Type *Alt : D->getAlternatives())
      if (sameShape(Alt, O))
        return true;
    return false;
  }
  if (A->getKind() != B->getKind())
    return false;
  switch (A->getKind()) {
  case Type::Kind::Var:
    return A->getVarId() == B->getVarId();
  case Type::Kind::Array:
    return A->getArraySize() == B->getArraySize() &&
           sameShape(A->getElem(), B->getElem());
  case Type::Kind::Struct: {
    const auto &FA = A->getFields();
    const auto &FB = B->getFields();
    if (FA.size() != FB.size())
      return false;
    for (size_t I = 0; I != FA.size(); ++I)
      if (FA[I].first != FB[I].first || !sameShape(FA[I].second, FB[I].second))
        return false;
    return true;
  }
  default:
    return true; // Same scalar kind.
  }
}

/// The system's constraints, one per line, for failure messages.
std::string describe(const std::vector<Constraint> &Cs) {
  std::string S;
  for (const Constraint &C : Cs)
    S += "\n  " + C.A->str() + " = " + C.B->str();
  return S;
}

enum class NaiveOutcome { Sat, Unsat, Skipped };

/// Solves \p Cs naively, then under every subset of H1/H2/H3 and under H3
/// on 4 threads. They must agree on sat/unsat, and every solution must
/// satisfy every constraint. \p Out is Skipped when the naive search hits
/// its step cap (the other configurations are then not run).
void checkAgainstNaive(TypeContext &TC, const std::vector<Constraint> &Cs,
                       const std::string &Name, NaiveOutcome &Out) {
  constexpr uint64_t NaiveCap = 200000;
  struct Config {
    bool H1, H2, H3;
    unsigned Threads;
  };
  static const Config Configs[] = {
      {true, false, false, 1}, {false, true, false, 1},
      {true, true, false, 1},  {false, false, true, 1},
      {true, false, true, 1},  {false, true, true, 1},
      {true, true, true, 1},   {false, false, true, 4},
      {true, true, true, 4}};
  {
    InferenceEngine E(TC);
    SolveOptions O = SolveOptions::naive();
    O.MaxSteps = NaiveCap;
    SolveStats S = E.solve(Cs, O);
    Out = S.HitLimit  ? NaiveOutcome::Skipped
          : S.Success ? NaiveOutcome::Sat
                      : NaiveOutcome::Unsat;
  }
  if (Out == NaiveOutcome::Skipped)
    return;
  for (const Config &Cfg : Configs) {
    InferenceEngine E(TC);
    SolveOptions O;
    O.ReorderSimpleFirst = Cfg.H1;
    O.ForcedDisjunctElimination = Cfg.H2;
    O.Partition = Cfg.H3;
    O.NumThreads = Cfg.Threads;
    SolveStats S = E.solve(Cs, O);
    auto What = [&] {
      return Name + " config " + (Cfg.H1 ? "H1" : "x") +
             (Cfg.H2 ? "H2" : "x") + (Cfg.H3 ? "H3" : "x") + " j" +
             std::to_string(Cfg.Threads) + describe(Cs);
    };
    ASSERT_FALSE(S.HitLimit) << What();
    ASSERT_EQ(S.Success, Out == NaiveOutcome::Sat)
        << What() << "\n" << S.FailMessage;
    if (!S.Success)
      continue;
    for (const Constraint &C : Cs)
      EXPECT_TRUE(sameShape(E.resolve(C.A), E.resolve(C.B)))
          << What() << "\n" << C.Context << " resolves to "
          << E.resolve(C.A)->str() << " = " << E.resolve(C.B)->str();
  }
}

TEST(SolverDifferential, RandomSystemsAgreeWithNaive) {
  constexpr uint64_t NumSeeds = 10000;
  unsigned Counts[3] = {0, 0, 0};
  for (uint64_t Seed = 0; Seed != NumSeeds && !HasFailure(); ++Seed) {
    TypeContext TC;
    RandomSystem Sys(TC, Seed);
    NaiveOutcome Out;
    checkAgainstNaive(TC, Sys.Cs, "seed " + std::to_string(Seed), Out);
    ++Counts[unsigned(Out)];
  }
  unsigned NumSat = Counts[unsigned(NaiveOutcome::Sat)];
  unsigned NumUnsat = Counts[unsigned(NaiveOutcome::Unsat)];
  unsigned Skipped = Counts[unsigned(NaiveOutcome::Skipped)];
  std::printf("random systems: %u sat, %u unsat, %u skipped at the naive "
              "cap\n",
              NumSat, NumUnsat, Skipped);
  // The generator must exercise both outcomes, and the cap must leave
  // most seeds in play.
  EXPECT_GT(NumSat, NumSeeds / 10);
  EXPECT_GT(NumUnsat, NumSeeds / 10);
  EXPECT_LT(Skipped, NumSeeds / 20);
}

/// \p Strs with every variable id ("#12") made relative to \p Base, the
/// first id of the copy that owns \p Count variables; an id outside that
/// range, a variable of another copy, is kept and marked foreign.
std::vector<std::string> relativeVarIds(const std::vector<std::string> &Strs,
                                        uint64_t Base, uint64_t Count) {
  std::vector<std::string> Out;
  for (const std::string &S : Strs) {
    std::string R;
    for (size_t I = 0; I != S.size();) {
      if (S[I] != '#') {
        R += S[I++];
        continue;
      }
      size_t End = I + 1;
      while (End != S.size() && std::isdigit(static_cast<unsigned char>(S[End])))
        ++End;
      uint64_t Id = std::stoull(S.substr(I + 1, End - I - 1));
      R += Id >= Base && Id - Base < Count
               ? "#" + std::to_string(Id - Base)
               : "#foreign" + std::to_string(Id);
      I = End;
    }
    Out.push_back(std::move(R));
  }
  return Out;
}

/// One solve of \p Copies copies of RandomSystem(Seed) built in one
/// TypeContext: the stats and each copy's resolved constraint sides with
/// its variable ids made relative to its own first one.
struct CopiesRun {
  SolveStats Stats;
  std::vector<std::vector<std::string>> Resolved;
};

CopiesRun solveCopies(uint64_t Seed, unsigned Copies, unsigned Threads) {
  TypeContext TC;
  std::vector<RandomSystem> Systems;
  Systems.reserve(Copies);
  for (unsigned K = 0; K != Copies; ++K)
    Systems.emplace_back(TC, Seed);
  std::vector<Constraint> Cs;
  for (const RandomSystem &Sys : Systems)
    Cs.insert(Cs.end(), Sys.Cs.begin(), Sys.Cs.end());
  InferenceEngine E(TC);
  SolveOptions O;
  O.NumThreads = Threads;
  CopiesRun R;
  R.Stats = E.solve(Cs, O);
  if (R.Stats.Success)
    for (const RandomSystem &Sys : Systems) {
      std::vector<std::string> Sides;
      for (const Constraint &C : Sys.Cs) {
        Sides.push_back(E.resolve(C.A)->str());
        Sides.push_back(E.resolve(C.B)->str());
      }
      R.Resolved.push_back(relativeVarIds(
          Sides, Sys.Vars.front()->getVarId(), Sys.Vars.size()));
    }
  return R;
}

TEST(SolverDifferential, DuplicatedGroupsMatchSoloSolve) {
  // Every group of copies 1 and 2 equals a group of copy 0 up to a
  // renaming of variables, so it takes an earlier group's search instead
  // of its own. Whatever the thread count, each copy must still report
  // exactly the groups, steps and solution of a solve of one copy alone.
  constexpr unsigned Copies = 3;
  uint64_t Memoized = 0;
  for (uint64_t Seed = 0; Seed != 10000 && !HasFailure(); ++Seed) {
    const CopiesRun Solo = solveCopies(Seed, 1, 1);
    for (unsigned Threads : {1u, 4u}) {
      const CopiesRun Dup = solveCopies(Seed, Copies, Threads);
      const std::string What =
          "seed " + std::to_string(Seed) + " j" + std::to_string(Threads);
      ASSERT_EQ(Dup.Stats.Success, Solo.Stats.Success) << What;
      if (!Solo.Stats.Success) {
        // Copy 0 fails first, exactly as it does alone.
        EXPECT_EQ(Dup.Stats.FailMessage, Solo.Stats.FailMessage) << What;
        continue;
      }
      EXPECT_EQ(Dup.Stats.UnifySteps, Copies * Solo.Stats.UnifySteps) << What;
      EXPECT_EQ(Dup.Stats.BranchPoints, Copies * Solo.Stats.BranchPoints)
          << What;
      const unsigned Groups = Solo.Stats.NumComponents;
      EXPECT_EQ(Dup.Stats.NumComponents, Copies * Groups) << What;
      for (unsigned K = 0; K != Copies; ++K)
        EXPECT_EQ(Dup.Resolved[K], Solo.Resolved[0]) << What << " copy " << K;
      // Each group's record appears once per copy, and only the solo
      // solve's own classes of equal groups search.
      auto Records = [](const SolveStats &S, unsigned Times) {
        std::vector<std::tuple<unsigned, uint64_t, uint64_t, bool>> R;
        for (unsigned K = 0; K != Times; ++K)
          for (const GroupStats &G : S.Groups)
            R.emplace_back(G.NumConstraints, G.UnifySteps, G.BranchPoints,
                           G.Success);
        std::sort(R.begin(), R.end());
        return R;
      };
      EXPECT_EQ(Records(Dup.Stats, 1), Records(Solo.Stats, Copies)) << What;
      EXPECT_EQ(Dup.Stats.NumMemoized,
                Copies * Groups - (Groups - Solo.Stats.NumMemoized))
          << What;
      Memoized += Dup.Stats.NumMemoized;
      if (Solo.Stats.NumComponents) {
        EXPECT_LT(Dup.Stats.UnifyStepsSearched, Dup.Stats.UnifySteps) << What;
      }
    }
  }
  std::printf("duplicated random systems: %llu groups memoized\n",
              static_cast<unsigned long long>(Memoized));
  EXPECT_GT(Memoized, 0u);
}

TEST(SolverDifferential, NodeSharingSeparatesGroups) {
  // v = (S | float) then v = S', with H1 and H2 off so both constraints
  // reach the group search. When S' is S itself, unifying it with v's
  // binding is one step (the same node); when S' is an equal but distinct
  // node, the fields are unified too. The two groups are equal up to a
  // renaming except for that sharing, so each must search for itself.
  auto Build = [](TypeContext &TC, bool Shared, std::vector<Constraint> &Cs) {
    const Type *V = TC.freshVar("v");
    auto MakeStruct = [&TC] {
      return TC.getStruct({{"x", TC.getInt()}, {"y", TC.getBool()}});
    };
    const Type *S = MakeStruct();
    Constraint C;
    C.A = V;
    C.B = TC.getDisjunct({S, TC.getFloat()});
    Cs.push_back(C);
    C.B = Shared ? S : MakeStruct();
    Cs.push_back(C);
  };
  SolveOptions O = SolveOptions::naive();
  O.Partition = true;
  uint64_t SoloSteps[2];
  for (bool Shared : {true, false}) {
    TypeContext TC;
    std::vector<Constraint> Cs;
    Build(TC, Shared, Cs);
    InferenceEngine E(TC);
    SolveStats S = E.solve(Cs, O);
    ASSERT_TRUE(S.Success) << S.FailMessage;
    ASSERT_EQ(S.Groups.size(), 1u);
    SoloSteps[Shared ? 0 : 1] = S.Groups[0].UnifySteps;
  }
  ASSERT_NE(SoloSteps[0], SoloSteps[1]);
  for (unsigned Threads : {1u, 4u}) {
    TypeContext TC;
    std::vector<Constraint> Cs;
    Build(TC, true, Cs);
    Build(TC, false, Cs);
    Build(TC, true, Cs);
    InferenceEngine E(TC);
    O.NumThreads = Threads;
    SolveStats S = E.solve(Cs, O);
    ASSERT_TRUE(S.Success) << S.FailMessage;
    ASSERT_EQ(S.Groups.size(), 3u);
    EXPECT_EQ(S.Groups[0].UnifySteps, SoloSteps[0]);
    EXPECT_EQ(S.Groups[0].MemoOf, -1);
    EXPECT_EQ(S.Groups[1].UnifySteps, SoloSteps[1]);
    EXPECT_EQ(S.Groups[1].MemoOf, -1);
    // The third group shares like the first and is its sibling.
    EXPECT_EQ(S.Groups[2].UnifySteps, SoloSteps[0]);
    EXPECT_EQ(S.Groups[2].MemoOf, 0);
    EXPECT_EQ(S.NumMemoized, 1u);
    for (const Constraint &C : Cs)
      EXPECT_EQ(E.resolve(C.A)->str(), "struct{x:int;y:bool;}");
  }
}

TEST(SolverDifferential, FixedSeedRegressions) {
  // Seeds the random sweep once failed on. 84: H2 committed the first
  // solution of a forced alternative that held a nested choice. 5919: the
  // occurs check looked inside alternatives, so whether a variable could
  // be equated with a term depended on whether it was already bound, that
  // is, on the order in which the heuristics visited the constraints.
  for (uint64_t Seed : {84u, 5919u}) {
    TypeContext TC;
    RandomSystem Sys(TC, Seed);
    NaiveOutcome Out;
    checkAgainstNaive(TC, Sys.Cs, "seed " + std::to_string(Seed), Out);
    EXPECT_EQ(Out, NaiveOutcome::Sat) << "seed " << Seed;
  }
}

TEST(SolverDifferential, ChoicePairsInParallelGroups) {
  // Sixteen variable-disjoint groups. In each, v = struct{f0:(v|bool|int);
  // ...}[1] is a choice pair whose first answer (all bool) the second
  // constraint rejects, so the search rebuilds terms for hundreds of
  // alternatives per group while the other workers do the same. The
  // result must not depend on the thread count.
  constexpr unsigned Fields = 8;
  TypeContext TC;
  std::vector<const Type *> Vars;
  std::vector<Constraint> Cs;
  for (unsigned I = 0; I != 16; ++I) {
    const Type *V = TC.freshVar("v");
    Vars.push_back(V);
    std::vector<std::pair<std::string, const Type *>> Choices, Ints;
    for (unsigned F = 0; F != Fields; ++F) {
      std::string Name = "f" + std::to_string(F);
      Choices.emplace_back(Name,
                           TC.getDisjunct({V, TC.getBool(), TC.getInt()}));
      Ints.emplace_back(Name, TC.getInt());
    }
    Constraint C;
    C.A = V;
    C.B = TC.getArray(TC.getStruct(std::move(Choices)), 1);
    Cs.push_back(C);
    C.B = TC.getArray(TC.getStruct(std::move(Ints)), 1);
    Cs.push_back(C);
  }
  const std::string Expected =
      "struct{f0:int;f1:int;f2:int;f3:int;f4:int;f5:int;f6:int;f7:int;}[1]";
  SolveStats Serial;
  for (unsigned Threads : {1u, 4u}) {
    InferenceEngine E(TC);
    // H1 and H2 would bind v from the second constraint first; with them
    // off, every choice is made by the group search.
    SolveOptions O = SolveOptions::naive();
    O.Partition = true;
    O.NumThreads = Threads;
    SolveStats S = E.solve(Cs, O);
    ASSERT_TRUE(S.Success) << S.FailMessage;
    EXPECT_EQ(S.NumComponents, 16u);
    for (const Type *V : Vars)
      EXPECT_EQ(E.resolve(V)->str(), Expected);
    if (Threads == 1) {
      Serial = S;
      continue;
    }
    EXPECT_EQ(S.UnifySteps, Serial.UnifySteps);
    EXPECT_EQ(S.BranchPoints, Serial.BranchPoints);
  }
}

TEST(SolverDifferential, ForcedAlternativeKeepsItsNestedChoiceOpen) {
  // H2 finds (v | float) to be the only viable alternative. Committing
  // the trial's first solution would bind v to float, which the second
  // constraint then contradicts.
  TypeContext TC;
  const Type *V = TC.freshVar("v");
  std::vector<Constraint> Cs(2);
  Cs[0].A = TC.getDisjunct(
      {TC.getInt(), TC.getDisjunct({V, TC.getFloat()})});
  Cs[0].B = TC.getFloat();
  Cs[1].A = V;
  Cs[1].B = TC.getString();
  NaiveOutcome Out;
  checkAgainstNaive(TC, Cs, "forced nested choice", Out);
  EXPECT_EQ(Out, NaiveOutcome::Sat);
}

TEST(SolverDifferential, OccurrenceInsideAnAlternativeIsAChoice) {
  // v = (v | int)[1] holds with v = int[1]: only the v alternative would
  // make the type infinite.
  TypeContext TC;
  const Type *V = TC.freshVar("v");
  std::vector<Constraint> Cs(1);
  Cs[0].A = V;
  Cs[0].B = TC.getArray(TC.getDisjunct({V, TC.getInt()}), 1);
  NaiveOutcome Out;
  checkAgainstNaive(TC, Cs, "occurs under a choice", Out);
  EXPECT_EQ(Out, NaiveOutcome::Sat);
  InferenceEngine E(TC);
  ASSERT_TRUE(E.solve(Cs, SolveOptions()).Success);
  EXPECT_EQ(E.resolve(V)->str(), "int[1]");
  // A direct occurrence is still an error, whatever the alternatives.
  Cs[0].B = TC.getStruct(
      {{"x", V}, {"y", TC.getDisjunct({V, TC.getInt()})}});
  InferenceEngine E2(TC);
  SolveStats S = E2.solve(Cs, SolveOptions());
  EXPECT_FALSE(S.Success);
  EXPECT_EQ(S.FailMessage.rfind("occurs check failed: 'v#0 in ", 0), 0u)
      << S.FailMessage;
}

} // namespace
