//===- ParallelInferTest.cpp - Parallel H3 group-search tests --------------------===//
///
/// The parallel solver's contract is that thread count is unobservable:
/// for any constraint system, solving with N threads produces bit-identical
/// bindings, statistics, and diagnostics to the serial (--jobs 1) solve. These
/// tests pin that contract on the synthetic families, on the paper's real
/// models A-F, and on the failure path (a group that cannot be satisfied
/// must surface exactly one diagnostic regardless of which worker finds it).
///
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "infer/Synthetic.h"
#include "models/Models.h"
#include "netlist/Netlist.h"
#include "types/Type.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>

using namespace liberty;
using namespace liberty::infer;
using types::TypeContext;

namespace {

using Generator = std::function<std::vector<Constraint>(TypeContext &)>;

/// One engine-level solve of a generated system: the stats plus the
/// post-solve deep resolution of every constraint side (the observable
/// outcome a netlist would read back).
struct EngineRun {
  SolveStats Stats;
  std::vector<std::string> Resolved;
};

EngineRun solveSynthetic(const Generator &Make, unsigned Threads) {
  TypeContext TC;
  std::vector<Constraint> Cs = Make(TC);
  InferenceEngine E(TC);
  SolveOptions O;
  O.NumThreads = Threads;
  EngineRun R;
  R.Stats = E.solve(Cs, O);
  if (R.Stats.Success)
    for (const Constraint &C : Cs) {
      R.Resolved.push_back(E.resolve(C.A)->str());
      R.Resolved.push_back(E.resolve(C.B)->str());
    }
  return R;
}

/// Asserts two runs are observably identical: outcome, every statistic the
/// solver reports (except wall time), the per-group records, and the
/// resolved types.
void expectIdenticalRuns(const EngineRun &Serial, const EngineRun &Parallel,
                         const char *What) {
  SCOPED_TRACE(What);
  EXPECT_EQ(Serial.Stats.Success, Parallel.Stats.Success);
  EXPECT_EQ(Serial.Stats.HitLimit, Parallel.Stats.HitLimit);
  EXPECT_EQ(Serial.Stats.UnifySteps, Parallel.Stats.UnifySteps);
  EXPECT_EQ(Serial.Stats.BranchPoints, Parallel.Stats.BranchPoints);
  EXPECT_EQ(Serial.Stats.NumConstraints, Parallel.Stats.NumConstraints);
  EXPECT_EQ(Serial.Stats.NumDisjunctive, Parallel.Stats.NumDisjunctive);
  EXPECT_EQ(Serial.Stats.NumComponents, Parallel.Stats.NumComponents);
  EXPECT_EQ(Serial.Stats.NumUnsolved, Parallel.Stats.NumUnsolved);
  EXPECT_EQ(Serial.Stats.NumMemoized, Parallel.Stats.NumMemoized);
  EXPECT_EQ(Serial.Stats.UnifyStepsSearched,
            Parallel.Stats.UnifyStepsSearched);
  EXPECT_EQ(Serial.Stats.FailMessage, Parallel.Stats.FailMessage);
  ASSERT_EQ(Serial.Stats.Groups.size(), Parallel.Stats.Groups.size());
  for (size_t I = 0; I != Serial.Stats.Groups.size(); ++I) {
    const GroupStats &G1 = Serial.Stats.Groups[I];
    const GroupStats &GN = Parallel.Stats.Groups[I];
    EXPECT_EQ(G1.NumConstraints, GN.NumConstraints) << "group " << I;
    EXPECT_EQ(G1.UnifySteps, GN.UnifySteps) << "group " << I;
    EXPECT_EQ(G1.BranchPoints, GN.BranchPoints) << "group " << I;
    EXPECT_EQ(G1.Success, GN.Success) << "group " << I;
    EXPECT_EQ(G1.HitLimit, GN.HitLimit) << "group " << I;
    EXPECT_EQ(G1.InstancePaths, GN.InstancePaths) << "group " << I;
    EXPECT_EQ(G1.NumDisjunctAlternatives, GN.NumDisjunctAlternatives)
        << "group " << I;
    EXPECT_EQ(G1.MemoOf, GN.MemoOf) << "group " << I;
  }
  EXPECT_EQ(Serial.Resolved, Parallel.Resolved);
}

//===----------------------------------------------------------------------===//
// (a) Parallel == serial on the synthetic families
//===----------------------------------------------------------------------===//

TEST(ParallelInfer, SyntheticFamiliesMatchSerial) {
  struct Family {
    const char *Name;
    Generator Make;
  };
  const Family Families[] = {
      {"hard-groups g=6 k=8",
       [](TypeContext &TC) { return makeDisjointHardGroups(TC, 6, 8); }},
      {"intersection k=24",
       [](TypeContext &TC) { return makeIntersectionFamily(TC, 24); }},
      {"adversarial k=8",
       [](TypeContext &TC) { return makeAdversarialPairs(TC, 8); }},
      {"forced-chain n=128",
       [](TypeContext &TC) { return makeForcedChain(TC, 128); }},
  };
  for (const Family &F : Families) {
    EngineRun Serial = solveSynthetic(F.Make, 1);
    ASSERT_TRUE(Serial.Stats.Success)
        << F.Name << ": " << Serial.Stats.FailMessage;
    for (unsigned Threads : {2u, 4u, 0u}) // 0 = one per hardware thread.
      expectIdenticalRuns(Serial, solveSynthetic(F.Make, Threads), F.Name);
  }
}

TEST(ParallelInfer, HardGroupsResolveAllFloat) {
  // The family's documented solution: every variable resolves to float,
  // under any thread count.
  for (unsigned Threads : {1u, 4u}) {
    TypeContext TC;
    std::vector<Constraint> Cs = makeDisjointHardGroups(TC, 4, 6);
    InferenceEngine E(TC);
    SolveOptions O;
    O.NumThreads = Threads;
    SolveStats S = E.solve(Cs, O);
    ASSERT_TRUE(S.Success) << S.FailMessage;
    for (const Constraint &C : Cs)
      if (C.A->isVar()) {
        EXPECT_EQ(E.resolve(C.A), TC.getFloat()) << "threads=" << Threads;
      }
  }
}

//===----------------------------------------------------------------------===//
// (b) The merged SolveStats equal the serial totals
//===----------------------------------------------------------------------===//

TEST(ParallelInfer, GroupStatsSumToSolveTotals) {
  const unsigned NumGroups = 5;
  Generator Make = [](TypeContext &TC) {
    return makeDisjointHardGroups(TC, NumGroups, 8);
  };
  EngineRun Serial = solveSynthetic(Make, 1);
  EngineRun Parallel = solveSynthetic(Make, 4);
  ASSERT_TRUE(Parallel.Stats.Success) << Parallel.Stats.FailMessage;

  // One record per variable-disjoint component, in deterministic order.
  EXPECT_EQ(Parallel.Stats.NumComponents, NumGroups);
  ASSERT_EQ(Parallel.Stats.Groups.size(), NumGroups);
  // Only threads that ran a group search count. The copies of one puzzle
  // memoize onto the first, so fewer searches ran than groups exist.
  const unsigned Searched = NumGroups - Parallel.Stats.NumMemoized;
  EXPECT_GE(Parallel.Stats.ThreadsUsed, 1u);
  EXPECT_LE(Parallel.Stats.ThreadsUsed, std::min(Searched, 4u));
  EXPECT_EQ(Serial.Stats.ThreadsUsed, 1u);

  uint64_t GroupSteps = 0, GroupBranches = 0;
  unsigned GroupConstraints = 0;
  for (const GroupStats &G : Parallel.Stats.Groups) {
    EXPECT_TRUE(G.Success);
    EXPECT_GT(G.UnifySteps, 0u);
    EXPECT_GT(G.BranchPoints, 0u) << "hard groups must actually search";
    GroupSteps += G.UnifySteps;
    GroupBranches += G.BranchPoints;
    GroupConstraints += G.NumConstraints;
  }
  // Every constraint in this family is disjunctive and lands in a group.
  EXPECT_EQ(GroupConstraints, Parallel.Stats.NumConstraints);
  // All branching happens inside the groups; the serial phases before the
  // partition (H1/H2) contribute unify steps but never branch here.
  EXPECT_EQ(GroupBranches, Parallel.Stats.BranchPoints);
  EXPECT_LE(GroupSteps, Parallel.Stats.UnifySteps);
  // And the merged totals are exactly the serial solver's totals.
  EXPECT_EQ(Parallel.Stats.UnifySteps, Serial.Stats.UnifySteps);
  EXPECT_EQ(Parallel.Stats.BranchPoints, Serial.Stats.BranchPoints);
}

//===----------------------------------------------------------------------===//
// (a) Parallel == serial on the paper's models
//===----------------------------------------------------------------------===//

/// Compiles model \p Id with \p Threads solver threads and returns every
/// port's resolved type, keyed by instance path and port name.
std::map<std::string, std::string> modelPortTypes(const std::string &Id,
                                                  unsigned Threads,
                                                  SolveStats &StatsOut) {
  std::map<std::string, std::string> Types;
  driver::Compiler C;
  EXPECT_TRUE(models::loadModel(C, Id));
  EXPECT_TRUE(C.elaborate());
  driver::CompilerInvocation Inv;
  Inv.Solve.NumThreads = Threads;
  EXPECT_TRUE(C.inferTypes(Inv)) << C.diagnosticsText();
  StatsOut = C.getInferenceStats().Solve;
  for (const auto &Inst : C.getNetlist()->getInstances())
    for (const netlist::Port &P : Inst->Ports)
      if (P.Resolved)
        Types[Inst->Path + "." + P.Name] = P.Resolved->str();
  return Types;
}

TEST(ParallelInfer, ThreadsUsedIsZeroWithoutGroupSearches) {
  // H1/H2 settle a forced chain: no group searches, so no thread counts.
  for (unsigned Threads : {1u, 4u}) {
    EngineRun R = solveSynthetic(
        [](TypeContext &TC) { return makeForcedChain(TC, 64); }, Threads);
    ASSERT_TRUE(R.Stats.Success) << R.Stats.FailMessage;
    EXPECT_EQ(R.Stats.NumComponents, 0u);
    EXPECT_EQ(R.Stats.ThreadsUsed, 0u) << "threads=" << Threads;
  }
}

TEST(ParallelInfer, ModelsResolveIdenticalPortTypes) {
  for (const std::string &Id : models::modelIds()) {
    SCOPED_TRACE("model " + Id);
    SolveStats Serial, Parallel;
    std::map<std::string, std::string> T1 = modelPortTypes(Id, 1, Serial);
    std::map<std::string, std::string> T4 = modelPortTypes(Id, 4, Parallel);
    ASSERT_FALSE(T1.empty());
    EXPECT_EQ(T1, T4);
    EXPECT_EQ(Serial.UnifySteps, Parallel.UnifySteps);
    EXPECT_EQ(Serial.BranchPoints, Parallel.BranchPoints);
    EXPECT_EQ(Serial.NumComponents, Parallel.NumComponents);
  }
}

//===----------------------------------------------------------------------===//
// (c) A failing group propagates its diagnostic exactly once
//===----------------------------------------------------------------------===//

TEST(ParallelInfer, FailingFirstGroupMatchesSerialExactly) {
  // The unsatisfiable pair's constraints come first, so its group fails
  // first. The serial solver stops there; the parallel solver may have
  // speculatively solved the later (satisfiable) groups on other workers,
  // but must discard those results to report the identical state.
  Generator Make = [](TypeContext &TC) {
    std::vector<Constraint> Cs = makeUnsatPairs(TC, 1);
    std::vector<Constraint> Hard = makeDisjointHardGroups(TC, 3, 6);
    Cs.insert(Cs.end(), Hard.begin(), Hard.end());
    return Cs;
  };
  EngineRun Serial = solveSynthetic(Make, 1);
  ASSERT_FALSE(Serial.Stats.Success);
  ASSERT_FALSE(Serial.Stats.FailMessage.empty());
  for (unsigned Threads : {2u, 4u})
    expectIdenticalRuns(Serial, solveSynthetic(Make, Threads),
                        "unsat group first");
  // Only the failing group's record is reported; the speculative ones are
  // not part of the deterministic result.
  EXPECT_EQ(Serial.Stats.Groups.size(), 1u);
  EXPECT_FALSE(Serial.Stats.Groups.back().Success);
}

TEST(ParallelInfer, FailingLastGroupMatchesSerialExactly) {
  Generator Make = [](TypeContext &TC) {
    std::vector<Constraint> Cs = makeDisjointHardGroups(TC, 3, 6);
    std::vector<Constraint> Unsat = makeUnsatPairs(TC, 1);
    Cs.insert(Cs.end(), Unsat.begin(), Unsat.end());
    return Cs;
  };
  EngineRun Serial = solveSynthetic(Make, 1);
  ASSERT_FALSE(Serial.Stats.Success);
  for (unsigned Threads : {2u, 4u})
    expectIdenticalRuns(Serial, solveSynthetic(Make, Threads),
                        "unsat group last");
  // All three satisfiable groups ran before the failure was reached.
  EXPECT_EQ(Serial.Stats.Groups.size(), 4u);
  EXPECT_FALSE(Serial.Stats.Groups.back().Success);
}

//===----------------------------------------------------------------------===//
// (d) Budget exhaustion degrades gracefully, identically at any thread count
//===----------------------------------------------------------------------===//

TEST(ParallelInfer, BudgetExhaustedGroupMatchesSerialExactly) {
  // One pathologically hard group among six easy ones, with a step budget
  // the hard group cannot meet. Unlike genuine unsatisfiability, budget
  // exhaustion must not stop the solve: the easy groups still solve and
  // commit, only the hard group is recorded unsolved — and the whole
  // degraded outcome is bit-identical at any thread count.
  auto Run = [](unsigned Threads) {
    TypeContext TC;
    std::vector<Constraint> Cs = makeDisjointHardGroups(TC, 1, 14);
    std::vector<Constraint> Easy = makeIntersectionFamily(TC, 6);
    Cs.insert(Cs.end(), Easy.begin(), Easy.end());
    InferenceEngine E(TC);
    SolveOptions O;
    O.NumThreads = Threads;
    O.ForcedDisjunctElimination = false; // Leave residual groups for H3.
    O.MaxSteps = 20000;
    EngineRun R;
    R.Stats = E.solve(Cs, O);
    // Resolve every constraint side: easy-group bindings must have been
    // committed despite the failure (unsolved vars resolve to themselves).
    for (const Constraint &C : Cs) {
      R.Resolved.push_back(E.resolve(C.A)->str());
      R.Resolved.push_back(E.resolve(C.B)->str());
    }
    return R;
  };
  EngineRun Serial = Run(1);
  ASSERT_FALSE(Serial.Stats.Success);
  EXPECT_TRUE(Serial.Stats.HitLimit);
  EXPECT_EQ(Serial.Stats.NumUnsolved, 1u);
  ASSERT_EQ(Serial.Stats.Groups.size(), 7u);
  const GroupStats &Hard = Serial.Stats.Groups.front();
  EXPECT_FALSE(Hard.Success);
  EXPECT_TRUE(Hard.HitLimit);
  ASSERT_FALSE(Hard.InstancePaths.empty());
  EXPECT_EQ(Hard.InstancePaths.front(), "synthetic.g0");
  EXPECT_GT(Hard.NumDisjunctAlternatives, 0u);
  for (size_t G = 1; G != Serial.Stats.Groups.size(); ++G)
    EXPECT_TRUE(Serial.Stats.Groups[G].Success) << "easy group " << G;
  // The intersection family's documented solution is float; the committed
  // easy-group bindings must show it.
  EXPECT_NE(std::count(Serial.Resolved.begin(), Serial.Resolved.end(),
                       "float"),
            0);
  for (unsigned Threads : {2u, 4u})
    expectIdenticalRuns(Serial, Run(Threads), "budget-exhausted group");
}

TEST(ParallelInfer, DuplicatedBudgetExhaustedGroupsEachReportThemselves) {
  // Three copies of the pathological group: the first searches and runs
  // out of budget, the other two take its verdict without searching. Each
  // is still its own unsolved group, with its own instance path in the
  // diagnostic, and the easy groups after them still commit.
  constexpr unsigned Copies = 3;
  auto Run = [](unsigned Threads) {
    TypeContext TC;
    std::vector<Constraint> Cs = makeDisjointHardGroups(TC, Copies, 14);
    std::vector<Constraint> Easy = makeIntersectionFamily(TC, 6);
    Cs.insert(Cs.end(), Easy.begin(), Easy.end());
    InferenceEngine E(TC);
    SolveOptions O;
    O.NumThreads = Threads;
    O.ForcedDisjunctElimination = false; // Leave residual groups for H3.
    O.MaxSteps = 20000;
    EngineRun R;
    R.Stats = E.solve(Cs, O);
    for (const Constraint &C : Cs) {
      R.Resolved.push_back(E.resolve(C.A)->str());
      R.Resolved.push_back(E.resolve(C.B)->str());
    }
    return R;
  };
  EngineRun Serial = Run(1);
  ASSERT_FALSE(Serial.Stats.Success);
  EXPECT_TRUE(Serial.Stats.HitLimit);
  EXPECT_EQ(Serial.Stats.NumUnsolved, Copies);
  ASSERT_EQ(Serial.Stats.Groups.size(), Copies + 6);
  const GroupStats &First = Serial.Stats.Groups.front();
  for (unsigned G = 0; G != Copies; ++G) {
    const GroupStats &Hard = Serial.Stats.Groups[G];
    EXPECT_FALSE(Hard.Success) << "copy " << G;
    EXPECT_TRUE(Hard.HitLimit) << "copy " << G;
    EXPECT_EQ(Hard.MemoOf, G ? 0 : -1) << "copy " << G;
    EXPECT_EQ(Hard.UnifySteps, First.UnifySteps) << "copy " << G;
    EXPECT_EQ(Hard.NumDisjunctAlternatives, First.NumDisjunctAlternatives);
    EXPECT_EQ(Hard.InstancePaths,
              std::vector<std::string>{"synthetic.g" + std::to_string(G)});
  }
  for (size_t G = Copies; G != Serial.Stats.Groups.size(); ++G)
    EXPECT_TRUE(Serial.Stats.Groups[G].Success) << "easy group " << G;
  EXPECT_EQ(Serial.Stats.NumMemoized, Copies - 1 + 5);
  EXPECT_LT(Serial.Stats.UnifyStepsSearched, Serial.Stats.UnifySteps);
  for (unsigned Threads : {2u, 4u})
    expectIdenticalRuns(Serial, Run(Threads), "duplicated budget groups");
}

TEST(ParallelInfer, DuplicatedUnsatGroupStopsTheMergeAtTheFirstCopy) {
  // Two satisfiable groups, two copies of an unsatisfiable one, then
  // copies of the satisfiable groups. The first unsatisfiable copy is a
  // representative; the merge stops there, at group 2, with the usual
  // message, and nothing after it (its sibling included) is reported.
  Generator Make = [](TypeContext &TC) {
    std::vector<Constraint> Cs = makeDisjointHardGroups(TC, 2, 6);
    for (unsigned Copy = 0; Copy != 2; ++Copy) {
      std::vector<Constraint> Unsat = makeUnsatPairs(TC, 1);
      Cs.insert(Cs.end(), Unsat.begin(), Unsat.end());
    }
    std::vector<Constraint> Hard = makeDisjointHardGroups(TC, 2, 6);
    Cs.insert(Cs.end(), Hard.begin(), Hard.end());
    return Cs;
  };
  EngineRun Serial = solveSynthetic(Make, 1);
  ASSERT_FALSE(Serial.Stats.Success);
  EXPECT_EQ(Serial.Stats.FailMessage,
            "no consistent assignment for overloaded components");
  EXPECT_EQ(Serial.Stats.NumComponents, 6u);
  ASSERT_EQ(Serial.Stats.Groups.size(), 3u);
  EXPECT_TRUE(Serial.Stats.Groups[0].Success);
  EXPECT_EQ(Serial.Stats.Groups[1].MemoOf, 0);
  EXPECT_FALSE(Serial.Stats.Groups[2].Success);
  EXPECT_EQ(Serial.Stats.Groups[2].MemoOf, -1);
  for (unsigned Threads : {2u, 4u})
    expectIdenticalRuns(Serial, solveSynthetic(Make, Threads),
                        "duplicated unsat group");
}

TEST(ParallelInfer, NetlistFailureReportsOneDiagnostic) {
  // Two residual groups: pg (satisfiable overload intersection) and og
  // (disjoint overloads — unsatisfiable). Whichever worker finds the
  // failure, the compiler must emit exactly one error, and the same one
  // the serial compile emits.
  const char *Src = R"(
module pgsrc { outport out: 'a; constrain 'a : (int | float);
               tar_file = "t/pgsrc"; };
module pgsnk { inport in: 'a; constrain 'a : (float | int);
               tar_file = "t/pgsnk"; };
module ogsrc { outport out: 'a; constrain 'a : (int | bool);
               tar_file = "t/ogsrc"; };
module ogsnk { inport in: 'a; constrain 'a : (float | string);
               tar_file = "t/ogsnk"; };
instance ps: pgsrc;
instance pk: pgsnk;
instance os: ogsrc;
instance ok: ogsnk;
ps.out -> pk.in;
os.out -> ok.in;
)";
  std::string SerialError;
  for (unsigned Threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(Threads));
    driver::Compiler C;
    ASSERT_TRUE(C.addCoreLibrary());
    ASSERT_TRUE(C.addSource("t.lss", Src));
    ASSERT_TRUE(C.elaborate());
    driver::CompilerInvocation Inv;
    Inv.Solve.NumThreads = Threads;
    EXPECT_FALSE(C.inferTypes(Inv));
    EXPECT_EQ(C.getDiags().getNumErrors(), 1u) << C.diagnosticsText();
    std::string Error = C.getDiags().getFirstErrorMessage();
    EXPECT_NE(Error.find("no consistent assignment"), std::string::npos)
        << Error;
    if (Threads == 1)
      SerialError = Error;
    else
      EXPECT_EQ(Error, SerialError);
  }
}

} // namespace
