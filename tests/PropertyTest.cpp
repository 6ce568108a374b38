//===- PropertyTest.cpp - Property-based and randomized sweeps ------------------===//
///
/// Cross-cutting invariants checked over generated inputs:
///  - generated simulators match the hand-coded reference on random
///    configurations, not just the hand-picked validation grid;
///  - the inference heuristics never change *satisfiability*, only cost;
///  - elaboration and simulation are deterministic;
///  - CPU models schedule without combinational cycles.
///
//===----------------------------------------------------------------------===//

#include "baseline/HandCodedSim.h"
#include "baseline/OopSim.h"
#include "driver/Compiler.h"
#include "driver/Stats.h"
#include "infer/Synthetic.h"
#include "models/Models.h"
#include "types/Type.h"

#include <gtest/gtest.h>

using namespace liberty;

namespace {

/// Deterministic PRNG for test-input generation.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed * 0x9e3779b97f4a7c15ULL + 1) {}
  uint64_t next() {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    return S;
  }
  int range(int Lo, int Hi) { // Inclusive.
    return Lo + static_cast<int>(next() % (Hi - Lo + 1));
  }
};

//===----------------------------------------------------------------------===//
// Random CPU configurations vs the hand-coded reference
//===----------------------------------------------------------------------===//

class RandomCoreTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomCoreTest, GeneratedMatchesHandCoded) {
  Rng R(GetParam());
  const int FetchWidth = R.range(1, 6);
  const int NumFus = R.range(1, 8);
  const int Window = R.range(2, 40);
  const bool InOrder = R.range(0, 1) == 0;
  const int64_t NumInstrs = R.range(50, 400);
  const uint64_t Seed = R.range(1, 10000);

  std::string Spec = "instance core:cpu_core;\n";
  Spec += "core.fetch_width = " + std::to_string(FetchWidth) + ";\n";
  Spec += "core.num_fus = " + std::to_string(NumFus) + ";\n";
  Spec += "core.window = " + std::to_string(Window) + ";\n";
  Spec += std::string("core.inorder = ") + (InOrder ? "true" : "false") +
          ";\n";
  Spec += "core.num_instrs = " + std::to_string(NumInstrs) + ";\n";
  Spec += "core.seed = " + std::to_string(Seed) + ";\n";
  Spec += "instance ret:sink;\ncore.retired[0] -> ret.in;\n";

  driver::Compiler C;
  ASSERT_TRUE(C.addCoreLibrary());
  ASSERT_TRUE(C.addFile(models::uarchLssPath()));
  ASSERT_TRUE(C.addSource("rand.lss", Spec));
  ASSERT_TRUE(C.elaborate()) << C.diagnosticsText();
  ASSERT_TRUE(C.inferTypes()) << C.diagnosticsText();
  sim::Simulator *Sim = C.buildSimulator();
  ASSERT_NE(Sim, nullptr) << C.diagnosticsText();

  baseline::PipelineConfig HandCfg;
  HandCfg.NumInstrs = NumInstrs;
  HandCfg.Seed = Seed;
  HandCfg.FetchWidth = FetchWidth;
  HandCfg.WindowSize = Window;
  HandCfg.InOrder = InOrder;
  HandCfg.NumFus = NumFus;
  baseline::PipelineResult Hand = baseline::runHandCodedPipeline(HandCfg);
  ASSERT_EQ(Hand.Retired, static_cast<uint64_t>(NumInstrs))
      << "hand-coded model deadlocked; config fw=" << FetchWidth
      << " fus=" << NumFus << " win=" << Window;

  uint64_t Cycles = 0;
  int64_t Retired = 0;
  while (Cycles < 100000 && Retired < NumInstrs) {
    Sim->step(1);
    ++Cycles;
    interp::Value *V = Sim->findState("core.r", "retired");
    Retired = V && V->isInt() ? V->getInt() : 0;
  }
  EXPECT_EQ(static_cast<uint64_t>(Retired), Hand.Retired);
  EXPECT_EQ(Cycles, Hand.Cycles)
      << "CPI mismatch on fw=" << FetchWidth << " fus=" << NumFus
      << " win=" << Window << (InOrder ? " io" : " ooo");
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCoreTest, ::testing::Range(1, 13));

//===----------------------------------------------------------------------===//
// Delay chains: LSS vs hand-coded across a grid
//===----------------------------------------------------------------------===//

class ChainGridTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(ChainGridTest, OutputMatchesReference) {
  auto [N, Cycles] = GetParam();
  std::string Spec = R"(
module delayn {
  parameter n:int;
  inport in: 'a;
  outport out: 'a;
  var ds:instance ref[];
  ds = new instance[n](delay, "d");
  in -> ds[0].in;
  var i:int;
  for (i = 1; i < n; i = i + 1) { ds[i-1].out -> ds[i].in; }
  ds[n-1].out -> out;
};
instance g:counter_source;
instance c:delayn;
c.n = )" + std::to_string(N) + R"(;
instance s:sink;
g.out -> c.in;
c.out -> s.in;
)";
  driver::CompilerInvocation Inv;
  Inv.addSource("chain.lss", Spec);
  auto C = driver::Compiler::compileForSim(Inv);
  ASSERT_NE(C, nullptr);
  C->getSimulator()->step(Cycles);
  const interp::Value *V = C->getSimulator()->peekPort(
      "c.d[" + std::to_string(N - 1) + "]", "out", 0);
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->getInt(), baseline::runHandCodedDelayChain(N, Cycles));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ChainGridTest,
    ::testing::Combine(::testing::Values(1, 2, 5, 17),
                       ::testing::Values(uint64_t(1), uint64_t(3),
                                         uint64_t(64))));

//===----------------------------------------------------------------------===//
// Random acyclic netlists: LSS (both engine modes) vs the structural-OOP
// baseline, value-for-value every cycle
//===----------------------------------------------------------------------===//

/// One node of a generated layered DAG. Inputs always reference
/// lower-indexed nodes, so index order is a topological order.
struct DagNode {
  enum Kind { Counter, Const, Add, Dly } K;
  int64_t A = 0;       ///< start (Counter), value (Const), initial (Dly).
  int64_t B = 1;       ///< stride (Counter).
  int In1 = -1, In2 = -1;
};

std::vector<DagNode> randomDag(Rng &R) {
  std::vector<DagNode> Nodes;
  const int NumSources = R.range(2, 4);
  for (int I = 0; I != NumSources; ++I) {
    DagNode N;
    if (R.range(0, 1)) {
      N.K = DagNode::Counter;
      N.A = R.range(-5, 5);
      N.B = R.range(1, 3);
    } else {
      N.K = DagNode::Const;
      N.A = R.range(-20, 20);
    }
    Nodes.push_back(N);
  }
  const int NumInner = R.range(4, 14);
  for (int I = 0; I != NumInner; ++I) {
    DagNode N;
    const int Max = static_cast<int>(Nodes.size()) - 1;
    if (R.range(0, 2) == 0) {
      N.K = DagNode::Dly;
      N.A = R.range(0, 9);
      N.In1 = R.range(0, Max);
    } else {
      N.K = DagNode::Add;
      N.In1 = R.range(0, Max);
      N.In2 = R.range(0, Max);
    }
    Nodes.push_back(N);
  }
  return Nodes;
}

std::string dagToLss(const std::vector<DagNode> &Nodes) {
  // Each connection from a port allocates a fresh index, and the corelib
  // computational components (adder in particular) drive only out[0];
  // multi-reader nets must go through an explicit fanout component, which
  // is the corelib's convention for replication. So every node's out
  // feeds a fanout f<i>, and consumers (including the per-node sink that
  // keeps the net observable) read from f<i>.out.
  std::string Spec;
  for (size_t I = 0; I != Nodes.size(); ++I) {
    const DagNode &N = Nodes[I];
    const std::string Nm = "n" + std::to_string(I);
    auto Src = [](int J) { return "f" + std::to_string(J) + ".out"; };
    switch (N.K) {
    case DagNode::Counter:
      Spec += "instance " + Nm + ":counter_source;\n";
      Spec += Nm + ".start = " + std::to_string(N.A) + ";\n";
      Spec += Nm + ".stride = " + std::to_string(N.B) + ";\n";
      break;
    case DagNode::Const:
      Spec += "instance " + Nm + ":const_source;\n";
      Spec += Nm + ".value = " + std::to_string(N.A) + ";\n";
      break;
    case DagNode::Add:
      Spec += "instance " + Nm + ":adder;\n";
      Spec += Src(N.In1) + " -> " + Nm + ".in1;\n";
      Spec += Src(N.In2) + " -> " + Nm + ".in2;\n";
      break;
    case DagNode::Dly:
      Spec += "instance " + Nm + ":delay;\n";
      Spec += Nm + ".initial_state = " + std::to_string(N.A) + ";\n";
      Spec += Src(N.In1) + " -> " + Nm + ".in;\n";
      break;
    }
    Spec += "instance f" + std::to_string(I) + ":fanout;\n";
    Spec += Nm + ".out -> f" + std::to_string(I) + ".in;\n";
    Spec += "instance k" + std::to_string(I) + ":sink;\n";
    Spec += Src(static_cast<int>(I)) + " -> k" + std::to_string(I) + ".in;\n";
  }
  return Spec;
}

// Test-local OOP mirror components (the baseline library only ships a
// plain cycle counter).
class OopScaledCounter : public baseline::oop::Component {
public:
  OopScaledCounter(baseline::oop::Signal<int64_t> *Out,
                   baseline::oop::Engine &E, int64_t Start, int64_t Stride)
      : Out(Out), E(E), Start(Start), Stride(Stride) {}
  void evaluate() override {
    Out->set(Start + Stride * static_cast<int64_t>(E.getCycle()));
  }

private:
  baseline::oop::Signal<int64_t> *Out;
  baseline::oop::Engine &E;
  int64_t Start, Stride;
};

class OopConst : public baseline::oop::Component {
public:
  OopConst(baseline::oop::Signal<int64_t> *Out, int64_t V) : Out(Out), V(V) {}
  void evaluate() override { Out->set(V); }

private:
  baseline::oop::Signal<int64_t> *Out;
  int64_t V;
};

class OopAdder : public baseline::oop::Component {
public:
  OopAdder(baseline::oop::Signal<int64_t> *In1,
           baseline::oop::Signal<int64_t> *In2,
           baseline::oop::Signal<int64_t> *Out)
      : In1(In1), In2(In2), Out(Out) {}
  void evaluate() override {
    if (In1->hasValue() && In2->hasValue())
      Out->set(In1->get() + In2->get());
  }

private:
  baseline::oop::Signal<int64_t> *In1, *In2, *Out;
};

class RandomNetlistTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomNetlistTest, LssEnginesMatchOopBaseline) {
  const int Seed = GetParam();
  Rng R(static_cast<uint64_t>(Seed) * 104729);
  const std::vector<DagNode> Nodes = randomDag(R);
  const uint64_t Cycles = 40;
  const std::string Spec = dagToLss(Nodes);

  auto MakeSim = [&](sim::EngineKind Engine) {
    driver::CompilerInvocation Inv;
    Inv.addSource("rand_dag.lss", Spec);
    Inv.Sim.Engine = Engine;
    return driver::Compiler::compileForSim(Inv);
  };
  auto Exh = MakeSim(sim::EngineKind::Interp);
  auto Krn = MakeSim(sim::EngineKind::Compiled);
  ASSERT_NE(Exh, nullptr) << "seed=" << Seed;
  ASSERT_NE(Krn, nullptr) << "seed=" << Seed;

  // OOP mirror, composed in index (= topological) order.
  baseline::oop::Engine E;
  std::vector<std::unique_ptr<baseline::oop::Signal<int64_t>>> Wires;
  for (size_t I = 0; I != Nodes.size(); ++I) {
    Wires.push_back(std::make_unique<baseline::oop::Signal<int64_t>>());
    E.track(Wires.back().get());
  }
  for (size_t I = 0; I != Nodes.size(); ++I) {
    const DagNode &N = Nodes[I];
    baseline::oop::Signal<int64_t> *Out = Wires[I].get();
    switch (N.K) {
    case DagNode::Counter:
      E.add(std::make_unique<OopScaledCounter>(Out, E, N.A, N.B));
      break;
    case DagNode::Const:
      E.add(std::make_unique<OopConst>(Out, N.A));
      break;
    case DagNode::Add:
      E.add(std::make_unique<OopAdder>(Wires[N.In1].get(),
                                       Wires[N.In2].get(), Out));
      break;
    case DagNode::Dly:
      E.add(std::make_unique<baseline::oop::Delay<int64_t>>(
          Wires[N.In1].get(), Out, N.A));
      break;
    }
  }
  E.reset();

  for (uint64_t C = 0; C != Cycles; ++C) {
    Exh->getSimulator()->step(1);
    Krn->getSimulator()->step(1);
    E.step(1);
    for (size_t I = 0; I != Nodes.size(); ++I) {
      const std::string Nm = "n" + std::to_string(I);
      const interp::Value *VE = Exh->getSimulator()->peekPort(Nm, "out", 0);
      const interp::Value *VK = Krn->getSimulator()->peekPort(Nm, "out", 0);
      ASSERT_NE(VE, nullptr) << "seed=" << Seed << " node=" << I
                             << " cycle=" << C << " (exhaustive absent)";
      ASSERT_NE(VK, nullptr) << "seed=" << Seed << " node=" << I
                             << " cycle=" << C << " (compiled absent)";
      ASSERT_TRUE(Wires[I]->hasValue())
          << "seed=" << Seed << " node=" << I << " cycle=" << C;
      const int64_t Oop = Wires[I]->get();
      EXPECT_EQ(VE->getInt(), Oop) << "seed=" << Seed << " node=" << I
                                   << " cycle=" << C << " (exhaustive)";
      EXPECT_EQ(VK->getInt(), Oop) << "seed=" << Seed << " node=" << I
                                   << " cycle=" << C << " (compiled)";
    }
  }
}

// 100 seeds: this OOP mirror is the only independent second
// implementation the corelib const/counter/adder/delay/fanout/sink
// bodies are checked against (both LSS engines run the same behaviors).
INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetlistTest, ::testing::Range(1, 101));

//===----------------------------------------------------------------------===//
// Inference: heuristics preserve satisfiability on random systems
//===----------------------------------------------------------------------===//

std::vector<infer::Constraint> randomSystem(types::TypeContext &TC, Rng &R,
                                            unsigned NumVars,
                                            unsigned NumConstraints) {
  std::vector<const types::Type *> Vars;
  for (unsigned I = 0; I != NumVars; ++I)
    Vars.push_back(TC.freshVar("v" + std::to_string(I)));
  const types::Type *Scalars[] = {TC.getInt(), TC.getFloat(), TC.getBool(),
                                  TC.getString()};
  std::vector<infer::Constraint> Cs;
  for (unsigned I = 0; I != NumConstraints; ++I) {
    const types::Type *A = Vars[R.range(0, NumVars - 1)];
    const types::Type *B;
    switch (R.range(0, 3)) {
    case 0:
      B = Vars[R.range(0, NumVars - 1)];
      break;
    case 1:
      B = Scalars[R.range(0, 3)];
      break;
    case 2: { // Random 2-way disjunct.
      const types::Type *X = Scalars[R.range(0, 3)];
      const types::Type *Y = Scalars[R.range(0, 3)];
      B = TC.getDisjunct({X, Y});
      break;
    }
    default: // Array of a scalar or var.
      B = TC.getArray(R.range(0, 1) ? Scalars[R.range(0, 3)]
                                    : Vars[R.range(0, NumVars - 1)],
                      R.range(1, 3));
      break;
    }
    Cs.push_back(infer::Constraint{A, B, SourceLoc(), "random", ""});
  }
  return Cs;
}

class RandomInferenceTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomInferenceTest, AllConfigsAgreeOnSatisfiability) {
  Rng R(GetParam() * 7919);
  const unsigned NumVars = R.range(2, 8);
  const unsigned NumCs = R.range(2, 12);

  // Build the identical system under four solver configurations. (Types
  // must be rebuilt per run because the engines share no bindings, but
  // the construction is deterministic given the seed.)
  int Results[4];
  for (int Cfg = 0; Cfg != 4; ++Cfg) {
    Rng R2(GetParam() * 7919);
    types::TypeContext TC;
    auto Cs = randomSystem(TC, R2, NumVars, NumCs);
    infer::SolveOptions O;
    O.ReorderSimpleFirst = Cfg & 1;
    O.ForcedDisjunctElimination = Cfg & 2;
    O.Partition = Cfg == 3;
    O.MaxSteps = 50000000;
    infer::InferenceEngine E(TC);
    infer::SolveStats S = E.solve(Cs, O);
    ASSERT_FALSE(S.HitLimit) << "random system too hard for the budget";
    Results[Cfg] = S.Success;
  }
  EXPECT_EQ(Results[0], Results[1]);
  EXPECT_EQ(Results[0], Results[2]);
  EXPECT_EQ(Results[0], Results[3]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomInferenceTest,
                         ::testing::Range(1, 25));

//===----------------------------------------------------------------------===//
// Determinism and structural invariants
//===----------------------------------------------------------------------===//

TEST(Property, ElaborationIsDeterministic) {
  auto Stats = [](const std::string &Id) {
    driver::Compiler C;
    EXPECT_TRUE(models::loadModel(C, Id));
    EXPECT_TRUE(C.elaborate());
    EXPECT_TRUE(C.inferTypes());
    return driver::computeModelStats(*C.getNetlist(), C.getLibraryModules(),
                                     C.getNumUserTypeAnnotations(), Id);
  };
  for (const char *Id : {"A", "C"}) {
    driver::ModelStats S1 = Stats(Id);
    driver::ModelStats S2 = Stats(Id);
    EXPECT_EQ(S1.TotalInstances, S2.TotalInstances);
    EXPECT_EQ(S1.Connections, S2.Connections);
    EXPECT_EQ(S1.InferredPortWidths, S2.InferredPortWidths);
    EXPECT_EQ(S1.ExplicitTypesWithoutInference,
              S2.ExplicitTypesWithoutInference);
  }
}

TEST(Property, SimulationIsDeterministic) {
  auto Run = [] {
    driver::Compiler C;
    EXPECT_TRUE(models::loadModel(C, "C"));
    EXPECT_TRUE(C.elaborate());
    EXPECT_TRUE(C.inferTypes());
    sim::Simulator *Sim = C.buildSimulator();
    EXPECT_NE(Sim, nullptr);
    Sim->step(400);
    interp::Value *V = Sim->findState("core.r", "retired");
    return V && V->isInt() ? V->getInt() : -1;
  };
  int64_t A = Run();
  EXPECT_GT(A, 0);
  EXPECT_EQ(A, Run());
}

TEST(Property, CpuModelsScheduleWithoutCombinationalCycles) {
  for (const std::string &Id : models::modelIds()) {
    driver::Compiler C;
    ASSERT_TRUE(models::loadModel(C, Id));
    ASSERT_TRUE(C.elaborate()) << C.diagnosticsText();
    ASSERT_TRUE(C.inferTypes());
    sim::Simulator *Sim = C.buildSimulator();
    ASSERT_NE(Sim, nullptr);
    EXPECT_EQ(Sim->getBuildInfo().NumCyclicGroups, 0u) << "model " << Id;
  }
}

TEST(Property, EveryResolvedPortTypeIsGround) {
  for (const std::string &Id : models::modelIds()) {
    driver::Compiler C;
    ASSERT_TRUE(models::loadModel(C, Id));
    ASSERT_TRUE(C.elaborate());
    ASSERT_TRUE(C.inferTypes());
    for (const auto &Inst : C.getNetlist()->getInstances())
      for (const netlist::Port &P : Inst->Ports) {
        ASSERT_NE(P.Resolved, nullptr)
            << Inst->Path << "." << P.Name << " in model " << Id;
        EXPECT_TRUE(P.Resolved->isGround())
            << Inst->Path << "." << P.Name << " : " << P.Resolved->str();
      }
  }
}

TEST(Property, ConnectedPortsShareResolvedTypes) {
  driver::Compiler C;
  ASSERT_TRUE(models::loadModel(C, "D"));
  ASSERT_TRUE(C.elaborate());
  ASSERT_TRUE(C.inferTypes());
  for (const auto &Conn : C.getNetlist()->getConnections()) {
    if (!Conn->isFullyResolved())
      continue;
    const netlist::Port *PF = Conn->From.Inst->findPort(Conn->From.Port);
    const netlist::Port *PT = Conn->To.Inst->findPort(Conn->To.Port);
    ASSERT_NE(PF, nullptr);
    ASSERT_NE(PT, nullptr);
    EXPECT_TRUE(types::structurallyEqual(PF->Resolved, PT->Resolved))
        << Conn->From.Inst->Path << "." << PF->Name << " vs "
        << Conn->To.Inst->Path << "." << PT->Name;
  }
}

TEST(Property, WidthsEqualConnectionEndpointCounts) {
  driver::Compiler C;
  ASSERT_TRUE(models::loadModel(C, "C"));
  ASSERT_TRUE(C.elaborate());
  ASSERT_TRUE(C.inferTypes());
  // For each port, the number of distinct indices referenced by external
  // connections must not exceed the inferred width.
  std::map<std::pair<const netlist::InstanceNode *, std::string>,
           std::set<int>>
      Indices;
  for (const auto &Conn : C.getNetlist()->getConnections()) {
    if (!Conn->isFullyResolved())
      continue;
    Indices[{Conn->From.Inst, Conn->From.Port}].insert(Conn->From.Index);
    Indices[{Conn->To.Inst, Conn->To.Port}].insert(Conn->To.Index);
  }
  for (const auto &[Key, Idxs] : Indices) {
    const netlist::Port *P = Key.first->findPort(Key.second);
    ASSERT_NE(P, nullptr);
    // Any connected port has a positive inferred width, and no endpoint
    // references a negative index.
    EXPECT_GT(P->Width, 0) << Key.first->Path << "." << Key.second;
    EXPECT_GE(*Idxs.begin(), 0);
    // External connections never exceed the inferred extent. (Internal
    // endpoints on a module's own ports may — they are the module's
    // business; the width contract is with the *user* of the module.)
    if (Key.first->isLeaf()) {
      EXPECT_LE(*Idxs.rbegin() + 1, P->Width)
          << Key.first->Path << "." << Key.second;
    }
  }
}

} // namespace
