//===- SimulatorTest.cpp - Scheduler, net building, simulation tests -----------===//

#include "driver/Compiler.h"
#include "sim/Scheduler.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace liberty;

namespace {

//===----------------------------------------------------------------------===//
// Static scheduler
//===----------------------------------------------------------------------===//

TEST(Scheduler, ChainIsToposorted) {
  // 0 -> 1 -> 2 -> 3
  sim::Schedule S = sim::computeSchedule(4, {{1}, {2}, {3}, {}});
  ASSERT_EQ(S.Groups.size(), 4u);
  EXPECT_EQ(S.Groups[0], std::vector<int>{0});
  EXPECT_EQ(S.Groups[3], std::vector<int>{3});
  EXPECT_EQ(S.numCyclicGroups(), 0u);
}

TEST(Scheduler, DiamondRespectsDependencies) {
  // 0 -> {1,2} -> 3
  sim::Schedule S = sim::computeSchedule(4, {{1, 2}, {3}, {3}, {}});
  ASSERT_EQ(S.Groups.size(), 4u);
  EXPECT_EQ(S.Groups.front(), std::vector<int>{0});
  EXPECT_EQ(S.Groups.back(), std::vector<int>{3});
}

TEST(Scheduler, CycleBecomesOneGroup) {
  // 0 -> 1 -> 2 -> 0, plus 3 downstream of the cycle.
  sim::Schedule S = sim::computeSchedule(4, {{1}, {2}, {0, 3}, {}});
  ASSERT_EQ(S.Groups.size(), 2u);
  EXPECT_EQ(S.Groups[0], (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(S.Groups[1], std::vector<int>{3});
  EXPECT_EQ(S.numCyclicGroups(), 1u);
  EXPECT_EQ(S.maxGroupSize(), 3u);
}

TEST(Scheduler, SelfLoopIsSingletonCycle) {
  sim::Schedule S = sim::computeSchedule(2, {{0, 1}, {}});
  ASSERT_EQ(S.Groups.size(), 2u);
  // A self loop is an SCC of size 1; our convention treats it as a
  // singleton group (evaluated once — sequential components use state).
  EXPECT_EQ(S.Groups[0], std::vector<int>{0});
}

TEST(Scheduler, DisconnectedNodesAllScheduled) {
  sim::Schedule S = sim::computeSchedule(3, {{}, {}, {}});
  EXPECT_EQ(S.Groups.size(), 3u);
}

TEST(Scheduler, LargeChainIterativeTarjanNoOverflow) {
  const int N = 200000;
  std::vector<std::vector<int>> Succ(N);
  for (int I = 0; I + 1 < N; ++I)
    Succ[I].push_back(I + 1);
  sim::Schedule S = sim::computeSchedule(N, Succ);
  EXPECT_EQ(S.Groups.size(), static_cast<size_t>(N));
  EXPECT_EQ(S.Groups.front(), std::vector<int>{0});
}

//===----------------------------------------------------------------------===//
// Net building + simulation semantics
//===----------------------------------------------------------------------===//

std::unique_ptr<driver::Compiler>
compile(const std::string &Src,
        sim::EngineKind Engine = sim::EngineKind::Compiled) {
  driver::CompilerInvocation Inv;
  Inv.addSource("t.lss", Src);
  Inv.Sim.Engine = Engine;
  return driver::Compiler::compileForSim(Inv);
}

TEST(Simulator, CombinationalAdderSettlesSameCycle) {
  auto C = compile(R"(
instance g:counter_source;
instance a:adder;
instance s:sink;
g.out -> a.in1;
g.out -> a.in2;
a.out -> s.in;
)");
  ASSERT_NE(C, nullptr);
  sim::Simulator *Sim = C->getSimulator();
  Sim->step(5);
  // Cycle 4: counter drives 4; adder must deliver 8 the same cycle.
  const interp::Value *V = Sim->peekPort("a", "out", 0);
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->getInt(), 8);
}

TEST(Simulator, CombinationalChainScheduledInOnePass) {
  // Three adders in a row: with a static schedule the result is correct
  // after a single evaluation pass per cycle (no fixpoint iteration).
  auto C = compile(R"(
instance g:counter_source;
instance a1:adder;
instance a2:adder;
instance a3:adder;
instance s:sink;
g.out -> a1.in1;
g.out -> a1.in2;
a1.out -> a2.in1;
g.out -> a2.in2;
a2.out -> a3.in1;
g.out -> a3.in2;
a3.out -> s.in;
)");
  ASSERT_NE(C, nullptr);
  sim::Simulator *Sim = C->getSimulator();
  EXPECT_EQ(Sim->getBuildInfo().NumCyclicGroups, 0u);
  Sim->step(3);
  // cycle 2: g=2; a1=4; a2=6; a3=8.
  const interp::Value *V = Sim->peekPort("a3", "out", 0);
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->getInt(), 8);
}

TEST(Simulator, SequentialElementsBreakCycles) {
  // adder feeding itself through a delay: a legal sequential loop
  // (an accumulator). Must schedule without cyclic groups.
  auto C = compile(R"(
instance one:const_source;
one.value = 1;
instance a:adder;
instance d:delay;
instance s:sink;
one.out -> a.in1;
d.out -> a.in2;
a.out -> d.in;
a.out -> s.in;
)");
  ASSERT_NE(C, nullptr);
  sim::Simulator *Sim = C->getSimulator();
  EXPECT_EQ(Sim->getBuildInfo().NumCyclicGroups, 0u);
  Sim->step(10);
  // Accumulator: after 10 cycles the adder's output is 10.
  const interp::Value *V = Sim->peekPort("a", "out", 0);
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->getInt(), 10);
}

TEST(Simulator, TrueCombinationalCycleConvergesByFixpoint) {
  // fanout -> fanout loop: values stabilize (same value circulates), so the
  // fixpoint iteration converges. Seeded by an external driver on one
  // input index.
  auto C = compile(R"(
instance g:const_source;
g.value = 9;
instance f1:mux;
instance f2:mux;
instance zero:const_source;
instance s:sink;
zero.out -> f1.sel;
zero.out -> f2.sel;
g.out -> f1.in[0];
f1.out -> f2.in[0];
f2.out -> s.in;
)");
  ASSERT_NE(C, nullptr);
  sim::Simulator *Sim = C->getSimulator();
  Sim->step(2);
  const interp::Value *V = Sim->peekPort("f2", "out", 0);
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->getInt(), 9);
  EXPECT_FALSE(Sim->hadRuntimeErrors());
}

TEST(Simulator, DivergentCycleDiagnosticNamesGroupMembers) {
  // arbiter <-> adder loop that never settles: the round-robin arbiter
  // alternates between the loop value and the seed each fixpoint
  // iteration, so the adder's output oscillates forever. The
  // non-convergence diagnostic must name the instances in the cyclic
  // group so the user can find the loop, and both engines must render the
  // text pinned in the diagnostics fixture.
  std::ifstream In(std::string(LIBERTY_GOLDEN_DIR) +
                   "/diagnostics/fixpoint_watchdog.diag");
  ASSERT_TRUE(In.good());
  std::stringstream Want;
  Want << In.rdbuf();
  for (sim::EngineKind E : {sim::EngineKind::Interp,
                            sim::EngineKind::Compiled}) {
  SCOPED_TRACE(sim::engineName(E));
  auto C = compile(R"(
instance seed:const_source;
seed.value = 1;
instance one:const_source;
one.value = 1;
instance arb:arbiter;
instance a:adder;
instance s:sink;
a.out -> arb.in[0];
seed.out -> arb.in[1];
arb.out -> a.in1;
one.out -> a.in2;
a.out -> s.in;
)", E);
  ASSERT_NE(C, nullptr);
  sim::Simulator *Sim = C->getSimulator();
  EXPECT_EQ(Sim->getBuildInfo().NumCyclicGroups, 1u);
  Sim->step(1);
  EXPECT_TRUE(Sim->hadRuntimeErrors());
  const std::string Msg = C->getDiags().getFirstErrorMessage();
  EXPECT_NE(Msg.find("did not converge"), std::string::npos) << Msg;
  EXPECT_NE(Msg.find("'arb'"), std::string::npos) << Msg;
  EXPECT_NE(Msg.find("'a'"), std::string::npos) << Msg;
  // The watchdog names the oscillating nets with their last values.
  std::ostringstream Got;
  const DiagnosticEngine &D = C->getDiags();
  for (const Diagnostic &Dg : D.getDiagnostics())
    Got << D.getSourceMgr().getLocString(Dg.Loc) << ": "
        << (Dg.Level == DiagLevel::Error ? "error" : "note") << ": "
        << Dg.Message << "\n";
  EXPECT_EQ(Got.str(), Want.str());
  }
}

TEST(Simulator, MultipleDriversRejected) {
  driver::Compiler C;
  ASSERT_TRUE(C.addCoreLibrary());
  ASSERT_TRUE(C.addSource("t.lss", R"(
instance g1:counter_source;
instance g2:counter_source;
instance s:sink;
g1.out -> s.in[0];
g2.out -> s.in[0];
)"));
  ASSERT_TRUE(C.elaborate()) << C.diagnosticsText();
  ASSERT_TRUE(C.inferTypes());
  EXPECT_EQ(C.buildSimulator(), nullptr);
  EXPECT_NE(C.diagnosticsText().find("multiple drivers"), std::string::npos);
}

TEST(Simulator, MissingBehaviorRejected) {
  driver::Compiler C;
  ASSERT_TRUE(C.addCoreLibrary());
  ASSERT_TRUE(C.addSource("t.lss", R"(
module ghost { tar_file = "no/such/behavior"; };
instance g:ghost;
)"));
  ASSERT_TRUE(C.elaborate());
  ASSERT_TRUE(C.inferTypes());
  EXPECT_EQ(C.buildSimulator(), nullptr);
  EXPECT_NE(C.diagnosticsText().find("no behavior registered"),
            std::string::npos);
}

TEST(Simulator, FanoutNetDeliversToAllReaders) {
  auto C = compile(R"(
instance g:counter_source;
instance s1:sink;
instance s2:sink;
g.out[0] -> s1.in;
g.out[0] -> s2.in;
)");
  ASSERT_NE(C, nullptr);
  sim::Simulator *Sim = C->getSimulator();
  Sim->step(7);
  EXPECT_EQ(Sim->findState("s1", "received")->getInt(), 7);
  EXPECT_EQ(Sim->findState("s2", "received")->getInt(), 7);
}

TEST(Simulator, HierarchicalPassThroughNets) {
  auto C = compile(R"(
module shell {
  inport in: 'a;
  outport out: 'a;
  instance inner:reg;
  in -> inner.in;
  inner.out -> out;
};
instance g:counter_source;
instance sh:shell;
instance s:sink;
g.out -> sh.in;
sh.out -> s.in;
)");
  ASSERT_NE(C, nullptr);
  sim::Simulator *Sim = C->getSimulator();
  Sim->step(5);
  // reg delays by one: cycle 4 shows counter value 3.
  const interp::Value *V = Sim->peekPort("sh.inner", "out", 0);
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->getInt(), 3);
}

TEST(Simulator, ResetRestartsDeterministically) {
  auto C = compile(R"(
instance g:counter_source;
instance s:sink;
g.out -> s.in;
)");
  ASSERT_NE(C, nullptr);
  sim::Simulator *Sim = C->getSimulator();
  Sim->step(10);
  EXPECT_EQ(Sim->findState("s", "received")->getInt(), 10);
  Sim->reset();
  EXPECT_EQ(Sim->getCycle(), 0u);
  Sim->step(4);
  EXPECT_EQ(Sim->findState("s", "received")->getInt(), 4);
}

TEST(Simulator, SystemUserpointsRunEachCycle) {
  // State must be declared as a runtime variable (Section 4.3); the
  // system userpoints init/end_of_timestep then update it every cycle.
  auto C = compile(R"(
module ticker {
  runtime var ticks:int = 0;
  inport in: int;
  outport out: int;
  parameter initial_state = 0:int;
  tar_file = "corelib/delay.tar";
};
instance d:ticker;
d.init = "ticks = 5;";
d.end_of_timestep = "ticks = ticks + 1;";
)");
  ASSERT_NE(C, nullptr);
  sim::Simulator *Sim = C->getSimulator();
  Sim->step(6);
  interp::Value *Ticks = Sim->findState("d", "ticks");
  ASSERT_NE(Ticks, nullptr);
  EXPECT_EQ(Ticks->getInt(), 11); // init set 5, +1 per cycle.
}

TEST(Simulator, RuntimeVarsInitializedFromElaboration) {
  auto C = compile(R"(
module counterup {
  parameter start = 100:int;
  runtime var total:int = start;
  tar_file = "corelib/const_source";
  parameter value = 0:int;
  outport out: int;
};
instance c:counterup;
c.start = 250;
c.end_of_timestep = "total = total + 1;";
instance s:sink;
c.out -> s.in;
)");
  ASSERT_NE(C, nullptr);
  sim::Simulator *Sim = C->getSimulator();
  Sim->step(3);
  EXPECT_EQ(Sim->findState("c", "total")->getInt(), 253);
}

//===----------------------------------------------------------------------===//
// Instrumentation
//===----------------------------------------------------------------------===//

TEST(Instrumentation, PatternMatching) {
  EXPECT_TRUE(sim::Instrumentation::matches("*", "anything"));
  EXPECT_TRUE(sim::Instrumentation::matches("cpu.*", "cpu.fetch"));
  EXPECT_TRUE(sim::Instrumentation::matches("cpu.*", "cpu."));
  EXPECT_FALSE(sim::Instrumentation::matches("cpu.*", "gpu.fetch"));
  EXPECT_TRUE(sim::Instrumentation::matches("exact", "exact"));
  EXPECT_FALSE(sim::Instrumentation::matches("exact", "exact2"));
}

TEST(Instrumentation, PortFireEventsAreAutomatic) {
  auto C = compile(R"(
instance g:counter_source;
instance s:sink;
g.out -> s.in;
)");
  ASSERT_NE(C, nullptr);
  sim::Simulator *Sim = C->getSimulator();
  uint64_t &Fires = Sim->getInstrumentation().attachCounter("g", "port:out");
  Sim->step(12);
  EXPECT_EQ(Fires, 12u);
}

TEST(Instrumentation, DeclaredEventsCarryPayload) {
  auto C = compile(R"(
instance g:counter_source;
instance s:sink;
g.out -> s.in;
)");
  ASSERT_NE(C, nullptr);
  sim::Simulator *Sim = C->getSimulator();
  std::vector<int64_t> Received;
  Sim->getInstrumentation().attach("s", "received",
                                   [&](const sim::Event &E) {
                                     Received.push_back(E.Payload->getInt());
                                   });
  Sim->step(4);
  ASSERT_EQ(Received.size(), 4u);
  EXPECT_EQ(Received[0], 0);
  EXPECT_EQ(Received[3], 3);
}

TEST(Instrumentation, CollectorsDoNotPerturbModel) {
  auto Run = [](bool Instrumented) {
    auto C = compile(R"(
instance g:counter_source;
instance d:delay;
instance s:sink;
g.out -> d.in;
d.out -> s.in;
)");
    EXPECT_NE(C, nullptr);
    sim::Simulator *Sim = C->getSimulator();
    if (Instrumented)
      Sim->getInstrumentation().attachCounter("*", "*");
    Sim->step(20);
    return Sim->peekPort("d", "out", 0)->getInt();
  };
  EXPECT_EQ(Run(false), Run(true));
}

} // namespace
