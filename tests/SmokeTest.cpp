//===- SmokeTest.cpp - End-to-end pipeline smoke tests ------------------------===//
///
/// Compiles, elaborates, infers, and simulates the paper's running example
/// (Figures 5-9: the n-stage delay chain) end to end.
///
//===----------------------------------------------------------------------===//

#include "baseline/HandCodedSim.h"
#include "driver/Compiler.h"
#include "types/Type.h"

#include <gtest/gtest.h>

using namespace liberty;

namespace {

const char DelayChainLss[] = R"(
// Figure 8: an n-stage delay chain as a flexible hierarchical module.
module delayn {
  parameter n:int;
  inport in: 'a;
  outport out: 'a;

  var delays:instance ref[];
  delays = new instance[n](delay, "delays");

  var i:int;
  in -> delays[0].in;
  for (i = 1; i < n; i = i + 1) {
    delays[i-1].out -> delays[i].in;
  }
  delays[n-1].out -> out;
};

// Figure 9: a 3-stage delay pipeline.
instance gen:counter_source;
instance hole:sink;
instance delay3:delayn;

delay3.n = 3;

gen.out -> delay3.in;
delay3.out -> hole.in;
)";

TEST(Smoke, DelayChainCompilesAndSimulates) {
  driver::CompilerInvocation Inv;
  Inv.addSource("fig9.lss", DelayChainLss);
  auto C = driver::Compiler::compileForSim(Inv);
  ASSERT_NE(C, nullptr) << "compilation failed";
  EXPECT_FALSE(C->getDiags().hasErrors()) << C->diagnosticsText();

  netlist::Netlist *NL = C->getNetlist();
  ASSERT_NE(NL, nullptr);

  // gen, hole, delay3 + 3 delays = 6 instances (plus root).
  EXPECT_EQ(NL->getInstances().size(), 7u);

  netlist::InstanceNode *Delay3 = NL->findByPath("delay3");
  ASSERT_NE(Delay3, nullptr);
  EXPECT_EQ(Delay3->Children.size(), 3u);

  // Use-based specialization: widths inferred from connectivity.
  EXPECT_EQ(Delay3->findPort("in")->Width, 1);
  EXPECT_EQ(Delay3->findPort("out")->Width, 1);

  // Type inference resolved 'a to int through the delay elements.
  const types::Type *InTy = Delay3->findPort("in")->Resolved;
  ASSERT_NE(InTy, nullptr);
  EXPECT_EQ(InTy->getKind(), types::Type::Kind::Int);

  sim::Simulator *Sim = C->getSimulator();
  ASSERT_NE(Sim, nullptr);

  const uint64_t Cycles = 25;
  Sim->step(Cycles);
  EXPECT_FALSE(Sim->hadRuntimeErrors()) << C->diagnosticsText();

  // The sink saw a value every cycle (delays always drive).
  interp::Value *Received = Sim->findState("hole", "received");
  ASSERT_NE(Received, nullptr);
  ASSERT_TRUE(Received->isInt());
  EXPECT_EQ(Received->getInt(), static_cast<int64_t>(Cycles));

  // Cross-validate the chain's output against the hand-coded simulator of
  // the identical timing model.
  const interp::Value *Out =
      Sim->peekPort("delay3.delays[2]", "out", 0);
  ASSERT_NE(Out, nullptr);
  ASSERT_TRUE(Out->isInt());
  EXPECT_EQ(Out->getInt(),
            baseline::runHandCodedDelayChain(3, Cycles));
}

TEST(Smoke, ProcessingOrderFollowsInstantiationStack) {
  driver::Compiler C;
  ASSERT_TRUE(C.addCoreLibrary());
  ASSERT_TRUE(C.addSource("fig9.lss", DelayChainLss));
  ASSERT_TRUE(C.elaborate()) << C.diagnosticsText();

  // Figure 13: delay3 (most recently instantiated) pops first, then its
  // delays, then hole, then gen.
  const auto &Order = C.getInterpreter()->getProcessingOrder();
  ASSERT_GE(Order.size(), 4u);
  EXPECT_EQ(Order[0], C.getNetlist()->getRoot());
  EXPECT_EQ(Order[1]->Path, "delay3");
  EXPECT_EQ(Order[2]->Path, "delay3.delays[2]");
}

} // namespace
