//===- Corelib2Test.cpp - Remaining component behaviors -------------------------===//

#include "driver/Compiler.h"
#include "types/Type.h"

#include <gtest/gtest.h>

using namespace liberty;

namespace {

std::unique_ptr<driver::Compiler> compile(const std::string &Src) {
  driver::CompilerInvocation Inv;
  Inv.addSource("t.lss", Src);
  return driver::Compiler::compileForSim(Inv);
}

int64_t peekInt(sim::Simulator *Sim, const std::string &Path,
                const std::string &Port, int Idx = 0) {
  const interp::Value *V = Sim->peekPort(Path, Port, Idx);
  return V && V->isInt() ? V->getInt() : INT64_MIN;
}

TEST(Corelib2, PipeLatchMovesWholeBus) {
  auto C = compile(R"(
instance g:counter_source;
instance l:pipe_latch;
instance s:sink;
LSS_connect_bus(g.out, l.in, 3);
LSS_connect_bus(l.out, s.in, 3);
)");
  ASSERT_NE(C, nullptr);
  auto *Sim = C->getSimulator();
  Sim->step(4);
  // All three lanes carry last cycle's counter value.
  EXPECT_EQ(peekInt(Sim, "l", "out", 0), 2);
  EXPECT_EQ(peekInt(Sim, "l", "out", 2), 2);
}

TEST(Corelib2, PipeLatchWidthMismatchRejected) {
  driver::Compiler C;
  ASSERT_TRUE(C.addCoreLibrary());
  ASSERT_TRUE(C.addSource("t.lss", R"(
instance g:counter_source;
instance l:pipe_latch;
instance s:sink;
LSS_connect_bus(g.out, l.in, 3);
LSS_connect_bus(l.out, s.in, 2);
)"));
  EXPECT_FALSE(C.elaborate());
  EXPECT_NE(C.diagnosticsText().find("pipe_latch bus widths"),
            std::string::npos);
}

TEST(Corelib2, PipeLatchStallHolds) {
  auto C = compile(R"(
instance g:counter_source;
instance st:bool_source;
st.pattern = "const_true";
instance l:pipe_latch;
instance s:sink;
g.out -> l.in;
st.out -> l.stall;
l.out -> s.in;
)");
  ASSERT_NE(C, nullptr);
  auto *Sim = C->getSimulator();
  Sim->step(5);
  // Permanently stalled: the latch never captures, never drives.
  EXPECT_EQ(Sim->peekPort("l", "out", 0), nullptr);
}

TEST(Corelib2, BoolSourcePatterns) {
  auto C = compile(R"(
instance t:bool_source;
t.pattern = "toggle";
instance ct:bool_source;
ct.pattern = "const_true";
instance cf:bool_source;
cf.pattern = "const_false";
instance s:sink;
t.out -> s.in;
ct.out -> s.in;
cf.out -> s.in;
)");
  ASSERT_NE(C, nullptr);
  auto *Sim = C->getSimulator();
  Sim->step(2); // Last evaluated cycle: 1 (odd -> toggle true).
  EXPECT_TRUE(Sim->peekPort("t", "out", 0)->getBool());
  EXPECT_TRUE(Sim->peekPort("ct", "out", 0)->getBool());
  EXPECT_FALSE(Sim->peekPort("cf", "out", 0)->getBool());
  Sim->step(1); // Cycle 2: toggle false.
  EXPECT_FALSE(Sim->peekPort("t", "out", 0)->getBool());
}

TEST(Corelib2, MuxOutOfRangeSelectDropsValue) {
  auto C = compile(R"(
instance a:const_source;
a.value = 1;
instance sel:const_source;
sel.value = 9;
instance m:mux;
instance s:sink;
a.out -> m.in[0];
sel.out -> m.sel;
m.out -> s.in;
)");
  ASSERT_NE(C, nullptr);
  auto *Sim = C->getSimulator();
  Sim->step(3);
  EXPECT_EQ(Sim->peekPort("m", "out", 0), nullptr);
  EXPECT_FALSE(Sim->hadRuntimeErrors());
}

TEST(Corelib2, NonPipelinedFuAssertsBusy) {
  auto C = compile(R"(
instance f:fetch;
f.num_instrs = 50;
f.mem_frac = 0;
f.branch_frac = 0;
instance d:decode;
instance w:issue;
w.window = 4;
instance eu:fu;
eu.latency = 4;
eu.pipelined = false;
instance r:rob;
instance s:sink;
f.instr -> d.instr;
d.uop -> w.uop;
w.stall[0] -> f.stall;
w.dispatch[0] -> eu.uop;
eu.busy[0] -> w.fu_busy[0];
eu.done[0] -> r.done[0];
eu.done[0] -> w.complete[0];
r.retired[0] -> s.in;
)");
  ASSERT_NE(C, nullptr);
  auto *Sim = C->getSimulator();
  Sim->step(2000);
  EXPECT_FALSE(Sim->hadRuntimeErrors());
  // Everything retires even with a blocking 4-cycle unit.
  EXPECT_EQ(Sim->findState("r", "retired")->getInt(), 50);
}

TEST(Corelib2, InOrderIssueBlocksOnHazard) {
  // Two cores differing only in issue discipline; OOO retires the same
  // work in no more cycles than in-order.
  auto Run = [](bool InOrder) {
    auto C = compile(std::string(R"(
instance f:fetch;
f.num_instrs = 300;
f.seed = 5;
instance d:decode;
instance w:issue;
w.window = 16;
w.inorder = )") + (InOrder ? "true" : "false") + R"(;
instance eu0:fu;
instance eu1:fu;
instance r:rob;
instance s:sink;
f.instr -> d.instr;
d.uop -> w.uop;
w.stall[0] -> f.stall;
w.dispatch[0] -> eu0.uop;
w.dispatch[1] -> eu1.uop;
eu0.busy[0] -> w.fu_busy[0];
eu1.busy[0] -> w.fu_busy[1];
eu0.done[0] -> r.done[0];
eu1.done[0] -> r.done[1];
eu0.done[0] -> w.complete[0];
eu1.done[0] -> w.complete[1];
r.retired[0] -> s.in;
)");
    EXPECT_NE(C, nullptr);
    auto *Sim = C->getSimulator();
    uint64_t Cycles = 0;
    while (Cycles < 10000) {
      Sim->step(1);
      ++Cycles;
      interp::Value *V = Sim->findState("r", "retired");
      if (V && V->isInt() && V->getInt() >= 300)
        break;
    }
    return Cycles;
  };
  uint64_t IO = Run(true);
  uint64_t OOO = Run(false);
  EXPECT_LT(OOO, 10000u);
  EXPECT_LE(OOO, IO);
}

TEST(Corelib2, CacheReplacementPoliciesDiffer) {
  // A cyclic stream one block larger than a direct-mapped set's capacity:
  // LRU thrashes where random sometimes survives — the classic inversion.
  // Here we just check the policies are all functional and produce
  // deterministic, differing hit counts on a mixed stream.
  auto HitsFor = [](const char *Repl) {
    auto C = compile(std::string(R"(
instance a:source;
a.pattern = "random";
a.seed = 9;
a.range = 8192;
instance ca:cache;
ca.sets = 16;
ca.ways = 2;
ca.miss_latency = 1;
ca.repl = ")") + Repl + R"(";
instance s:sink;
a.out -> ca.addr;
ca.ready -> s.in;
)");
    EXPECT_NE(C, nullptr);
    auto *Sim = C->getSimulator();
    uint64_t &Hits = Sim->getInstrumentation().attachCounter("ca", "hit");
    Sim->step(3000);
    return Hits;
  };
  uint64_t Lru = HitsFor("lru");
  uint64_t Fifo = HitsFor("fifo");
  uint64_t Rnd = HitsFor("random");
  EXPECT_GT(Lru, 0u);
  EXPECT_GT(Fifo, 0u);
  EXPECT_GT(Rnd, 0u);
  // Deterministic per policy.
  EXPECT_EQ(Lru, HitsFor("lru"));
}

TEST(Corelib2, BranchPredictorLearnsBias) {
  // Resolve stream: always taken. The 2-bit counters must saturate and
  // the prediction for those PCs becomes taken.
  auto C = compile(R"(
instance pc:counter_source;
pc.stride = 4;
instance rpc:counter_source;
rpc.stride = 4;
instance tk:bool_source;
tk.pattern = "const_true";
instance bp:branch_pred;
bp.entries = 16;
instance s:sink;
pc.out -> bp.pc;
rpc.out -> bp.resolve_pc;
tk.out -> bp.resolve_taken;
bp.pred -> s.in;
)");
  ASSERT_NE(C, nullptr);
  auto *Sim = C->getSimulator();
  Sim->step(200); // Each of the 16 entries trained many times.
  EXPECT_TRUE(Sim->peekPort("bp", "pred", 0)->getBool());
}

TEST(Corelib2, BranchPredictorResetForgetsPredictions) {
  // Branches resolve 100 cycles before they are predicted (resolve_pc
  // starts ahead of pc), so a fresh run finds no prediction to compare
  // against. After a reset the previous run's predictions must be gone
  // too: run, reset and run again counts what a fresh simulator counts.
  const std::string Src = R"(
instance pc:counter_source;
pc.stride = 4;
instance rpc:counter_source;
rpc.start = 400;
rpc.stride = 4;
instance tk:bool_source;
tk.pattern = "random";
instance bp:branch_pred;
bp.entries = 16;
instance s:sink;
pc.out -> bp.pc;
rpc.out -> bp.resolve_pc;
tk.out -> bp.resolve_taken;
bp.pred -> s.in;
)";
  auto Fresh = compile(Src);
  ASSERT_NE(Fresh, nullptr);
  sim::Instrumentation &FreshInstr = Fresh->getSimulator()->getInstrumentation();
  uint64_t &FreshLookups = FreshInstr.attachCounter("bp", "lookup");
  uint64_t &FreshMispredicts = FreshInstr.attachCounter("bp", "mispredict");
  Fresh->getSimulator()->step(200);

  auto Again = compile(Src);
  ASSERT_NE(Again, nullptr);
  auto *Sim = Again->getSimulator();
  Sim->step(200);
  uint64_t &Lookups = Sim->getInstrumentation().attachCounter("bp", "lookup");
  uint64_t &Mispredicts =
      Sim->getInstrumentation().attachCounter("bp", "mispredict");
  Sim->reset();
  Sim->step(200);
  EXPECT_EQ(Lookups, FreshLookups);
  EXPECT_EQ(Mispredicts, FreshMispredicts);
}

TEST(Corelib2, FetchOpMixRespectsFractions) {
  auto C = compile(R"(
instance f:fetch;
f.num_instrs = 4000;
f.mem_frac = 50;
f.branch_frac = 0;
instance s:sink;
f.instr -> s.in;
)");
  ASSERT_NE(C, nullptr);
  auto *Sim = C->getSimulator();
  uint64_t Mem = 0, Branch = 0, Total = 0;
  Sim->getInstrumentation().attach("f", "fetched", [&](const sim::Event &E) {
    const interp::Value *Op = E.Payload->getField("op");
    ++Total;
    if (Op->getInt() == 2 || Op->getInt() == 3)
      ++Mem;
    if (Op->getInt() == 4)
      ++Branch;
  });
  Sim->step(5000);
  ASSERT_EQ(Total, 4000u);
  EXPECT_EQ(Branch, 0u);
  EXPECT_NEAR(double(Mem) / Total, 0.5, 0.05);
}

TEST(Corelib2, RobCountsAcrossMultipleDonePorts) {
  auto C = compile(R"(
instance f0:fetch;
f0.num_instrs = 10;
instance f1:fetch;
f1.num_instrs = 10;
f1.seed = 43;
instance r:rob;
instance s:sink;
f0.instr -> r.done[0];
f1.instr -> r.done[1];
r.retired[0] -> s.in;
)");
  ASSERT_NE(C, nullptr);
  auto *Sim = C->getSimulator();
  Sim->step(30);
  EXPECT_EQ(Sim->findState("r", "retired")->getInt(), 20);
}

TEST(Corelib2, DelayChainTypesAreIntOnly) {
  // delay (Figure 5) is int-typed: attaching a float source must fail in
  // inference, demonstrating that leaf annotations constrain users.
  driver::Compiler C;
  ASSERT_TRUE(C.addCoreLibrary());
  ASSERT_TRUE(C.addSource("t.lss", R"(
instance g:source;
instance d:delay;
instance s:sink;
g.out -> d.in : float;
d.out -> s.in;
)"));
  ASSERT_TRUE(C.elaborate());
  EXPECT_FALSE(C.inferTypes());
}

} // namespace
