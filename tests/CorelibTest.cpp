//===- CorelibTest.cpp - Component library behavior tests ----------------------===//

#include "EngineMatrix.h"
#include "driver/Compiler.h"
#include "bsl/BehaviorRegistry.h"
#include "corelib/CoreLib.h"
#include "corelib/TraceGen.h"
#include "types/Type.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

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

TEST(Corelib, LibraryHas23Modules) {
  // The paper's library had 22 components; ours is the same scale.
  EXPECT_EQ(corelib::getLibraryModuleNames().size(), 24u);
}

TEST(Corelib, ConstAndCounterSources) {
  auto C = compile(R"(
instance k:const_source;
k.value = 77;
instance g:counter_source;
g.start = 100;
g.stride = 10;
instance s1:sink;
instance s2:sink;
k.out -> s1.in;
g.out -> s2.in;
)");
  ASSERT_NE(C, nullptr);
  auto *Sim = C->getSimulator();
  Sim->step(3); // Last evaluated cycle index: 2.
  EXPECT_EQ(peekInt(Sim, "k", "out"), 77);
  EXPECT_EQ(peekInt(Sim, "g", "out"), 120);
}

TEST(Corelib, GenericSourcePatterns) {
  auto C = compile(R"(
instance a:source;
a.pattern = "const";
a.value = 5;
instance b:source;
b.pattern = "counter";
instance c:source;
c.pattern = "random";
c.range = 8;
instance s:sink;
a.out -> s.in : int;
b.out -> s.in : int;
c.out -> s.in : int;
)");
  ASSERT_NE(C, nullptr);
  auto *Sim = C->getSimulator();
  Sim->step(4);
  EXPECT_EQ(peekInt(Sim, "a", "out"), 5);
  EXPECT_EQ(peekInt(Sim, "b", "out"), 3);
  int64_t R = peekInt(Sim, "c", "out");
  EXPECT_GE(R, 0);
  EXPECT_LT(R, 8);
}

TEST(Corelib, SourceGenerateUserpointWins) {
  auto C = compile(R"(
instance g:source;
g.generate = "return cycle * cycle;";
instance s:sink;
g.out -> s.in : int;
)");
  ASSERT_NE(C, nullptr);
  auto *Sim = C->getSimulator();
  Sim->step(5);
  EXPECT_EQ(peekInt(Sim, "g", "out"), 16);
}

TEST(Corelib, DelayHoldsInitialStateThenTracks) {
  auto C = compile(R"(
instance g:counter_source;
instance d:delay;
d.initial_state = 42;
instance s:sink;
g.out -> d.in;
d.out -> s.in;
)");
  ASSERT_NE(C, nullptr);
  auto *Sim = C->getSimulator();
  Sim->step(1);
  EXPECT_EQ(peekInt(Sim, "d", "out"), 42); // Initial state first.
  Sim->step(1);
  EXPECT_EQ(peekInt(Sim, "d", "out"), 0); // Then last cycle's input.
  Sim->step(1);
  EXPECT_EQ(peekInt(Sim, "d", "out"), 1);
}

TEST(Corelib, RegWithEnableHolds) {
  auto C = compile(R"(
instance g:counter_source;
instance en:bool_source;
en.pattern = "toggle";
instance r:reg;
instance s:sink;
g.out -> r.in;
en.out -> r.en;
r.out -> s.in;
)");
  ASSERT_NE(C, nullptr);
  auto *Sim = C->getSimulator();
  // Toggle enables on odd cycles only: the register captures on 1, 3, ...
  Sim->step(3);
  EXPECT_EQ(peekInt(Sim, "r", "out"), 1); // Captured at end of cycle 1.
  Sim->step(1);
  EXPECT_EQ(peekInt(Sim, "r", "out"), 1); // Cycle 2 disabled: held.
  Sim->step(1);
  EXPECT_EQ(peekInt(Sim, "r", "out"), 3); // Captured at end of cycle 3.
}

TEST(Corelib, AdderIntAndFloatFamilies) {
  auto C = compile(R"(
instance gi:counter_source;
instance ai:adder;
instance si:sink;
gi.out -> ai.in1;
gi.out -> ai.in2;
ai.out -> si.in;

instance gf:source;
instance af:adder;
instance sf:sink;
gf.out -> af.in1 : float;
gf.out -> af.in2;
af.out -> sf.in;
)");
  ASSERT_NE(C, nullptr);
  auto *Sim = C->getSimulator();
  Sim->step(4); // counter = 3 on the last cycle.
  EXPECT_EQ(peekInt(Sim, "ai", "out"), 6);
  const interp::Value *F = Sim->peekPort("af", "out", 0);
  ASSERT_NE(F, nullptr);
  ASSERT_TRUE(F->isFloat());
  EXPECT_DOUBLE_EQ(F->getFloat(), 6.0);
}

TEST(Corelib, AluOps) {
  auto C = compile(R"(
instance a:const_source;
a.value = 10;
instance b:const_source;
b.value = 3;
instance sub:alu;
sub.op = "sub";
instance mul:alu;
mul.op = "mul";
instance divu:alu;
divu.op = "div";
instance s:sink;
a.out -> sub.a;  b.out -> sub.b;  sub.out -> s.in;
a.out -> mul.a;  b.out -> mul.b;  mul.out -> s.in;
a.out -> divu.a; b.out -> divu.b; divu.out -> s.in;
)");
  ASSERT_NE(C, nullptr);
  auto *Sim = C->getSimulator();
  Sim->step(1);
  EXPECT_EQ(peekInt(Sim, "sub", "out"), 7);
  EXPECT_EQ(peekInt(Sim, "mul", "out"), 30);
  EXPECT_EQ(peekInt(Sim, "divu", "out"), 3);
}

TEST(Corelib, MuxSelectsAndDemuxRoutes) {
  auto C = compile(R"(
instance a:const_source;
a.value = 11;
instance b:const_source;
b.value = 22;
instance sel:const_source;
sel.value = 1;
instance m:mux;
instance dm:demux;
instance s:sink;
a.out -> m.in[0];
b.out -> m.in[1];
sel.out -> m.sel;
m.out -> dm.in;
sel.out -> dm.sel;
dm.out[0] -> s.in;
dm.out[1] -> s.in;
)");
  ASSERT_NE(C, nullptr);
  auto *Sim = C->getSimulator();
  Sim->step(1);
  EXPECT_EQ(peekInt(Sim, "m", "out"), 22);
  EXPECT_EQ(peekInt(Sim, "dm", "out", 1), 22);
  EXPECT_EQ(Sim->peekPort("dm", "out", 0), nullptr); // Not driven.
}

TEST(Corelib, FanoutBroadcasts) {
  auto C = compile(R"(
instance g:counter_source;
instance f:fanout;
instance s1:sink;
instance s2:sink;
instance s3:sink;
g.out -> f.in;
f.out -> s1.in;
f.out -> s2.in;
f.out -> s3.in;
)");
  ASSERT_NE(C, nullptr);
  auto *Sim = C->getSimulator();
  Sim->step(5);
  EXPECT_EQ(Sim->findState("s1", "received")->getInt(), 5);
  EXPECT_EQ(Sim->findState("s3", "received")->getInt(), 5);
}

TEST(Corelib, ArbiterRoundRobinDefault) {
  auto C = compile(R"(
instance a:const_source;
a.value = 100;
instance b:const_source;
b.value = 200;
instance arb:arbiter;
instance s:sink;
a.out -> arb.in;
b.out -> arb.in;
arb.out -> s.in;
)");
  ASSERT_NE(C, nullptr);
  auto *Sim = C->getSimulator();
  std::vector<int64_t> Grants;
  Sim->getInstrumentation().attach("arb", "grant", [&](const sim::Event &E) {
    Grants.push_back(E.Payload->getInt());
  });
  Sim->step(4);
  // Round robin alternates between the two requesters.
  ASSERT_EQ(Grants.size(), 4u);
  EXPECT_EQ(Grants[0], 0);
  EXPECT_EQ(Grants[1], 1);
  EXPECT_EQ(Grants[2], 0);
  EXPECT_EQ(Grants[3], 1);
}

TEST(Corelib, ArbiterCustomPolicy) {
  auto C = compile(R"(
instance a:const_source;
a.value = 100;
instance b:const_source;
b.value = 200;
instance arb:arbiter;
arb.policy = "return width - 1;";   // Always grant the highest index.
instance s:sink;
a.out -> arb.in;
b.out -> arb.in;
arb.out -> s.in;
)");
  ASSERT_NE(C, nullptr);
  auto *Sim = C->getSimulator();
  Sim->step(3);
  EXPECT_EQ(peekInt(Sim, "arb", "out"), 200);
}

TEST(Corelib, QueueBuffersAndDropsWhenFull) {
  auto C = compile(R"(
instance g:counter_source;
instance q:queue;
q.depth = 2;
instance stall:bool_source;
stall.pattern = "const_true";
instance s:sink;
g.out -> q.in;
stall.out -> q.stall;
q.out -> s.in;
)");
  ASSERT_NE(C, nullptr);
  auto *Sim = C->getSimulator();
  uint64_t &Full = Sim->getInstrumentation().attachCounter("q", "full");
  uint64_t &Deq = Sim->getInstrumentation().attachCounter("q", "dequeue");
  Sim->step(10);
  // Permanently stalled: 2 entries fit, everything else drops, nothing
  // dequeues.
  EXPECT_EQ(Deq, 0u);
  EXPECT_EQ(Full, 8u);
}

TEST(Corelib, QueueFlowsWhenUnstalled) {
  auto C = compile(R"(
instance g:counter_source;
instance q:queue;
q.depth = 4;
instance s:sink;
g.out -> q.in;
q.out -> s.in;
)");
  ASSERT_NE(C, nullptr);
  auto *Sim = C->getSimulator();
  Sim->step(10);
  // One-cycle latency pass-through at steady state.
  EXPECT_EQ(peekInt(Sim, "q", "out"), 8);
}

// A depth-3 queue fed every cycle and stalled on odd cycles: it fills by
// cycle 4 and then drops every odd-cycle input, so its three slots wrap
// four times in 20 cycles. Cycle c offers c; even cycles from 2 dequeue.
const char *QueueRingModel = R"(
instance g:counter_source;
instance q:queue;
q.depth = 3;
instance stall:bool_source;
stall.pattern = "toggle";
instance s:sink;
g.out -> q.in;
stall.out -> q.stall;
q.out -> s.in;
)";

TEST(Corelib, QueueRingWrapsInOrder) {
  for (const simtest::EngineConfig &E : simtest::engineMatrix()) {
    SCOPED_TRACE(E.Name);
    auto C = simtest::compileSim("queue_ring.lss", QueueRingModel, E.Opts);
    ASSERT_NE(C, nullptr);
    auto *Sim = C->getSimulator();
    std::vector<int64_t> Dequeued;
    Sim->getInstrumentation().attach(
        "q", "dequeue", [&](const sim::Event &Ev) {
          Dequeued.push_back(Ev.Payload->getInt());
        });
    uint64_t &Enq = Sim->getInstrumentation().attachCounter("q", "enqueue");
    uint64_t &Full = Sim->getInstrumentation().attachCounter("q", "full");
    Sim->step(20);
    EXPECT_EQ(Dequeued, (std::vector<int64_t>{0, 1, 2, 3, 4, 6, 8, 10, 12}));
    EXPECT_EQ(Enq, 12u);  // Cycles 0-4, then the even cycles 6-18.
    EXPECT_EQ(Full, 8u);  // The odd cycles 5-19.
    const interp::Value *Occ = Sim->findState("q", "occupancy");
    ASSERT_NE(Occ, nullptr);
    EXPECT_EQ(Occ->getInt(), 3); // Full when cycle 19 evaluated.
    EXPECT_EQ(peekInt(Sim, "q", "out"), 14);
  }
  simtest::expectAllEnginesMatch("queue_ring.lss", QueueRingModel, 40);
}

// Deeper than the ring's first allocation: it must grow while wrapped
// (random stalls leave the oldest entry anywhere) and stay first-in,
// first-out.
TEST(Corelib, QueueRingGrowsToDepth) {
  const std::string Model = R"(
instance g:counter_source;
instance q:queue;
q.depth = 100;
instance stall:bool_source;
stall.pattern = "random";
stall.seed = 3;
instance s:sink;
g.out -> q.in;
stall.out -> q.stall;
q.out -> s.in;
)";
  auto C = compile(Model);
  ASSERT_NE(C, nullptr);
  auto *Sim = C->getSimulator();
  std::vector<int64_t> Enqueued, Dequeued;
  Sim->getInstrumentation().attach("q", "enqueue", [&](const sim::Event &Ev) {
    Enqueued.push_back(Ev.Payload->getInt());
  });
  Sim->getInstrumentation().attach("q", "dequeue", [&](const sim::Event &Ev) {
    Dequeued.push_back(Ev.Payload->getInt());
  });
  uint64_t &Full = Sim->getInstrumentation().attachCounter("q", "full");
  Sim->step(600);
  EXPECT_GT(Full, 0u); // Held all 100 entries at some point.
  ASSERT_LE(Dequeued.size(), Enqueued.size());
  EXPECT_LE(Enqueued.size() - Dequeued.size(), 100u);
  EXPECT_TRUE(std::equal(Dequeued.begin(), Dequeued.end(), Enqueued.begin()));
  simtest::expectAllEnginesMatch("queue_grow.lss", Model, 600);
}

TEST(Corelib, MemoryWritesThenReads) {
  auto C = compile(R"(
instance addr:const_source;
addr.value = 5;
instance data:counter_source;
instance m:memory;
m.size = 16;
instance s:sink;
addr.out -> m.waddr;
data.out -> m.wdata;
addr.out -> m.raddr;
m.rdata -> s.in;
)");
  ASSERT_NE(C, nullptr);
  auto *Sim = C->getSimulator();
  Sim->step(1);
  EXPECT_EQ(peekInt(Sim, "m", "rdata"), 0); // Nothing written yet.
  Sim->step(1);
  EXPECT_EQ(peekInt(Sim, "m", "rdata"), 0); // Wrote 0 at end of cycle 0.
  Sim->step(1);
  EXPECT_EQ(peekInt(Sim, "m", "rdata"), 1);
}

TEST(Corelib, RegfileMultiportWidthInference) {
  auto C = compile(R"(
instance a0:const_source;
a0.value = 1;
instance a1:const_source;
a1.value = 2;
instance rf:regfile;
instance s:sink;
a0.out -> rf.raddr;
a1.out -> rf.raddr;
rf.rdata -> s.in;
rf.rdata -> s.in;
)");
  ASSERT_NE(C, nullptr);
  netlist::InstanceNode *RF = C->getNetlist()->findByPath("rf");
  EXPECT_EQ(RF->findPort("raddr")->Width, 2);
  EXPECT_EQ(RF->findPort("rdata")->Width, 2);
  EXPECT_EQ(RF->findPort("waddr")->Width, 0); // Write side unused: fine.
}

TEST(Corelib, CacheHitsAfterWarmup) {
  auto C = compile(R"(
instance addr:const_source;
addr.value = 64;
instance ca:cache;
ca.sets = 4;
ca.ways = 1;
ca.miss_latency = 3;
instance s:sink;
addr.out -> ca.addr;
ca.ready -> s.in;
)");
  ASSERT_NE(C, nullptr);
  auto *Sim = C->getSimulator();
  uint64_t &Hits = Sim->getInstrumentation().attachCounter("ca", "hit");
  uint64_t &Misses = Sim->getInstrumentation().attachCounter("ca", "miss");
  Sim->step(10);
  // One cold miss at cycle 0; the fill completes at the end of cycle 2;
  // cycles 3..9 all hit.
  EXPECT_EQ(Misses, 1u);
  EXPECT_EQ(Hits, 7u);
}

TEST(Corelib, BranchPredictorBtbOnlyWhenConnected) {
  // Without branch_target connected there is no BTB (Section 6.1 example).
  auto C1 = compile(R"(
instance pc:counter_source;
instance bp:branch_pred;
instance s:sink;
pc.out -> bp.pc;
bp.pred -> s.in;
)");
  ASSERT_NE(C1, nullptr);
  EXPECT_EQ(C1->getNetlist()->findByPath("bp")->findPort("branch_target")
                ->Width,
            0);

  auto C2 = compile(R"(
instance pc:counter_source;
instance bp:branch_pred;
instance s1:sink;
instance s2:sink;
pc.out -> bp.pc;
bp.pred -> s1.in;
bp.branch_target -> s2.in;
)");
  ASSERT_NE(C2, nullptr);
  EXPECT_EQ(C2->getNetlist()->findByPath("bp")->findPort("branch_target")
                ->Width,
            1);
}

TEST(Corelib, FetchProducesExactlyNumInstrs) {
  auto C = compile(R"(
instance f:fetch;
f.num_instrs = 25;
instance s:sink;
f.instr -> s.in;
)");
  ASSERT_NE(C, nullptr);
  auto *Sim = C->getSimulator();
  uint64_t &Fetched = Sim->getInstrumentation().attachCounter("f", "fetched");
  Sim->step(100);
  EXPECT_EQ(Fetched, 25u);
  EXPECT_EQ(Sim->findState("s", "received")->getInt(), 25);
}

TEST(Corelib, PipelineEndToEndRetiresEverything) {
  auto C = compile(R"(
instance f:fetch;
f.num_instrs = 200;
instance d:decode;
instance w:issue;
w.window = 8;
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
  ASSERT_NE(C, nullptr);
  auto *Sim = C->getSimulator();
  Sim->step(2000);
  EXPECT_FALSE(Sim->hadRuntimeErrors());
  EXPECT_EQ(Sim->findState("r", "retired")->getInt(), 200)
      << "every fetched instruction must retire exactly once";
}

//===----------------------------------------------------------------------===//
// Behaviors driven by hand: the send path and the µRISC token path
//===----------------------------------------------------------------------===//

using interp::Value;

/// A BehaviorContext without a simulator. Ports are declared with the
/// wires they use, parameters are set by the test, and delivered events
/// are recorded.
class HandContext : public bsl::BehaviorContext {
public:
  explicit HandContext(bsl::WireBoard &Board) : BehaviorContext(Board) {}

  /// Declares port \p Name over the wires \p Nets and returns its id.
  int addPort(const std::string &Name, bool IsOutput, std::vector<int> Nets) {
    PortSlot &Slot = Ports.emplace_back();
    Slot.Name = Name;
    Slot.Nets = std::move(Nets);
    Slot.IsOutput = IsOutput;
    if (IsOutput)
      Slot.EventName = "port:" + Name;
    return int(Ports.size() - 1);
  }

  std::map<std::string, Value> Params;
  std::vector<std::pair<std::string, Value>> Events;

  const types::Type *getPortType(const std::string &) const override {
    return nullptr;
  }
  const Value *getParam(const std::string &Name) const override {
    auto It = Params.find(Name);
    return It == Params.end() ? nullptr : &It->second;
  }
  int bindUserpoint(const std::string &) const override { return -1; }
  Value callUserpoint(int, std::vector<Value>) override { return Value(); }
  const std::string &getInstancePath() const override { return Path; }

protected:
  void deliverEvent(const std::string &Event, const Value &Payload) override {
    Events.emplace_back(Event, Payload);
  }

private:
  std::string Path = "hand";
};

/// The start of a cycle as the engines run it: every wire's presence is
/// snapshotted and cleared.
void beginCycle(bsl::WireBoard &Board) {
  for (bsl::Wire &W : Board.Wires) {
    W.PrevHas = W.Has;
    W.Has = false;
  }
}

void drive(bsl::WireBoard &Board, int Net, Value V) {
  Board.Wires[size_t(Net)].V = std::move(V);
  Board.Wires[size_t(Net)].Has = true;
}

bool sameWire(const bsl::Wire &A, const bsl::Wire &B) {
  return A.V.getKind() == B.V.getKind() && A.V.equals(B.V) &&
         A.Has == B.Has && A.PrevHas == B.PrevHas;
}

TEST(HandDriven, ScalarSendsMatchValueSends) {
  // Two boards take the same sends, one through setOutputInt/Bool and one
  // through setOutput(Value::make*), and must agree after every step.
  struct Side {
    bsl::WireBoard Board;
    HandContext Ctx{Board};
    int Out = -1;
  };
  Side Scalar, Boxed;
  for (Side *S : {&Scalar, &Boxed}) {
    S->Board.Wires.resize(1);
    S->Out = S->Ctx.addPort("out", /*IsOutput=*/true, {0});
  }
  enum Kind { Int, Bool };
  auto Send = [&](Kind K, int64_t V, int Port) {
    for (Side *S : {&Scalar, &Boxed}) {
      int P = Port < 0 ? Port : S->Out;
      if (S == &Scalar && K == Int)
        S->Ctx.setOutputInt(P, 0, V);
      else if (S == &Scalar)
        S->Ctx.setOutputBool(P, 0, V != 0);
      else if (K == Int)
        S->Ctx.setOutput(P, 0, Value::makeInt(V));
      else
        S->Ctx.setOutput(P, 0, Value::makeBool(V != 0));
    }
  };
  auto Agree = [&](const char *Step) {
    SCOPED_TRACE(Step);
    EXPECT_TRUE(sameWire(Scalar.Board.Wires[0], Boxed.Board.Wires[0]));
    EXPECT_EQ(Scalar.Board.NetWrites, Boxed.Board.NetWrites);
    EXPECT_EQ(Scalar.Board.NetChanges, Boxed.Board.NetChanges);
    EXPECT_EQ(Scalar.Board.Dirty, Boxed.Board.Dirty);
    ASSERT_EQ(Scalar.Ctx.Events.size(), Boxed.Ctx.Events.size());
    for (size_t E = 0; E != Scalar.Ctx.Events.size(); ++E) {
      EXPECT_EQ(Scalar.Ctx.Events[E].first, Boxed.Ctx.Events[E].first);
      EXPECT_TRUE(
          Scalar.Ctx.Events[E].second.equals(Boxed.Ctx.Events[E].second));
    }
  };
  auto NextCycle = [&] {
    for (Side *S : {&Scalar, &Boxed}) {
      beginCycle(S->Board);
      S->Board.Dirty = false;
    }
  };

  Send(Int, 7, 0);
  Agree("first send, no previous value");
  EXPECT_EQ(Scalar.Board.NetChanges, 1u);
  NextCycle();
  Send(Int, 7, 0);
  Agree("first send of the cycle, same value as last cycle");
  EXPECT_EQ(Scalar.Board.NetChanges, 1u);
  EXPECT_TRUE(Scalar.Board.Dirty);
  NextCycle();
  Send(Int, 9, 0);
  Agree("first send of the cycle, new value");
  EXPECT_EQ(Scalar.Board.NetChanges, 2u);
  for (Side *S : {&Scalar, &Boxed})
    S->Board.Dirty = false;
  Send(Int, 9, 0);
  Agree("fixpoint re-send, same value");
  EXPECT_FALSE(Scalar.Board.Dirty);
  Send(Int, 11, 0);
  Agree("fixpoint re-send, new value");
  EXPECT_TRUE(Scalar.Board.Dirty);
  Send(Bool, 1, 0);
  Agree("Int to Bool");
  EXPECT_TRUE(Scalar.Board.Wires[0].V.isBool());
  NextCycle();
  Send(Bool, 1, 0);
  Agree("Bool, same as last cycle");
  Send(Bool, 0, 0);
  Agree("Bool re-send, new value");
  NextCycle();
  Send(Int, 0, 0); // Compares unequal to Bool false.
  Agree("Bool to Int");
  EXPECT_TRUE(Scalar.Board.Wires[0].V.isInt());
  uint64_t Writes = Scalar.Board.NetWrites;
  Send(Int, 3, -1);
  Send(Bool, 1, -1);
  Agree("port id -1");
  EXPECT_EQ(Scalar.Board.NetWrites, Writes);
  EXPECT_TRUE(Scalar.Ctx.Events.empty());

  for (Side *S : {&Scalar, &Boxed})
    S->Board.Instrumented = true;
  NextCycle();
  Send(Int, 1, 0);
  Send(Int, 5, 0);
  Send(Bool, 0, 0);
  NextCycle();
  Send(Bool, 0, 0);
  Agree("instrumented");
  ASSERT_EQ(Scalar.Ctx.Events.size(), 4u);
  EXPECT_EQ(Scalar.Ctx.Events[0].first, "port:out");
  EXPECT_EQ(Scalar.Ctx.Events[1].second.getInt(), 5);
  EXPECT_FALSE(Scalar.Ctx.Events[3].second.getBool());
}

/// An issue stage with one dispatch lane feeding one fu, wired by hand:
/// wire 0 carries uops into issue, 1 dispatch, 2 fu's done, 3 the
/// completion issue reads (driven by the test).
struct TokenRig {
  bsl::WireBoard Board;
  HandContext IssueCtx{Board}, FuCtx{Board};
  std::unique_ptr<bsl::LeafBehavior> Issue, Fu;

  explicit TokenRig(int UopWidth = 1) {
    corelib::registerCoreBehaviors();
    std::vector<int> UopNets;
    for (int I = 0; I != UopWidth; ++I)
      UopNets.push_back(4 + I);
    Board.Wires.resize(size_t(4 + UopWidth));
    IssueCtx.addPort("uop", false, UopNets);
    IssueCtx.addPort("complete", false, {3});
    IssueCtx.addPort("dispatch", true, {1});
    FuCtx.addPort("uop", false, {1});
    FuCtx.addPort("done", true, {2});
    Issue = bsl::BehaviorRegistry::global().create("corelib/issue");
    Fu = bsl::BehaviorRegistry::global().create("corelib/fu");
    Issue->init(IssueCtx);
    Fu->init(FuCtx);
  }
  /// Ends the cycle the test has driven inputs for, then starts the next.
  void finishCycle() {
    Issue->evaluate(IssueCtx);
    Fu->evaluate(FuCtx);
    Issue->endOfTimestep(IssueCtx);
    Fu->endOfTimestep(FuCtx);
    ++Board.Cycle;
    beginCycle(Board);
  }
  const bsl::Wire &dispatch() const { return Board.Wires[1]; }
  const bsl::Wire &done() const { return Board.Wires[2]; }
};

Value token(std::vector<std::pair<std::string, Value>> Fields) {
  return Value::makeStruct(std::move(Fields));
}

corelib::MicroInstr decodeByName(const Value &V) {
  corelib::MicroInstr I;
  if (!V.isStruct())
    return I;
  auto Get = [&](const char *Name, int64_t &Out) {
    if (const Value *F = V.getField(Name))
      if (F->isInt())
        Out = F->getInt();
  };
  Get("pc", I.Pc);
  Get("op", I.Op);
  Get("dest", I.Dest);
  Get("src1", I.Src1);
  Get("src2", I.Src2);
  Get("lat", I.Lat);
  return I;
}

void expectSameInstr(const corelib::MicroInstr &A,
                     const corelib::MicroInstr &B) {
  EXPECT_EQ(A.Pc, B.Pc);
  EXPECT_EQ(A.Op, B.Op);
  EXPECT_EQ(A.Dest, B.Dest);
  EXPECT_EQ(A.Src1, B.Src1);
  EXPECT_EQ(A.Src2, B.Src2);
  EXPECT_EQ(A.Lat, B.Lat);
}

/// Byte-identical as far as a trace can tell: same kind, field names in
/// the same order, equal values.
void expectSameToken(const Value &A, const Value &B) {
  ASSERT_TRUE(A.isStruct());
  ASSERT_TRUE(B.isStruct());
  EXPECT_TRUE(A.equals(B));
  EXPECT_EQ(A.str(), B.str());
}

/// Tokens that are not toValue's layout, each with a case name.
std::vector<std::pair<std::string, Value>> nonCanonicalTokens() {
  auto I = [](int64_t N) { return Value::makeInt(N); };
  return {
      {"missing lat", token({{"pc", I(8)},
                             {"op", I(1)},
                             {"dest", I(3)},
                             {"src1", I(4)},
                             {"src2", I(5)}})},
      {"extra field", token({{"pc", I(8)},
                             {"op", I(2)},
                             {"dest", I(3)},
                             {"src1", I(4)},
                             {"src2", I(5)},
                             {"lat", I(2)},
                             {"tag", I(99)}})},
      {"reordered", token({{"op", I(1)},
                           {"pc", I(8)},
                           {"dest", I(3)},
                           {"src1", I(4)},
                           {"src2", I(5)},
                           {"lat", I(3)}})},
      {"duplicate name", token({{"pc", I(8)},
                                {"op", I(0)},
                                {"dest", I(3)},
                                {"src1", I(4)},
                                {"dest", I(9)},
                                {"lat", I(1)}})},
      {"non-Int field", token({{"pc", I(8)},
                               {"op", I(0)},
                               {"dest", I(3)},
                               {"src1", I(4)},
                               {"src2", I(5)},
                               {"lat", Value::makeBool(true)}})},
      {"plain Int", I(42)},
  };
}

TEST(HandDriven, CanonicalTokenLeavesFuSharingItsPayload) {
  TokenRig Rig;
  corelib::MicroInstr MI;
  MI.Pc = 64;
  MI.Dest = 7;
  MI.Src1 = 1;
  MI.Src2 = 2;
  MI.Lat = 3;
  Value In = corelib::TraceGen::toValue(MI);
  ASSERT_TRUE(corelib::TraceGen::isCanonical(In));
  drive(Rig.Board, 4, In);
  Rig.finishCycle(); // issue takes the token in
  Rig.finishCycle(); // ...and dispatches it; fu takes it in
  ASSERT_TRUE(Rig.dispatch().PrevHas);
  EXPECT_EQ(&Rig.dispatch().V.getFields(), &In.getFields());
  bool Done = false;
  for (int C = 0; C != 8 && !Done; ++C) {
    Rig.finishCycle();
    Done = Rig.done().PrevHas;
  }
  ASSERT_TRUE(Done);
  EXPECT_EQ(&Rig.done().V.getFields(), &In.getFields());
}

TEST(HandDriven, NonCanonicalTokensAreReencodedOnce) {
  for (const auto &[Case, In] : nonCanonicalTokens()) {
    SCOPED_TRACE(Case);
    EXPECT_FALSE(corelib::TraceGen::isCanonical(In));
    Value Expected =
        corelib::TraceGen::toValue(corelib::TraceGen::fromValue(In));
    TokenRig Rig;
    drive(Rig.Board, 4, In);
    Rig.finishCycle();
    Rig.finishCycle();
    ASSERT_TRUE(Rig.dispatch().PrevHas);
    expectSameToken(Rig.dispatch().V, Expected);
    bool Done = false;
    for (int C = 0; C != 8 && !Done; ++C) {
      Rig.finishCycle();
      Done = Rig.done().PrevHas;
    }
    ASSERT_TRUE(Done);
    expectSameToken(Rig.done().V, Expected);
    // Re-encoded once: fu forwards issue's encoding.
    EXPECT_EQ(&Rig.done().V.getFields(), &Rig.dispatch().V.getFields());
  }
}

TEST(HandDriven, TwoWritersOfOneDestNeedTwoCompletions) {
  auto Instr = [](int64_t Pc, int64_t Dest, int64_t Src1) {
    corelib::MicroInstr MI;
    MI.Pc = Pc;
    MI.Dest = Dest;
    MI.Src1 = Src1;
    MI.Src2 = Src1;
    return corelib::TraceGen::toValue(MI);
  };
  TokenRig Rig(/*UopWidth=*/3);
  drive(Rig.Board, 4, Instr(0, 5, 1)); // Two writers of r5...
  drive(Rig.Board, 5, Instr(4, 5, 2));
  drive(Rig.Board, 6, Instr(8, 6, 5)); // ...and a reader.
  Rig.finishCycle();
  auto DispatchedPc = [&]() -> int64_t {
    if (!Rig.dispatch().PrevHas)
      return -1;
    return corelib::TraceGen::fromValue(Rig.dispatch().V).Pc;
  };
  Rig.finishCycle();
  EXPECT_EQ(DispatchedPc(), 0);
  Rig.finishCycle();
  EXPECT_EQ(DispatchedPc(), 4);
  Rig.finishCycle();
  EXPECT_EQ(DispatchedPc(), -1) << "r5 has two writers in flight";
  drive(Rig.Board, 3, Instr(0, 5, 1));
  Rig.finishCycle(); // the first completion
  Rig.finishCycle();
  EXPECT_EQ(DispatchedPc(), -1) << "one completion frees one writer";
  drive(Rig.Board, 3, Instr(4, 5, 2));
  Rig.finishCycle(); // the second completion
  Rig.finishCycle();
  EXPECT_EQ(DispatchedPc(), 8);
}

TEST(HandDriven, PositionalDecodeAgreesWithDecodeByName) {
  corelib::MicroInstr MI;
  MI.Pc = 12;
  MI.Op = 2;
  MI.Dest = 4;
  MI.Src1 = 5;
  MI.Src2 = 6;
  MI.Lat = 2;
  Value Canonical = corelib::TraceGen::toValue(MI);
  EXPECT_TRUE(corelib::TraceGen::isCanonical(Canonical));
  expectSameInstr(corelib::TraceGen::fromValue(Canonical),
                  decodeByName(Canonical));
  expectSameInstr(corelib::TraceGen::fromValue(Canonical), MI);
  for (const auto &[Case, V] : nonCanonicalTokens()) {
    SCOPED_TRACE(Case);
    expectSameInstr(corelib::TraceGen::fromValue(V), decodeByName(V));
  }
}

} // namespace
