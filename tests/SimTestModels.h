//===- SimTestModels.h - Shared simulation-test harness ---------*- C++ -*-===//
///
/// \file
/// The differential-test harness behind EngineMatrix.h,
/// CompiledSimTest.cpp and SelectiveSimTest.cpp: engine option helpers, full-run trace recording
/// (event stream + final net values), the synthetic netlist families, and
/// the FNV-1a trace digest used by the golden fixtures under
/// tests/golden/.
///
/// Everything lives in namespace simtest and is inline: each test binary
/// includes this header on its own.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_TESTS_SIMTESTMODELS_H
#define LIBERTY_TESTS_SIMTESTMODELS_H

#include "driver/Compiler.h"
#include "models/Models.h"
#include "netlist/Netlist.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace simtest {

using namespace liberty;

inline sim::Simulator::Options engineOptions(sim::EngineKind E) {
  sim::Simulator::Options O;
  O.Engine = E;
  return O;
}

/// The invocation most sim tests run: one source, given engine options.
inline driver::CompilerInvocation invocationFor(const std::string &Name,
                                                const std::string &Text,
                                                sim::Simulator::Options O) {
  driver::CompilerInvocation Inv;
  Inv.addSource(Name, Text);
  Inv.Sim = O;
  return Inv;
}

inline std::unique_ptr<driver::Compiler>
compileSim(const std::string &Name, const std::string &Text,
           sim::Simulator::Options O) {
  return driver::Compiler::compileForSim(invocationFor(Name, Text, O));
}

/// One run's full observable record: the instrumentation event stream (in
/// emission order) and the final value/presence of every net, keyed by
/// port instance.
struct TraceRecord {
  std::vector<std::string> Events;
  std::vector<std::string> FinalNets;
  uint64_t TotalEmitted = 0;
};

inline void attachRecorder(sim::Simulator &Sim,
                           std::vector<std::string> &Out) {
  Sim.getInstrumentation().attach("*", "*", [&Out](const sim::Event &E) {
    std::ostringstream Line;
    Line << E.Cycle << '|' << *E.InstancePath << '|' << *E.Name << '|'
         << (E.Payload ? E.Payload->str() : "(null)");
    Out.push_back(Line.str());
  });
}

inline std::vector<std::string> collectFinalNets(driver::Compiler &C) {
  std::vector<std::string> Out;
  sim::Simulator *Sim = C.getSimulator();
  for (const auto &Inst : C.getNetlist()->getInstances()) {
    if (!Inst->isLeaf())
      continue;
    for (const netlist::Port &P : Inst->Ports)
      for (int I = 0; I != P.Width; ++I) {
        const interp::Value *V = Sim->peekPort(Inst->Path, P.Name, I);
        Out.push_back(Inst->Path + "." + P.Name + "[" + std::to_string(I) +
                      "]=" + (V ? V->str() : "(absent)"));
      }
  }
  return Out;
}

inline TraceRecord runRecorded(driver::Compiler &C, uint64_t Cycles) {
  TraceRecord R;
  sim::Simulator *Sim = C.getSimulator();
  attachRecorder(*Sim, R.Events);
  // The collector was attached after build()'s reset; re-reset so the
  // init-time events are recorded too.
  Sim->reset();
  Sim->step(Cycles);
  R.FinalNets = collectFinalNets(C);
  R.TotalEmitted = Sim->getInstrumentation().totalEmitted();
  return R;
}

inline bool buildModelSim(driver::Compiler &C, const std::string &Id,
                          sim::Simulator::Options O) {
  driver::CompilerInvocation Inv;
  Inv.Sim = O;
  return models::loadModel(C, Id) && C.elaborate(Inv) && C.inferTypes(Inv) &&
         C.buildSimulator(Inv) != nullptr;
}

//===----------------------------------------------------------------------===//
// Synthetic netlist families
//===----------------------------------------------------------------------===//

inline std::string delayChain(int N) {
  return R"(
module delayn {
  parameter n:int;
  inport in: 'a;
  outport out: 'a;
  var delays:instance ref[];
  delays = new instance[n](delay, "delays");
  in -> delays[0].in;
  var i:int;
  for (i = 1; i < n; i = i + 1) { delays[i-1].out -> delays[i].in; }
  delays[n-1].out -> out;
};
instance gen:counter_source;
instance hole:sink;
instance chain:delayn;
chain.n = )" + std::to_string(N) + R"(;
gen.out -> chain.in;
chain.out -> hole.in;
)";
}

inline std::string adderTree() {
  return R"(
instance g:counter_source;
instance c:const_source;
c.value = 100;
instance a1:adder;
instance a2:adder;
instance a3:adder;
instance s:sink;
g.out -> a1.in1;
c.out -> a1.in2;
c.out -> a2.in1;
c.out -> a2.in2;
a1.out -> a3.in1;
a2.out -> a3.in2;
a3.out -> s.in;
)";
}

/// Mux whose sel counts 0,1,2,3,...: cycles 0-2 route different inputs,
/// later cycles select out of range so the output net goes absent —
/// exercising presence transitions.
inline std::string muxRouting() {
  return R"(
instance sel:counter_source;
instance i0:const_source;
i0.value = 10;
instance i1:const_source;
i1.value = 11;
instance i2:const_source;
i2.value = 12;
instance m:mux;
instance s:sink;
sel.out -> m.sel;
i0.out -> m.in[0];
i1.out -> m.in[1];
i2.out -> m.in[2];
m.out -> s.in;
)";
}

/// Demux steering one changing value across outputs by a counting sel:
/// every output net toggles between present and absent across cycles.
inline std::string demuxSteering() {
  return R"(
instance sel:counter_source;
instance g:counter_source;
g.stride = 3;
instance d:demux;
instance s0:sink;
instance s1:sink;
sel.out -> d.sel;
g.out -> d.in;
d.out[0] -> s0.in;
d.out[1] -> s1.in;
)";
}

/// A true combinational cycle between two pure muxes (the f2->f1 edge is
/// structural; sel=0 keeps the dataflow acyclic so the fixpoint
/// converges). f2's output is
/// replicated through a fanout (mux drives only out[0]) so the sink
/// observes the looped value; the fanout itself becomes a member of the
/// cyclic group.
inline std::string pureMuxCycle() {
  return R"(
instance g:counter_source;
instance zero:const_source;
zero.value = 0;
instance f1:mux;
instance f2:mux;
instance rep:fanout;
instance s:sink;
zero.out -> f1.sel;
zero.out -> f2.sel;
g.out -> f1.in[0];
f1.out -> f2.in[0];
f2.out -> rep.in;
rep.out -> f1.in[1];
rep.out -> s.in;
)";
}

/// Low activity: a constant-fed adder farm (quiescent after cycle 0) next
/// to a counter-fed chain (active every cycle).
inline std::string lowActivityFarm(int QuietN) {
  return R"(
module addchain {
  parameter n:int;
  inport in: 'a;
  outport out: 'a;
  var as:instance ref[];
  as = new instance[n](adder, "a");
  in -> as[0].in1;
  in -> as[0].in2;
  var i:int;
  for (i = 1; i < n; i = i + 1) {
    as[i-1].out -> as[i].in1;
    in -> as[i].in2;
  }
  as[n-1].out -> out;
};
instance qsrc:const_source;
qsrc.value = 3;
instance qchain:addchain;
qchain.n = )" + std::to_string(QuietN) + R"(;
instance qsink:sink;
qsrc.out -> qchain.in;
qchain.out -> qsink.in;
instance asrc:counter_source;
instance achain:addchain;
achain.n = 4;
instance asink:sink;
asrc.out -> achain.in;
achain.out -> asink.in;
)";
}

/// Sequential/impure mixture: queue with a toggling stall, registers, and
/// a random (seeded) source alongside pure combinational logic.
inline std::string queueWithStall() {
  return R"(
instance g:source;
g.pattern = "random";
g.seed = 42;
g.range = 50;
instance q:queue;
q.depth = 3;
instance stall:bool_source;
stall.pattern = "toggle";
instance a:adder;
instance one:const_source;
one.value = 1;
instance s:sink;
g.out -> q.in;
stall.out -> q.stall;
q.out -> a.in1;
one.out -> a.in2;
a.out -> s.in;
)";
}

/// A wide model: \p Lanes independent (source -> adder -> sink) strands,
/// every component its own singleton schedule group.
inline std::string wideIndependentLanes(int Lanes) {
  std::string N = std::to_string(Lanes);
  return R"(
module lane {
  outport out: int;
  instance g:counter_source;
  instance a:adder;
  g.out -> a.in1;
  g.out -> a.in2;
  a.out -> out;
};
var lanes:instance ref[];
lanes = new instance[)" + N + R"(](lane, "lane");
instance s:sink;
var i:int;
for (i = 0; i < )" + N + R"(; i = i + 1) {
  lanes[i].out -> s.in[i];
}
)";
}

struct SyntheticFamily {
  const char *Name;
  std::string Text;
  uint64_t Cycles;
};

inline std::vector<SyntheticFamily> syntheticFamilies() {
  return {
      {"delay_chain", delayChain(12), 40},
      {"adder_tree", adderTree(), 40},
      {"mux_routing", muxRouting(), 20},
      {"demux_steering", demuxSteering(), 30},
      {"pure_mux_cycle", pureMuxCycle(), 25},
      {"low_activity_farm", lowActivityFarm(16), 40},
      {"queue_with_stall", queueWithStall(), 50},
  };
}

//===----------------------------------------------------------------------===//
// Golden trace digests
//===----------------------------------------------------------------------===//

/// FNV-1a 64 (published offset basis) over every event and final-net
/// line, each followed by a 0x1e separator so line boundaries are
/// significant.
inline std::string traceDigest(const TraceRecord &R) {
  FnvHasher H(14695981039346656037ull);
  for (const auto *Lines : {&R.Events, &R.FinalNets})
    for (const std::string &L : *Lines) {
      H.bytes(L.data(), L.size());
      H.bytes("\x1e", 1);
    }
  std::ostringstream OS;
  OS << std::hex << H.get();
  return OS.str();
}

/// The fixture line checked against tests/golden/<name>.trace:
/// "<fnv1a-64-hex> <events> <nets>".
inline std::string goldenLine(const TraceRecord &R) {
  std::ostringstream Line;
  Line << traceDigest(R) << " " << R.Events.size() << " "
       << R.FinalNets.size();
  return Line.str();
}

} // namespace simtest

#endif // LIBERTY_TESTS_SIMTESTMODELS_H
