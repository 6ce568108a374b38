//===- EngineMatrix.h - Cross-engine differential harness -------*- C++ -*-===//
///
/// \file
/// The engine matrix: run any model on the interp engine and the compiled
/// cycle kernel, and assert that the kernel produces a bit-identical
/// observable record (event stream, final net values, total emission
/// count) and the same activity counters as the interp reference.
///
/// This is the enforcement point for the engines' shared contract: the
/// interpreter defines the semantics, and the kernel is an optimization
/// that must be observationally invisible. Any test binary can include
/// this header (on top of SimTestModels.h) and sweep a model across the
/// matrix with one call.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_TESTS_ENGINEMATRIX_H
#define LIBERTY_TESTS_ENGINEMATRIX_H

#include "SimTestModels.h"

namespace simtest {

struct EngineConfig {
  const char *Name;
  liberty::sim::Simulator::Options Opts;
};

/// Both engines, the interp reference first.
inline std::vector<EngineConfig> engineMatrix() {
  using liberty::sim::EngineKind;
  return {{"interp", engineOptions(EngineKind::Interp)},
          {"compiled", engineOptions(EngineKind::Compiled)}};
}

/// Requires \p Got to equal the reference record \p Ref, reporting the
/// first diverging event line (trace diff, not just a size or hash
/// mismatch) on failure.
inline void expectTraceEqual(const std::string &What, const TraceRecord &Ref,
                             const TraceRecord &Got) {
  if (Got.Events != Ref.Events) {
    size_t N = std::min(Ref.Events.size(), Got.Events.size());
    size_t First = N;
    for (size_t I = 0; I != N; ++I)
      if (Ref.Events[I] != Got.Events[I]) {
        First = I;
        break;
      }
    ADD_FAILURE() << What << ": event streams diverge ("
                  << Ref.Events.size() << " reference events, "
                  << Got.Events.size() << " actual); first difference at #"
                  << First << ":\n  reference: "
                  << (First < Ref.Events.size() ? Ref.Events[First]
                                                : "<missing>")
                  << "\n  actual:    "
                  << (First < Got.Events.size() ? Got.Events[First]
                                                : "<missing>");
    return;
  }
  EXPECT_EQ(Ref.FinalNets, Got.FinalNets)
      << What << ": final net values diverge";
  EXPECT_EQ(Ref.TotalEmitted, Got.TotalEmitted) << What;
}

/// Both engines run the same behaviors over the same schedule, so every
/// activity counter must match the interp reference as well.
inline void expectActivityEqual(const std::string &What,
                                const liberty::sim::ActivityStats &Ref,
                                const liberty::sim::ActivityStats &Got) {
  EXPECT_EQ(Ref.Cycles, Got.Cycles) << What;
  EXPECT_EQ(Ref.GroupsEvaluated, Got.GroupsEvaluated) << What;
  EXPECT_EQ(Ref.LeafEvals, Got.LeafEvals) << What;
  EXPECT_EQ(Ref.FixpointIters, Got.FixpointIters) << What;
  EXPECT_EQ(Ref.NetWrites, Got.NetWrites) << What;
  EXPECT_EQ(Ref.NetChanges, Got.NetChanges) << What;
}

/// Compiles \p Text once per engine, runs each for \p Cycles, and
/// requires the records and activity counters to match the interp
/// reference.
inline void expectAllEnginesMatch(const std::string &Name,
                                  const std::string &Text, uint64_t Cycles) {
  TraceRecord Ref;
  liberty::sim::ActivityStats RefActivity;
  bool HaveRef = false;
  for (const EngineConfig &E : engineMatrix()) {
    auto C = compileSim(Name, Text, E.Opts);
    ASSERT_NE(C, nullptr) << E.Name << " compile failed for " << Name;
    TraceRecord R = runRecorded(*C, Cycles);
    EXPECT_FALSE(C->getSimulator()->hadRuntimeErrors())
        << E.Name << " on " << Name;
    if (!HaveRef) {
      Ref = std::move(R);
      RefActivity = C->getSimulator()->getActivityStats();
      HaveRef = true;
      continue;
    }
    const std::string What = std::string(E.Name) + " vs interp on " + Name;
    expectTraceEqual(What, Ref, R);
    expectActivityEqual(What, RefActivity,
                        C->getSimulator()->getActivityStats());
  }
}

/// The model-library variant of expectAllEnginesMatch.
inline void expectAllEnginesMatchModel(const std::string &Id,
                                       uint64_t Cycles) {
  TraceRecord Ref;
  liberty::sim::ActivityStats RefActivity;
  bool HaveRef = false;
  for (const EngineConfig &E : engineMatrix()) {
    liberty::driver::Compiler C;
    ASSERT_TRUE(buildModelSim(C, Id, E.Opts))
        << E.Name << " compile failed for model " << Id << "\n"
        << C.diagnosticsText();
    TraceRecord R = runRecorded(C, Cycles);
    if (!HaveRef) {
      Ref = std::move(R);
      RefActivity = C.getSimulator()->getActivityStats();
      HaveRef = true;
      continue;
    }
    const std::string What =
        std::string(E.Name) + " vs interp on model " + Id;
    expectTraceEqual(What, Ref, R);
    expectActivityEqual(What, RefActivity, C.getSimulator()->getActivityStats());
  }
}

} // namespace simtest

#endif // LIBERTY_TESTS_ENGINEMATRIX_H
