//===- Pipeline.cpp - A cold compile, timed call by call ------------------===//

#include "Pipeline.h"

using namespace liberty;

namespace perfbench {

TimedCompile compileTimed(const driver::CompilerInvocation &Inv, bool BuildSim,
                          Tracer &T, uint64_t Op, int Tid, int64_t Parent) {
  TimedCompile R;
  auto Start = Clock::now();
  R.C = std::make_unique<driver::Compiler>();
  driver::Compiler &C = *R.C;
  {
    Span S(T, "Compiler::addSources", "lss", Op, Tid, Parent);
    bool Ok = C.addSources(Inv);
    R.ParseMs = S.close();
    if (!Ok) {
      R.FailedPhase = "parse";
      return R;
    }
  }
  {
    Span S(T, "Compiler::elaborate", "interp", Op, Tid, Parent);
    bool Ok = C.elaborate(Inv);
    R.ElabMs = S.close();
    if (!Ok) {
      R.FailedPhase = "elaborate";
      return R;
    }
  }
  {
    Span S(T, "Compiler::inferTypes", "infer", Op, Tid, Parent);
    bool Ok = C.inferTypes(Inv);
    R.InferMs = S.close();
    if (!Ok) {
      R.FailedPhase = "infer";
      return R;
    }
  }
  if (BuildSim) {
    Span S(T, "Compiler::buildSimulator", "sim", Op, Tid, Parent);
    bool Ok = C.buildSimulator(Inv) != nullptr;
    R.BuildMs = S.close();
    if (!Ok) {
      R.FailedPhase = "sim-build";
      return R;
    }
  }
  R.CompileMs = msSince(Start);
  R.Ok = true;
  return R;
}

} // namespace perfbench
