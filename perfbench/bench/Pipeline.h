//===- Pipeline.h - A cold compile, timed call by call ----------*- C++ -*-===//

#ifndef PERFBENCH_PIPELINE_H
#define PERFBENCH_PIPELINE_H

#include "Common.h"

#include "driver/Compiler.h"

#include <memory>
#include <string>

namespace perfbench {

/// One cold in-process compile through the Compiler's public phase entry
/// points, each call wrapped in a span of its layer.
struct TimedCompile {
  std::unique_ptr<liberty::driver::Compiler> C;
  bool Ok = false;
  std::string FailedPhase; ///< Empty on success.
  double ParseMs = 0, ElabMs = 0, InferMs = 0, BuildMs = 0;
  /// Compiler construction through the last phase.
  double CompileMs = 0;
};

/// Runs addSources -> elaborate -> inferTypes (-> buildSimulator when
/// \p BuildSim), stopping at the first failing phase.
TimedCompile compileTimed(const liberty::driver::CompilerInvocation &Inv,
                          bool BuildSim, Tracer &T, uint64_t Op, int Tid,
                          int64_t Parent);

} // namespace perfbench

#endif // PERFBENCH_PIPELINE_H
