//===- Inputs.h - Seeded input generators for the workloads -----*- C++ -*-===//
///
/// \file
/// Everything the program compiles is generated here from the workload
/// seed; the program itself only ever sees the resulting source text.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include "Common.h"

#include "driver/CompilerInvocation.h"
#include "driver/DaemonProtocol.h"

#include <string>
#include <vector>

namespace perfbench {

/// One of the paper's models A-F: uarch.lss plus the model file, with every
/// `core*.seed = N;` line given a seeded value.
struct PaperModel {
  std::string Id;
  liberty::driver::CompilerInvocation Inv;
  std::vector<uint64_t> CoreSeeds;
};

/// The model's redrawn seeds, for the record: {"core0": N, ...}.
liberty::driver::Json coreSeedsJson(const PaperModel &M);

/// Reads models A-F from \p ModelsDir. Returns false (with \p Err) when a
/// file is missing or has no `core*.seed` line to rewrite.
bool paperModels(const std::string &ModelsDir, Rng &R,
                 std::vector<PaperModel> &Out, std::string &Err);

/// The paper's parametric n-stage delay chain.
std::string delayChainSpec(unsigned N);

/// Shape of one overload project: one module per file, Lanes lanes of
/// Stages adders each, lane K carrying Depths[K] free (float | int)
/// variables that only an all-int assignment satisfies.
struct OverloadShape {
  std::string Prefix; ///< Distinguishes module and file names per project.
  unsigned Stages = 0;
  std::vector<unsigned> Depths; ///< One per lane.
  unsigned lanes() const { return unsigned(Depths.size()); }
  unsigned instances() const { return lanes() * (Stages + 2); }
};

/// Draws a project of about \p TargetInstances instances: the lane count
/// from [LanesLo, LanesHi] and the stage count to match. \p LanesPerDepth
/// lanes carry each depth in [DepthLo, DepthHi] and the remaining lanes a
/// trivial depth of 2, shuffled across the lanes — so the search work is
/// the same for every seed while lane count, stages and per-lane depth all
/// vary.
OverloadShape drawOverloadShape(Rng &R, std::string Prefix,
                                unsigned TargetInstances, unsigned LanesLo,
                                unsigned LanesHi, unsigned DepthLo,
                                unsigned DepthHi, unsigned LanesPerDepth);

/// The whole project as an invocation (top.lss first, then one file per
/// lane). \p Revs gives each lane's edit revision (empty = all 0).
liberty::driver::CompilerInvocation
overloadProject(const OverloadShape &S, const std::vector<unsigned> &Revs);

/// Total bytes of source text in \p Inv (user sources only).
size_t sourceBytes(const liberty::driver::CompilerInvocation &Inv);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
