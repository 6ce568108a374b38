//===- CompileService.cpp - Cached, batched LSS compilation ------------------===//

#include "driver/CompileService.h"

#include "corelib/CoreLib.h"
#include "driver/CompileVerdict.h"
#include "infer/Solution.h"
#include "netlist/Serializer.h"
#include "support/ThreadPool.h"

#include <algorithm>

using namespace liberty;
using namespace liberty::driver;

CompileService::CompileService() : CompileService(Options()) {}

CompileService::CompileService(Options O)
    : Opts(std::move(O)), Cache(Opts.Cache) {
  // Pre-warm the process-wide shared state (behavior registry, parsed
  // core library) on the caller's thread, so batch workers only ever read.
  corelib::registerCoreBehaviors();
}

CompileResult CompileService::compile(const CompilerInvocation &Inv) {
  // A compile that never consults the cache hashes no key.
  return runPipeline(Inv, Opts.CacheEnabled ? phaseKeys(Inv) : PhaseKeys(),
                     nullptr, nullptr);
}

CompileVerdict CompileService::compileVerdict(const CompilerInvocation &Inv,
                                              CompileResult *Full) {
  auto VerdictOf = [&](CompileResult R) {
    CompileVerdict V = CompileVerdict::of(R);
    if (Full)
      *Full = std::move(R);
    return V;
  };
  if (!Opts.CacheEnabled || Inv.BuildSim)
    return VerdictOf(compile(Inv));

  // The same two lookups compile() makes, in the same order, decoded by
  // the summary readers. A miss hands the lookups made so far to the full
  // pipeline, so the cache sees exactly what compile() would have done.
  PhaseKeys Keys = phaseKeys(Inv);
  Lookup Elab;
  netlist::NetlistSummary NS;
  Elab.Hit = Cache.get(CompilerInvocation::keyString(Keys.Elab), "elab",
                       &Elab.Note,
                       [&](std::string &Payload, std::string &Reason) {
                         if (!netlist::readNetlistSummary(Payload, NS,
                                                          &Reason))
                           return false;
                         // Needed after all if the solution misses.
                         Elab.Payload = std::move(Payload);
                         return true;
                       });
  if (!Elab.Hit)
    return VerdictOf(runPipeline(Inv, Keys, &Elab, nullptr));

  Lookup Solve;
  infer::SolutionSummary SS;
  Solve.Hit = Cache.get(CompilerInvocation::keyString(Keys.Solve), "solve",
                        &Solve.Note,
                        [&](std::string &Payload, std::string &Reason) {
                          return infer::readSolutionSummary(Payload, SS,
                                                            &Reason);
                        });
  if (!Solve.Hit)
    return VerdictOf(runPipeline(Inv, Keys, &Elab, &Solve));
  return CompileVerdict::ofCached(Inv, NS, SS);
}

CompileResult CompileService::runPipeline(const CompilerInvocation &Inv,
                                          const PhaseKeys &Keys,
                                          Lookup *ElabLookup,
                                          Lookup *SolveLookup) {
  CompileResult R;
  R.C = std::make_unique<Compiler>();
  Compiler &C = *R.C;

  // One phase's cache lookup: the one handed in, or made here. A hit is
  // decoded by \p Decode either way; a miss notes its reason.
  auto LookupPhase = [&](uint64_t Key, const char *Phase, Lookup *Given,
                         const ArtifactCache::Decoder &Decode) {
    const std::string KeyStr = CompilerInvocation::keyString(Key);
    std::string Note;
    bool Hit;
    if (!Given) {
      Hit = Cache.get(KeyStr, Phase, &Note, Decode);
    } else {
      std::string Reason;
      Note = Given->Note;
      Hit = Given->Hit && Decode(Given->Payload, Reason);
      if (Given->Hit && !Hit)
        Note = ArtifactCache::unreadableNote(KeyStr, Phase, Reason);
    }
    if (!Note.empty())
      C.getDiags().note(SourceLoc(), Note);
    return Hit;
  };

  // --- Parse + elaborate, or reload the "elab" artifact. -----------------
  bool Warm = false;
  if (Opts.CacheEnabled) {
    Warm = LookupPhase(Keys.Elab, "elab", ElabLookup,
                       [&](std::string &Payload, std::string &Reason) {
                         PhaseTimer::Scope Phase(&C.getPhaseTimer(),
                                                 "cache-load");
                         auto SC = netlist::deserializeNetlist(
                             Payload, C.getTypeContext(), &Reason);
                         if (!SC.NL)
                           return false;
                         C.registerSourcesWithoutParsing(Inv);
                         C.adoptNetlist(std::move(SC));
                         return true;
                       });
    R.ElabFromCache = Warm;
  }

  if (!Warm) {
    size_t DiagStart = C.getDiags().getDiagnostics().size();
    if (!C.addSources(Inv)) {
      R.Failed = CompileResult::Phase::Parse;
      return R;
    }
    if (!C.elaborate(Inv)) {
      R.Failed = CompileResult::Phase::Elaborate;
      return R;
    }
    if (Opts.CacheEnabled && !C.getDiags().hasErrors() && C.getNetlist()) {
      std::string Payload;
      if (netlist::serializeNetlist(*C.getNetlist(), C.getLibraryModules(),
                                    C.getNumUserTypeAnnotations(),
                                    C.getDiags().getDiagnosticsSince(DiagStart),
                                    Payload))
        Cache.put(CompilerInvocation::keyString(Keys.Elab), "elab", Payload);
    }
  }

  // --- Type inference, or reload the "solve" artifact. -------------------
  bool Solved = false;
  if (Opts.CacheEnabled && C.getNetlist()) {
    Solved = LookupPhase(
        Keys.Solve, "solve", SolveLookup,
        [&](std::string &Payload, std::string &Reason) {
          PhaseTimer::Scope Phase(&C.getPhaseTimer(), "cache-load");
          infer::NetlistInferenceStats IS;
          std::vector<Diagnostic> Ds;
          if (!infer::importSolution(Payload, *C.getNetlist(),
                                     C.getTypeContext(), IS, Ds, &Reason))
            return false;
          C.setInferenceStats(std::move(IS));
          C.getDiags().replay(Ds);
          return true;
        });
    R.SolutionFromCache = Solved;
  }

  if (!Solved) {
    size_t DiagStart = C.getDiags().getDiagnostics().size();
    if (!C.inferTypes(Inv)) {
      R.Failed = CompileResult::Phase::Infer;
      return R;
    }
    if (Opts.CacheEnabled && !C.getDiags().hasErrors() && C.getNetlist()) {
      std::string Payload;
      if (infer::exportSolution(*C.getNetlist(), C.getInferenceStats(),
                                C.getDiags().getDiagnosticsSince(DiagStart),
                                Payload))
        Cache.put(CompilerInvocation::keyString(Keys.Solve), "solve",
                  Payload);
    }
  }

  // --- Simulator construction. Never cached: it owns live runtime state,
  // and lowering the compiled kernel is cheaper than reloading it. -------
  if (Inv.BuildSim &&
      (!C.buildSimulator(Inv) || C.getDiags().hasErrors())) {
    R.Failed = CompileResult::Phase::SimBuild;
    return R;
  }

  R.Success = true;
  return R;
}

std::vector<CompileResult>
CompileService::compileBatch(const std::vector<CompilerInvocation> &Invs,
                             unsigned Jobs) {
  std::vector<CompileResult> Results(Invs.size());
  if (Invs.empty())
    return Results;

  if (Jobs == 0)
    Jobs = ThreadPool::getHardwareParallelism();
  Jobs = std::min<unsigned>(Jobs, unsigned(Invs.size()));

  if (Jobs <= 1) {
    for (size_t I = 0; I != Invs.size(); ++I)
      Results[I] = compile(Invs[I]);
    return Results;
  }

  ThreadPool Pool(Jobs);
  for (size_t I = 0; I != Invs.size(); ++I)
    Pool.async([this, I, &Invs, &Results] { Results[I] = compile(Invs[I]); });
  Pool.wait();
  return Results;
}
