//===- CompilerInvocation.cpp - One compile, as a value ----------------------===//

#include "driver/CompilerInvocation.h"

#include "corelib/CoreLib.h"
#include "support/Hash.h"
#include "support/SourceMgr.h"

#include <fstream>
#include <sstream>

using namespace liberty;
using namespace liberty::driver;

bool CompilerInvocation::addFile(const std::string &Path, std::string *Error) {
  std::ifstream In(Path);
  if (!In) {
    if (Error)
      *Error = "cannot open file '" + Path + "'";
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  addSource(Path, SS.str());
  return true;
}

void CompilerInvocation::registerBuffers(SourceMgr &SM) const {
  if (UseCoreLibrary)
    SM.addBuffer("<corelib>", corelib::getCoreLibraryLss());
  for (const Source &S : Sources)
    SM.addBuffer(S.Name, S.Text);
}

/// Bump when any cached artifact format (LSSNL/LSSSOL/LSSART) or
/// the key contract changes: stale on-disk entries then simply miss.
/// v2: elabKey became a Merkle fold over per-module spans, LSSSOL gained
/// v3 records, and serialized type variables are renamed to first-use
/// ordinals. v3: LSSNL 3 (the summary record), and the core library
/// enters elabKey as its hash. v4: each source text enters elabKey as one
/// flat hash instead of a fold over its module spans. A change that also
/// bumps the artifact's own header (LSSSOL 4 dropped the thread count,
/// LSSSOL 5 the H3 group records) needs no bump here: the reader rejects
/// the old header, so a stale entry misses and is rewritten.
static constexpr uint64_t CacheFormatVersion = 4;

/// The core library text is a build-time constant, so it is hashed once
/// per process rather than once per key.
static uint64_t coreLibraryHash() {
  static const uint64_t Hash = [] {
    FnvHasher H;
    H.str(corelib::getCoreLibraryLss());
    return H.get();
  }();
  return Hash;
}

uint64_t CompilerInvocation::elabKey() const {
  FnvHasher H;
  H.field("fmt", CacheFormatVersion);
  H.field("corelib", UseCoreLibrary ? 1 : 0);
  if (UseCoreLibrary)
    H.num(coreLibraryHash());
  H.field("sources", Sources.size());
  // Names excluded: content-addressed (see header). Each text is hashed
  // once, whole.
  for (const Source &S : Sources)
    H.str(S.Text);
  H.field("elab.maxsteps", Elab.MaxSteps);
  H.field("elab.maxinstances", Elab.MaxInstances);
  return H.get();
}

uint64_t CompilerInvocation::solveKey() const { return solveKey(elabKey()); }

uint64_t CompilerInvocation::solveKey(uint64_t ElabKey) const {
  FnvHasher H;
  H.field("elab", ElabKey);
  H.field("solve.reorder", Solve.ReorderSimpleFirst ? 1 : 0);
  H.field("solve.forced", Solve.ForcedDisjunctElimination ? 1 : 0);
  H.field("solve.partition", Solve.Partition ? 1 : 0);
  // NumThreads, MaxSteps, DeadlineMs excluded by contract (see header).
  return H.get();
}

std::string CompilerInvocation::keyString(uint64_t Key) { return hex64(Key); }
