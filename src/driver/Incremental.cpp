//===- Incremental.cpp - Dependency-tracked incremental recompilation --------===//
///
/// \file
/// CompileService::compileIncremental and the dependency-graph bookkeeping
/// behind it (docs/INCREMENTAL.md). The contract is strict: every artifact
/// an incremental compile produces (netlist, solution) is
/// byte-identical to what a cold compile of the same invocation would have
/// produced; whenever any precondition fails, the call transparently falls
/// back to the full pipeline and records why.
///
//===----------------------------------------------------------------------===//

#include "driver/CompileService.h"
#include "driver/DepGraph.h"

#include "infer/Solution.h"
#include "netlist/Serializer.h"
#include "sim/Simulator.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

using namespace liberty;
using namespace liberty::driver;

/// Copies the diagnostics emitted at index \p From onward (same helper as
/// CompileService.cpp — kept static per TU to avoid a header for one line).
static std::vector<Diagnostic> incDiagsSince(Compiler &C, size_t From) {
  const auto &All = C.getDiags().getDiagnostics();
  return std::vector<Diagnostic>(All.begin() + From, All.end());
}

void CompileService::recordIncremental(const IncrementalStats &S) {
  std::lock_guard<std::mutex> Lock(IncMutex);
  ++IncCounters.Requests;
  if (S.Used)
    ++IncCounters.Used;
  else
    ++IncCounters.Fallbacks;
  if (S.DepCacheHit)
    ++IncCounters.DepCacheHits;
  IncCounters.ModulesReelaborated += S.ModulesReelaborated;
  IncCounters.GroupsResolved += S.GroupsResolved;
  IncCounters.GroupsSpliced += S.GroupsSpliced;
}

void CompileService::storeDepGraph(const CompilerInvocation &Inv, Compiler &C,
                                   size_t DiagBase) {
  if (!Opts.CacheEnabled || C.getDiags().hasErrors())
    return;
  interp::Interpreter *Interp = C.getInterpreter();
  netlist::Netlist *NL = C.getNetlist();
  // Warm (cache-adopted) compiles have no interpreter: the previous live
  // compile already stored an up-to-date graph under the same depKey.
  if (!Interp || !NL || Interp->getBodyWindows().empty())
    return;

  DepGraph G;
  G.PrevElabKey = Inv.elabKey();
  G.PrevSolveKey = Inv.solveKey();

  for (const auto &S : Inv.Sources) {
    DepGraph::SourceDeps SD;
    SD.Name = S.Name;
    std::vector<ModuleSpan> Spans;
    if (scanModuleSpans(S.Text, Spans)) {
      SD.Scanned = true;
      SD.ResidualHash = hashResidual(S.Text, Spans);
      for (const ModuleSpan &Sp : Spans)
        SD.Modules.push_back({Sp.Name, hashModuleSpan(S.Text, Sp)});
    } else {
      SD.Scanned = false;
      FnvHasher H;
      H.field("flat", 1);
      H.str(S.Text);
      SD.ResidualHash = H.get();
    }
    G.Sources.push_back(std::move(SD));
  }

  const auto &Insts = NL->getInstances();
  G.Instances.resize(Insts.size());
  for (const auto &Entry : Interp->getBodyWindows()) {
    const netlist::InstanceNode *Node = Entry.first;
    // Diagnostic windows are stored relative to DiagBase so they index the
    // LSSNL artifact's diagnostics list and the bytes don't depend on
    // pre-pipeline notes.
    if (Node->Id >= G.Instances.size() || Entry.second.DiagBegin < DiagBase)
      return; // inconsistent — don't store a lying graph
    DepGraph::InstDep &D = G.Instances[Node->Id];
    D.ConnBegin = Entry.second.ConnBegin;
    D.ConnEnd = Entry.second.ConnEnd;
    D.DiagBegin = uint32_t(Entry.second.DiagBegin - DiagBase);
    D.DiagEnd = uint32_t(Entry.second.DiagEnd - DiagBase);
  }

  const auto &Conns = NL->getConnections();
  std::unordered_map<const netlist::Connection *, uint32_t> ConnIdx;
  ConnIdx.reserve(Conns.size());
  for (uint32_t I = 0; I != Conns.size(); ++I)
    ConnIdx[Conns[I].get()] = I;

  std::set<std::pair<std::string, std::string>> EdgeSet;
  for (const auto &InstPtr : Insts) {
    const netlist::InstanceNode *N = InstPtr.get();
    DepGraph::InstDep &D = G.Instances[N->Id];
    for (const auto &PA : N->APendingAssigns) {
      DepGraph::PendingAssignDep A;
      A.Field = PA.Field;
      A.Loc = PA.Loc;
      if (!netlist::artifactEncodeValue(PA.V, A.Value)) {
        G.Capable = false; // InstanceRef/Port parameter — not replayable
        A.Value.clear();
      }
      D.Assigns.push_back(std::move(A));
    }
    for (const auto &PC : N->APendingConns) {
      auto It = PC.Conn ? ConnIdx.find(PC.Conn) : ConnIdx.end();
      if (It == ConnIdx.end()) {
        G.Capable = false;
        continue;
      }
      DepGraph::PendingConnDep CD;
      CD.ConnIdx = It->second;
      CD.IsFrom = PC.IsFrom;
      CD.Port = PC.Port;
      CD.ExplicitIndex = PC.ExplicitIndex;
      CD.Loc = PC.Loc;
      D.Conns.push_back(std::move(CD));
    }
    if (N->Parent)
      EdgeSet.emplace(N->Parent->ModuleName, N->ModuleName);
  }
  G.Edges.assign(EdgeSet.begin(), EdgeSet.end());

  const infer::NetlistInferenceStats &IS = C.getInferenceStats();
  if (!IS.PortGroups.empty()) {
    std::map<std::string, std::set<unsigned>> MG;
    for (const auto &Entry : IS.PortGroups) {
      if (Entry.second.first < 0)
        continue;
      unsigned InstId = Entry.first.first;
      if (InstId < Insts.size())
        MG[Insts[InstId]->ModuleName].insert(unsigned(Entry.second.first));
    }
    for (auto &Entry : MG)
      G.ModuleGroups.emplace_back(
          Entry.first,
          std::vector<unsigned>(Entry.second.begin(), Entry.second.end()));
  }

  std::string Payload;
  if (serializeDepGraph(G, Payload))
    Cache.put(CompilerInvocation::keyString(Inv.depKey()), "dep", Payload);
}

CompileResult CompileService::compileIncremental(const CompilerInvocation &Inv) {
  IncrementalStats Inc;
  Inc.Attempted = true;

  auto Fallback = [&](const char *Reason) {
    Inc.Used = false;
    Inc.FallbackReason = Reason;
    CompileResult R = compile(Inv);
    R.Incremental = Inc;
    recordIncremental(R.Incremental);
    return R;
  };

  if (!Opts.CacheEnabled)
    return Fallback("cache-disabled");

  // --- Load and diff the dependency graph. -------------------------------
  std::string DepPayload;
  if (!Cache.get(CompilerInvocation::keyString(Inv.depKey()), "dep",
                 DepPayload))
    return Fallback("no-dependency-graph");
  DepGraph Old;
  if (!deserializeDepGraph(DepPayload, Old))
    return Fallback("dependency-graph-unreadable");
  Inc.DepCacheHit = true;
  if (!Old.Capable)
    return Fallback("previous-compile-not-replayable");
  if (Old.Sources.size() != Inv.Sources.size())
    return Fallback("source-set-changed");

  std::set<std::string> Dirty;      // module names whose hash changed
  std::set<std::string> AllModules; // every module name in the new text
  for (size_t I = 0; I != Inv.Sources.size(); ++I) {
    const DepGraph::SourceDeps &OldS = Old.Sources[I];
    if (OldS.Name != Inv.Sources[I].Name)
      return Fallback("source-set-changed");
    std::vector<ModuleSpan> Spans;
    if (!OldS.Scanned || !scanModuleSpans(Inv.Sources[I].Text, Spans))
      return Fallback("source-not-scannable");
    if (hashResidual(Inv.Sources[I].Text, Spans) != OldS.ResidualHash)
      return Fallback("top-level-changed");
    std::map<std::string, uint64_t> NewByName, OldByName;
    for (const ModuleSpan &S : Spans) {
      if (!NewByName.emplace(S.Name, hashModuleSpan(Inv.Sources[I].Text, S))
               .second)
        return Fallback("duplicate-module-name");
      AllModules.insert(S.Name);
    }
    for (const auto &M : OldS.Modules)
      if (!OldByName.emplace(M.Name, M.Hash).second)
        return Fallback("duplicate-module-name");
    for (const auto &Entry : NewByName) {
      auto It = OldByName.find(Entry.first);
      if (It == OldByName.end() || It->second != Entry.second)
        Dirty.insert(Entry.first);
    }
    for (const auto &Entry : OldByName)
      if (!NewByName.count(Entry.first))
        Dirty.insert(Entry.first);
  }
  Inc.ModulesTotal = unsigned(AllModules.size());
  Inc.ModulesDirty = unsigned(Dirty.size());

  // Unchanged text — or an already-seen state whose artifacts are cached —
  // is exactly what the plain warm path serves best.
  const std::string ElabKeyStr = CompilerInvocation::keyString(Inv.elabKey());
  {
    std::string Probe;
    if (Dirty.empty() || Cache.get(ElabKeyStr, "elab", Probe)) {
      Inc.FallbackReason = "already-cached";
      CompileResult R = compile(Inv);
      R.Incremental = Inc;
      recordIncremental(R.Incremental);
      return R;
    }
  }

  // --- Load the previous compile's netlist. ------------------------------
  // This read and the previous solution's below are the superseded
  // state's last: peek, so they do not promote it over reused entries.
  std::string OldElabPayload;
  if (!Cache.peek(CompilerInvocation::keyString(Old.PrevElabKey), "elab",
                  OldElabPayload))
    return Fallback("previous-netlist-missing");

  CompileResult R;
  R.C = std::make_unique<Compiler>();
  Compiler &C = *R.C;

  netlist::SerializedCompile OldSC;
  {
    PhaseTimer::Scope Phase(&C.getPhaseTimer(), "cache-load");
    OldSC = netlist::deserializeNetlist(OldElabPayload, C.getTypeContext());
  }
  if (!OldSC.NL) {
    R.C.reset();
    return Fallback("previous-netlist-unreadable");
  }
  netlist::Netlist &OldNL = *OldSC.NL;
  const auto &OldInsts = OldNL.getInstances();
  const auto &OldConns = OldNL.getConnections();
  if (Old.Instances.size() != OldInsts.size() || OldInsts.empty()) {
    R.C.reset();
    return Fallback("dependency-graph-stale");
  }
  for (const DepGraph::InstDep &D : Old.Instances) {
    if (D.ConnBegin > D.ConnEnd || D.ConnEnd > OldConns.size() ||
        D.DiagBegin > D.DiagEnd || D.DiagEnd > OldSC.Diags.size()) {
      R.C.reset();
      return Fallback("dependency-graph-stale");
    }
    for (const DepGraph::PendingConnDep &PC : D.Conns)
      if (PC.ConnIdx >= OldConns.size()) {
        R.C.reset();
        return Fallback("dependency-graph-stale");
      }
  }

  // --- The replay plan. --------------------------------------------------
  // PlanOldId: new clean-module instances scheduled for replay -> the old
  // instance whose body they reuse. Filled as replayed parents re-create
  // their children; consulted by the hook when each body's turn comes.
  std::unordered_map<const netlist::InstanceNode *, uint32_t> PlanOldId;
  // Old instance id -> new node, for every old instance re-created so far
  // (clean AND dirty: dirty shells still map 1:1, only their subtrees
  // diverge). Used to retarget cloned connection endpoints.
  std::vector<netlist::InstanceNode *> OldToNew(OldInsts.size(), nullptr);
  // Old instance id -> new id, for instances whose bodies were REPLAYED
  // (so their constraints are guaranteed unchanged) — the translation the
  // splice oracle uses. -1 everywhere else.
  std::vector<int> OldIdToNewReplayed(OldInsts.size(), -1);
  std::vector<netlist::Connection *> ConnMap(OldConns.size(), nullptr);
  bool ReplayFailed = false;
  unsigned InstancesSpliced = 0;

  auto ReplayBody = [&](netlist::InstanceNode *N, uint32_t OldId) {
    interp::Interpreter *Interp = C.getInterpreter();
    netlist::Netlist *NL = Interp->getNetlistUnderConstruction();
    const netlist::InstanceNode *O = OldInsts[OldId].get();
    const DepGraph::InstDep &W = Old.Instances[OldId];
    OldToNew[OldId] = N;
    OldIdToNewReplayed[OldId] = int(N->Id);

    // The body's own products, straight from the old node. Types (port
    // schemes, param/var values) live in C's TypeContext because the old
    // netlist was deserialized into it; dense node offsets are NOT
    // copied — the new netlist's freezeIds() renumbers after elaboration.
    N->BehaviorId = O->BehaviorId;
    N->Params = O->Params;
    N->Events = O->Events;
    N->RuntimeVars = O->RuntimeVars;
    N->ExtraConstraints = O->ExtraConstraints;
    N->NumTypeVars = O->NumTypeVars;
    N->Ports = O->Ports;
    for (netlist::Port &P : N->Ports) {
      P.Resolved = nullptr; // elab artifacts precede inference
      P.InferVar = nullptr;
      P.NodeOffset = 0;
    }
    for (const auto &Entry : O->Userpoints) {
      netlist::UserpointValue UV;
      UV.Code = Entry.second.Code;
      UV.Loc = Entry.second.Loc;
      UV.IsDefault = Entry.second.IsDefault;
      if (Entry.second.Sig) {
        std::vector<std::string> Args;
        for (const auto &A : Entry.second.Sig->Args)
          Args.push_back(A.first);
        UV.Sig = NL->createUserpointSig(std::move(Args));
      }
      N->Userpoints.emplace(Entry.first, std::move(UV));
    }

    // Clone the body's connection window in creation order (connection ids
    // are a separate sequence from instance ids, so cloning them first
    // preserves both creation orders exactly).
    for (uint32_t CI = W.ConnBegin; CI != W.ConnEnd; ++CI) {
      const netlist::Connection *OC = OldConns[CI].get();
      netlist::Connection *NC = NL->createConnection(OC->Loc);
      NC->Annotation = OC->Annotation;
      ConnMap[CI] = NC;
    }

    // Re-create the child shells in creation order. replayChild pushes
    // them on the instantiation stack exactly as an `instance` statement
    // would, so body scheduling matches a cold elaboration.
    for (const netlist::InstanceNode *OChild : O->Children) {
      if (size_t(OChild->Id) >= Old.Instances.size()) {
        ReplayFailed = true;
        return;
      }
      netlist::InstanceNode *NChild =
          Interp->replayChild(N, OChild->Name, OChild->ModuleName, OChild->Loc);
      if (!NChild) { // unknown module (or instance cap) — bail out
        ReplayFailed = true;
        return;
      }
      OldToNew[OChild->Id] = NChild;
      if (!Dirty.count(OChild->ModuleName))
        PlanOldId.emplace(NChild, uint32_t(OChild->Id));
      // Attach the A-context this body pushed on the child. Consumed stays
      // false either way: replayed child bodies never run the
      // leftover-pending checks, and a dirty child consumes these live.
      const DepGraph::InstDep &CD = Old.Instances[OChild->Id];
      for (const DepGraph::PendingAssignDep &A : CD.Assigns) {
        netlist::PendingAssign PA;
        PA.Field = A.Field;
        PA.Loc = A.Loc;
        if (!netlist::artifactDecodeValue(A.Value, PA.V)) {
          ReplayFailed = true;
          return;
        }
        NChild->APendingAssigns.push_back(std::move(PA));
      }
      for (const DepGraph::PendingConnDep &PC : CD.Conns) {
        if (!ConnMap[PC.ConnIdx]) {
          ReplayFailed = true;
          return;
        }
        netlist::PendingConn NPC;
        NPC.Conn = ConnMap[PC.ConnIdx];
        NPC.IsFrom = PC.IsFrom;
        NPC.Port = PC.Port;
        NPC.ExplicitIndex = int(PC.ExplicitIndex);
        NPC.Loc = PC.Loc;
        NChild->APendingConns.push_back(std::move(NPC));
      }
    }

    // Fill the cloned connections' endpoints. Self endpoints and endpoints
    // on clean children copy the old resolution; endpoints on dirty
    // children stay unfilled — exactly the mid-elaboration state a cold
    // compile would be in — and the pending records attached above let the
    // dirty child's live body resolve them.
    for (uint32_t CI = W.ConnBegin; CI != W.ConnEnd; ++CI) {
      const netlist::Connection *OC = OldConns[CI].get();
      netlist::Connection *NC = ConnMap[CI];
      auto FillEnd = [&](const netlist::PortRef &OR, netlist::PortRef &NR) {
        if (!OR.Inst)
          return true; // never resolved in the previous compile either
        if (OR.Inst == O) {
          NR.Inst = N;
        } else if (OR.Inst->Parent == O) {
          netlist::InstanceNode *NChild = OldToNew[OR.Inst->Id];
          if (!NChild)
            return false;
          if (Dirty.count(OR.Inst->ModuleName))
            return true; // the dirty child's live body resolves this end
          NR.Inst = NChild;
        } else {
          return false; // endpoint escapes this body's scope — stale graph
        }
        NR.Port = OR.Port;
        NR.Index = OR.Index;
        NR.PortIdx = -1;
        return true;
      };
      if (!FillEnd(OC->From, NC->From) || !FillEnd(OC->To, NC->To)) {
        ReplayFailed = true;
        return;
      }
    }

    // Replay the diagnostics this body emitted (warnings/notes only —
    // error-free compiles are the only ones cached).
    for (uint32_t DI = W.DiagBegin; DI != W.DiagEnd; ++DI) {
      const Diagnostic &D = OldSC.Diags[DI];
      if (D.Level == DiagLevel::Warning)
        C.getDiags().warning(D.Loc, D.Message);
      else if (D.Level == DiagLevel::Note)
        C.getDiags().note(D.Loc, D.Message);
    }
    ++InstancesSpliced;
  };

  C.setReplayHook([&](netlist::InstanceNode *N) {
    // After any replay failure the whole elaboration is discarded; keep
    // skipping bodies (returning true) so no time is wasted evaluating.
    if (ReplayFailed)
      return true;
    uint32_t OldId;
    if (!N->Parent) {
      OldId = 0; // the synthetic root replays the residual (unchanged) text
    } else {
      auto It = PlanOldId.find(N);
      if (It == PlanOldId.end())
        return false; // dirty module (or child of one): evaluate live
      OldId = It->second;
    }
    ReplayBody(N, OldId);
    return true;
  });

  // --- Parse everything, elaborate with replay. --------------------------
  size_t DiagStart = C.getDiags().getDiagnostics().size();
  if (!C.addSources(Inv)) {
    R.C.reset();
    return Fallback("parse-error"); // cold diagnostics are authoritative
  }
  if (!C.elaborate(Inv) || ReplayFailed || C.getDiags().hasErrors()) {
    R.C.reset();
    return Fallback(ReplayFailed ? "replay-failed" : "elaborate-error");
  }

  netlist::Netlist *NL = C.getNetlist();
  Inc.InstancesTotal = unsigned(NL->getInstances().size());
  Inc.InstancesSpliced = InstancesSpliced;
  Inc.InstancesReelaborated = Inc.InstancesTotal - InstancesSpliced;
  {
    std::set<std::string> LiveModules;
    for (const auto &I : NL->getInstances())
      if (I->Parent && !PlanOldId.count(I.get()))
        LiveModules.insert(I->ModuleName);
    Inc.ModulesReelaborated = unsigned(LiveModules.size());
  }

  {
    std::string Payload;
    if (netlist::serializeNetlist(*NL, C.getLibraryModules(),
                                  C.getNumUserTypeAnnotations(),
                                  incDiagsSince(C, DiagStart), Payload))
      Cache.put(ElabKeyStr, "elab", Payload);
  }

  // --- Solve, splicing the previous solution's untouched groups. ---------
  // Import the previous solution against the OLD netlist: its group member
  // sets (old instance ids), per-group statistics, and per-port resolved
  // types + defaulting counts are the splice source.
  infer::NetlistInferenceStats OldIS;
  bool HaveOldSolution = false;
  {
    std::string Payload;
    std::vector<Diagnostic> Ds;
    if (Cache.peek(CompilerInvocation::keyString(Old.PrevSolveKey), "solve",
                   Payload)) {
      PhaseTimer::Scope Phase(&C.getPhaseTimer(), "cache-load");
      if (infer::importSolution(Payload, OldNL, C.getTypeContext(), OldIS,
                                Ds) &&
          !OldIS.Solve.GroupMembers.empty() && !OldIS.PortGroups.empty())
        HaveOldSolution = true;
    }
  }

  // Old group member set -> old group index. Identity of a group across
  // compiles is its member-instance-id SET (group indices are not stable
  // under re-partitioning); duplicate sets are ambiguous and never splice.
  std::map<std::vector<unsigned>, int> OldGroupBySet;
  std::set<std::vector<unsigned>> AmbiguousSets;
  if (HaveOldSolution)
    for (size_t G = 0; G != OldIS.Solve.GroupMembers.size(); ++G) {
      const std::vector<unsigned> &M = OldIS.Solve.GroupMembers[G];
      if (M.empty())
        continue;
      if (!OldGroupBySet.emplace(M, int(G)).second)
        AmbiguousSets.insert(M);
    }

  // New instance id -> old instance id, for replayed (constraint-identical)
  // instances only.
  std::vector<int> NewIdToOld(NL->getInstances().size(), -1);
  for (size_t I = 0; I != OldIdToNewReplayed.size(); ++I)
    if (OldIdToNewReplayed[I] >= 0 &&
        size_t(OldIdToNewReplayed[I]) < NewIdToOld.size())
      NewIdToOld[OldIdToNewReplayed[I]] = int(I);

  infer::NetlistSpliceHooks Hooks;
  Hooks.Oracle = [&](unsigned, const std::vector<unsigned> &Members,
                     infer::GroupStats &Out) {
    if (Members.empty())
      return false;
    std::vector<unsigned> OldMembers;
    OldMembers.reserve(Members.size());
    for (unsigned NewId : Members) {
      int OldId = NewId < NewIdToOld.size() ? NewIdToOld[NewId] : -1;
      if (OldId < 0)
        return false; // touches a re-elaborated instance: search live
      OldMembers.push_back(unsigned(OldId));
    }
    std::sort(OldMembers.begin(), OldMembers.end());
    OldMembers.erase(std::unique(OldMembers.begin(), OldMembers.end()),
                     OldMembers.end());
    if (AmbiguousSets.count(OldMembers))
      return false;
    auto It = OldGroupBySet.find(OldMembers);
    if (It == OldGroupBySet.end())
      return false; // partitioning changed around these instances
    Out = OldIS.Solve.Groups[It->second];
    return true;
  };
  Hooks.Port = [&](unsigned InstId, unsigned PortIdx,
                   infer::PortSpliceData &Out) {
    int OldId = InstId < NewIdToOld.size() ? NewIdToOld[InstId] : -1;
    if (OldId < 0)
      return false;
    const netlist::InstanceNode *O = OldInsts[OldId].get();
    if (PortIdx >= O->Ports.size() || !O->Ports[PortIdx].Resolved)
      return false;
    auto It = OldIS.PortGroups.find({unsigned(OldId), PortIdx});
    if (It == OldIS.PortGroups.end())
      return false;
    Out.Resolved = O->Ports[PortIdx].Resolved;
    Out.NumDefaulted = It->second.second;
    return true;
  };

  {
    size_t SolveDiagStart = C.getDiags().getDiagnostics().size();
    if (!C.inferTypes(Inv, HaveOldSolution ? &Hooks : nullptr)) {
      R.Failed = CompileResult::Phase::Infer;
      R.Incremental = Inc;
      recordIncremental(R.Incremental);
      return R;
    }
    if (C.getInferenceStats().SpliceBroken) {
      // A spliced group's per-port record was missing: the netlist's
      // resolved types are incomplete and cannot be repaired in place.
      R.C.reset();
      return Fallback("splice-record-missing");
    }
    if (!C.getDiags().hasErrors()) {
      std::string Payload;
      if (infer::exportSolution(*NL, C.getInferenceStats(),
                                incDiagsSince(C, SolveDiagStart), Payload))
        Cache.put(CompilerInvocation::keyString(Inv.solveKey()), "solve",
                  Payload);
    }
  }

  const infer::SolveStats &SS = C.getInferenceStats().Solve;
  Inc.GroupsTotal = unsigned(SS.Groups.size());
  for (size_t G = 0; G != SS.GroupSpliced.size(); ++G)
    if (SS.GroupSpliced[G])
      ++Inc.GroupsSpliced;
  Inc.GroupsResolved = Inc.GroupsTotal - Inc.GroupsSpliced;

  // --- Simulator construction — identical to compile()'s. ---------------
  if (Inv.BuildSim &&
      (!C.buildSimulator(Inv) || C.getDiags().hasErrors())) {
    R.Failed = CompileResult::Phase::SimBuild;
    R.Incremental = Inc;
    recordIncremental(R.Incremental);
    return R;
  }

  storeDepGraph(Inv, C, DiagStart);

  Inc.Used = true;
  R.Incremental = Inc;
  recordIncremental(R.Incremental);
  R.Success = true;
  return R;
}
