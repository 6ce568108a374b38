//===- Solution.cpp - Stable inference-solution round-trip -------------------===//

#include "infer/Solution.h"

#include "support/FaultInjection.h"

#include "netlist/Netlist.h"
#include "netlist/Serializer.h"
#include "types/Type.h"
#include "types/TypeContext.h"
#include "types/TypeIO.h"

#include <cstdint>
#include <map>
#include <sstream>

using namespace liberty;
using namespace liberty::infer;

bool liberty::infer::exportSolution(const netlist::Netlist &NL,
                                    const NetlistInferenceStats &Stats,
                                    const std::vector<Diagnostic> &Diags,
                                    std::string &Out) {
  if (faultShouldFail("serialize.solution"))
    return false;
  netlist::ArtifactStrTableBuilder Tab;
  std::ostringstream OS;
  const SolveStats &S = Stats.Solve;
  OS << "stats " << (S.Success ? 1 : 0) << ' ' << (S.HitLimit ? 1 : 0) << ' '
     << (S.HitDeadline ? 1 : 0) << ' ' << S.UnifySteps << ' '
     << S.BranchPoints << ' ' << S.NumConstraints << ' ' << S.NumDisjunctive
     << ' ' << S.NumComponents << ' ' << S.NumUnsolved << '\n';
  OS << "nstats " << Stats.NumPorts << ' ' << Stats.NumPolymorphicPorts << ' '
     << Stats.NumDefaulted << '\n';
  // The per-group wall time is written as zero (the bits of 0.0): only a
  // time-free artifact is byte-identical across runs of the same solve.
  for (const GroupStats &G : S.Groups)
    OS << "group " << G.NumConstraints << ' ' << G.UnifySteps << ' '
       << G.BranchPoints << ' ' << hex64(0) << ' ' << (G.Success ? 1 : 0)
       << ' ' << (G.HitLimit ? 1 : 0) << ' ' << (G.HitDeadline ? 1 : 0)
       << '\n';
  for (const Diagnostic &D : Diags) {
    if (D.Level == DiagLevel::Error)
      return false; // Failed solves are never cached.
    OS << "diag " << (D.Level == DiagLevel::Warning ? 1 : 0) << ' '
       << D.Loc.BufferId << ' ' << D.Loc.Offset << ' ' << Tab.tok(D.Message)
       << '\n';
  }
  const auto &Instances = NL.getInstances();
  for (size_t I = 0; I != Instances.size(); ++I) {
    const auto &Ports = Instances[I]->Ports;
    for (size_t P = 0; P != Ports.size(); ++P) {
      if (!Ports[P].Resolved)
        continue;
      OS << "p " << I << ' ' << P << ' ' << Tab.tok(Ports[P].Resolved->str())
         << '\n';
    }
  }
  OS << "end\n";
  Out = Tab.finish("LSSSOL 5", OS.str());
  return true;
}

/// The "stats" record in \p L.
static bool readStatsRecord(const netlist::ArtifactLineReader &L,
                            SolveStats &S) {
  return L.size() == 10 && L.raw(0) == "stats" && L.boolean(1, S.Success) &&
         L.boolean(2, S.HitLimit) && L.boolean(3, S.HitDeadline) &&
         L.u64(4, S.UnifySteps) && L.u64(5, S.BranchPoints) &&
         L.u32(6, S.NumConstraints) && L.u32(7, S.NumDisjunctive) &&
         L.u32(8, S.NumComponents) && L.u32(9, S.NumUnsolved);
}

/// The "diag" record in \p L, its message decoded through \p Str.
template <typename StrFn>
static bool readDiagRecord(const netlist::ArtifactLineReader &L,
                           const StrFn &Str, Diagnostic &D) {
  uint64_t Level;
  if (L.size() != 5 || !L.u64(1, Level) || Level > 1 || !L.loc(2, D.Loc) ||
      !Str(4, D.Message))
    return false;
  D.Level = Level == 1 ? DiagLevel::Warning : DiagLevel::Note;
  return true;
}

bool liberty::infer::readSolutionSummary(std::string_view Text,
                                         SolutionSummary &Out,
                                         std::string *Error) {
  auto Fail = [&] {
    if (Error && Error->empty())
      *Error = "malformed";
    return false;
  };
  if (Error)
    Error->clear();
  if (faultShouldFail("deserialize.solution"))
    return Fail();
  netlist::ArtifactReader R(Text);
  std::vector<std::string_view> Strtab;
  if (!R.readHeader("LSSSOL 5", Error) || !R.readRawStrtab(Strtab))
    return Fail();

  SolutionSummary S;
  netlist::ArtifactLineReader L;
  auto Str = [&](size_t I, std::string &Msg) {
    uint32_t Id;
    return L.u32(I, Id) && Id < Strtab.size() &&
           netlist::artifactUnescape(Strtab[Id], Msg);
  };
  if (!R.next(L) || !readStatsRecord(L, S.Solve))
    return Fail();
  for (;;) {
    if (!R.next(L) || L.size() == 0)
      return Fail();
    std::string_view Kind = L.raw(0);
    if (Kind == "diag") {
      Diagnostic D;
      if (!readDiagRecord(L, Str, D))
        return Fail();
      S.Diags.push_back(std::move(D));
    } else if (Kind == "p" || L.isEnd()) {
      // The "p" records are skipped, but the text must still close with
      // its "end" line, so every truncation is rejected as the full reader
      // rejects it.
      if (L.isEnd() ? !R.atEnd() : !R.endsWithEndLine())
        return Fail();
      break;
    } else if (Kind != "nstats" && Kind != "group") {
      return Fail();
    }
  }
  Out = std::move(S);
  return true;
}

bool liberty::infer::importSolution(const std::string &Text,
                                    netlist::Netlist &NL,
                                    types::TypeContext &TC,
                                    NetlistInferenceStats &StatsOut,
                                    std::vector<Diagnostic> &DiagsOut,
                                    std::string *Error) {
  auto Fail = [&] {
    if (Error && Error->empty())
      *Error = "malformed";
    return false;
  };
  if (Error)
    Error->clear();
  if (faultShouldFail("deserialize.solution"))
    return Fail();
  netlist::ArtifactReader R(Text);
  std::vector<std::string> Strtab;
  if (!R.readHeader("LSSSOL 5", Error) || !R.readStrtab(Strtab))
    return Fail();

  NetlistInferenceStats Stats;
  std::vector<Diagnostic> Diags;
  // Resolved types are staged and committed only once the whole artifact
  // parsed, so a truncated entry cannot leave the netlist half-typed.
  std::vector<std::pair<netlist::Port *, const types::Type *>> Resolved;
  std::map<std::string, const types::Type *> VarMap;
  const auto &Instances = NL.getInstances();
  bool SawP = false, SawEnd = false;
  std::pair<uint64_t, uint64_t> LastPort;

  netlist::ArtifactLineReader L;
  auto Str = [&](size_t I, std::string &Msg) { return L.str(I, Strtab, Msg); };
  if (!R.next(L) || !readStatsRecord(L, Stats.Solve))
    return Fail();
  while (R.next(L)) {
    if (L.size() == 0)
      return Fail();
    std::string_view Kind = L.raw(0);
    if (L.isEnd()) {
      SawEnd = true;
      break;
    } else if (SawP && Kind != "p") {
      return Fail(); // Only "p" records follow the first one.
    } else if (Kind == "nstats") {
      if (L.size() != 4 || !L.u32(1, Stats.NumPorts) ||
          !L.u32(2, Stats.NumPolymorphicPorts) ||
          !L.u32(3, Stats.NumDefaulted))
        return Fail();
    } else if (Kind == "group") {
      GroupStats G;
      if (L.size() != 8 || !L.u32(1, G.NumConstraints) ||
          !L.u64(2, G.UnifySteps) || !L.u64(3, G.BranchPoints) ||
          !L.dbl(4, G.WallMs) || !L.boolean(5, G.Success) ||
          !L.boolean(6, G.HitLimit) || !L.boolean(7, G.HitDeadline))
        return Fail();
      Stats.Solve.Groups.push_back(G);
    } else if (Kind == "diag") {
      Diagnostic D;
      if (!readDiagRecord(L, Str, D))
        return Fail();
      Diags.push_back(std::move(D));
    } else if (Kind == "p") {
      uint64_t InstIdx, PortIdx;
      std::string TypeText;
      if (L.size() != 4 || !L.u64(1, InstIdx) || !L.u64(2, PortIdx) ||
          !L.str(3, Strtab, TypeText))
        return Fail();
      if (InstIdx >= Instances.size() ||
          PortIdx >= Instances[InstIdx]->Ports.size())
        return Fail();
      // Ports come in increasing (instance, port) order.
      auto Key = std::make_pair(InstIdx, PortIdx);
      if (SawP && !(LastPort < Key))
        return Fail();
      LastPort = Key;
      SawP = true;
      const types::Type *T = types::parseTypeText(TypeText, TC, VarMap);
      if (!T)
        return Fail();
      Resolved.emplace_back(&Instances[InstIdx]->Ports[PortIdx], T);
    } else {
      return Fail();
    }
  }
  if (!SawEnd || !R.atEnd())
    return Fail();

  for (auto &[P, T] : Resolved)
    P->Resolved = T;
  StatsOut = std::move(Stats);
  DiagsOut = std::move(Diags);
  return true;
}
