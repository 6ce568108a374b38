//===- DepGraph.cpp - Compile dependency graph artifact ----------------------===//

#include "driver/DepGraph.h"

#include "netlist/Serializer.h"
#include "support/FaultInjection.h"

#include <cctype>
#include <sstream>

using namespace liberty;
using namespace liberty::driver;

//===----------------------------------------------------------------------===//
// Module-boundary scanning
//===----------------------------------------------------------------------===//

static bool isIdentChar(char C) {
  return std::isalnum((unsigned char)C) || C == '_';
}

bool liberty::driver::scanModuleSpans(const std::string &Text,
                                      std::vector<ModuleSpan> &Out) {
  Out.clear();
  size_t I = 0, N = Text.size();
  int Depth = 0;
  size_t SpanBegin = 0;
  std::string SpanName;
  bool InModule = false;

  while (I < N) {
    char C = Text[I];
    // Comments.
    if (C == '/' && I + 1 < N && Text[I + 1] == '/') {
      while (I < N && Text[I] != '\n')
        ++I;
      continue;
    }
    if (C == '/' && I + 1 < N && Text[I + 1] == '*') {
      size_t End = Text.find("*/", I + 2);
      if (End == std::string::npos)
        return false; // Unterminated block comment.
      I = End + 2;
      continue;
    }
    // String literals. An apostrophe is a type-variable marker in LSS,
    // not a quote, so only '"' opens a string.
    if (C == '"') {
      ++I;
      while (I < N && Text[I] != '"') {
        if (Text[I] == '\\')
          ++I;
        ++I;
      }
      if (I >= N)
        return false; // Unterminated string.
      ++I;
      continue;
    }
    if (C == '{') {
      ++Depth;
      ++I;
      continue;
    }
    if (C == '}') {
      if (--Depth < 0)
        return false; // Unbalanced braces.
      ++I;
      if (Depth == 0 && InModule) {
        // The decl-terminating ';' (`module m { ... };`) belongs to the
        // span: left in the residual it would be a token whose offset
        // shifts whenever the body grows, turning every in-body edit into
        // a spurious "top-level-changed" fallback. The terminator is
        // optional in the grammar, so only a ';' actually found (across
        // whitespace; a comment in between conservatively ends the span
        // at the brace) extends the span.
        size_t J = I;
        while (J < N && std::isspace((unsigned char)Text[J]))
          ++J;
        if (J < N && Text[J] == ';')
          I = J + 1;
        Out.push_back({SpanName, SpanBegin, I});
        InModule = false;
      }
      continue;
    }
    // Top-level `module NAME {`: the span runs from the keyword through
    // the matching close brace (plus the optional ';' terminator, see
    // above). Anything that does not complete the pattern stays residual
    // text (safe: hashing still covers every byte).
    if (Depth == 0 && C == 'm' && Text.compare(I, 6, "module") == 0 &&
        (I == 0 || !isIdentChar(Text[I - 1])) &&
        (I + 6 >= N || !isIdentChar(Text[I + 6]))) {
      size_t J = I + 6;
      while (J < N && std::isspace((unsigned char)Text[J]))
        ++J;
      size_t NameStart = J;
      while (J < N && isIdentChar(Text[J]))
        ++J;
      if (J > NameStart) {
        size_t K = J;
        while (K < N && std::isspace((unsigned char)Text[K]))
          ++K;
        if (K < N && Text[K] == '{') {
          InModule = true;
          SpanBegin = I;
          SpanName = Text.substr(NameStart, J - NameStart);
          I = J; // Resume before the '{' so the depth counter sees it.
          continue;
        }
      }
      I = J;
      continue;
    }
    ++I;
  }
  if (Depth != 0 || InModule)
    return false;
  return true;
}

uint64_t liberty::driver::hashModuleSpan(const std::string &Text,
                                         const ModuleSpan &S) {
  FnvHasher H;
  H.field("mod.off", S.Begin);
  H.str(S.Name);
  H.num(S.End - S.Begin);
  H.bytes(Text.data() + S.Begin, S.End - S.Begin);
  return H.get();
}

uint64_t liberty::driver::hashResidual(const std::string &Text,
                                       const std::vector<ModuleSpan> &Spans) {
  FnvHasher H;
  size_t Pos = 0;
  auto Slice = [&](size_t Begin, size_t End) {
    if (Begin >= End)
      return;
    // A pure-whitespace slice carries no tokens, so no SourceLocs: its
    // offset cannot affect any serialized artifact and is not folded.
    // (The trailing newline after a module must not read as a top-level
    // change just because the module body grew.) Token-bearing slices
    // fold their offset — a shifted top-level statement serializes
    // different SourceLocs even when its bytes are unchanged.
    bool AllSpace = true;
    for (size_t I = Begin; I != End && AllSpace; ++I)
      AllSpace = std::isspace(static_cast<unsigned char>(Text[I]));
    if (AllSpace)
      H.field("res.ws", 0);
    else
      H.field("res.off", Begin);
    H.num(End - Begin);
    H.bytes(Text.data() + Begin, End - Begin);
  };
  for (const ModuleSpan &S : Spans) {
    Slice(Pos, S.Begin);
    Pos = S.End;
  }
  Slice(Pos, Text.size());
  return H.get();
}

//===----------------------------------------------------------------------===//
// LSSDEP serialization
//===----------------------------------------------------------------------===//

bool liberty::driver::serializeDepGraph(const DepGraph &G, std::string &Out) {
  if (faultShouldFail("serialize.dep"))
    return false; // Injected failure: the graph just isn't cached.
  using netlist::artifactEscape;
  auto Opt = [](const std::string &S) {
    return S.empty() ? std::string("-") : artifactEscape(S);
  };
  std::ostringstream OS;
  OS << "LSSDEP 2\n";
  OS << "prev " << hex64(G.PrevElabKey) << ' ' << hex64(G.PrevSolveKey)
     << '\n';
  OS << "capable " << (G.Capable ? 1 : 0) << '\n';
  OS << "nsrc " << G.Sources.size() << '\n';
  for (const DepGraph::SourceDeps &S : G.Sources) {
    OS << "src " << artifactEscape(S.Name) << ' ' << (S.Scanned ? 1 : 0)
       << ' ' << hex64(S.ResidualHash) << ' ' << S.Modules.size() << '\n';
    for (const DepGraph::ModuleDep &M : S.Modules)
      OS << "m " << artifactEscape(M.Name) << ' ' << hex64(M.Hash) << '\n';
  }
  OS << "ninst " << G.Instances.size() << '\n';
  for (size_t I = 0; I != G.Instances.size(); ++I) {
    const DepGraph::InstDep &D = G.Instances[I];
    OS << "i " << D.ConnBegin << ' ' << D.ConnEnd << ' ' << D.DiagBegin
       << ' ' << D.DiagEnd << ' ' << D.Assigns.size() << ' '
       << D.Conns.size() << '\n';
    for (const DepGraph::PendingAssignDep &A : D.Assigns)
      OS << "a " << artifactEscape(A.Field) << ' ' << Opt(A.Value) << ' '
         << A.Loc.BufferId << ' ' << A.Loc.Offset << '\n';
    for (const DepGraph::PendingConnDep &C : D.Conns)
      OS << "c " << C.ConnIdx << ' ' << (C.IsFrom ? 1 : 0) << ' '
         << artifactEscape(C.Port) << ' ' << C.ExplicitIndex << ' '
         << C.Loc.BufferId << ' ' << C.Loc.Offset << '\n';
  }
  OS << "end\n";
  Out = OS.str();
  return true;
}

bool liberty::driver::deserializeDepGraph(const std::string &Text,
                                          DepGraph &Out) {
  if (faultShouldFail("deserialize.dep"))
    return false; // Injected failure: treated as a cache miss.
  Out = DepGraph();
  netlist::ArtifactReader R(Text);
  if (!R.readHeader("LSSDEP 2"))
    return false;

  // State for the record-at-a-time parse: which sub-records are pending.
  size_t SrcRemaining = 0, ModRemaining = 0, InstRemaining = 0;
  size_t AssignRemaining = 0, ConnRemaining = 0;
  bool SawPrev = false, SawCapable = false, SawNsrc = false;
  bool SawNinst = false;

  bool SawEnd = false;
  netlist::ArtifactLineReader L;
  while (R.next(L)) {
    if (L.size() == 0)
      return false;
    std::string_view Kind = L.raw(0);

    if (L.isEnd()) {
      SawEnd = true;
      break;
    }
    if (Kind == "prev") {
      uint64_t E, S;
      if (SawPrev || L.size() != 3 || !L.hex(1, E) || !L.hex(2, S))
        return false;
      Out.PrevElabKey = E;
      Out.PrevSolveKey = S;
      SawPrev = true;
    } else if (Kind == "capable") {
      if (SawCapable || L.size() != 2 || !L.boolean(1, Out.Capable))
        return false;
      SawCapable = true;
    } else if (Kind == "nsrc") {
      uint32_t N;
      if (SawNsrc || L.size() != 2 || !L.u32(1, N) || N > 1u << 20)
        return false;
      SrcRemaining = N;
      Out.Sources.reserve(N);
      SawNsrc = true;
    } else if (Kind == "src") {
      uint32_t NMods;
      DepGraph::SourceDeps S;
      if (!SrcRemaining || ModRemaining || L.size() != 5 ||
          !L.escaped(1, S.Name) || !L.boolean(2, S.Scanned) ||
          !L.hex(3, S.ResidualHash) || !L.u32(4, NMods) || NMods > 1u << 20)
        return false;
      S.Modules.reserve(NMods);
      Out.Sources.push_back(std::move(S));
      ModRemaining = NMods;
      --SrcRemaining;
    } else if (Kind == "m") {
      DepGraph::ModuleDep M;
      if (!ModRemaining || L.size() != 3 || !L.escaped(1, M.Name) ||
          !L.hex(2, M.Hash))
        return false;
      Out.Sources.back().Modules.push_back(std::move(M));
      --ModRemaining;
    } else if (Kind == "ninst") {
      uint32_t N;
      if (SawNinst || SrcRemaining || ModRemaining || L.size() != 2 ||
          !L.u32(1, N) || N > 1u << 26)
        return false;
      InstRemaining = N;
      Out.Instances.reserve(N);
      SawNinst = true;
    } else if (Kind == "i") {
      DepGraph::InstDep D;
      uint32_t NA, NC;
      if (!InstRemaining || AssignRemaining || ConnRemaining ||
          L.size() != 7 || !L.u32(1, D.ConnBegin) || !L.u32(2, D.ConnEnd) ||
          !L.u32(3, D.DiagBegin) || !L.u32(4, D.DiagEnd) || !L.u32(5, NA) ||
          !L.u32(6, NC) || D.ConnBegin > D.ConnEnd ||
          D.DiagBegin > D.DiagEnd || NA > 1u << 24 || NC > 1u << 24)
        return false;
      D.Assigns.reserve(NA);
      D.Conns.reserve(NC);
      Out.Instances.push_back(std::move(D));
      AssignRemaining = NA;
      ConnRemaining = NC;
      --InstRemaining;
    } else if (Kind == "a") {
      DepGraph::PendingAssignDep A;
      if (!AssignRemaining || L.size() != 5 || !L.escaped(1, A.Field) ||
          !L.optEscaped(2, A.Value) || !L.loc(3, A.Loc))
        return false;
      Out.Instances.back().Assigns.push_back(std::move(A));
      --AssignRemaining;
    } else if (Kind == "c") {
      DepGraph::PendingConnDep C;
      if (!ConnRemaining || AssignRemaining || L.size() != 7 ||
          !L.u32(1, C.ConnIdx) || !L.boolean(2, C.IsFrom) ||
          !L.escaped(3, C.Port) || !L.i64(4, C.ExplicitIndex) ||
          !L.loc(5, C.Loc))
        return false;
      Out.Instances.back().Conns.push_back(std::move(C));
      --ConnRemaining;
    } else {
      return false;
    }
  }

  // "end" is the last line: nothing, not even an unterminated fragment,
  // follows it.
  return SawEnd && R.atEnd() && SawPrev && SawCapable && SawNsrc &&
         SawNinst && !InstRemaining && !AssignRemaining && !ConnRemaining;
}
