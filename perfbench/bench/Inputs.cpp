//===- Inputs.cpp - Seeded input generators for the workloads -------------===//

#include "Inputs.h"

#include <cctype>
#include <fstream>
#include <sstream>

using namespace liberty;

namespace perfbench {

namespace {

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

/// Replaces the number in every line of the form `core<...>.seed = N;`
/// with a fresh draw; returns how many lines were rewritten.
unsigned rewriteCoreSeeds(std::string &Text, Rng &R,
                          std::vector<uint64_t> &Seeds) {
  std::istringstream In(Text);
  std::ostringstream Out;
  std::string Line;
  unsigned N = 0;
  while (std::getline(In, Line)) {
    size_t Start = Line.find_first_not_of(" \t");
    size_t Dot = Line.find(".seed");
    size_t Eq = Line.find('=', Dot == std::string::npos ? 0 : Dot);
    size_t Semi = Line.find(';', Eq == std::string::npos ? 0 : Eq);
    if (Start != std::string::npos && Line.compare(Start, 4, "core") == 0 &&
        Dot != std::string::npos && Eq != std::string::npos &&
        Semi != std::string::npos) {
      uint64_t V = R.range(1, 1000000);
      Seeds.push_back(V);
      Line = Line.substr(0, Eq + 1) + " " + std::to_string(V) +
             Line.substr(Semi);
      ++N;
    }
    Out << Line << "\n";
  }
  Text = Out.str();
  return N;
}

} // namespace

driver::Json coreSeedsJson(const PaperModel &M) {
  driver::Json J = driver::Json::object();
  for (size_t I = 0; I != M.CoreSeeds.size(); ++I)
    J.set("core" + std::to_string(I), M.CoreSeeds[I]);
  return J;
}

bool paperModels(const std::string &ModelsDir, Rng &R,
                 std::vector<PaperModel> &Out, std::string &Err) {
  std::string Uarch;
  if (!readFile(ModelsDir + "/uarch.lss", Uarch)) {
    Err = "cannot read " + ModelsDir + "/uarch.lss";
    return false;
  }
  for (const char *Id : {"A", "B", "C", "D", "E", "F"}) {
    std::string File = std::string(1, char(std::tolower(Id[0]))) + ".lss";
    std::string Text;
    if (!readFile(ModelsDir + "/" + File, Text)) {
      Err = "cannot read " + ModelsDir + "/" + File;
      return false;
    }
    PaperModel M;
    M.Id = Id;
    if (rewriteCoreSeeds(Text, R, M.CoreSeeds) == 0) {
      Err = "no core*.seed line in " + File;
      return false;
    }
    M.Inv.addSource("uarch.lss", Uarch);
    M.Inv.addSource(File, std::move(Text));
    Out.push_back(std::move(M));
  }
  return true;
}

std::string delayChainSpec(unsigned N) {
  return R"(
module delayn {
  parameter n:int;
  inport in: 'a;
  outport out: 'a;
  var delays:instance ref[];
  delays = new instance[n](delay, "delays");
  in -> delays[0].in;
  var i:int;
  for (i = 1; i < n; i = i + 1) {
    delays[i-1].out -> delays[i].in;
  }
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

OverloadShape drawOverloadShape(Rng &R, std::string Prefix,
                                unsigned TargetInstances, unsigned LanesLo,
                                unsigned LanesHi, unsigned DepthLo,
                                unsigned DepthHi, unsigned LanesPerDepth) {
  OverloadShape S;
  S.Prefix = std::move(Prefix);
  unsigned Lanes = unsigned(R.range(LanesLo, LanesHi));
  S.Stages = TargetInstances / Lanes > 3 ? TargetInstances / Lanes - 2 : 2;
  for (unsigned D = DepthLo; D <= DepthHi; ++D)
    S.Depths.insert(S.Depths.end(), LanesPerDepth, D);
  if (S.Depths.size() < Lanes)
    S.Depths.resize(Lanes, 2);
  S.Depths.resize(Lanes);
  R.shuffle(S.Depths);
  return S;
}

/// The project's source of lane \p K; \p Rev > 0 appends an edit comment.
static std::string laneSource(const OverloadShape &S, unsigned K,
                              unsigned Rev) {
  // A chain of adders into a sink, plus an overload puzzle that only the
  // all-int assignment solves: Depth free (float | int) variables, float
  // first (the wrong guess), coupled by a struct disjunct whose two
  // alternatives differ only in a free field, so neither H1 nor H2 can
  // settle it and the search walks about 2^Depth assignments.
  const unsigned Depth = S.Depths[K];
  std::ostringstream OS;
  OS << "module " << S.Prefix << "lane" << K << " {\n";
  for (unsigned I = 0; I != S.Stages; ++I)
    OS << "  instance a" << I << ":adder;\n";
  OS << "  instance k:sink;\n";
  for (unsigned I = 1; I != S.Stages; ++I)
    OS << "  a" << I - 1 << ".out -> a" << I << ".in1;\n";
  OS << "  a" << S.Stages - 1 << ".out -> k.in;\n";
  for (unsigned J = 0; J != Depth; ++J)
    OS << "  constrain 'u" << J << " : (float | int);\n";
  OS << "  constrain 'w : struct{";
  for (unsigned J = 0; J != Depth; ++J)
    OS << "f" << J << ":'u" << J << "; ";
  OS << "g:'gv};\n";
  OS << "  constrain 'w : (";
  for (int Alt = 0; Alt != 2; ++Alt) {
    if (Alt)
      OS << " | ";
    OS << "struct{";
    for (unsigned J = 0; J != Depth; ++J)
      OS << "f" << J << ":int; ";
    OS << "g:" << (Alt ? "float" : "int") << "}";
  }
  OS << ");\n";
  if (Rev)
    OS << "  // revision " << Rev << "\n";
  OS << "}\n";
  return OS.str();
}

driver::CompilerInvocation overloadProject(const OverloadShape &S,
                                           const std::vector<unsigned> &Revs) {
  driver::CompilerInvocation Inv;
  std::ostringstream Top;
  for (unsigned K = 0; K != S.lanes(); ++K)
    Top << "instance m" << K << ":" << S.Prefix << "lane" << K << ";\n";
  Inv.addSource(S.Prefix + "top.lss", Top.str());
  for (unsigned K = 0; K != S.lanes(); ++K)
    Inv.addSource(S.Prefix + "lane" + std::to_string(K) + ".lss",
                  laneSource(S, K, Revs.empty() ? 0 : Revs[K]));
  Inv.BuildSim = false;
  return Inv;
}

size_t sourceBytes(const driver::CompilerInvocation &Inv) {
  size_t N = 0;
  for (const driver::CompilerInvocation::Source &S : Inv.Sources)
    N += S.Text.size();
  return N;
}

} // namespace perfbench
