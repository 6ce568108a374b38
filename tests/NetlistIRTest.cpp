//===- NetlistIRTest.cpp - Dense netlist IR invariants ------------------------===//
///
/// Pins the contracts the dense IR hot paths depend on:
///  - Netlist::findByPath: exact hierarchical-path lookup;
///  - Netlist::freezeIds(): creation-order instance ids, contiguous
///    port-node numbering, PortRef::PortIdx resolution, idempotence;
///  - one format per artifact kind: loaders reject every header but
///    "LSSNL 3" / "LSSSOL 5" as a miss, without crashing;
///  - byte stability: a reload reserializes to the same bytes, and the
///    LSSNL and LSSSOL writers are pinned literally for tiny fixed inputs
///    so accidental table-order or record-syntax changes are caught here,
///    not in the cache hash.
///
//===----------------------------------------------------------------------===//

#include "infer/Solution.h"
#include "infer/Synthetic.h"
#include "netlist/Netlist.h"
#include "netlist/Serializer.h"
#include "support/Diagnostics.h"
#include "types/TypeContext.h"

#include <gtest/gtest.h>

#include <set>

using namespace liberty;
using namespace liberty::netlist;

namespace {

//===----------------------------------------------------------------------===//
// Dense id compaction
//===----------------------------------------------------------------------===//

/// root -> a (in[2], out[1]), b (x[1]); a -> a.c (y[3]).
struct SmallDesign {
  types::TypeContext TC;
  Netlist NL;
  InstanceNode *A, *B, *C;

  SmallDesign() {
    A = NL.createInstance(NL.getRoot(), "a", nullptr, SourceLoc());
    addPort(A, "in", PortDirection::In, 2);
    addPort(A, "out", PortDirection::Out, 1);
    B = NL.createInstance(NL.getRoot(), "b", nullptr, SourceLoc());
    addPort(B, "x", PortDirection::In, 1);
    C = NL.createInstance(A, "c", nullptr, SourceLoc());
    addPort(C, "y", PortDirection::Out, 3);
    Connection *Conn = NL.createConnection(SourceLoc());
    Conn->From = PortRef{A, "out", 0, -1};
    Conn->To = PortRef{B, "x", 0, -1};
  }

  static void addPort(InstanceNode *Inst, const char *Name, PortDirection Dir,
                      int Width) {
    Port P;
    P.Name = Name;
    P.Dir = Dir;
    P.Width = Width;
    Inst->Ports.push_back(std::move(P));
  }
};

TEST(DenseIds, InstanceIdsFollowCreationOrder) {
  SmallDesign D;
  EXPECT_EQ(D.NL.getRoot()->Id, 0u);
  EXPECT_EQ(D.A->Id, 1u);
  EXPECT_EQ(D.B->Id, 2u);
  EXPECT_EQ(D.C->Id, 3u);
  // Ids mirror the Instances vector: consumers may index flat arrays by Id.
  const auto &Instances = D.NL.getInstances();
  for (size_t I = 0; I != Instances.size(); ++I)
    EXPECT_EQ(Instances[I]->Id, I);
}

TEST(DenseIds, FreezeAssignsContiguousPortNodes) {
  SmallDesign D;
  uint32_t NumNodes = D.NL.freezeIds();
  // 2 + 1 + 1 + 3 port instances across the design.
  EXPECT_EQ(NumNodes, 7u);
  EXPECT_EQ(D.NL.getNumPortNodes(), 7u);

  // Every (instance, port, index) triple maps to a distinct node id in
  // [0, NumNodes), covering the range with no gaps.
  std::set<uint32_t> Nodes;
  for (const auto &Inst : D.NL.getInstances())
    for (const Port &P : Inst->Ports)
      for (int I = 0; I != P.Width; ++I) {
        uint32_t Node = Inst->NodeBase + P.NodeOffset + uint32_t(I);
        EXPECT_LT(Node, NumNodes);
        EXPECT_TRUE(Nodes.insert(Node).second) << "node id collision";
      }
  EXPECT_EQ(Nodes.size(), size_t(NumNodes));
}

TEST(DenseIds, FreezeResolvesPortRefsAndIsIdempotent) {
  SmallDesign D;
  D.NL.freezeIds();
  ASSERT_EQ(D.NL.getConnections().size(), 1u);
  const Connection &Conn = *D.NL.getConnections().front();
  EXPECT_EQ(Conn.From.PortIdx, 1); // a.out is a's second port.
  EXPECT_EQ(Conn.To.PortIdx, 0);  // b.x is b's first port.
  EXPECT_EQ(Netlist::nodeIdOf(Conn.From), D.A->NodeBase + 2u);
  EXPECT_EQ(Netlist::nodeIdOf(Conn.To), D.B->NodeBase);

  // Freezing again must not renumber anything.
  uint32_t Base = D.A->NodeBase;
  EXPECT_EQ(D.NL.freezeIds(), 7u);
  EXPECT_EQ(D.A->NodeBase, Base);
}

TEST(DenseIds, FindByPathMatchesWholePaths) {
  SmallDesign D;
  EXPECT_EQ(D.NL.findByPath(""), D.NL.getRoot());
  EXPECT_EQ(D.NL.findByPath("a"), D.A);
  EXPECT_EQ(D.NL.findByPath("a.c"), D.C);
  EXPECT_EQ(D.NL.findByPath("nope"), nullptr);
  // On a (malformed) duplicate path the first instance created wins.
  D.NL.createInstance(D.NL.getRoot(), "a", nullptr, SourceLoc());
  EXPECT_EQ(D.NL.findByPath("a"), D.A);
}

//===----------------------------------------------------------------------===//
// Artifact formats
//===----------------------------------------------------------------------===//

/// A tiny fixed design with resolved types, solver statistics, one H3
/// group with members, per-port group columns, and one replayed note:
/// every LSSSOL record kind appears.
struct SolvedDesign {
  types::TypeContext TC;
  Netlist NL;
  infer::NetlistInferenceStats Stats;
  std::vector<Diagnostic> Diags;

  SolvedDesign() {
    InstanceNode *U = NL.createInstance(NL.getRoot(), "u", nullptr,
                                        SourceLoc());
    SmallDesign::addPort(U, "clk", PortDirection::In, 1);
    SmallDesign::addPort(U, "out", PortDirection::Out, 1);
    InstanceNode *V = NL.createInstance(NL.getRoot(), "v", nullptr,
                                        SourceLoc());
    SmallDesign::addPort(V, "x", PortDirection::In, 1);
    SmallDesign::addPort(V, "y", PortDirection::Out, 1); // Unresolved.
    NL.freezeIds();
    U->Ports[0].Resolved = TC.getBool();
    U->Ports[1].Resolved = TC.getArray(TC.getInt(), 4);
    V->Ports[0].Resolved = TC.getArray(TC.getInt(), 4);

    infer::SolveStats &S = Stats.Solve;
    S.Success = true;
    S.UnifySteps = 42;
    S.BranchPoints = 3;
    S.NumConstraints = 5;
    S.NumDisjunctive = 1;
    S.NumComponents = 2;
    infer::GroupStats G0, G1;
    G0.NumConstraints = 3;
    G0.UnifySteps = 30;
    G0.BranchPoints = 2;
    G0.WallMs = 1.5; // Written as zero.
    G0.Success = true;
    G1.NumConstraints = 2;
    G1.UnifySteps = 12;
    G1.BranchPoints = 1;
    G1.WallMs = 0.25;
    G1.Success = true;
    S.Groups = {G0, G1};
    Stats.NumPorts = 4;
    Stats.NumPolymorphicPorts = 1;
    Stats.NumDefaulted = 1;
    Diagnostic D;
    D.Level = DiagLevel::Note;
    D.Loc = SourceLoc{0, 17};
    D.Message = "type variable 'T defaulted to int";
    Diags.push_back(D);
  }
};

/// Swaps an artifact's first line for \p Header.
std::string withHeader(const std::string &Text, const std::string &Header) {
  return Header + Text.substr(Text.find('\n'));
}

/// Otherwise-valid bodies under any header but the current one load as a
/// miss (null netlist / false), and the loader names the version.
TEST(ArtifactFormats, OtherVersionsAreRejected) {
  types::TypeContext TC;
  Netlist NL;
  infer::SyntheticNetlistSpec Spec;
  Spec.Instances = 16;
  infer::buildSyntheticNetlist(NL, TC, Spec);
  std::set<std::string> Lib;
  std::string Lssnl;
  ASSERT_TRUE(serializeNetlist(NL, Lib, 0, {}, Lssnl));
  for (const char *Header : {"LSSNL 2", "LSSNL 4"}) {
    types::TypeContext LoadTC;
    std::string Error;
    SerializedCompile SC =
        deserializeNetlist(withHeader(Lssnl, Header), LoadTC, &Error);
    EXPECT_EQ(SC.NL, nullptr) << Header;
    EXPECT_EQ(Error, std::string("unsupported format '") + Header +
                         "' (expected 'LSSNL 3')");
  }

  SolvedDesign D;
  std::string Lsssol;
  ASSERT_TRUE(infer::exportSolution(D.NL, D.Stats, D.Diags, Lsssol));
  for (const char *Header : {"LSSSOL 4", "LSSSOL 6"}) {
    infer::NetlistInferenceStats Stats;
    std::vector<Diagnostic> Diags;
    std::string Error;
    EXPECT_FALSE(infer::importSolution(withHeader(Lsssol, Header), D.NL, D.TC,
                                       Stats, Diags, &Error))
        << Header;
    EXPECT_EQ(Error, std::string("unsupported format '") + Header +
                         "' (expected 'LSSSOL 5')");
  }
  // The unedited artifacts load, and garbage is merely "malformed".
  types::TypeContext LoadTC;
  EXPECT_NE(deserializeNetlist(Lssnl, LoadTC).NL, nullptr);
  infer::NetlistInferenceStats Stats;
  std::vector<Diagnostic> Diags;
  EXPECT_TRUE(infer::importSolution(Lsssol, D.NL, D.TC, Stats, Diags));
  std::string Error;
  EXPECT_EQ(deserializeNetlist("garbage\n", LoadTC, &Error).NL, nullptr);
  EXPECT_EQ(Error, "malformed");
}

/// A reserialized reload must be byte-identical to the original artifact
/// (the cache-stability invariant).
TEST(LssnlFormats, RoundTripIsByteStable) {
  types::TypeContext TC;
  Netlist NL;
  infer::SyntheticNetlistSpec Spec;
  Spec.Instances = 32;
  Spec.Lanes = 2;
  infer::buildSyntheticNetlist(NL, TC, Spec);

  std::set<std::string> Lib;
  std::vector<Diagnostic> NoDiags;
  std::string First, Second;
  ASSERT_TRUE(serializeNetlist(NL, Lib, 0, NoDiags, First));
  types::TypeContext LoadTC;
  SerializedCompile SC = deserializeNetlist(First, LoadTC);
  ASSERT_NE(SC.NL, nullptr);
  ASSERT_TRUE(serializeNetlist(*SC.NL, SC.LibraryModules,
                               SC.NumUserAnnotations, SC.Diags, Second));
  EXPECT_EQ(First, Second);
}

/// Literal pin of the v3 header, string table and summary record for a
/// tiny fixed design: first-use order, "s <escaped>" lines, short record
/// keywords. If this fails without a deliberate format-version bump,
/// cached artifacts from the previous build would hash differently.
TEST(LssnlFormats, V3StringTableBytesArePinned) {
  types::TypeContext TC;
  Netlist NL;
  InstanceNode *U = NL.createInstance(NL.getRoot(), "u", nullptr, SourceLoc());
  SmallDesign::addPort(U, "clk", PortDirection::In, 1);
  InstanceNode *V = NL.createInstance(NL.getRoot(), "v", nullptr, SourceLoc());
  SmallDesign::addPort(V, "clk", PortDirection::In, 1);
  NL.freezeIds();

  std::set<std::string> Lib;
  std::vector<Diagnostic> NoDiags;
  std::string Out;
  ASSERT_TRUE(serializeNetlist(NL, Lib, 0, NoDiags, Out));
  EXPECT_EQ(Out, "LSSNL 3\n"
                 "strtab 4\n"
                 "s u\n"
                 "s %_\n"
                 "s clk\n"
                 "s v\n"
                 "annotations 0\n"
                 "summary 0 0\n"
                 "i 0 0 1 - 0 0 0\n"
                 "p 2 0 1 0 0 0 - -\n"
                 "i 0 3 1 - 0 0 0\n"
                 "p 2 0 1 0 0 0 - -\n"
                 "end\n");
}

/// Literal pin of the LSSSOL 5 writer for SolvedDesign: header and string
/// table, every record kind, and the zeroed group wall times. A change here without a version bump (the header line,
/// or CacheFormatVersion) would let a warm compile read a solution written
/// by another writer.
TEST(LsssolFormat, BytesArePinned) {
  SolvedDesign D;
  std::string Out;
  ASSERT_TRUE(infer::exportSolution(D.NL, D.Stats, D.Diags, Out));
  EXPECT_EQ(Out, "LSSSOL 5\n"
                 "strtab 3\n"
                 "s type%20variable%20'T%20defaulted%20to%20int\n"
                 "s bool\n"
                 "s int%5B4%5D\n"
                 "stats 1 0 0 42 3 5 1 2 0\n"
                 "nstats 4 1 1\n"
                 "group 3 30 2 0000000000000000 1 0 0\n"
                 "group 2 12 1 0000000000000000 1 0 0\n"
                 "diag 0 0 17 0\n"
                 "p 1 0 1\n"
                 "p 1 1 2\n"
                 "p 2 0 2\n"
                 "end\n");

  // The pinned bytes reload: same records, same reserialization.
  infer::NetlistInferenceStats Stats;
  std::vector<Diagnostic> Diags;
  ASSERT_TRUE(infer::importSolution(Out, D.NL, D.TC, Stats, Diags));
  std::string Again;
  ASSERT_TRUE(infer::exportSolution(D.NL, Stats, Diags, Again));
  EXPECT_EQ(Again, Out);
}

} // namespace
