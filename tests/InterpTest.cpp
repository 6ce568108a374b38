//===- InterpTest.cpp - Elaboration semantics tests ----------------------------===//
///
/// Tests the paper's evaluation semantics (Section 6.2): instantiation
/// stack discipline, pending parameter/connection contexts, use-based
/// specialization, defaults, and the error conditions the A = Ø check
/// catches.
///
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "types/Type.h"

#include <gtest/gtest.h>

using namespace liberty;

namespace {

struct Elab {
  std::unique_ptr<driver::Compiler> C;
  bool Ok = false;
};

Elab elaborate(const std::string &Src) {
  Elab E;
  E.C = std::make_unique<driver::Compiler>();
  E.Ok = E.C->addCoreLibrary() && E.C->addSource("t.lss", Src) &&
         E.C->elaborate();
  return E;
}

Elab elaborateAndInfer(const std::string &Src) {
  Elab E = elaborate(Src);
  if (E.Ok)
    E.Ok = E.C->inferTypes();
  return E;
}

TEST(Interp, ParameterDefaultsApply) {
  auto E = elaborate("instance d:delay;");
  ASSERT_TRUE(E.Ok) << E.C->diagnosticsText();
  netlist::InstanceNode *D = E.C->getNetlist()->findByPath("d");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Params.at("initial_state").getInt(), 0);
}

TEST(Interp, ParameterOverrideAfterInstantiation) {
  // Figure 6: nominal, late-bound parameter assignment.
  auto E = elaborate("instance d:delay;\nd.initial_state = 7;");
  ASSERT_TRUE(E.Ok);
  EXPECT_EQ(E.C->getNetlist()->findByPath("d")->Params.at("initial_state")
                .getInt(),
            7);
}

TEST(Interp, AssignmentBeforeOrAfterConnectionOrderIrrelevant) {
  auto E = elaborate(R"(
instance d1:delay;
instance d2:delay;
d1.out -> d2.in;
d1.initial_state = 3;
)");
  ASSERT_TRUE(E.Ok);
  EXPECT_EQ(E.C->getNetlist()->findByPath("d1")->Params.at("initial_state")
                .getInt(),
            3);
}

TEST(Interp, UnknownParameterRejected) {
  // The A = Ø check: assignment to a non-existent parameter.
  auto E = elaborate("instance d:delay;\nd.no_such_param = 1;");
  EXPECT_FALSE(E.Ok);
  EXPECT_NE(E.C->diagnosticsText().find("no parameter named"),
            std::string::npos);
}

TEST(Interp, UnknownPortRejected) {
  auto E = elaborate(R"(
instance d1:delay;
instance d2:delay;
d1.out -> d2.no_such_port;
)");
  EXPECT_FALSE(E.Ok);
  EXPECT_NE(E.C->diagnosticsText().find("no port named"), std::string::npos);
}

TEST(Interp, ParameterTypeMismatchRejected) {
  auto E = elaborate("instance d:delay;\nd.initial_state = \"zero\";");
  EXPECT_FALSE(E.Ok);
  EXPECT_NE(E.C->diagnosticsText().find("does not match type"),
            std::string::npos);
}

TEST(Interp, RequiredParameterMissingRejected) {
  auto E = elaborate(R"(
module needsn { parameter n:int; };
instance x:needsn;
)");
  EXPECT_FALSE(E.Ok);
  EXPECT_NE(E.C->diagnosticsText().find("no value and no default"),
            std::string::npos);
}

TEST(Interp, UnknownModuleRejected) {
  auto E = elaborate("instance x:nonexistent_module;");
  EXPECT_FALSE(E.Ok);
}

TEST(Interp, DuplicateParameterAssignmentWarnsLastWins) {
  auto E = elaborate("instance d:delay;\nd.initial_state = 1;\n"
                     "d.initial_state = 2;");
  ASSERT_TRUE(E.Ok);
  EXPECT_GT(E.C->getDiags().getNumWarnings(), 0u);
  EXPECT_EQ(E.C->getNetlist()->findByPath("d")->Params.at("initial_state")
                .getInt(),
            2);
}

//===----------------------------------------------------------------------===//
// Width inference (use-based specialization)
//===----------------------------------------------------------------------===//

TEST(Interp, WidthCountsUnindexedConnections) {
  auto E = elaborate(R"(
instance g:counter_source;
instance s:sink;
g.out -> s.in;
g.out -> s.in;
g.out -> s.in;
)");
  ASSERT_TRUE(E.Ok);
  EXPECT_EQ(E.C->getNetlist()->findByPath("s")->findPort("in")->Width, 3);
  EXPECT_EQ(E.C->getNetlist()->findByPath("g")->findPort("out")->Width, 3);
}

TEST(Interp, ExplicitIndexSetsExtent) {
  auto E = elaborate(R"(
instance g:counter_source;
instance s:sink;
g.out[0] -> s.in[5];
)");
  ASSERT_TRUE(E.Ok);
  // Width is max index + 1: instances 0..4 exist but are unconnected.
  EXPECT_EQ(E.C->getNetlist()->findByPath("s")->findPort("in")->Width, 6);
}

TEST(Interp, MixedExplicitAndInferredIndices) {
  auto E = elaborate(R"(
instance g:counter_source;
instance s:sink;
g.out -> s.in[1];
g.out -> s.in;
g.out -> s.in;
)");
  ASSERT_TRUE(E.Ok);
  // The unindexed connections take the free slots 0 and 2.
  EXPECT_EQ(E.C->getNetlist()->findByPath("s")->findPort("in")->Width, 3);
}

TEST(Interp, UnconnectedPortHasZeroWidth) {
  auto E = elaborate("instance q:queue;\nq.depth = 2;");
  ASSERT_TRUE(E.Ok);
  netlist::InstanceNode *Q = E.C->getNetlist()->findByPath("q");
  EXPECT_EQ(Q->findPort("in")->Width, 0);
  EXPECT_EQ(Q->findPort("stall")->Width, 0);
}

TEST(Interp, WidthReadableInsideBody) {
  auto E = elaborate(R"(
module probe {
  inport in: 'a;
  var w:int;
  w = in.width;
  LSS_assert(w == 2, "expected width 2");
};
instance g:counter_source;
instance p:probe;
g.out -> p.in;
g.out -> p.in;
)");
  EXPECT_TRUE(E.Ok) << E.C->diagnosticsText();
}

TEST(Interp, WidthAssertFailureSurfaces) {
  auto E = elaborate(R"(
module probe {
  inport in: 'a;
  LSS_assert(in.width == 3, "want 3");
};
instance g:counter_source;
instance p:probe;
g.out -> p.in;
)");
  EXPECT_FALSE(E.Ok);
  EXPECT_NE(E.C->diagnosticsText().find("want 3"), std::string::npos);
}

TEST(Interp, ConnectBusMakesIndexedConnections) {
  auto E = elaborate(R"(
instance g:counter_source;
instance s:sink;
LSS_connect_bus(g.out, s.in, 4);
)");
  ASSERT_TRUE(E.Ok);
  EXPECT_EQ(E.C->getNetlist()->findByPath("s")->findPort("in")->Width, 4);
  EXPECT_EQ(E.C->getNetlist()->getConnections().size(), 4u);
}

TEST(Interp, DirectionErrors) {
  auto E1 = elaborate(R"(
instance g:counter_source;
instance s:sink;
s.in -> g.out;
)");
  EXPECT_FALSE(E1.Ok); // inport as source, outport as target.
}

//===----------------------------------------------------------------------===//
// Structural control flow
//===----------------------------------------------------------------------===//

TEST(Interp, InstanceArrayCreatesNamedChildren) {
  auto E = elaborate(R"(
module bank {
  parameter n:int;
  var ds:instance ref[];
  ds = new instance[n](delay, "slot");
};
instance b:bank;
b.n = 4;
)");
  ASSERT_TRUE(E.Ok);
  netlist::InstanceNode *B = E.C->getNetlist()->findByPath("b");
  ASSERT_EQ(B->Children.size(), 4u);
  EXPECT_EQ(B->Children[0]->Name, "slot[0]");
  EXPECT_EQ(B->Children[3]->Path, "b.slot[3]");
}

TEST(Interp, ZeroLengthInstanceArray) {
  auto E = elaborate(R"(
module bank {
  parameter n = 0:int;
  var ds:instance ref[];
  ds = new instance[n](delay, "slot");
};
instance b:bank;
)");
  ASSERT_TRUE(E.Ok);
  EXPECT_TRUE(E.C->getNetlist()->findByPath("b")->Children.empty());
}

TEST(Interp, NegativeInstanceArrayRejected) {
  auto E = elaborate(R"(
module bank {
  var ds:instance ref[];
  ds = new instance[0-1](delay, "slot");
};
instance b:bank;
)");
  EXPECT_FALSE(E.Ok);
}

TEST(Interp, WhileAndBreakControlStructure) {
  auto E = elaborate(R"(
module counted {
  var i:int;
  var n:int;
  i = 0;
  n = 0;
  while (true) {
    if (i >= 5) { break; }
    i = i + 1;
    n = n + i;
  }
  LSS_assert(n == 15, "sum wrong");
};
instance c:counted;
)");
  EXPECT_TRUE(E.Ok) << E.C->diagnosticsText();
}

TEST(Interp, VariableScoping) {
  auto E = elaborate(R"(
module scoped {
  var x:int = 1;
  if (true) {
    var x:int = 2;
    LSS_assert(x == 2, "inner");
  }
  LSS_assert(x == 1, "outer");
};
instance s:scoped;
)");
  EXPECT_TRUE(E.Ok) << E.C->diagnosticsText();
}

TEST(Interp, ArrayAndStructLValues) {
  auto E = elaborate(R"(
module lv {
  var a:int[] = array(3, 0);
  a[1] = 42;
  LSS_assert(a[1] == 42, "array write");
  LSS_assert(len(a) == 3, "len");
};
instance x:lv;
)");
  EXPECT_TRUE(E.Ok) << E.C->diagnosticsText();
}

TEST(Interp, ArrayIndexOutOfBoundsRejected) {
  auto E = elaborate(R"(
module bad {
  var a:int[] = array(2, 0);
  a[5] = 1;
};
instance x:bad;
)");
  EXPECT_FALSE(E.Ok);
  EXPECT_NE(E.C->diagnosticsText().find("out of bounds"), std::string::npos);
}

TEST(Interp, StringConcatAndStr) {
  auto E = elaborate(R"(
module s {
  var name:string;
  name = "slot" + str(3);
  LSS_assert(name == "slot3", "concat");
};
instance x:s;
)");
  EXPECT_TRUE(E.Ok) << E.C->diagnosticsText();
}

TEST(Interp, StepLimitCatchesInfiniteLoops) {
  driver::Compiler C;
  ASSERT_TRUE(C.addCoreLibrary());
  ASSERT_TRUE(C.addSource("loop.lss",
                          "module m { var i:int; while (true) { i = 1; } };\n"
                          "instance x:m;"));
  driver::CompilerInvocation Inv;
  Inv.Elab.MaxSteps = 10000;
  EXPECT_FALSE(C.elaborate(Inv));
  EXPECT_NE(C.diagnosticsText().find("step limit"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Use-based specialization: conditional interfaces (Figure 12)
//===----------------------------------------------------------------------===//

const char ConcentratorLss[] = R"(
module concentrator {
  inport in: 'a;
  outport out: 'a;
  if (out.width < in.width) {
    parameter arbitration_policy : userpoint(mask:int, last:int, width:int => int);
    instance arb:arbiter;
    arb.policy = arbitration_policy;
    LSS_connect_bus(in, arb.in, in.width);
    arb.out[0] -> out;
  } else {
    in -> out;
  }
};
)";

TEST(UseBased, PolicyRequiredWhenNarrowing) {
  auto E = elaborate(std::string(ConcentratorLss) + R"(
instance g0:counter_source;
instance g1:counter_source;
instance c:concentrator;
instance s:sink;
g0.out -> c.in;
g1.out -> c.in;
c.out -> s.in;
)");
  EXPECT_FALSE(E.Ok);
  EXPECT_NE(E.C->diagnosticsText().find("arbitration_policy"),
            std::string::npos);
}

TEST(UseBased, PolicyAcceptedWhenNarrowing) {
  auto E = elaborateAndInfer(std::string(ConcentratorLss) + R"(
instance g0:counter_source;
instance g1:counter_source;
instance c:concentrator;
instance s:sink;
c.arbitration_policy = "return 0;";
g0.out -> c.in;
g1.out -> c.in;
c.out -> s.in;
)");
  ASSERT_TRUE(E.Ok) << E.C->diagnosticsText();
  // The arbiter was instantiated inside the concentrator.
  EXPECT_NE(E.C->getNetlist()->findByPath("c.arb"), nullptr);
}

TEST(UseBased, PolicyNotDemandedWhenPassThrough) {
  auto E = elaborateAndInfer(std::string(ConcentratorLss) + R"(
instance g0:counter_source;
instance c:concentrator;
instance s:sink;
g0.out -> c.in;
c.out -> s.in;
)");
  ASSERT_TRUE(E.Ok) << E.C->diagnosticsText();
  // No arbiter exists in the pass-through configuration.
  EXPECT_EQ(E.C->getNetlist()->findByPath("c.arb"), nullptr);
}

TEST(UseBased, SettingPolicyOnPassThroughRejected) {
  // The parameter does not exist in the pass-through configuration, so
  // assigning it violates A = Ø.
  auto E = elaborate(std::string(ConcentratorLss) + R"(
instance g0:counter_source;
instance c:concentrator;
instance s:sink;
c.arbitration_policy = "return 0;";
g0.out -> c.in;
c.out -> s.in;
)");
  EXPECT_FALSE(E.Ok);
}

//===----------------------------------------------------------------------===//
// Hierarchy, wrapping, misc
//===----------------------------------------------------------------------===//

TEST(Interp, Figure7WrapCustomization) {
  // Component C wraps A, overriding one output path through B.
  auto E = elaborateAndInfer(R"(
module wrapped {
  inport in: int;
  outport pass: int;      // inherited path
  outport modified: int;  // overridden path
  instance a:delay;
  instance b:delay;
  in -> a.in;
  a.out -> pass;
  a.out -> b.in;
  b.out -> modified;
};
instance g:counter_source;
instance w:wrapped;
instance s1:sink;
instance s2:sink;
g.out -> w.in;
w.pass -> s1.in;
w.modified -> s2.in;
)");
  ASSERT_TRUE(E.Ok) << E.C->diagnosticsText();
  EXPECT_EQ(E.C->getNetlist()->findByPath("w")->Children.size(), 2u);
}

TEST(Interp, TarFileMarksLeaf) {
  auto E = elaborate("instance d:delay;");
  ASSERT_TRUE(E.Ok);
  netlist::InstanceNode *D = E.C->getNetlist()->findByPath("d");
  EXPECT_TRUE(D->isLeaf());
  EXPECT_EQ(D->BehaviorId, "corelib/delay.tar");
}

TEST(Interp, RuntimeVarsRecorded) {
  auto E = elaborate(R"(
module stateful {
  parameter start = 5:int;
  runtime var acc:int = start * 2;
};
instance s:stateful;
)");
  ASSERT_TRUE(E.Ok);
  netlist::InstanceNode *S = E.C->getNetlist()->findByPath("s");
  ASSERT_EQ(S->RuntimeVars.size(), 1u);
  EXPECT_EQ(S->RuntimeVars[0].Name, "acc");
  EXPECT_EQ(S->RuntimeVars[0].Init.getInt(), 10);
}

TEST(Interp, SystemUserpointsAcceptedWithoutDeclaration) {
  // init and end_of_timestep exist on every module (Section 4.3).
  auto E = elaborate(R"(
instance d:delay;
d.init = "acc = 0;";
d.end_of_timestep = "acc = acc + 1;";
)");
  ASSERT_TRUE(E.Ok) << E.C->diagnosticsText();
  netlist::InstanceNode *D = E.C->getNetlist()->findByPath("d");
  EXPECT_TRUE(D->Userpoints.count("init"));
  EXPECT_TRUE(D->Userpoints.count("end_of_timestep"));
}

TEST(Interp, EventsRecorded) {
  auto E = elaborate("instance q:queue;");
  ASSERT_TRUE(E.Ok);
  netlist::InstanceNode *Q = E.C->getNetlist()->findByPath("q");
  ASSERT_EQ(Q->Events.size(), 3u);
  EXPECT_EQ(Q->Events[0], "enqueue");
}

TEST(Interp, UserpointDefaultRetained) {
  auto E = elaborate("instance a:arbiter;");
  ASSERT_TRUE(E.Ok);
  const auto &UP =
      E.C->getNetlist()->findByPath("a")->Userpoints.at("policy");
  EXPECT_TRUE(UP.IsDefault);
  EXPECT_NE(UP.Code.find("bit(mask, c)"), std::string::npos);
}

TEST(Interp, UserpointOverride) {
  auto E = elaborate("instance a:arbiter;\na.policy = \"return 0;\";");
  ASSERT_TRUE(E.Ok);
  const auto &UP =
      E.C->getNetlist()->findByPath("a")->Userpoints.at("policy");
  EXPECT_FALSE(UP.IsDefault);
  EXPECT_EQ(UP.Code, "return 0;");
}

TEST(Interp, UserpointValueMustBeString) {
  auto E = elaborate("instance a:arbiter;\na.policy = 42;");
  EXPECT_FALSE(E.Ok);
}

TEST(Interp, RedefinitionOfInstanceNameRejected) {
  auto E = elaborate("instance d:delay;\ninstance d:delay;");
  EXPECT_FALSE(E.Ok);
}

/// The error messages of \p E, in order.
std::vector<std::string> errors(const Elab &E) {
  std::vector<std::string> Out;
  for (const Diagnostic &D : E.C->getDiags().getDiagnostics())
    if (D.Level == DiagLevel::Error)
      Out.push_back(D.Message);
  return Out;
}

TEST(Interp, LocalsTakePrecedenceOverPortsParamsAndInstances) {
  auto E = elaborate(R"(
module shadowed {
  parameter p = 1:int;
  inport i:int;
  instance d:delay;
  {
    var p:int = 5;
    var i:int = 6;
    var d:int = 7;
    i = i + 1;
    LSS_assert(p + i + d == 19, "locals shadow");
  }
  LSS_assert(p == 1, "parameter visible again");
  LSS_assert(i.width == 0, "port visible again");
  d.initial_state = 3;
};
instance s:shadowed;
)");
  EXPECT_TRUE(E.Ok) << E.C->diagnosticsText();
  const netlist::InstanceNode *D = E.C->getNetlist()->findByPath("s.d");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Params.at("initial_state").getInt(), 3);
}

TEST(Interp, BindingsReplaceEarlierOnesInTheSameScope) {
  // A parameter declared after a var of its name rebinds the name, and a
  // port name cannot be assigned once declared.
  auto E = elaborate(R"(
module rebound {
  var p:int = 3;
  parameter p = 1:int;
  LSS_assert(p == 1, "parameter rebinds");
  inport i:int;
  i = 2;
};
instance r:rebound;
)");
  EXPECT_FALSE(E.Ok);
  EXPECT_EQ(errors(E),
            std::vector<std::string>{"cannot assign to port 'i'"});
}

TEST(Interp, RedeclarationDiagnosticsKeepTheirTextAndOrder) {
  auto E = elaborate(R"(
module redeclared {
  parameter p = 1:int;
  inport i:int;
  instance d:delay;
  parameter p = 2:int;
  inport i:int;
  instance d:delay;
  { instance d:delay; }
  var n:int = 0;
  instance n:delay;
  var k:int;
  for (k = 0; k < 2; k = k + 1) { outport o:int; parameter q = 0:int; }
  { var e:int = 1; }
  instance e:delay;
};
instance r:redeclared;
)");
  EXPECT_FALSE(E.Ok);
  EXPECT_EQ(errors(E), (std::vector<std::string>{
                           "redeclaration of parameter 'p'",
                           "redeclaration of port 'i'",
                           "redefinition of name 'd'",
                           "redefinition of name 'd'",
                           "redefinition of name 'n'",
                           "redeclaration of port 'o'",
                           "redeclaration of parameter 'q'",
                       }));
  // The block-local e was gone when the instance e was declared.
  EXPECT_NE(E.C->getNetlist()->findByPath("r.e"), nullptr);
}

TEST(Interp, DuplicateModuleRejected) {
  auto E = elaborate("module delay { };"); // Collides with corelib's delay.
  EXPECT_FALSE(E.Ok);
  EXPECT_NE(E.C->diagnosticsText().find("redefinition of module"),
            std::string::npos);
}

TEST(Interp, PrintBuiltinLogs) {
  auto E = elaborate(R"(
module chatty {
  print("n = ", 3);
};
instance c:chatty;
)");
  ASSERT_TRUE(E.Ok);
  const auto &Log = E.C->getInterpreter()->getPrintLog();
  ASSERT_EQ(Log.size(), 1u);
  EXPECT_EQ(Log[0], "n = 3");
}

} // namespace
