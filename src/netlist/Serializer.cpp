//===- Serializer.cpp - Stable netlist artifact round-trip -------------------===//

#include "netlist/Serializer.h"

#include "support/FaultInjection.h"

#include "interp/Value.h"
#include "lss/AST.h"
#include "types/Type.h"
#include "types/TypeContext.h"
#include "types/TypeIO.h"

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>

using namespace liberty;
using namespace liberty::netlist;
using interp::Value;

//===----------------------------------------------------------------------===//
// Token escaping
//===----------------------------------------------------------------------===//

/// Bytes that may appear raw in an escaped token. Everything else —
/// notably whitespace, '%', and the value/record delimiters ',[]{}="' —
/// becomes %XX. Type texts (letters, digits, '[]'-free? no: arrays!) are
/// escaped like any other payload, so a whole type rendering is one token.
static bool isRawByte(unsigned char C) {
  if (std::isalnum(C))
    return true;
  switch (C) {
  case '_': case '.': case '#': case '\'': case '-': case '+': case '/':
  case ':': case ';': case '(': case ')': case '|': case '<': case '>':
  case '!': case '*': case '@': case '^': case '~': case '?': case '$':
  case '&':
    return true;
  default:
    return false;
  }
}

std::string liberty::netlist::artifactEscape(const std::string &S) {
  // Empty strings need a non-empty rendering or the token disappears at
  // line-splitting time. "%_" cannot be produced by ordinary escaping
  // ('%' is always followed by two uppercase hex digits), so it is free
  // to serve as the empty-string sentinel.
  if (S.empty())
    return "%_";
  static const char *Hex = "0123456789ABCDEF";
  std::string Out;
  Out.reserve(S.size());
  for (unsigned char C : S) {
    if (isRawByte(C)) {
      Out.push_back(char(C));
    } else {
      Out.push_back('%');
      Out.push_back(Hex[C >> 4]);
      Out.push_back(Hex[C & 15]);
    }
  }
  return Out;
}

static int hexDigit(char C) {
  if (C >= '0' && C <= '9')
    return C - '0';
  if (C >= 'A' && C <= 'F')
    return C - 'A' + 10;
  if (C >= 'a' && C <= 'f')
    return C - 'a' + 10;
  return -1;
}

bool liberty::netlist::artifactUnescape(std::string_view S,
                                        std::string &Out) {
  Out.clear();
  if (S == "%_")
    return true;
  Out.reserve(S.size());
  for (size_t I = 0; I != S.size(); ++I) {
    if (S[I] != '%') {
      Out.push_back(S[I]);
      continue;
    }
    if (I + 2 >= S.size())
      return false;
    int Hi = hexDigit(S[I + 1]), Lo = hexDigit(S[I + 2]);
    if (Hi < 0 || Lo < 0)
      return false;
    Out.push_back(char((Hi << 4) | Lo));
    I += 2;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Value encoding
//===----------------------------------------------------------------------===//

/// Renders a compile-time data Value as one raw (pre-escape) token — the
/// encoding LSSNL param records use. Returns false on elaboration-only
/// kinds (InstanceRef, Port), which cannot round-trip.
static bool artifactEncodeValue(const Value &V, std::string &Out) {
  switch (V.getKind()) {
  case Value::Kind::Unset:
    Out += 'u';
    return true;
  case Value::Kind::Int:
    Out += 'i';
    Out += std::to_string(V.getInt());
    return true;
  case Value::Kind::Bool:
    Out += V.getBool() ? "b1" : "b0";
    return true;
  case Value::Kind::Float: {
    // Bit-exact: the IEEE754 pattern as 16 hex digits. Decimal or even %a
    // renderings risk platform drift; bits do not.
    uint64_t Bits;
    double D = V.getFloat();
    static_assert(sizeof(Bits) == sizeof(D));
    std::memcpy(&Bits, &D, sizeof(Bits));
    Out += 'f';
    Out += hex64(Bits);
    return true;
  }
  case Value::Kind::String:
    Out += 's';
    Out += artifactEscape(V.getString());
    return true;
  case Value::Kind::Array: {
    Out += "a[";
    bool First = true;
    for (const Value &E : V.getElems()) {
      if (!First)
        Out += ',';
      First = false;
      if (!artifactEncodeValue(E, Out))
        return false;
    }
    Out += ']';
    return true;
  }
  case Value::Kind::Struct: {
    Out += "t{";
    bool First = true;
    for (const auto &[Name, F] : V.getFields()) {
      if (!First)
        Out += ',';
      First = false;
      Out += artifactEscape(Name);
      Out += '=';
      if (!artifactEncodeValue(F, Out))
        return false;
    }
    Out += '}';
    return true;
  }
  case Value::Kind::InstanceRef:
  case Value::Kind::Port:
    return false;
  }
  return false;
}

namespace {

/// Recursive-descent reader over an encoded value token.
class ValueReader {
public:
  explicit ValueReader(const std::string &Text) : Text(Text) {}

  bool read(Value &Out) { return readValue(Out, 0) && Pos == Text.size(); }

private:
  static constexpr unsigned MaxDepth = 100;

  char peek() const { return Pos < Text.size() ? Text[Pos] : '\0'; }
  bool consume(char C) {
    if (peek() != C)
      return false;
    ++Pos;
    return true;
  }
  /// Reads escaped-string bytes up to a structural delimiter.
  bool readEscaped(std::string &Out) {
    size_t Start = Pos;
    while (Pos < Text.size() && Text[Pos] != ',' && Text[Pos] != ']' &&
           Text[Pos] != '}' && Text[Pos] != '=')
      ++Pos;
    return artifactUnescape(
        std::string_view(Text).substr(Start, Pos - Start), Out);
  }

  bool readValue(Value &Out, unsigned Depth) {
    if (Depth > MaxDepth)
      return false;
    switch (peek()) {
    case 'u':
      ++Pos;
      Out = Value();
      return true;
    case 'i': {
      ++Pos;
      size_t Start = Pos;
      if (peek() == '-')
        ++Pos;
      while (Pos < Text.size() && std::isdigit((unsigned char)Text[Pos]))
        ++Pos;
      if (Pos == Start)
        return false;
      Out = Value::makeInt(
          std::strtoll(Text.substr(Start, Pos - Start).c_str(), nullptr, 10));
      return true;
    }
    case 'b':
      ++Pos;
      if (peek() != '0' && peek() != '1')
        return false;
      Out = Value::makeBool(Text[Pos++] == '1');
      return true;
    case 'f': {
      ++Pos;
      uint64_t Bits;
      if (!parseHex64(std::string_view(Text).substr(Pos, 16), Bits))
        return false;
      Pos += 16;
      double D;
      std::memcpy(&D, &Bits, sizeof(D));
      Out = Value::makeFloat(D);
      return true;
    }
    case 's': {
      ++Pos;
      std::string S;
      if (!readEscaped(S))
        return false;
      Out = Value::makeString(std::move(S));
      return true;
    }
    case 'a': {
      ++Pos;
      if (!consume('['))
        return false;
      std::vector<Value> Elems;
      if (!consume(']')) {
        do {
          Value E;
          if (!readValue(E, Depth + 1))
            return false;
          Elems.push_back(std::move(E));
        } while (consume(','));
        if (!consume(']'))
          return false;
      }
      Out = Value::makeArray(std::move(Elems));
      return true;
    }
    case 't': {
      ++Pos;
      if (!consume('{'))
        return false;
      std::vector<std::pair<std::string, Value>> Fields;
      if (!consume('}')) {
        do {
          std::string Name;
          Value F;
          if (!readEscaped(Name) || !consume('=') ||
              !readValue(F, Depth + 1))
            return false;
          Fields.emplace_back(std::move(Name), std::move(F));
        } while (consume(','));
        if (!consume('}'))
          return false;
      }
      Out = Value::makeStruct(std::move(Fields));
      return true;
    }
    default:
      return false;
    }
  }

  const std::string &Text;
  size_t Pos = 0;
};

} // namespace

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

static constexpr std::string_view NetlistHeader = "LSSNL 3";

static void emitLoc(std::ostringstream &OS, SourceLoc Loc) {
  OS << ' ' << Loc.BufferId << ' ' << Loc.Offset;
}

namespace {

/// Extends the shared token emitter with type rendering ("-" for null).
///
/// Type variables are renamed on the way out: every distinct Var becomes
/// "<hint>#<seq>" where <hint> is the source-level name (the VarName up to
/// its first '#') and <seq> is an artifact-wide first-use counter. The
/// in-memory VarId is a process-global allocation counter, so it drifts
/// between compiles that mint a different number of variables beforehand.
/// First-use order, by contrast, is a pure function of the netlist's record
/// order, so the emitted bytes are identical whenever the structures are
/// (and the reload fixpoint becomes structural: parseTypeText re-mints
/// variables in exactly this order).
struct TokenEmitter : ArtifactStrTableBuilder {
  std::string type(const types::Type *T) {
    return T ? tok(renderType(T)) : std::string("-");
  }

  std::string renderType(const types::Type *T) {
    using types::Type;
    switch (T->getKind()) {
    case Type::Kind::Int:
      return "int";
    case Type::Kind::Bool:
      return "bool";
    case Type::Kind::Float:
      return "float";
    case Type::Kind::String:
      return "string";
    case Type::Kind::Var: {
      auto [It, Inserted] = VarNames.emplace(T->getVarId(), std::string());
      if (Inserted) {
        const std::string &Name = T->getVarName();
        It->second = Name.substr(0, Name.find('#')) + "#" +
                     std::to_string(VarNames.size() - 1);
      }
      return "'" + It->second;
    }
    case Type::Kind::Array:
      return renderType(T->getElem()) + "[" +
             std::to_string(T->getArraySize()) + "]";
    case Type::Kind::Struct: {
      std::string S = "struct{";
      for (const auto &[Name, FieldTy] : T->getFields())
        S += Name + ":" + renderType(FieldTy) + ";";
      return S + "}";
    }
    case Type::Kind::Disjunct: {
      std::string S = "(";
      const auto &Alts = T->getAlternatives();
      for (unsigned I = 0; I != Alts.size(); ++I) {
        if (I)
          S += "|";
        S += renderType(Alts[I]);
      }
      return S + ")";
    }
    }
    return "<invalid>";
  }

private:
  /// VarId -> canonical artifact name, in first-use order.
  std::map<uint32_t, std::string> VarNames;
};

} // namespace

/// Per-instance records, emitted right after the instance's own line (and,
/// for the root, right after the header).
static bool emitInstanceBody(std::ostringstream &OS, const InstanceNode &Inst,
                             TokenEmitter &E) {
  for (const auto &[Name, V] : Inst.Params) {
    std::string Enc;
    if (!artifactEncodeValue(V, Enc))
      return false;
    OS << "param " << E.tok(Name) << ' ' << E.tok(Enc) << '\n';
  }
  for (const auto &[Name, UV] : Inst.Userpoints) {
    OS << "userpoint " << E.tok(Name) << ' ' << (UV.IsDefault ? 1 : 0);
    emitLoc(OS, UV.Loc);
    unsigned NArgs = UV.Sig ? unsigned(UV.Sig->Args.size()) : 0;
    OS << ' ' << NArgs;
    for (unsigned I = 0; I != NArgs; ++I)
      OS << ' ' << E.tok(UV.Sig->Args[I].first);
    OS << ' ' << E.tok(UV.Code) << '\n';
  }
  for (const std::string &Ev : Inst.Events)
    OS << "event " << E.tok(Ev) << '\n';
  for (const RuntimeVar &RV : Inst.RuntimeVars) {
    std::string Enc;
    if (!artifactEncodeValue(RV.Init, Enc))
      return false;
    OS << "var " << E.tok(RV.Name);
    emitLoc(OS, RV.Loc);
    OS << ' ' << E.tok(Enc) << '\n';
  }
  for (const Port &P : Inst.Ports) {
    // Ports dominate artifact line counts, hence the one-letter keyword
    // and the numeric direction (0 = in, 1 = out).
    OS << "p " << E.tok(P.Name) << ' ' << (P.isInput() ? "0" : "1") << ' '
       << P.Width << ' ' << (P.WidthInferred ? 1 : 0);
    emitLoc(OS, P.Loc);
    OS << ' ' << E.type(P.Scheme) << ' ' << E.type(P.Resolved) << '\n';
  }
  for (const auto &[LHS, RHS] : Inst.ExtraConstraints)
    OS << "constrain " << E.type(LHS) << ' ' << E.type(RHS) << '\n';
  return true;
}

bool liberty::netlist::serializeNetlist(
    const Netlist &NL, const std::set<std::string> &LibraryModules,
    unsigned NumUserAnnotations, const std::vector<Diagnostic> &Diags,
    std::string &Out) {
  if (faultShouldFail("serialize.netlist"))
    return false; // Injected stream failure: artifact just isn't cached.
  TokenEmitter E;
  std::ostringstream OS;
  NetlistCounts Counts = countInstancesAndConnections(NL);
  OS << "annotations " << NumUserAnnotations << '\n';
  OS << "summary " << Counts.Instances << ' ' << Counts.Connections << '\n';
  for (const std::string &M : LibraryModules)
    OS << "libmodule " << E.tok(M) << '\n';
  for (const Diagnostic &D : Diags) {
    // Errors are never serialized: only clean compiles are cached.
    if (D.Level == DiagLevel::Error)
      return false;
    OS << "diag " << (D.Level == DiagLevel::Warning ? 1 : 0);
    emitLoc(OS, D.Loc);
    OS << ' ' << E.tok(D.Message) << '\n';
  }

  // Instances reference each other by dense InstanceNode::Id — the
  // creation-order index the netlist itself maintains, so no per-serialize
  // pointer map is needed. CacheTest pins the id/order agreement.
  const auto &Instances = NL.getInstances();

  // Root (index 0) carries no instance line of its own.
  if (!emitInstanceBody(OS, *Instances.front(), E))
    return false;
  for (size_t I = 1; I != Instances.size(); ++I) {
    const InstanceNode &Inst = *Instances[I];
    if (Inst.Id != I || !Inst.Parent || Inst.Parent->Id >= Inst.Id)
      return false; // Parents always precede children in creation order.
    OS << "i " << Inst.Parent->Id << ' '
       << E.tok(Inst.Name) << ' '
       << E.tok(Inst.ModuleName) << ' ' << E.opt(Inst.BehaviorId) << ' '
       << Inst.NumTypeVars;
    emitLoc(OS, Inst.Loc);
    OS << '\n';
    if (!emitInstanceBody(OS, Inst, E))
      return false;
  }

  for (const auto &Conn : NL.getConnections()) {
    auto EndpointIdx = [&](const PortRef &R) {
      return R.Inst ? int64_t(R.Inst->Id) : int64_t(-1);
    };
    OS << "c " << EndpointIdx(Conn->From) << ' '
       << E.opt(Conn->From.Port)
       << ' ' << Conn->From.Index << ' ' << EndpointIdx(Conn->To) << ' '
       << E.opt(Conn->To.Port) << ' ' << Conn->To.Index;
    emitLoc(OS, Conn->Loc);
    OS << ' ' << E.type(Conn->Annotation) << '\n';
  }
  OS << "end\n";
  Out = E.finish(NetlistHeader, OS.str());
  return true;
}

//===----------------------------------------------------------------------===//
// Shared artifact layer (LSSNL, LSSSOL)
//===----------------------------------------------------------------------===//

bool ArtifactReader::readHeader(std::string_view Header, std::string *Error) {
  std::string_view Line;
  if (nextLine(Line) && Line == Header)
    return true;
  if (Error) {
    // Same magic, another numeric version: a format this build does not
    // read (e.g. an older writer's entry), not corruption.
    size_t V = Header.find(' ') + 1;
    bool OtherVersion = Line.size() > V && Line.size() <= V + 9 &&
                        Line.substr(0, V) == Header.substr(0, V) &&
                        Line.find_first_not_of("0123456789", V) ==
                            std::string_view::npos;
    *Error = OtherVersion ? "unsupported format '" + std::string(Line) +
                                "' (expected '" + std::string(Header) + "')"
                          : std::string("malformed");
  }
  return false;
}

bool ArtifactReader::readRawStrtab(std::vector<std::string_view> &Out) {
  ArtifactLineReader L;
  uint32_t N;
  if (!next(L) || L.size() != 2 || L.raw(0) != "strtab" || !L.u32(1, N))
    return false;
  // Each table line is at least 4 bytes, so a count beyond the input size
  // is malformed (and would otherwise let a fuzzed header force a huge
  // reserve).
  if (size_t(N) > Text.size())
    return false;
  Out.clear();
  Out.reserve(N);
  for (uint32_t I = 0; I != N; ++I) {
    if (!next(L) || L.size() != 2 || L.raw(0) != "s")
      return false;
    Out.push_back(L.raw(1));
  }
  return true;
}

bool ArtifactReader::readStrtab(std::vector<std::string> &Out) {
  std::vector<std::string_view> Raw;
  if (!readRawStrtab(Raw))
    return false;
  Out.assign(Raw.size(), std::string());
  for (size_t I = 0; I != Raw.size(); ++I)
    if (!artifactUnescape(Raw[I], Out[I]))
      return false;
  return true;
}

std::string ArtifactStrTableBuilder::finish(std::string_view Header,
                                            const std::string &Body) const {
  std::string Out;
  Out += Header;
  Out += "\nstrtab ";
  Out += std::to_string(Strings.size());
  Out += '\n';
  for (const std::string &S : Strings) {
    Out += "s ";
    Out += artifactEscape(S);
    Out += '\n';
  }
  Out += Body;
  return Out;
}

//===----------------------------------------------------------------------===//
// Deserialization
//===----------------------------------------------------------------------===//

namespace {

/// The metadata prologue of an LSSNL body, as both readers take it.
struct Prologue {
  unsigned NumUserAnnotations = 0;
  NetlistCounts Counts;
  std::vector<Diagnostic> Diags;
};

} // namespace

/// Reads the prologue records (see the format contract in Serializer.h)
/// into \p P, decoding string slots of the line in \p L through \p Str.
/// Library module names go to \p LibModules when it is non-null and are
/// skipped otherwise. On success \p L holds the first line after the
/// prologue, which is not empty.
template <typename StrFn>
static bool readPrologue(ArtifactReader &R, ArtifactLineReader &L,
                         const StrFn &Str, Prologue &P,
                         std::set<std::string> *LibModules) {
  if (!R.next(L) || L.size() != 2 || L.raw(0) != "annotations" ||
      !L.u32(1, P.NumUserAnnotations))
    return false;
  if (!R.next(L) || L.size() != 3 || L.raw(0) != "summary" ||
      !L.u32(1, P.Counts.Instances) || !L.u32(2, P.Counts.Connections))
    return false;
  for (;;) {
    if (!R.next(L) || L.size() == 0)
      return false;
    std::string_view Kind = L.raw(0);
    if (Kind == "libmodule") {
      if (L.size() != 2)
        return false;
      if (LibModules) {
        std::string Name;
        if (!Str(1, Name))
          return false;
        LibModules->insert(std::move(Name));
      }
    } else if (Kind == "diag") {
      int64_t Level;
      Diagnostic D;
      if (L.size() != 5 || !L.i64(1, Level) || Level < 0 || Level > 1 ||
          !L.loc(2, D.Loc) || !Str(4, D.Message))
        return false;
      D.Level = Level == 1 ? DiagLevel::Warning : DiagLevel::Note;
      P.Diags.push_back(std::move(D));
    } else {
      return true;
    }
  }
}

bool liberty::netlist::readNetlistSummary(std::string_view Text,
                                          NetlistSummary &Out,
                                          std::string *Error) {
  auto Fail = [&] {
    if (Error && Error->empty())
      *Error = "malformed";
    return false;
  };
  if (Error)
    Error->clear();
  if (faultShouldFail("deserialize.netlist"))
    return Fail(); // Injected stream failure: caller recompiles.

  ArtifactReader R(Text);
  std::vector<std::string_view> Strtab;
  if (!R.readHeader(NetlistHeader, Error) || !R.readRawStrtab(Strtab))
    return Fail();
  ArtifactLineReader L;
  auto Str = [&](size_t I, std::string &S) {
    uint32_t Id;
    return L.u32(I, Id) && Id < Strtab.size() &&
           artifactUnescape(Strtab[Id], S);
  };
  Prologue P;
  if (!readPrologue(R, L, Str, P, nullptr))
    return Fail();
  // The body is skipped, but the text must still close with its "end"
  // line, so every truncation is rejected as the full reader rejects it.
  if (L.isEnd() ? !R.atEnd() : !R.endsWithEndLine())
    return Fail();
  Out.Counts = P.Counts;
  Out.Diags = std::move(P.Diags);
  return true;
}

SerializedCompile
liberty::netlist::deserializeNetlist(const std::string &Text,
                                     types::TypeContext &TC,
                                     std::string *Error) {
  SerializedCompile Result;
  auto Fail = [&] {
    if (Error && Error->empty())
      *Error = "malformed";
    Result = SerializedCompile();
    return std::move(Result);
  };
  if (Error)
    Error->clear();
  if (faultShouldFail("deserialize.netlist"))
    return Fail(); // Injected stream failure: caller recompiles.

  ArtifactReader R(Text);
  std::vector<std::string> Strtab;
  if (!R.readHeader(NetlistHeader, Error) || !R.readStrtab(Strtab))
    return Fail();

  auto NL = std::make_unique<Netlist>();
  InstanceNode *Cur = NL->getRoot();
  ArtifactLineReader L;
  auto Str = [&](size_t I, std::string &Out) { return L.str(I, Strtab, Out); };
  Prologue P;
  if (!readPrologue(R, L, Str, P, &Result.LibraryModules))
    return Fail();
  Result.NumUserAnnotations = P.NumUserAnnotations;
  Result.Diags = std::move(P.Diags);
  auto Val = [&](size_t I, Value &Out) {
    std::string Enc;
    return Str(I, Enc) && ValueReader(Enc).read(Out);
  };
  // Types decode through one artifact-wide VarMap, and each table id is
  // parsed once: equal ids are the same text, and parseTypeText is
  // idempotent for a given (text, VarMap), so repeated references (the
  // common case: a design has few distinct port schemes) skip the parse.
  std::map<std::string, const types::Type *> VarMap;
  std::vector<const types::Type *> TypeMemo(Strtab.size(), nullptr);
  auto Type = [&](size_t I, const types::Type *&Out) {
    Out = nullptr;
    if (L.isDash(I))
      return true;
    uint32_t Id;
    if (!L.u32(I, Id) || Id >= Strtab.size())
      return false;
    if (!TypeMemo[Id])
      TypeMemo[Id] = types::parseTypeText(Strtab[Id], TC, VarMap);
    Out = TypeMemo[Id];
    return Out != nullptr;
  };
  bool SawEnd = false;

  // readPrologue left the first body line in L.
  do {
    if (L.size() == 0)
      return Fail();
    std::string_view Kind = L.raw(0);

    if (L.isEnd()) {
      SawEnd = true;
      break;
    } else if (Kind == "i") {
      int64_t ParentIdx, NTV;
      std::string Name, ModuleName, Behavior;
      SourceLoc Loc;
      if (L.size() != 8 || !L.i64(1, ParentIdx) || !Str(2, Name) ||
          !Str(3, ModuleName) || !L.optStr(4, Strtab, Behavior) ||
          !L.i64(5, NTV) || NTV < 0 || !L.loc(6, Loc))
        return Fail();
      const auto &Instances = NL->getInstances();
      if (ParentIdx < 0 || size_t(ParentIdx) >= Instances.size())
        return Fail();
      Cur = NL->createInstance(Instances[size_t(ParentIdx)].get(),
                               std::move(Name), nullptr, Loc);
      Cur->ModuleName = std::move(ModuleName);
      Cur->BehaviorId = std::move(Behavior);
      Cur->NumTypeVars = unsigned(NTV);
    } else if (Kind == "param") {
      std::string Name;
      Value V;
      if (L.size() != 3 || !Str(1, Name) || !Val(2, V))
        return Fail();
      Cur->Params.emplace(std::move(Name), std::move(V));
    } else if (Kind == "userpoint") {
      int64_t IsDefault, NArgs;
      std::string Name;
      UserpointValue UV;
      if (L.size() < 6 || !Str(1, Name) || !L.i64(2, IsDefault) ||
          !L.loc(3, UV.Loc) || !L.i64(5, NArgs) || NArgs < 0 ||
          L.size() != size_t(7 + NArgs))
        return Fail();
      std::vector<std::string> Args;
      for (int64_t I = 0; I != NArgs; ++I) {
        std::string A;
        if (!Str(size_t(6 + I), A))
          return Fail();
        Args.push_back(std::move(A));
      }
      if (!Str(size_t(6 + NArgs), UV.Code))
        return Fail();
      UV.IsDefault = IsDefault != 0;
      UV.Sig = NL->createUserpointSig(std::move(Args));
      Cur->Userpoints.emplace(std::move(Name), std::move(UV));
    } else if (Kind == "event") {
      std::string Name;
      if (L.size() != 2 || !Str(1, Name))
        return Fail();
      Cur->Events.push_back(std::move(Name));
    } else if (Kind == "var") {
      RuntimeVar RV;
      if (L.size() != 5 || !Str(1, RV.Name) || !L.loc(2, RV.Loc) ||
          !Val(4, RV.Init))
        return Fail();
      Cur->RuntimeVars.push_back(std::move(RV));
    } else if (Kind == "p") {
      Port P;
      int64_t Width, WInf;
      bool IsOut;
      if (L.size() != 9 || !Str(1, P.Name) || !L.boolean(2, IsOut) ||
          !L.i64(3, Width) || Width < 0 || !L.i64(4, WInf) ||
          !L.loc(5, P.Loc) || !Type(7, P.Scheme) || !Type(8, P.Resolved))
        return Fail();
      P.Dir = IsOut ? PortDirection::Out : PortDirection::In;
      P.Width = int(Width);
      P.WidthInferred = WInf != 0;
      Cur->Ports.push_back(std::move(P));
    } else if (Kind == "constrain") {
      const types::Type *LHS, *RHS;
      if (L.size() != 3 || !Type(1, LHS) || !Type(2, RHS) || !LHS || !RHS)
        return Fail();
      Cur->ExtraConstraints.emplace_back(LHS, RHS);
    } else if (Kind == "c") {
      int64_t FromIdx, FromIndex, ToIdx, ToIndex;
      std::string FromPort, ToPort;
      SourceLoc Loc;
      const types::Type *Annotation;
      if (L.size() != 10 || !L.i64(1, FromIdx) ||
          !L.optStr(2, Strtab, FromPort) || !L.i64(3, FromIndex) ||
          !L.i64(4, ToIdx) || !L.optStr(5, Strtab, ToPort) ||
          !L.i64(6, ToIndex) || !L.loc(7, Loc) || !Type(9, Annotation))
        return Fail();
      const auto &Instances = NL->getInstances();
      auto Resolve = [&](int64_t Idx, InstanceNode *&Out) {
        if (Idx == -1) {
          Out = nullptr;
          return true;
        }
        if (Idx < 0 || size_t(Idx) >= Instances.size())
          return false;
        Out = Instances[size_t(Idx)].get();
        return true;
      };
      Connection *C = NL->createConnection(Loc);
      if (!Resolve(FromIdx, C->From.Inst) || !Resolve(ToIdx, C->To.Inst))
        return Fail();
      C->From.Port = std::move(FromPort);
      C->From.Index = int(FromIndex);
      C->To.Port = std::move(ToPort);
      C->To.Index = int(ToIndex);
      C->Annotation = Annotation;
    } else {
      return Fail();
    }
  } while (R.next(L));
  // "end" is the last line, and the summary record counts what was built.
  NetlistCounts Built = countInstancesAndConnections(*NL);
  if (!SawEnd || !R.atEnd() || Built.Instances != P.Counts.Instances ||
      Built.Connections != P.Counts.Connections)
    return Fail();

  Result.NL = std::move(NL);
  return Result;
}
