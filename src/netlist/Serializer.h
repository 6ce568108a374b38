//===- Serializer.h - Stable netlist artifact round-trip --------*- C++ -*-===//
///
/// \file
/// Byte-stable text serialization of an elaborated netlist, plus the
/// compile metadata (library-module set, user annotation count, pending
/// diagnostics) a warm compile needs to behave identically to a cold one.
/// This is the "elaborated netlist" artifact of the content-addressed
/// compile cache (docs/API.md): a cold compile serializes right after
/// elaboration; a warm compile deserializes and skips parse + elaboration
/// entirely.
///
/// Format contract ("LSSNL 2", current — the loader also accepts v1):
///  - line oriented; every string is interned into a header string table
///    ("strtab N" then N "s <%XX-escaped>" lines, ids 0..N-1 in first-use
///    order) and referenced from records by decimal id, so repeated names,
///    type texts, and value encodings are stored once;
///  - instances appear in creation order and reference each other (and
///    connections reference instances) by dense InstanceNode::Id, so
///    reloading reproduces the original traversal order exactly — type
///    inference and simulator construction on a reloaded netlist are
///    bit-identical to the cold compile;
///  - the serializer itself is deterministic: serializing the same netlist
///    twice — or a netlist and its reloaded copy — yields identical bytes
///    regardless of how many threads inference ran on (first-use string
///    table order is a pure function of record order, so the fixpoint
///    carries over from v1);
///  - "LSSNL 1" is the same record grammar with strings %XX-escaped
///    in place instead of table references; deserializeNetlist accepts
///    both, so caches written before the v2 bump stay warm.
///
/// The deserializer trusts nothing: every record is bounds- and
/// shape-checked, and any malformed byte makes it return null (a cache
/// miss) rather than crash — mutated entries are a fuzz target
/// (fuzz_cache).
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_NETLIST_SERIALIZER_H
#define LIBERTY_NETLIST_SERIALIZER_H

#include "netlist/Netlist.h"
#include "support/Diagnostics.h"

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace liberty {

namespace types {
class TypeContext;
}

namespace netlist {

/// Everything a warm compile restores from the elaborated-netlist
/// artifact.
struct SerializedCompile {
  std::unique_ptr<Netlist> NL;
  /// Names of modules that came from the component library (reuse stats).
  std::set<std::string> LibraryModules;
  /// Explicit type annotations counted in user sources (Table 2).
  unsigned NumUserAnnotations = 0;
  /// Non-error diagnostics (warnings/notes) the cold compile emitted up to
  /// and including elaboration, replayed verbatim on a warm compile.
  /// SourceLocs stay valid because the warm compile registers the same
  /// source texts in the same order.
  std::vector<Diagnostic> Diags;
};

/// The LSSNL version serializeNetlist writes by default.
constexpr unsigned CurrentLSSNLVersion = 2;

/// Renders \p NL (plus the compile metadata) as an LSSNL artifact.
/// \p FormatVersion selects the wire format (2 = interned string table,
/// 1 = legacy in-place escaping, kept for size benchmarking and loader
/// compatibility tests). Returns false — leaving \p Out unspecified — if
/// the netlist holds a value that cannot round-trip (elaboration-only
/// instance/port references); such compiles simply are not cached.
bool serializeNetlist(const Netlist &NL,
                      const std::set<std::string> &LibraryModules,
                      unsigned NumUserAnnotations,
                      const std::vector<Diagnostic> &Diags,
                      std::string &Out,
                      unsigned FormatVersion = CurrentLSSNLVersion);

/// Parses an LSSNL 1 or LSSNL 2 artifact. Types are rebuilt in \p TC.
/// Returns an empty result (null NL) on any malformed input.
SerializedCompile deserializeNetlist(const std::string &Text,
                                     types::TypeContext &TC);

/// Renders a compile-time data Value as one raw (pre-escape) token — the
/// encoding LSSNL param records use. Returns false on elaboration-only
/// kinds (InstanceRef, Port), which cannot round-trip. Exposed for the
/// LSSDEP dependency artifact (driver/DepGraph), which persists pending
/// parameter assignments.
bool artifactEncodeValue(const interp::Value &V, std::string &Out);

/// Parses a token produced by artifactEncodeValue. Returns false on any
/// malformed input.
bool artifactDecodeValue(const std::string &Text, interp::Value &Out);

/// %XX escaping shared by the artifact writers: escapes '%', whitespace,
/// and every byte that is structural in an artifact line, so any string
/// round-trips as a single space-free token. Exposed for the solution
/// artifact (infer/Solution) and tests.
std::string artifactEscape(const std::string &S);
/// Inverse of artifactEscape; returns false on a malformed escape.
bool artifactUnescape(std::string_view S, std::string &Out);

/// Splits one artifact line into space-separated fields and provides
/// checked decoders. Every accessor reports failure instead of asserting:
/// the input may be a mutated cache entry. Shared by every line-oriented
/// artifact parser (LSSNL, LSSSOL, LSSDEP).
class ArtifactLineReader {
public:
  /// Splits on spaces without copying: fields are views into the line,
  /// which must outlive the reader. (Splitting with istreams costs more
  /// than the whole cold compile on small models — this reader is the
  /// cache's warm path, so it stays allocation-free.)
  explicit ArtifactLineReader(std::string_view Line) {
    size_t I = 0, N = Line.size();
    while (I < N) {
      while (I < N && (Line[I] == ' ' || Line[I] == '\t' || Line[I] == '\r'))
        ++I;
      size_t Start = I;
      while (I < N && Line[I] != ' ' && Line[I] != '\t' && Line[I] != '\r')
        ++I;
      if (I > Start)
        Fields.push_back(Line.substr(Start, I - Start));
    }
  }

  size_t size() const { return Fields.size(); }
  std::string_view raw(size_t I) const { return Fields[I]; }

  bool str(size_t I, std::string &Out) const {
    return I < Fields.size() && artifactUnescape(Fields[I], Out);
  }
  /// "-" decodes as the empty string (absent optional field).
  bool optStr(size_t I, std::string &Out) const {
    if (I < Fields.size() && Fields[I] == "-") {
      Out.clear();
      return true;
    }
    return str(I, Out);
  }
  bool i64(size_t I, int64_t &Out) const {
    if (I >= Fields.size() || Fields[I].empty())
      return false;
    std::string_view V = Fields[I];
    bool Neg = V[0] == '-';
    size_t P = Neg ? 1 : 0;
    if (P == V.size())
      return false;
    uint64_t Acc = 0;
    for (; P != V.size(); ++P) {
      if (V[P] < '0' || V[P] > '9')
        return false;
      if (Acc > (uint64_t(INT64_MAX) - 9) / 10)
        return false; // Overflow: reject rather than wrap.
      Acc = Acc * 10 + uint64_t(V[P] - '0');
    }
    Out = Neg ? -int64_t(Acc) : int64_t(Acc);
    return true;
  }
  bool u32(size_t I, uint32_t &Out) const {
    int64_t V;
    if (!i64(I, V) || V < 0 || V > int64_t(UINT32_MAX))
      return false;
    Out = uint32_t(V);
    return true;
  }
  bool loc(size_t I, SourceLoc &Out) const {
    return u32(I, Out.BufferId) && u32(I + 1, Out.Offset);
  }

private:
  std::vector<std::string_view> Fields;
};

/// First-use-ordered string table built while a v2 artifact body is
/// rendered. Ids are a pure function of record order, so serialization
/// stays byte-stable and the reload fixpoint carries over from the v1
/// formats. Shared by the LSSNL and LSSSOL writers.
class ArtifactStrTableBuilder {
public:
  uint32_t id(const std::string &S) {
    auto It = Ids.find(S);
    if (It != Ids.end())
      return It->second;
    uint32_t Id = static_cast<uint32_t>(Strings.size());
    Strings.push_back(S);
    Ids.emplace(S, Id);
    return Id;
  }
  const std::vector<std::string> &strings() const { return Strings; }

private:
  std::vector<std::string> Strings;
  std::unordered_map<std::string, uint32_t> Ids;
};

/// Renders string-slot tokens for the selected wire format: v2 interns
/// into the table and emits the decimal id; v1 escapes in place.
struct ArtifactTokenEmitter {
  ArtifactStrTableBuilder *Tab = nullptr; ///< Null means v1.

  std::string tok(const std::string &S) const {
    return Tab ? std::to_string(Tab->id(S)) : artifactEscape(S);
  }
  /// "-" for the empty string (absent optional field).
  std::string opt(const std::string &S) const {
    return S.empty() ? std::string("-") : tok(S);
  }
};

/// Decodes a record's string-slot fields for either artifact wire format:
/// v1 slots hold %XX-escaped text in place; v2 slots hold decimal ids into
/// the artifact's header string table. Numeric/loc fields are unchanged
/// between versions, so readers keep using the underlying line reader for
/// those. Shared by the LSSNL and LSSSOL parsers; works over any reader
/// exposing size()/raw()/str()/u32() (ArtifactLineReader or
/// infer/Solution's field splitter).
template <typename Reader> struct ArtifactFieldDecoder {
  const Reader &L;
  /// Null means v1 (in-place escaped strings).
  const std::vector<std::string> *Table;

  bool str(size_t I, std::string &Out) const {
    if (!Table)
      return L.str(I, Out);
    uint32_t Id;
    if (!L.u32(I, Id) || Id >= Table->size())
      return false;
    Out = (*Table)[Id];
    return true;
  }
  /// "-" decodes as the empty string (absent optional field).
  bool optStr(size_t I, std::string &Out) const {
    if (I < L.size() && L.raw(I) == "-") {
      Out.clear();
      return true;
    }
    return str(I, Out);
  }
};

} // namespace netlist
} // namespace liberty

#endif // LIBERTY_NETLIST_SERIALIZER_H
