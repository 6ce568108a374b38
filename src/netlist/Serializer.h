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
/// Format contract ("LSSNL 3", the only version written or read):
///  - line oriented; every string is interned into a header string table
///    ("strtab N" then N "s <%XX-escaped>" lines, ids 0..N-1 in first-use
///    order) and referenced from records by decimal id, so repeated names,
///    type texts, and value encodings are stored once;
///  - the body opens with the compile metadata, in a fixed order:
///    "annotations N", the summary record "summary <instances>
///    <connections>" (the two counts a compile verdict reports, see
///    countInstancesAndConnections), then the "libmodule" and "diag"
///    records; the netlist records follow, and "end" is the last line.
///    readNetlistSummary reads only this prologue, so a warm daemon
///    compile answers without rebuilding the netlist;
///  - instances appear in creation order and reference each other (and
///    connections reference instances) by dense InstanceNode::Id, so
///    reloading reproduces the original traversal order exactly — type
///    inference and simulator construction on a reloaded netlist are
///    bit-identical to the cold compile;
///  - the serializer itself is deterministic: serializing the same netlist
///    twice — or a netlist and its reloaded copy — yields identical bytes
///    regardless of how many threads inference ran on (first-use string
///    table order is a pure function of record order).
///
/// The deserializer trusts nothing: every record is bounds- and
/// shape-checked, the summary record must match the netlist the records
/// build, and any malformed byte makes it return null (a cache miss)
/// rather than crash — mutated entries are a fuzz target (fuzz_cache).
/// Any other header is rejected the same way.
///
/// This header also holds the reading and writing layer every
/// line-oriented artifact (LSSNL, LSSSOL) shares: %XX escaping,
/// the line iterator with its header and string-table readers, the field
/// decoder, and the string-table writer.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_NETLIST_SERIALIZER_H
#define LIBERTY_NETLIST_SERIALIZER_H

#include "netlist/Netlist.h"
#include "support/Diagnostics.h"
#include "support/Hash.h"

#include <cstdint>
#include <cstring>
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

/// Renders \p NL (plus the compile metadata) as an LSSNL 3 artifact.
/// Returns false — leaving \p Out unspecified — if the netlist holds a
/// value that cannot round-trip (elaboration-only instance/port
/// references); such compiles simply are not cached.
bool serializeNetlist(const Netlist &NL,
                      const std::set<std::string> &LibraryModules,
                      unsigned NumUserAnnotations,
                      const std::vector<Diagnostic> &Diags,
                      std::string &Out);

/// Parses an LSSNL 3 artifact. Types are rebuilt in \p TC. Returns an
/// empty result (null NL) on any malformed input; \p Error, when
/// non-null, then receives the reason (see ArtifactReader::readHeader).
SerializedCompile deserializeNetlist(const std::string &Text,
                                     types::TypeContext &TC,
                                     std::string *Error = nullptr);

/// What a compile verdict needs from an LSSNL artifact: the summary
/// record's counts and the replayed diagnostics.
struct NetlistSummary {
  NetlistCounts Counts;
  std::vector<Diagnostic> Diags;
};

/// Reads the prologue of an LSSNL 3 artifact (header, string table,
/// metadata records) and checks that the text ends with the "end" line,
/// building no netlist and no type. Every artifact deserializeNetlist
/// accepts is accepted here with the same counts and diagnostics; like
/// it, this honours the "deserialize.netlist" fault site and reports the
/// reason for a rejection in \p Error.
bool readNetlistSummary(std::string_view Text, NetlistSummary &Out,
                        std::string *Error = nullptr);

/// %XX escaping shared by the artifact writers: escapes '%', whitespace,
/// and every byte that is structural in an artifact line, so any string
/// round-trips as a single space-free token. Exposed for tests.
std::string artifactEscape(const std::string &S);
/// Inverse of artifactEscape; returns false on a malformed escape.
bool artifactUnescape(std::string_view S, std::string &Out);

/// Splits one artifact line into space-separated fields and provides
/// checked decoders. Every accessor reports failure instead of asserting:
/// the input may be a mutated cache entry.
class ArtifactLineReader {
public:
  /// Splits on spaces without copying: fields are views into the line,
  /// which must outlive their use. Re-splitting reuses the field storage,
  /// so one reader per artifact allocates only until it has seen the
  /// widest line — this is the cache's warm path.
  void split(std::string_view Line) {
    Fields.clear();
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

  /// A decimal id into \p Table (LSSNL and LSSSOL string slots).
  bool str(size_t I, const std::vector<std::string> &Table,
           std::string &Out) const {
    uint32_t Id;
    if (!u32(I, Id) || Id >= Table.size())
      return false;
    Out = Table[Id];
    return true;
  }
  /// "-" decodes as the empty string (absent optional field).
  bool optStr(size_t I, const std::vector<std::string> &Table,
              std::string &Out) const {
    if (isDash(I)) {
      Out.clear();
      return true;
    }
    return str(I, Table, Out);
  }
  bool isDash(size_t I) const { return I < Fields.size() && Fields[I] == "-"; }
  /// The line is exactly "end", the line that closes every artifact body.
  bool isEnd() const { return Fields.size() == 1 && Fields[0] == "end"; }

  bool i64(size_t I, int64_t &Out) const {
    if (I >= Fields.size() || Fields[I].empty())
      return false;
    std::string_view V = Fields[I];
    bool Neg = V[0] == '-';
    uint64_t Acc;
    if (!digits(V.substr(Neg ? 1 : 0), uint64_t(INT64_MAX), Acc))
      return false;
    Out = Neg ? -int64_t(Acc) : int64_t(Acc);
    return true;
  }
  bool u64(size_t I, uint64_t &Out) const {
    return I < Fields.size() && digits(Fields[I], UINT64_MAX, Out);
  }
  bool u32(size_t I, uint32_t &Out) const {
    uint64_t V;
    if (I >= Fields.size() || !digits(Fields[I], UINT32_MAX, V))
      return false;
    Out = uint32_t(V);
    return true;
  }
  /// "0" or "1".
  bool boolean(size_t I, bool &Out) const {
    if (I >= Fields.size() || (Fields[I] != "0" && Fields[I] != "1"))
      return false;
    Out = Fields[I] == "1";
    return true;
  }
  /// Exactly 16 lowercase hex digits (support/Hash.h hex64).
  bool hex(size_t I, uint64_t &Out) const {
    return I < Fields.size() && parseHex64(Fields[I], Out);
  }
  /// A double as the hex of its IEEE754 bit pattern.
  bool dbl(size_t I, double &Out) const {
    uint64_t Bits;
    if (!hex(I, Bits))
      return false;
    std::memcpy(&Out, &Bits, sizeof(Out));
    return true;
  }
  bool loc(size_t I, SourceLoc &Out) const {
    return u32(I, Out.BufferId) && u32(I + 1, Out.Offset);
  }

private:
  /// Unsigned decimal no greater than \p Max; rejects overflow rather than
  /// wrapping.
  static bool digits(std::string_view V, uint64_t Max, uint64_t &Out) {
    if (V.empty())
      return false;
    uint64_t Acc = 0;
    for (char C : V) {
      if (C < '0' || C > '9')
        return false;
      uint64_t D = uint64_t(C - '0');
      if (Acc > (Max - D) / 10)
        return false;
      Acc = Acc * 10 + D;
    }
    Out = Acc;
    return true;
  }

  std::vector<std::string_view> Fields;
};

/// Walks an artifact text line by line without copying. Lines are views
/// into the text, which must outlive the reader.
class ArtifactReader {
public:
  explicit ArtifactReader(std::string_view Text) : Text(Text) {}

  /// Splits the next line into \p L. Returns false at the end of the text.
  bool next(ArtifactLineReader &L) {
    std::string_view Line;
    if (!nextLine(Line))
      return false;
    L.split(Line);
    return true;
  }

  /// Consumes the header line, which must read exactly \p Header
  /// ("<magic> <version>"). On a mismatch sets \p Error (when non-null) to
  /// "unsupported format '<line>' (expected '<Header>')" if the line names
  /// the same magic with another version, and to "malformed" otherwise.
  bool readHeader(std::string_view Header, std::string *Error = nullptr);

  /// Consumes the "strtab N" line and its N "s <%XX-escaped>" lines.
  bool readStrtab(std::vector<std::string> &Out);
  /// readStrtab without the decoding: \p Out gets each entry's escaped
  /// token, a view into the text, for a reader that decodes only the few
  /// entries it uses.
  bool readRawStrtab(std::vector<std::string_view> &Out);

  /// True once every line has been read.
  bool atEnd() const { return Pos >= Text.size(); }
  /// Whether the text's last line, which follows at least one other
  /// line, is "end" (ArtifactLineReader::isEnd). A summary reader, which
  /// stops before the body, checks this instead of reading to it.
  bool endsWithEndLine() const {
    if (Text.empty() || Text.back() != '\n')
      return false;
    std::string_view Lines = Text.substr(0, Text.size() - 1);
    size_t LastStart = Lines.rfind('\n');
    if (LastStart == std::string_view::npos)
      return false;
    ArtifactLineReader L;
    L.split(Lines.substr(LastStart + 1));
    return L.isEnd();
  }

private:
  /// The next line. Every line, the last included, ends in '\n': a text
  /// cut just before its last newline is malformed. Returns false at the
  /// end of the text and on an unterminated line.
  bool nextLine(std::string_view &Line) {
    size_t E = Text.find('\n', Pos);
    if (E == std::string_view::npos)
      return false;
    Line = Text.substr(Pos, E - Pos);
    Pos = E + 1;
    return true;
  }

  std::string_view Text;
  size_t Pos = 0;
};

/// First-use-ordered string table built while an LSSNL or LSSSOL body is
/// rendered. Ids are a pure function of record order, so serialization
/// stays byte-stable and reloading reaches a fixpoint.
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
  /// The string-slot token: \p S's decimal id.
  std::string tok(const std::string &S) { return std::to_string(id(S)); }
  /// "-" for the empty string (absent optional field).
  std::string opt(const std::string &S) {
    return S.empty() ? std::string("-") : tok(S);
  }

  /// The finished artifact: \p Header, the table, then \p Body (rendered
  /// first, so the table is complete).
  std::string finish(std::string_view Header, const std::string &Body) const;

private:
  std::vector<std::string> Strings;
  std::unordered_map<std::string, uint32_t> Ids;
};

} // namespace netlist
} // namespace liberty

#endif // LIBERTY_NETLIST_SERIALIZER_H
