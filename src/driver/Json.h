//===- Json.h - A small JSON value, parser and writer -----------*- C++ -*-===//
///
/// \file
/// The one JSON implementation of the driver: the lssd wire protocol
/// (DaemonProtocol.h), `lssc --stats-json`, the daemon `stats` reply and
/// perfbench all build and read their documents through driver::Json.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_DRIVER_JSON_H
#define LIBERTY_DRIVER_JSON_H

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace liberty {
namespace driver {

/// Just enough JSON for the wire protocol and the stats documents:
/// null/bool/number/string/array/object, a strict recursive-descent parser
/// (depth-capped so adversarial nesting cannot overflow the stack), and a
/// deterministic writer (object keys emit in sorted order). Numbers are
/// doubles; the protocol's integers (ids, counts, millisecond budgets) all
/// fit a double's 53-bit mantissa. Non-finite numbers have no JSON
/// spelling and are written as `null`.
class Json {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Json() : K(Kind::Null) {}
  Json(bool B) : K(Kind::Bool), BoolV(B) {}
  Json(double N) : K(Kind::Number), NumV(N) {}
  Json(uint64_t N) : K(Kind::Number), NumV(double(N)) {}
  Json(int N) : K(Kind::Number), NumV(N) {}
  Json(unsigned N) : K(Kind::Number), NumV(N) {}
  Json(std::string S) : K(Kind::String), StrV(std::move(S)) {}
  Json(const char *S) : K(Kind::String), StrV(S) {}

  static Json object() {
    Json J;
    J.K = Kind::Object;
    return J;
  }
  static Json array() {
    Json J;
    J.K = Kind::Array;
    return J;
  }

  Kind kind() const { return K; }
  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }
  bool isString() const { return K == Kind::String; }

  // --- Scalar accessors (defaults on kind mismatch; never trap). --------
  double asNumber(double Default = 0) const {
    return K == Kind::Number ? NumV : Default;
  }
  /// Strict unsigned accessor: the number must be a non-negative integral
  /// value representable exactly in a double (<= 2^53). Anything else —
  /// fractional, negative, NaN, or huge — yields \p Default so a malformed
  /// `len`/`retry_after_ms` can't silently truncate to a bogus integer.
  uint64_t asU64(uint64_t Default = 0) const {
    if (K != Kind::Number || !(NumV >= 0) || NumV > 9007199254740992.0 ||
        NumV != double(uint64_t(NumV)))
      return Default;
    return uint64_t(NumV);
  }
  const std::string &asString() const;

  // --- Object access. ---------------------------------------------------
  /// Sets a member (converting this value to an object if needed);
  /// returns *this so message builders chain.
  Json &set(const std::string &Key, Json V);
  /// Member lookup; null when absent or this is not an object.
  const Json *get(const std::string &Key) const;
  // Typed member conveniences, with defaults for absent/mistyped fields.
  std::string getString(const std::string &Key,
                        const std::string &Default = "") const;
  double getNumber(const std::string &Key, double Default = 0) const;
  uint64_t getU64(const std::string &Key, uint64_t Default = 0) const;
  bool getBool(const std::string &Key, bool Default = false) const;

  // --- Array access. ----------------------------------------------------
  /// Appends (converting this value to an array if needed).
  Json &push(Json V);
  const std::vector<Json> &items() const;

  // --- Serialization. ---------------------------------------------------
  /// The compact one-line form (the wire format).
  void write(std::ostream &OS) const { write(OS, -1); }
  std::string dump() const;
  /// The indented form for people: two spaces per level, one member or
  /// element per line, `"key": value`, and a trailing newline.
  void writeIndented(std::ostream &OS) const;

  /// Strict parse of one JSON document (trailing garbage is an error).
  /// On failure returns false and fills \p Err (when non-null) with a
  /// one-line description including the byte offset.
  static bool parse(std::string_view Text, Json &Out, std::string *Err);

private:
  /// Writes compactly when \p Depth < 0, else indented at that level.
  void write(std::ostream &OS, int Depth) const;

  Kind K;
  bool BoolV = false;
  double NumV = 0;
  std::string StrV;
  std::vector<Json> Arr;
  std::map<std::string, Json> Obj; ///< Sorted: writer output is canonical.
};

/// Escapes \p S for embedding in a JSON string literal (quotes excluded).
std::string jsonEscapeString(const std::string &S);

} // namespace driver
} // namespace liberty

#endif // LIBERTY_DRIVER_JSON_H
