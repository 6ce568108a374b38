//===- Hash.h - FNV-1a hashing and fixed-width hex rendering ----*- C++ -*-===//
///
/// \file
/// The one FNV-1a 64 implementation and the one 16-digit hex codec. Cache
/// keys (driver/CompilerInvocation), LSSART envelope checksums
/// (driver/ArtifactCache), fault-injection rule streams, and the float/hash
/// fields of the artifact formats all go through these, so every persisted
/// byte shares one definition.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_SUPPORT_HASH_H
#define LIBERTY_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace liberty {

/// FNV-1a 64. Fields are fed as `tag=value;` runs; strings are
/// length-prefixed so adjacent fields cannot alias.
///
/// The default offset basis, 1469598103934665603, is one digit short of
/// the published 14695981039346656037. Every cache key, envelope checksum
/// and fault-injection stream was minted with it, so it stays; callers
/// that want the published constant pass it.
class FnvHasher {
public:
  explicit FnvHasher(uint64_t Basis = 1469598103934665603ull) : H(Basis) {}

  void bytes(const void *Data, size_t N) {
    const unsigned char *P = static_cast<const unsigned char *>(Data);
    for (size_t I = 0; I != N; ++I) {
      H ^= P[I];
      H *= 1099511628211ull;
    }
  }
  void str(const std::string &S) {
    num(S.size());
    bytes(S.data(), S.size());
  }
  void num(uint64_t V) { bytes(&V, sizeof(V)); }
  void field(const char *Tag, uint64_t V) {
    bytes(Tag, std::char_traits<char>::length(Tag));
    num(V);
  }
  uint64_t get() const { return H; }

private:
  uint64_t H;
};

/// FNV-1a 64 of raw bytes (no length prefix).
inline uint64_t fnv64(std::string_view S) {
  FnvHasher H;
  H.bytes(S.data(), S.size());
  return H.get();
}

/// Renders \p V as exactly 16 lowercase hex digits (printf "%016llx").
inline std::string hex64(uint64_t V) {
  static const char Digits[] = "0123456789abcdef";
  std::string S(16, '0');
  for (size_t I = 16; I-- != 0; V >>= 4)
    S[I] = Digits[V & 15];
  return S;
}

/// Inverse of hex64: accepts exactly 16 lowercase hex digits.
inline bool parseHex64(std::string_view S, uint64_t &Out) {
  if (S.size() != 16)
    return false;
  uint64_t V = 0;
  for (char C : S) {
    unsigned D;
    if (C >= '0' && C <= '9')
      D = unsigned(C - '0');
    else if (C >= 'a' && C <= 'f')
      D = unsigned(C - 'a') + 10;
    else
      return false;
    V = (V << 4) | D;
  }
  Out = V;
  return true;
}

} // namespace liberty

#endif // LIBERTY_SUPPORT_HASH_H
