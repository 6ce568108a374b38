//===- TraceGen.h - Synthetic µRISC instruction traces ----------*- C++ -*-===//
///
/// \file
/// Deterministic synthetic instruction-trace generator. The paper's models
/// ran real ISA workloads (DLX, IA-64, Itanium 2 binaries) that we cannot
/// ship; this generator substitutes a small µRISC token stream with
/// controllable operation mix, which exercises the same simulator code
/// paths (see DESIGN.md, substitution table). The same generator drives
/// both the LSS-built models (via the corelib/fetch behavior) and the
/// hand-coded reference simulator, so cross-validation compares identical
/// workloads.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_CORELIB_TRACEGEN_H
#define LIBERTY_CORELIB_TRACEGEN_H

#include "interp/Value.h"

#include <cstdint>

namespace liberty {
namespace corelib {

/// Operation classes of the µRISC ISA.
enum class OpClass : int64_t {
  Alu = 0,
  Mul = 1,
  Load = 2,
  Store = 3,
  Branch = 4,
};

/// One µRISC instruction token. Flows through models as a struct value
/// {pc, op, dest, src1, src2, lat}.
struct MicroInstr {
  int64_t Pc = 0;
  int64_t Op = 0;
  int64_t Dest = 0;
  int64_t Src1 = 0;
  int64_t Src2 = 0;
  int64_t Lat = 1;
};

/// Deterministic (LCG-seeded) µRISC instruction stream.
class TraceGen {
public:
  /// \p MemPercent and \p BranchPercent select the fraction (0-100) of
  /// memory and branch operations; the remainder splits 4:1 ALU:MUL.
  TraceGen(uint64_t Seed, int MemPercent, int BranchPercent);

  MicroInstr next();

  /// Raw generator state access so behaviors can draw extra randomness
  /// (e.g. branch directions) reproducibly.
  uint32_t rand32();

  /// Encodes \p I as the canonical token: six Int fields pc, op, dest,
  /// src1, src2, lat, in that order.
  static interp::Value toValue(const MicroInstr &I);
  /// True if \p V has exactly toValue's layout, so toValue(fromValue(V))
  /// equals V.
  static bool isCanonical(const interp::Value &V);
  /// Decodes a token: a canonical one by position, any other struct by
  /// field name (missing or non-Int fields keep their defaults).
  static MicroInstr fromValue(const interp::Value &V);
  /// Latency of an operation class in the reference timing model.
  static int64_t latencyFor(OpClass Op);

private:
  uint64_t State;
  int64_t Pc = 0;
  int MemPercent;
  int BranchPercent;
};

} // namespace corelib
} // namespace liberty

#endif // LIBERTY_CORELIB_TRACEGEN_H
