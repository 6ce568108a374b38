//===- Unifier.h - Structural unification with rollback ---------*- C++ -*-===//
///
/// \file
/// Trail-based unifier over types::Type terms. Disjunctive schemes are not
/// unified here: when a disjunct meets another term, the pair is *deferred*
/// to the caller (the solver branches over alternatives). Bindings can be
/// rolled back to a checkpoint, which is what makes the exponential search
/// over disjuncts and the trial-unification heuristics affordable.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_INFER_UNIFIER_H
#define LIBERTY_INFER_UNIFIER_H

#include "types/Type.h"
#include "types/TypeContext.h"

#include <cstdint>
#include <string>
#include <vector>

namespace liberty {
namespace infer {

/// An equality between two type terms, pending solution.
struct TypePair {
  const types::Type *A = nullptr;
  const types::Type *B = nullptr;
};

class Unifier {
public:
  explicit Unifier(types::TypeContext &TC) : TC(TC) {}

  /// Follows variable bindings at the top level only.
  const types::Type *find(const types::Type *T) const {
    while (T->isVar()) {
      const types::Type *Bound = getBinding(T->getVarId());
      if (!Bound)
        return T;
      T = Bound;
    }
    return T;
  }

  /// Substitutes bindings everywhere; unbound variables remain.
  const types::Type *resolveDeep(const types::Type *T);

  /// Structurally unifies \p A and \p B. Nested (disjunct, other) pairs are
  /// appended to \p Deferred and treated as locally satisfied; the caller
  /// must branch over them. So is a *choice pair*: an unbound variable
  /// against a term that mentions it only inside disjunct alternatives,
  /// where the alternative chosen decides whether the variable occurs.
  /// Returns false on a hard mismatch (bindings made before the failure
  /// remain; callers roll back via checkpoints).
  bool unifyStructural(const types::Type *A, const types::Type *B,
                       std::vector<TypePair> &Deferred);

  /// For a choice pair (the variable \p VarId against \p T): the first
  /// outermost disjunct in \p T, in depth-first field order, whose
  /// alternatives mention the variable. The solver branches on it.
  const types::Type *findChoice(uint32_t VarId, const types::Type *T) const;

  /// \p T with the first occurrence of the disjunct \p D (in the order
  /// findChoice visits) replaced by \p Alt, inlining bindings on the path
  /// to it. Allocates the rebuilt nodes in the TypeContext, so concurrent
  /// callers sharing one context must serialize.
  const types::Type *substitute(const types::Type *T, const types::Type *D,
                                const types::Type *Alt);

  using Checkpoint = size_t;
  Checkpoint checkpoint() const { return Trail.size(); }
  void rollback(Checkpoint C);

  /// Copies \p Base's bindings into this unifier and clears the trail and
  /// step counter. Used by the parallel H3 solver: each variable-disjoint
  /// group searches on a scratch unifier seeded from the shared one, so
  /// the shared binding store is never written concurrently.
  void seedFrom(const Unifier &Base);

  /// The variable ids bound since construction/seedFrom, in binding order.
  /// Together with lookup() this is how a scratch unifier's results are
  /// harvested after a group solve.
  const std::vector<uint32_t> &getTrail() const { return Trail; }

  /// The binding of \p VarId, or null if unbound.
  const types::Type *lookup(uint32_t VarId) const {
    return getBinding(VarId);
  }

  /// Commits an externally computed binding (from a scratch unifier's
  /// trail) into this unifier. \p VarId must be unbound here.
  void adopt(uint32_t VarId, const types::Type *T) { bind(VarId, T); }

  /// Points every variable bound to another variable straight at the end
  /// of its chain, so find() answers in one step; the answers themselves
  /// do not change. Valid only when no earlier checkpoint will be rolled
  /// back: a rollback could unbind a variable a shortcut skips.
  void compressPaths();

  /// Collects the ids of unbound variables occurring in \p T (after
  /// resolving bindings) into \p Out.
  void collectUnboundVars(const types::Type *T,
                          std::vector<uint32_t> &Out) const;

  uint64_t getSteps() const { return Steps; }

  /// Human-readable description of the last hard mismatch. Rendered on
  /// demand: a failed unification only records what went wrong and the two
  /// types involved, so the search never formats text it will not report.
  std::string getLastFailure() const;

private:
  /// What the last hard mismatch was. Types are immutable, so the two
  /// recorded terms render the same text whenever they are asked.
  enum class FailureKind : uint8_t {
    None,
    Occurs,      ///< X is the variable, Y the term it occurs in.
    Mismatch,    ///< Different kinds.
    ArrayExtent, ///< Two arrays of different extents.
    FieldCount,  ///< Two structs with different field counts.
    FieldName,   ///< Two structs whose field names differ.
  };

  /// Where a variable occurs in a term: not at all, on a path free of
  /// disjuncts (no choice can remove it), or only inside alternatives.
  enum class Occurrence : uint8_t { None, Direct, UnderChoice };

  Occurrence occurrence(uint32_t VarId, const types::Type *T) const;
  const types::Type *substitute(const types::Type *T, const types::Type *D,
                                const types::Type *Alt, bool &Done);
  void bind(uint32_t VarId, const types::Type *T);
  const types::Type *getBinding(uint32_t VarId) const {
    return VarId < Bindings.size() ? Bindings[VarId] : nullptr;
  }
  bool fail(FailureKind K, const types::Type *X, const types::Type *Y) {
    LastFailKind = K;
    FailX = X;
    FailY = Y;
    return false;
  }

  types::TypeContext &TC;
  std::vector<const types::Type *> Bindings; ///< Indexed by variable id.
  std::vector<uint32_t> Trail;
  uint64_t Steps = 0;
  FailureKind LastFailKind = FailureKind::None;
  const types::Type *FailX = nullptr;
  const types::Type *FailY = nullptr;
};

} // namespace infer
} // namespace liberty

#endif // LIBERTY_INFER_UNIFIER_H
