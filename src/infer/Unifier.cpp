//===- Unifier.cpp - Structural unification with rollback -------------------===//

#include "infer/Unifier.h"

#include "types/Type.h"

#include <cassert>
#include <utility>

using namespace liberty;
using namespace liberty::infer;
using types::Type;

void Unifier::bind(uint32_t VarId, const Type *T) {
  if (VarId >= Bindings.size())
    Bindings.resize(VarId + 1, nullptr);
  assert(!Bindings[VarId] && "rebinding a bound variable");
  Bindings[VarId] = T;
  Trail.push_back(VarId);
}

void Unifier::seedFrom(const Unifier &Base) {
  Bindings = Base.Bindings;
  Trail.clear();
  Steps = 0;
  LastFailKind = FailureKind::None;
}

void Unifier::compressPaths() {
  for (const Type *&Binding : Bindings) {
    if (!Binding || !Binding->isVar())
      continue;
    // Rewrite the whole chain as it is walked, so each variable on it is
    // visited once however many chains pass through it.
    const Type *End = find(Binding);
    for (const Type *V = Binding; V != End;) {
      const Type *&Next = Bindings[V->getVarId()];
      V = std::exchange(Next, End);
    }
    Binding = End;
  }
}

void Unifier::rollback(Checkpoint C) {
  assert(C <= Trail.size() && "rollback past the trail");
  while (Trail.size() > C) {
    Bindings[Trail.back()] = nullptr;
    Trail.pop_back();
  }
}

Unifier::Occurrence Unifier::occurrence(uint32_t VarId, const Type *T) const {
  T = find(T);
  switch (T->getKind()) {
  case Type::Kind::Var:
    return T->getVarId() == VarId ? Occurrence::Direct : Occurrence::None;
  case Type::Kind::Array:
    return occurrence(VarId, T->getElem());
  case Type::Kind::Struct: {
    Occurrence R = Occurrence::None;
    for (const auto &[Name, FieldTy] : T->getFields()) {
      Occurrence O = occurrence(VarId, FieldTy);
      if (O == Occurrence::Direct)
        return O;
      if (O == Occurrence::UnderChoice)
        R = O;
    }
    return R;
  }
  case Type::Kind::Disjunct:
    for (const Type *Alt : T->getAlternatives())
      if (occurrence(VarId, Alt) != Occurrence::None)
        return Occurrence::UnderChoice;
    return Occurrence::None;
  default:
    return Occurrence::None;
  }
}

const Type *Unifier::findChoice(uint32_t VarId, const Type *T) const {
  T = find(T);
  switch (T->getKind()) {
  case Type::Kind::Array:
    return findChoice(VarId, T->getElem());
  case Type::Kind::Struct:
    for (const auto &[Name, FieldTy] : T->getFields())
      if (const Type *D = findChoice(VarId, FieldTy))
        return D;
    return nullptr;
  case Type::Kind::Disjunct:
    return occurrence(VarId, T) != Occurrence::None ? T : nullptr;
  default:
    return nullptr;
  }
}

const Type *Unifier::substitute(const Type *T, const Type *D,
                                const Type *Alt) {
  bool Done = false;
  const Type *R = substitute(T, D, Alt, Done);
  assert(Done && "choice disjunct not found");
  return R;
}

const Type *Unifier::substitute(const Type *T, const Type *D,
                                const Type *Alt, bool &Done) {
  T = find(T);
  if (T == D) {
    Done = true;
    return Alt;
  }
  switch (T->getKind()) {
  case Type::Kind::Array: {
    const Type *Elem = substitute(T->getElem(), D, Alt, Done);
    return Done ? TC.getArray(Elem, T->getArraySize()) : T;
  }
  case Type::Kind::Struct: {
    std::vector<std::pair<std::string, const Type *>> Fields =
        T->getFields();
    for (auto &[Name, FieldTy] : Fields) {
      FieldTy = substitute(FieldTy, D, Alt, Done);
      if (Done)
        return TC.getStruct(std::move(Fields));
    }
    return T;
  }
  default:
    return T; // D is outermost: no need to look inside other disjuncts.
  }
}

bool Unifier::unifyStructural(const Type *A, const Type *B,
                              std::vector<TypePair> &Deferred) {
  ++Steps;
  A = find(A);
  B = find(B);
  if (A == B)
    return true;

  // A disjunct cannot be unified locally: the solver must choose an
  // alternative. Defer the pair. (Checked before variable binding so a
  // variable is never bound to a disjunctive scheme.)
  if (A->isDisjunct() || B->isDisjunct()) {
    Deferred.push_back(TypePair{A, B});
    return true;
  }

  if (A->isVar() || B->isVar()) {
    // The variable is picked by side, never by comparing ids, so a
    // bijective renaming of variables leaves every step the same; the H3
    // group memo (InferenceEngine::solve) relies on it.
    const Type *Var = A->isVar() ? A : B;
    const Type *Term = A->isVar() ? B : A;
    switch (occurrence(Var->getVarId(), Term)) {
    case Occurrence::None:
      bind(Var->getVarId(), Term);
      return true;
    case Occurrence::Direct:
      return fail(FailureKind::Occurs, Var, Term);
    case Occurrence::UnderChoice:
      Deferred.push_back(TypePair{A, B});
      return true;
    }
  }

  if (A->getKind() != B->getKind())
    return fail(FailureKind::Mismatch, A, B);

  switch (A->getKind()) {
  case Type::Kind::Int:
  case Type::Kind::Bool:
  case Type::Kind::Float:
  case Type::Kind::String:
    return true;
  case Type::Kind::Array:
    if (A->getArraySize() != B->getArraySize())
      return fail(FailureKind::ArrayExtent, A, B);
    return unifyStructural(A->getElem(), B->getElem(), Deferred);
  case Type::Kind::Struct: {
    const auto &FA = A->getFields();
    const auto &FB = B->getFields();
    if (FA.size() != FB.size())
      return fail(FailureKind::FieldCount, A, B);
    for (unsigned I = 0; I != FA.size(); ++I) {
      if (FA[I].first != FB[I].first)
        return fail(FailureKind::FieldName, A, B);
      if (!unifyStructural(FA[I].second, FB[I].second, Deferred))
        return false;
    }
    return true;
  }
  case Type::Kind::Var:
  case Type::Kind::Disjunct:
    break; // Handled above.
  }
  assert(false && "unreachable unification case");
  return false;
}

std::string Unifier::getLastFailure() const {
  switch (LastFailKind) {
  case FailureKind::None:
    return std::string();
  case FailureKind::Occurs:
    return "occurs check failed: " + FailX->str() + " in " + FailY->str();
  case FailureKind::Mismatch:
    return "cannot unify " + FailX->str() + " with " + FailY->str();
  case FailureKind::ArrayExtent:
    return "array extents differ: " + FailX->str() + " vs " + FailY->str();
  case FailureKind::FieldCount:
    return "struct field counts differ: " + FailX->str() + " vs " +
           FailY->str();
  case FailureKind::FieldName:
    return "struct field names differ: " + FailX->str() + " vs " +
           FailY->str();
  }
  return std::string();
}

const Type *Unifier::resolveDeep(const Type *T) {
  T = find(T);
  switch (T->getKind()) {
  case Type::Kind::Int:
  case Type::Kind::Bool:
  case Type::Kind::Float:
  case Type::Kind::String:
  case Type::Kind::Var:
    return T;
  case Type::Kind::Array: {
    const Type *Elem = resolveDeep(T->getElem());
    if (Elem == T->getElem())
      return T;
    return TC.getArray(Elem, T->getArraySize());
  }
  case Type::Kind::Struct: {
    bool Changed = false;
    std::vector<std::pair<std::string, const Type *>> Fields;
    Fields.reserve(T->getFields().size());
    for (const auto &[Name, FieldTy] : T->getFields()) {
      const Type *R = resolveDeep(FieldTy);
      Changed |= (R != FieldTy);
      Fields.emplace_back(Name, R);
    }
    return Changed ? TC.getStruct(std::move(Fields)) : T;
  }
  case Type::Kind::Disjunct: {
    bool Changed = false;
    std::vector<const Type *> Alts;
    Alts.reserve(T->getAlternatives().size());
    for (const Type *Alt : T->getAlternatives()) {
      const Type *R = resolveDeep(Alt);
      Changed |= (R != Alt);
      Alts.push_back(R);
    }
    return Changed ? TC.getDisjunct(std::move(Alts)) : T;
  }
  }
  return T;
}

void Unifier::collectUnboundVars(const Type *T,
                                 std::vector<uint32_t> &Out) const {
  T = find(T);
  switch (T->getKind()) {
  case Type::Kind::Var:
    Out.push_back(T->getVarId());
    return;
  case Type::Kind::Array:
    collectUnboundVars(T->getElem(), Out);
    return;
  case Type::Kind::Struct:
    for (const auto &[Name, FieldTy] : T->getFields())
      collectUnboundVars(FieldTy, Out);
    return;
  case Type::Kind::Disjunct:
    for (const Type *Alt : T->getAlternatives())
      collectUnboundVars(Alt, Out);
    return;
  default:
    return;
  }
}
