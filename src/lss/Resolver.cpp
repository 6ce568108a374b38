//===- Resolver.cpp - Name resolution for LSS and BSL bodies -----------------===//

#include "lss/Resolver.h"

#include "support/Casting.h"

#include <cstdint>
#include <string_view>
#include <utility>

using namespace liberty;
using namespace liberty::lss;

namespace {

/// A name -> int table for one body's resolution: open addressing with
/// linear probing over keys that view the AST's own strings. reset()
/// keeps the capacity, so one table serves body after body without
/// allocating.
class NameTable {
public:
  /// The value of \p Name and whether it was just added (with \p Init).
  std::pair<int *, bool> insert(std::string_view Name, int Init) {
    if (2 * (Used.size() + 1) > Entries.size())
      grow();
    uint32_t H = hash(Name);
    size_t I = probe(Name, H);
    if (Entries[I].Live)
      return {&Entries[I].Value, false};
    Entries[I] = Entry{Name, H, Init, true};
    Used.push_back(uint32_t(I));
    return {&Entries[I].Value, true};
  }

  /// The value of \p Name, or null.
  int *find(std::string_view Name) {
    if (Entries.empty())
      return nullptr;
    size_t I = probe(Name, hash(Name));
    return Entries[I].Live ? &Entries[I].Value : nullptr;
  }

  void reset() {
    for (uint32_t I : Used)
      Entries[I].Live = false;
    Used.clear();
  }

private:
  struct Entry {
    std::string_view Key;
    uint32_t Hash = 0;
    int Value = 0;
    bool Live = false;
  };

  /// FNV-1a: names are short, and an inline loop beats a library call.
  static uint32_t hash(std::string_view Name) {
    uint64_t H = 1469598103934665603ull;
    for (char C : Name)
      H = (H ^ uint8_t(C)) * 1099511628211ull;
    return uint32_t(H ^ (H >> 32));
  }

  size_t probe(std::string_view Name, uint32_t H) const {
    size_t Mask = Entries.size() - 1;
    size_t I = H & Mask;
    while (Entries[I].Live && (Entries[I].Hash != H || Entries[I].Key != Name))
      I = (I + 1) & Mask;
    return I;
  }

  void grow() {
    std::vector<Entry> Old;
    Old.swap(Entries);
    Entries.resize(Old.empty() ? 64 : 2 * Old.size());
    Used.clear();
    for (const Entry &E : Old)
      if (E.Live) {
        size_t I = probe(E.Key, E.Hash);
        Entries[I] = E;
        Used.push_back(uint32_t(I));
      }
  }

  std::vector<Entry> Entries; ///< Size is zero or a power of two.
  std::vector<uint32_t> Used; ///< Indices of the live entries.
};

/// The tables one resolution works in, kept per thread from body to body.
struct Tables {
  /// Name -> the innermost slot that may bind it at the point walked, or
  /// -1 once no open scope binds it.
  NameTable Visible;
  NameTable Ports, Params, TypeVars;
  /// What each open scope's declarations displaced in Visible.
  std::vector<std::pair<std::string_view, int>> Saved;
  /// BodyLayout::Outer while it grows.
  std::vector<int> OuterSlots;

  void reset() {
    Visible.reset();
    Ports.reset();
    Params.reset();
    TypeVars.reset();
    Saved.clear();
    OuterSlots.clear();
  }
};

class Resolver {
public:
  Resolver(BodyLayout &L, Tables &T)
      : L(L), Visible(T.Visible), Ports(T.Ports), Params(T.Params),
        TypeVars(T.TypeVars), Saved(T.Saved), OuterSlots(T.OuterSlots) {
    L = BodyLayout();
    T.reset();
  }

  void body(const std::vector<Stmt *> &Body) {
    for (Stmt *S : Body)
      declareIn(S);
    for (Stmt *S : Body)
      walk(S);
    L.Outer.assign(OuterSlots.begin(), OuterSlots.end());
  }

private:
  /// The scope being resolved: where its slots start, and how much of
  /// Saved to undo when it closes.
  struct OpenScope {
    unsigned Begin;
    size_t SavedMark;
  };

  OpenScope enter() {
    OpenScope Outer{Begin, Saved.size()};
    Begin = unsigned(OuterSlots.size());
    return Outer;
  }

  void leave(OpenScope Outer) {
    while (Saved.size() > Outer.SavedMark) {
      auto [Name, Prev] = Saved.back();
      Saved.pop_back();
      *Visible.find(Name) = Prev;
    }
    Begin = Outer.Begin;
  }

  /// Gives \p Name a slot in the open scope unless it has one there, and
  /// returns that slot.
  int declare(std::string_view Name) {
    int &Slot = *Visible.insert(Name, -1).first;
    if (Slot >= int(Begin))
      return Slot;
    Saved.emplace_back(Name, Slot);
    OuterSlots.push_back(Slot);
    Slot = int(OuterSlots.size()) - 1;
    return Slot;
  }

  /// Declares the names statement \p S may bind in the open scope, and
  /// records the slot on the statement: its own declaration or plain
  /// assignment, and those of the branches and loop bodies that run in
  /// the same scope. Blocks and `for` loops open scopes of their own. The
  /// slot is final: a name's slot in its own scope is the innermost.
  void declareIn(Stmt *S) {
    if (!S)
      return;
    switch (S->getKind()) {
    case Stmt::Kind::VarDecl:
      if (auto *V = cast<VarDeclStmt>(S); !V->isRuntime())
        V->setSlot(declare(V->getName()));
      return;
    case Stmt::Kind::ParamDecl:
      cast<ParamDeclStmt>(S)->setSlot(
          declare(cast<ParamDeclStmt>(S)->getName()));
      return;
    case Stmt::Kind::PortDecl:
      cast<PortDeclStmt>(S)->setSlot(
          declare(cast<PortDeclStmt>(S)->getName()));
      return;
    case Stmt::Kind::InstanceDecl:
      cast<InstanceDeclStmt>(S)->setSlot(
          declare(cast<InstanceDeclStmt>(S)->getName()));
      return;
    case Stmt::Kind::Assign:
      if (auto *Id = dyn_cast<IdentExpr>(cast<AssignStmt>(S)->getLHS()))
        Id->setSlot(declare(Id->getName()));
      return;
    case Stmt::Kind::If:
      declareIn(cast<IfStmt>(S)->getThen());
      declareIn(cast<IfStmt>(S)->getElse());
      return;
    case Stmt::Kind::While:
      declareIn(cast<WhileStmt>(S)->getBody());
      return;
    default:
      return;
    }
  }

  int slotOf(std::string_view Name) {
    int *Slot = Visible.find(Name);
    return Slot ? *Slot : -1;
  }

  static unsigned number(NameTable &Table, std::string_view Name,
                         unsigned &Count) {
    auto [Index, New] = Table.insert(Name, int(Count));
    if (New)
      ++Count;
    return unsigned(*Index);
  }

  void walk(Stmt *S) {
    if (!S)
      return;
    switch (S->getKind()) {
    case Stmt::Kind::ParamDecl: {
      auto *P = cast<ParamDeclStmt>(S);
      P->setParamIdx(number(Params, P->getName(), L.NumParamNames));
      type(P->getType());
      expr(P->getDefault());
      return;
    }
    case Stmt::Kind::PortDecl: {
      auto *P = cast<PortDeclStmt>(S);
      P->setPortIdx(number(Ports, P->getName(), L.NumPortNames));
      ++L.NumPortDecls;
      type(P->getType());
      return;
    }
    case Stmt::Kind::InstanceDecl:
      return;
    case Stmt::Kind::VarDecl: {
      auto *V = cast<VarDeclStmt>(S);
      type(V->getType());
      expr(V->getInit());
      return;
    }
    case Stmt::Kind::Constrain: {
      auto *C = cast<ConstrainStmt>(S);
      C->setVarIdx(number(TypeVars, C->getVarName(), L.NumTypeVars));
      type(C->getScheme());
      return;
    }
    case Stmt::Kind::If: {
      auto *I = cast<IfStmt>(S);
      expr(I->getCond());
      walk(I->getThen());
      walk(I->getElse());
      return;
    }
    case Stmt::Kind::For: {
      auto *F = cast<ForStmt>(S);
      OpenScope Outer = enter();
      declareIn(F->getInit());
      declareIn(F->getStep());
      declareIn(F->getBody());
      F->setScope({Begin, unsigned(OuterSlots.size())});
      walk(F->getInit());
      expr(F->getCond());
      walk(F->getStep());
      walk(F->getBody());
      leave(Outer);
      return;
    }
    case Stmt::Kind::While: {
      auto *W = cast<WhileStmt>(S);
      expr(W->getCond());
      walk(W->getBody());
      return;
    }
    case Stmt::Kind::Block: {
      auto *B = cast<BlockStmt>(S);
      OpenScope Outer = enter();
      for (Stmt *Sub : B->getBody())
        declareIn(Sub);
      B->setScope({Begin, unsigned(OuterSlots.size())});
      for (Stmt *Sub : B->getBody())
        walk(Sub);
      leave(Outer);
      return;
    }
    case Stmt::Kind::Assign:
      // declareIn resolved a plain name on the left.
      if (!isa<IdentExpr>(cast<AssignStmt>(S)->getLHS()))
        expr(cast<AssignStmt>(S)->getLHS());
      expr(cast<AssignStmt>(S)->getRHS());
      return;
    case Stmt::Kind::Connect: {
      auto *C = cast<ConnectStmt>(S);
      expr(C->getFrom());
      expr(C->getTo());
      type(C->getAnnotation());
      return;
    }
    case Stmt::Kind::ExprStmt:
      expr(cast<ExprStmt>(S)->getExpr());
      return;
    case Stmt::Kind::Return:
      expr(cast<ReturnStmt>(S)->getValue());
      return;
    case Stmt::Kind::EventDecl:
    case Stmt::Kind::Break:
    case Stmt::Kind::Continue:
      return;
    }
  }

  void expr(Expr *E) {
    if (!E)
      return;
    switch (E->getKind()) {
    case Expr::Kind::Ident: {
      auto *Id = cast<IdentExpr>(E);
      Id->setSlot(slotOf(Id->getName()));
      return;
    }
    case Expr::Kind::Member:
      expr(cast<MemberExpr>(E)->getBase());
      return;
    case Expr::Kind::Index:
      expr(cast<IndexExpr>(E)->getBase());
      expr(cast<IndexExpr>(E)->getIndex());
      return;
    case Expr::Kind::Call:
      for (Expr *Arg : cast<CallExpr>(E)->getArgs())
        expr(Arg);
      return;
    case Expr::Kind::NewInstanceArray:
      expr(cast<NewInstanceArrayExpr>(E)->getSizeExpr());
      expr(cast<NewInstanceArrayExpr>(E)->getNameExpr());
      return;
    case Expr::Kind::Unary:
      expr(cast<UnaryExpr>(E)->getOperand());
      return;
    case Expr::Kind::Binary:
      expr(cast<BinaryExpr>(E)->getLHS());
      expr(cast<BinaryExpr>(E)->getRHS());
      return;
    case Expr::Kind::IntLit:
    case Expr::Kind::FloatLit:
    case Expr::Kind::StringLit:
    case Expr::Kind::BoolLit:
      return;
    }
  }

  void type(TypeExpr *TE) {
    if (!TE)
      return;
    switch (TE->getKind()) {
    case TypeExpr::Kind::Var: {
      auto *V = cast<VarTypeExpr>(TE);
      V->setVarIdx(number(TypeVars, V->getName(), L.NumTypeVars));
      return;
    }
    case TypeExpr::Kind::Array:
      type(cast<ArrayTypeExpr>(TE)->getElem());
      expr(cast<ArrayTypeExpr>(TE)->getSizeExpr());
      return;
    case TypeExpr::Kind::Struct:
      for (const auto &Field : cast<StructTypeExpr>(TE)->getFields())
        type(Field.second);
      return;
    case TypeExpr::Kind::Disjunct:
      for (TypeExpr *Alt : cast<DisjunctTypeExpr>(TE)->getAlternatives())
        type(Alt);
      return;
    case TypeExpr::Kind::Basic:
    case TypeExpr::Kind::InstanceRef:
      return;
    }
  }

  BodyLayout &L;
  NameTable &Visible;
  NameTable &Ports, &Params, &TypeVars;
  std::vector<std::pair<std::string_view, int>> &Saved;
  std::vector<int> &OuterSlots;
  unsigned Begin = 0;
};

} // namespace

void liberty::lss::resolveBody(const std::vector<Stmt *> &Body,
                               BodyLayout &Layout) {
  thread_local Tables T;
  Resolver(Layout, T).body(Body);
}
