//===- AST.h - LSS abstract syntax tree -------------------------*- C++ -*-===//
///
/// \file
/// AST for the Liberty Structural Specification Language. Nodes are
/// kind-tagged (LLVM-style `classof`) and owned by an ASTContext arena.
///
/// The same expression/statement nodes serve two roles:
///  - LSS module bodies, evaluated at *compile time* by the elaboration
///    interpreter (src/interp), and
///  - BSL userpoint bodies, evaluated at *simulation time* by the mini-BSL
///    engine (src/bsl). `return` statements are only legal in the latter.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_LSS_AST_H
#define LIBERTY_LSS_AST_H

#include "support/SourceMgr.h"

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace liberty {
namespace lss {

class Expr;
class Stmt;

/// Root of the AST class hierarchy; exists only so the ASTContext arena can
/// destroy heterogeneous nodes.
class ASTNode {
public:
  virtual ~ASTNode();
};

//===----------------------------------------------------------------------===//
// Type expressions
//===----------------------------------------------------------------------===//

/// Syntactic type annotation (the paper's "type scheme" grammar, Section 5):
///   t* ::= int | bool | float | string | 'a | t*[n] | struct{...}
///        | (t1*|...|tn*) | instance ref
class TypeExpr : public ASTNode {
public:
  enum class Kind { Basic, Var, Array, Struct, Disjunct, InstanceRef };

  Kind getKind() const { return K; }
  SourceLoc getLoc() const { return Loc; }

  void print(std::ostream &OS) const;

protected:
  TypeExpr(Kind K, SourceLoc Loc) : K(K), Loc(Loc) {}

private:
  Kind K;
  SourceLoc Loc;
};

/// One of the built-in ground types.
class BasicTypeExpr : public TypeExpr {
public:
  enum class Basic { Int, Bool, Float, String };

  BasicTypeExpr(Basic B, SourceLoc Loc)
      : TypeExpr(Kind::Basic, Loc), B(B) {}

  Basic getBasicKind() const { return B; }

  static bool classof(const TypeExpr *T) { return T->getKind() == Kind::Basic; }

private:
  Basic B;
};

/// A type variable, e.g. 'a. The spelling excludes the leading quote.
class VarTypeExpr : public TypeExpr {
public:
  VarTypeExpr(std::string_view Name, SourceLoc Loc)
      : TypeExpr(Kind::Var, Loc), Name(Name) {}

  const std::string &getName() const { return Name; }
  /// The spelling's number among the body's type variables (resolveBody).
  unsigned getVarIdx() const { return VarIdx; }
  void setVarIdx(unsigned I) { VarIdx = I; }

  static bool classof(const TypeExpr *T) { return T->getKind() == Kind::Var; }

private:
  std::string Name;
  unsigned VarIdx = 0;
};

/// An array type t[n]. The size expression may be null ("[]"), meaning the
/// extent is determined elsewhere (e.g. an instance-ref array sized by use).
class ArrayTypeExpr : public TypeExpr {
public:
  ArrayTypeExpr(TypeExpr *Elem, Expr *SizeExpr, SourceLoc Loc)
      : TypeExpr(Kind::Array, Loc), Elem(Elem), SizeExpr(SizeExpr) {}

  TypeExpr *getElem() const { return Elem; }
  Expr *getSizeExpr() const { return SizeExpr; }

  static bool classof(const TypeExpr *T) { return T->getKind() == Kind::Array; }

private:
  TypeExpr *Elem;
  Expr *SizeExpr;
};

/// struct { i1 : t1; ...; in : tn; }
class StructTypeExpr : public TypeExpr {
public:
  using Field = std::pair<std::string, TypeExpr *>;

  StructTypeExpr(std::vector<Field> Fields, SourceLoc Loc)
      : TypeExpr(Kind::Struct, Loc), Fields(std::move(Fields)) {}

  const std::vector<Field> &getFields() const { return Fields; }

  static bool classof(const TypeExpr *T) {
    return T->getKind() == Kind::Struct;
  }

private:
  std::vector<Field> Fields;
};

/// A disjunctive type scheme (t1 | ... | tn): the entity must statically
/// take exactly one of the alternatives (component overloading, Section 4.4).
class DisjunctTypeExpr : public TypeExpr {
public:
  DisjunctTypeExpr(std::vector<TypeExpr *> Alts, SourceLoc Loc)
      : TypeExpr(Kind::Disjunct, Loc), Alts(std::move(Alts)) {}

  const std::vector<TypeExpr *> &getAlternatives() const { return Alts; }

  static bool classof(const TypeExpr *T) {
    return T->getKind() == Kind::Disjunct;
  }

private:
  std::vector<TypeExpr *> Alts;
};

/// The elaboration-time type `instance ref` used for variables holding
/// sub-instances (Figure 8, line 7).
class InstanceRefTypeExpr : public TypeExpr {
public:
  explicit InstanceRefTypeExpr(SourceLoc Loc)
      : TypeExpr(Kind::InstanceRef, Loc) {}

  static bool classof(const TypeExpr *T) {
    return T->getKind() == Kind::InstanceRef;
  }
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class BinaryOp {
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  Lt,
  Gt,
  Le,
  Ge,
  Eq,
  Ne,
  And,
  Or,
};

enum class UnaryOp { Neg, Not };

const char *binaryOpName(BinaryOp Op);

class Expr : public ASTNode {
public:
  enum class Kind {
    IntLit,
    FloatLit,
    StringLit,
    BoolLit,
    Ident,
    Member,
    Index,
    Call,
    NewInstanceArray,
    Unary,
    Binary,
  };

  Kind getKind() const { return K; }
  SourceLoc getLoc() const { return Loc; }

  void print(std::ostream &OS) const;

protected:
  Expr(Kind K, SourceLoc Loc) : K(K), Loc(Loc) {}

private:
  Kind K;
  SourceLoc Loc;
};

class IntLitExpr : public Expr {
public:
  IntLitExpr(int64_t Value, SourceLoc Loc)
      : Expr(Kind::IntLit, Loc), Value(Value) {}

  int64_t getValue() const { return Value; }

  static bool classof(const Expr *E) { return E->getKind() == Kind::IntLit; }

private:
  int64_t Value;
};

class FloatLitExpr : public Expr {
public:
  FloatLitExpr(double Value, SourceLoc Loc)
      : Expr(Kind::FloatLit, Loc), Value(Value) {}

  double getValue() const { return Value; }

  static bool classof(const Expr *E) { return E->getKind() == Kind::FloatLit; }

private:
  double Value;
};

class StringLitExpr : public Expr {
public:
  StringLitExpr(std::string_view Value, SourceLoc Loc)
      : Expr(Kind::StringLit, Loc), Value(Value) {}

  const std::string &getValue() const { return Value; }

  static bool classof(const Expr *E) {
    return E->getKind() == Kind::StringLit;
  }

private:
  std::string Value;
};

class BoolLitExpr : public Expr {
public:
  BoolLitExpr(bool Value, SourceLoc Loc)
      : Expr(Kind::BoolLit, Loc), Value(Value) {}

  bool getValue() const { return Value; }

  static bool classof(const Expr *E) { return E->getKind() == Kind::BoolLit; }

private:
  bool Value;
};

class IdentExpr : public Expr {
public:
  IdentExpr(std::string_view Name, SourceLoc Loc)
      : Expr(Kind::Ident, Loc), Name(Name) {}

  const std::string &getName() const { return Name; }
  /// The innermost local slot that may bind the name here, or -1 if no
  /// enclosing scope binds it (see BodyLayout).
  int getSlot() const { return Slot; }
  void setSlot(int S) { Slot = S; }

  static bool classof(const Expr *E) { return E->getKind() == Kind::Ident; }

private:
  std::string Name;
  int Slot = -1;
};

/// base.field — sub-instance parameter/port access, or port attributes such
/// as `in.width`.
class MemberExpr : public Expr {
public:
  MemberExpr(Expr *Base, std::string_view Member, SourceLoc Loc)
      : Expr(Kind::Member, Loc), Base(Base), Member(Member) {}

  Expr *getBase() const { return Base; }
  const std::string &getMember() const { return Member; }

  static bool classof(const Expr *E) { return E->getKind() == Kind::Member; }

private:
  Expr *Base;
  std::string Member;
};

/// base[index] — array element or port-instance selection.
class IndexExpr : public Expr {
public:
  IndexExpr(Expr *Base, Expr *Index, SourceLoc Loc)
      : Expr(Kind::Index, Loc), Base(Base), Index(Index) {}

  Expr *getBase() const { return Base; }
  Expr *getIndex() const { return Index; }

  static bool classof(const Expr *E) { return E->getKind() == Kind::Index; }

private:
  Expr *Base;
  Expr *Index;
};

/// callee(arg, ...) — builtins such as LSS_connect_bus and the BSL library.
class CallExpr : public Expr {
public:
  CallExpr(std::string_view Callee, std::vector<Expr *> Args, SourceLoc Loc)
      : Expr(Kind::Call, Loc), Callee(Callee), Args(std::move(Args)) {}

  const std::string &getCallee() const { return Callee; }
  const std::vector<Expr *> &getArgs() const { return Args; }

  static bool classof(const Expr *E) { return E->getKind() == Kind::Call; }

private:
  std::string Callee;
  std::vector<Expr *> Args;
};

/// new instance[n](module, "basename") — creates an array of sub-instances
/// (Figure 8, line 8).
class NewInstanceArrayExpr : public Expr {
public:
  NewInstanceArrayExpr(Expr *SizeExpr, std::string_view ModuleName,
                       Expr *NameExpr, SourceLoc Loc)
      : Expr(Kind::NewInstanceArray, Loc), SizeExpr(SizeExpr),
        ModuleName(ModuleName), NameExpr(NameExpr) {}

  Expr *getSizeExpr() const { return SizeExpr; }
  const std::string &getModuleName() const { return ModuleName; }
  Expr *getNameExpr() const { return NameExpr; }

  static bool classof(const Expr *E) {
    return E->getKind() == Kind::NewInstanceArray;
  }

private:
  Expr *SizeExpr;
  std::string ModuleName;
  Expr *NameExpr;
};

class UnaryExpr : public Expr {
public:
  UnaryExpr(UnaryOp Op, Expr *Operand, SourceLoc Loc)
      : Expr(Kind::Unary, Loc), Op(Op), Operand(Operand) {}

  UnaryOp getOp() const { return Op; }
  Expr *getOperand() const { return Operand; }

  static bool classof(const Expr *E) { return E->getKind() == Kind::Unary; }

private:
  UnaryOp Op;
  Expr *Operand;
};

class BinaryExpr : public Expr {
public:
  BinaryExpr(BinaryOp Op, Expr *LHS, Expr *RHS, SourceLoc Loc)
      : Expr(Kind::Binary, Loc), Op(Op), LHS(LHS), RHS(RHS) {}

  BinaryOp getOp() const { return Op; }
  Expr *getLHS() const { return LHS; }
  Expr *getRHS() const { return RHS; }

  static bool classof(const Expr *E) { return E->getKind() == Kind::Binary; }

private:
  BinaryOp Op;
  Expr *LHS;
  Expr *RHS;
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

/// The half-open run of slots [Begin, End) that one scope's names occupy.
struct SlotRange {
  unsigned Begin = 0, End = 0;
};

class Stmt : public ASTNode {
public:
  enum class Kind {
    ParamDecl,
    PortDecl,
    InstanceDecl,
    VarDecl,
    EventDecl,
    Constrain,
    If,
    For,
    While,
    Block,
    Assign,
    Connect,
    ExprStmt,
    Return,
    Break,
    Continue,
  };

  Kind getKind() const { return K; }
  SourceLoc getLoc() const { return Loc; }

  void print(std::ostream &OS, unsigned Indent = 0) const;

protected:
  Stmt(Kind K, SourceLoc Loc) : K(K), Loc(Loc) {}

private:
  Kind K;
  SourceLoc Loc;
};

/// Signature of a userpoint parameter:
///   userpoint(arg1:t1, arg2:t2 => tr)
struct UserpointSig {
  std::vector<std::pair<std::string, TypeExpr *>> Args;
  TypeExpr *Ret = nullptr;
};

/// parameter NAME : TYPE;           (required, no default)
/// parameter NAME = EXPR : TYPE;    (with default, Figure 5 syntax)
/// parameter NAME : TYPE = EXPR;    (accepted alternative)
/// parameter NAME : userpoint(... => t) [= "bsl code"];
class ParamDeclStmt : public Stmt {
public:
  ParamDeclStmt(std::string_view Name, TypeExpr *Ty, Expr *Default,
                std::unique_ptr<UserpointSig> Sig, SourceLoc Loc)
      : Stmt(Kind::ParamDecl, Loc), Name(Name), Ty(Ty), Default(Default),
        Sig(std::move(Sig)) {}

  const std::string &getName() const { return Name; }
  TypeExpr *getType() const { return Ty; }
  Expr *getDefault() const { return Default; }
  bool isUserpoint() const { return Sig != nullptr; }
  const UserpointSig *getUserpointSig() const { return Sig.get(); }
  /// The local slot the name is bound in (see BodyLayout).
  int getSlot() const { return Slot; }
  void setSlot(int S) { Slot = S; }
  /// The name's number among the body's parameter names.
  unsigned getParamIdx() const { return ParamIdx; }
  void setParamIdx(unsigned I) { ParamIdx = I; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::ParamDecl; }

private:
  std::string Name;
  TypeExpr *Ty;
  Expr *Default;
  std::unique_ptr<UserpointSig> Sig;
  int Slot = -1;
  unsigned ParamIdx = 0;
};

/// inport NAME : TYPE;  /  outport NAME : TYPE;
class PortDeclStmt : public Stmt {
public:
  PortDeclStmt(bool IsInput, std::string_view Name, TypeExpr *Ty,
               SourceLoc Loc)
      : Stmt(Kind::PortDecl, Loc), IsInput(IsInput), Name(Name), Ty(Ty) {}

  bool isInput() const { return IsInput; }
  const std::string &getName() const { return Name; }
  TypeExpr *getType() const { return Ty; }
  /// The local slot the name is bound in (see BodyLayout).
  int getSlot() const { return Slot; }
  void setSlot(int S) { Slot = S; }
  /// The name's number among the body's port names.
  unsigned getPortIdx() const { return PortIdx; }
  void setPortIdx(unsigned I) { PortIdx = I; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::PortDecl; }

private:
  bool IsInput;
  std::string Name;
  TypeExpr *Ty;
  int Slot = -1;
  unsigned PortIdx = 0;
};

/// instance NAME : MODULE;
class InstanceDeclStmt : public Stmt {
public:
  InstanceDeclStmt(std::string_view Name, std::string_view ModuleName,
                   SourceLoc Loc)
      : Stmt(Kind::InstanceDecl, Loc), Name(Name), ModuleName(ModuleName) {}

  const std::string &getName() const { return Name; }
  const std::string &getModuleName() const { return ModuleName; }
  /// The local slot the name is bound in (see BodyLayout).
  int getSlot() const { return Slot; }
  void setSlot(int S) { Slot = S; }

  static bool classof(const Stmt *S) {
    return S->getKind() == Kind::InstanceDecl;
  }

private:
  std::string Name;
  std::string ModuleName;
  int Slot = -1;
};

/// var NAME : TYPE [= EXPR];          (elaboration-time variable)
/// runtime var NAME : TYPE [= EXPR];  (simulation-time state, Section 4.3)
class VarDeclStmt : public Stmt {
public:
  VarDeclStmt(std::string_view Name, TypeExpr *Ty, Expr *Init, bool IsRuntime,
              SourceLoc Loc)
      : Stmt(Kind::VarDecl, Loc), Name(Name), Ty(Ty), Init(Init),
        IsRuntime(IsRuntime) {}

  const std::string &getName() const { return Name; }
  TypeExpr *getType() const { return Ty; }
  Expr *getInit() const { return Init; }
  bool isRuntime() const { return IsRuntime; }
  /// The local slot an elaboration-time variable is bound in (see
  /// BodyLayout); -1 for a runtime variable.
  int getSlot() const { return Slot; }
  void setSlot(int S) { Slot = S; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::VarDecl; }

private:
  std::string Name;
  TypeExpr *Ty;
  Expr *Init;
  bool IsRuntime;
  int Slot = -1;
};

/// event NAME;  — a declared instrumentation join point (Section 4.5).
class EventDeclStmt : public Stmt {
public:
  EventDeclStmt(std::string_view Name, SourceLoc Loc)
      : Stmt(Kind::EventDecl, Loc), Name(Name) {}

  const std::string &getName() const { return Name; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::EventDecl; }

private:
  std::string Name;
};

/// constrain 'a : (t1|t2|...);  — adds a module-level type constraint tying
/// a type variable to a disjunctive scheme (component overloading).
class ConstrainStmt : public Stmt {
public:
  ConstrainStmt(std::string_view VarName, TypeExpr *Scheme, SourceLoc Loc)
      : Stmt(Kind::Constrain, Loc), VarName(VarName), Scheme(Scheme) {}

  const std::string &getVarName() const { return VarName; }
  TypeExpr *getScheme() const { return Scheme; }
  /// The variable's number among the body's type variables.
  unsigned getVarIdx() const { return VarIdx; }
  void setVarIdx(unsigned I) { VarIdx = I; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Constrain; }

private:
  std::string VarName;
  TypeExpr *Scheme;
  unsigned VarIdx = 0;
};

class BlockStmt : public Stmt {
public:
  BlockStmt(std::vector<Stmt *> Body, SourceLoc Loc)
      : Stmt(Kind::Block, Loc), Body(std::move(Body)) {}

  const std::vector<Stmt *> &getBody() const { return Body; }
  /// The slots of the names this block's scope binds.
  SlotRange getScope() const { return Scope; }
  void setScope(SlotRange R) { Scope = R; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Block; }

private:
  std::vector<Stmt *> Body;
  SlotRange Scope;
};

class IfStmt : public Stmt {
public:
  IfStmt(Expr *Cond, Stmt *Then, Stmt *Else, SourceLoc Loc)
      : Stmt(Kind::If, Loc), Cond(Cond), Then(Then), Else(Else) {}

  Expr *getCond() const { return Cond; }
  Stmt *getThen() const { return Then; }
  Stmt *getElse() const { return Else; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::If; }

private:
  Expr *Cond;
  Stmt *Then;
  Stmt *Else;
};

class ForStmt : public Stmt {
public:
  ForStmt(Stmt *Init, Expr *Cond, Stmt *Step, Stmt *Body, SourceLoc Loc)
      : Stmt(Kind::For, Loc), Init(Init), Cond(Cond), Step(Step), Body(Body) {}

  Stmt *getInit() const { return Init; }
  Expr *getCond() const { return Cond; }
  Stmt *getStep() const { return Step; }
  Stmt *getBody() const { return Body; }
  /// The slots of the names the loop's own scope binds (its header, and
  /// its body unless that is a block).
  SlotRange getScope() const { return Scope; }
  void setScope(SlotRange R) { Scope = R; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::For; }

private:
  Stmt *Init;
  Expr *Cond;
  Stmt *Step;
  Stmt *Body;
  SlotRange Scope;
};

class WhileStmt : public Stmt {
public:
  WhileStmt(Expr *Cond, Stmt *Body, SourceLoc Loc)
      : Stmt(Kind::While, Loc), Cond(Cond), Body(Body) {}

  Expr *getCond() const { return Cond; }
  Stmt *getBody() const { return Body; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::While; }

private:
  Expr *Cond;
  Stmt *Body;
};

/// LHS = RHS;  — variable assignment, sub-instance parameter assignment,
/// or internal-parameter definition (e.g. tar_file = "...").
class AssignStmt : public Stmt {
public:
  AssignStmt(Expr *LHS, Expr *RHS, SourceLoc Loc)
      : Stmt(Kind::Assign, Loc), LHS(LHS), RHS(RHS) {}

  Expr *getLHS() const { return LHS; }
  Expr *getRHS() const { return RHS; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Assign; }

private:
  Expr *LHS;
  Expr *RHS;
};

/// FROM -> TO [: TYPE];  — a structural connection, optionally annotated
/// with a type scheme (Section 5).
class ConnectStmt : public Stmt {
public:
  ConnectStmt(Expr *From, Expr *To, TypeExpr *Annotation, SourceLoc Loc)
      : Stmt(Kind::Connect, Loc), From(From), To(To), Annotation(Annotation) {}

  Expr *getFrom() const { return From; }
  Expr *getTo() const { return To; }
  TypeExpr *getAnnotation() const { return Annotation; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Connect; }

private:
  Expr *From;
  Expr *To;
  TypeExpr *Annotation;
};

class ExprStmt : public Stmt {
public:
  ExprStmt(Expr *E, SourceLoc Loc) : Stmt(Kind::ExprStmt, Loc), E(E) {}

  Expr *getExpr() const { return E; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::ExprStmt; }

private:
  Expr *E;
};

/// return [EXPR];  — legal only inside BSL userpoint bodies.
class ReturnStmt : public Stmt {
public:
  ReturnStmt(Expr *Value, SourceLoc Loc)
      : Stmt(Kind::Return, Loc), Value(Value) {}

  Expr *getValue() const { return Value; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Return; }

private:
  Expr *Value;
};

class BreakStmt : public Stmt {
public:
  explicit BreakStmt(SourceLoc Loc) : Stmt(Kind::Break, Loc) {}
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Break; }
};

class ContinueStmt : public Stmt {
public:
  explicit ContinueStmt(SourceLoc Loc) : Stmt(Kind::Continue, Loc) {}
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Continue; }
};

//===----------------------------------------------------------------------===//
// Top level
//===----------------------------------------------------------------------===//

/// What name resolution (lss/Resolver.h) records for one body: a module
/// body, the top-level statements or a userpoint body. Every name a
/// scope of the body may bind gets one slot of a flat frame; a scope's
/// slots are contiguous (BlockStmt/ForStmt::getScope). A use of a name (IdentExpr::getSlot) starts at
/// the innermost slot that may bind it and follows Outer to the same name
/// in enclosing scopes: the first slot actually bound at run time is the
/// binding, exactly as a walk over a stack of per-scope maps finds it.
/// The body's ports, parameters and type variables are numbered densely
/// by first appearance.
struct BodyLayout {
  /// Per slot: the slot of the same name in the nearest enclosing scope
  /// that may bind it, or -1. Its size is the frame's slot count.
  std::vector<int> Outer;
  unsigned NumPortNames = 0;
  unsigned NumPortDecls = 0;
  unsigned NumParamNames = 0;
  unsigned NumTypeVars = 0;

  unsigned getNumSlots() const { return unsigned(Outer.size()); }
};

/// module NAME { ... };
class ModuleDecl : public ASTNode {
public:
  ModuleDecl(std::string_view Name, std::vector<Stmt *> Body, SourceLoc Loc)
      : Name(Name), Body(std::move(Body)), Loc(Loc) {}

  const std::string &getName() const { return Name; }
  const std::vector<Stmt *> &getBody() const { return Body; }
  SourceLoc getLoc() const { return Loc; }
  /// The body's resolved names; filled by the parser, read-only after.
  const BodyLayout &getLayout() const { return Layout; }
  BodyLayout &getLayoutMutable() { return Layout; }

private:
  std::string Name;
  std::vector<Stmt *> Body;
  SourceLoc Loc;
  BodyLayout Layout;
};

/// A parsed LSS compilation: module declarations plus the top-level
/// statement list S0 (the system description).
struct SpecFile {
  std::vector<ModuleDecl *> Modules;
  std::vector<Stmt *> TopLevel;
};

/// Arena owning every AST node of a compilation. Nodes are bump-allocated
/// in blocks, so a node costs no heap allocation of its own; the context
/// runs every node's destructor, newest first, and frees the blocks when
/// it is destroyed. A node's own strings and vectors are ordinary members:
/// names are copied out of the source when parsed, so the AST does not
/// depend on the buffer text or the lexer.
class ASTContext {
public:
  ASTContext() = default;
  ASTContext(const ASTContext &) = delete;
  ASTContext &operator=(const ASTContext &) = delete;
  ~ASTContext();

  template <typename T, typename... Args> T *create(Args &&...As) {
    static_assert(std::is_base_of_v<ASTNode, T>, "only AST nodes");
    T *Node = new (allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(As)...);
    Nodes.push_back(Node);
    return Node;
  }

private:
  void *allocate(size_t Size, size_t Align);

  std::vector<std::unique_ptr<char[]>> Blocks;
  char *Cur = nullptr;
  char *End = nullptr;
  /// Size of the next block; doubles up to a cap (AST.cpp).
  size_t NextBlockSize = 1024;
  /// Every node, in creation order, for the destructor.
  std::vector<ASTNode *> Nodes;
};

} // namespace lss
} // namespace liberty

#endif // LIBERTY_LSS_AST_H
