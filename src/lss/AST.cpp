//===- AST.cpp - LSS AST printing -----------------------------------------===//

#include "lss/AST.h"

#include "support/Casting.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>

using namespace liberty;
using namespace liberty::lss;

ASTNode::~ASTNode() = default;

/// Blocks double from 1 KiB up to this size, so a userpoint body's AST
/// takes one small block. The cap stays under malloc's mmap threshold
/// (128 KiB in glibc): a larger block is mapped afresh and faulted in
/// page by page on every parse, which cost a 516 KB project 1.7 ms.
static constexpr size_t MaxBlockSize = size_t(64) << 10;

ASTContext::~ASTContext() {
  for (size_t I = Nodes.size(); I-- != 0;)
    Nodes[I]->~ASTNode();
}

void *ASTContext::allocate(size_t Size, size_t Align) {
  assert(Align <= alignof(std::max_align_t) && (Align & (Align - 1)) == 0);
  uintptr_t P = (uintptr_t(Cur) + Align - 1) & ~uintptr_t(Align - 1);
  if (!Cur || P + Size > uintptr_t(End)) {
    size_t BlockSize = std::max(NextBlockSize, Size);
    NextBlockSize = std::min(NextBlockSize * 2, MaxBlockSize);
    Blocks.push_back(std::make_unique_for_overwrite<char[]>(BlockSize));
    Cur = Blocks.back().get();
    End = Cur + BlockSize;
    P = uintptr_t(Cur);
  }
  Cur = reinterpret_cast<char *>(P + Size);
  return reinterpret_cast<void *>(P);
}

const char *liberty::lss::binaryOpName(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
    return "+";
  case BinaryOp::Sub:
    return "-";
  case BinaryOp::Mul:
    return "*";
  case BinaryOp::Div:
    return "/";
  case BinaryOp::Rem:
    return "%";
  case BinaryOp::Lt:
    return "<";
  case BinaryOp::Gt:
    return ">";
  case BinaryOp::Le:
    return "<=";
  case BinaryOp::Ge:
    return ">=";
  case BinaryOp::Eq:
    return "==";
  case BinaryOp::Ne:
    return "!=";
  case BinaryOp::And:
    return "&&";
  case BinaryOp::Or:
    return "||";
  }
  return "?";
}

void TypeExpr::print(std::ostream &OS) const {
  switch (getKind()) {
  case Kind::Basic:
    switch (cast<BasicTypeExpr>(this)->getBasicKind()) {
    case BasicTypeExpr::Basic::Int:
      OS << "int";
      break;
    case BasicTypeExpr::Basic::Bool:
      OS << "bool";
      break;
    case BasicTypeExpr::Basic::Float:
      OS << "float";
      break;
    case BasicTypeExpr::Basic::String:
      OS << "string";
      break;
    }
    break;
  case Kind::Var:
    OS << "'" << cast<VarTypeExpr>(this)->getName();
    break;
  case Kind::Array: {
    const auto *A = cast<ArrayTypeExpr>(this);
    A->getElem()->print(OS);
    OS << "[";
    if (A->getSizeExpr())
      A->getSizeExpr()->print(OS);
    OS << "]";
    break;
  }
  case Kind::Struct: {
    const auto *S = cast<StructTypeExpr>(this);
    OS << "struct{";
    for (const auto &[Name, Ty] : S->getFields()) {
      OS << Name << ":";
      Ty->print(OS);
      OS << ";";
    }
    OS << "}";
    break;
  }
  case Kind::Disjunct: {
    const auto *D = cast<DisjunctTypeExpr>(this);
    OS << "(";
    bool First = true;
    for (const TypeExpr *Alt : D->getAlternatives()) {
      if (!First)
        OS << "|";
      First = false;
      Alt->print(OS);
    }
    OS << ")";
    break;
  }
  case Kind::InstanceRef:
    OS << "instance ref";
    break;
  }
}

void Expr::print(std::ostream &OS) const {
  switch (getKind()) {
  case Kind::IntLit:
    OS << cast<IntLitExpr>(this)->getValue();
    break;
  case Kind::FloatLit:
    OS << cast<FloatLitExpr>(this)->getValue();
    break;
  case Kind::StringLit:
    OS << '"' << cast<StringLitExpr>(this)->getValue() << '"';
    break;
  case Kind::BoolLit:
    OS << (cast<BoolLitExpr>(this)->getValue() ? "true" : "false");
    break;
  case Kind::Ident:
    OS << cast<IdentExpr>(this)->getName();
    break;
  case Kind::Member: {
    const auto *M = cast<MemberExpr>(this);
    M->getBase()->print(OS);
    OS << "." << M->getMember();
    break;
  }
  case Kind::Index: {
    const auto *I = cast<IndexExpr>(this);
    I->getBase()->print(OS);
    OS << "[";
    I->getIndex()->print(OS);
    OS << "]";
    break;
  }
  case Kind::Call: {
    const auto *C = cast<CallExpr>(this);
    OS << C->getCallee() << "(";
    bool First = true;
    for (const Expr *Arg : C->getArgs()) {
      if (!First)
        OS << ", ";
      First = false;
      Arg->print(OS);
    }
    OS << ")";
    break;
  }
  case Kind::NewInstanceArray: {
    const auto *N = cast<NewInstanceArrayExpr>(this);
    OS << "new instance[";
    N->getSizeExpr()->print(OS);
    OS << "](" << N->getModuleName() << ", ";
    N->getNameExpr()->print(OS);
    OS << ")";
    break;
  }
  case Kind::Unary: {
    const auto *U = cast<UnaryExpr>(this);
    OS << (U->getOp() == UnaryOp::Neg ? "-" : "!");
    U->getOperand()->print(OS);
    break;
  }
  case Kind::Binary: {
    const auto *B = cast<BinaryExpr>(this);
    OS << "(";
    B->getLHS()->print(OS);
    OS << " " << binaryOpName(B->getOp()) << " ";
    B->getRHS()->print(OS);
    OS << ")";
    break;
  }
  }
}

static void printIndent(std::ostream &OS, unsigned Indent) {
  for (unsigned I = 0; I != Indent; ++I)
    OS << "  ";
}

void Stmt::print(std::ostream &OS, unsigned Indent) const {
  printIndent(OS, Indent);
  switch (getKind()) {
  case Kind::ParamDecl: {
    const auto *P = cast<ParamDeclStmt>(this);
    OS << "parameter " << P->getName();
    if (P->isUserpoint()) {
      OS << ": userpoint(...)";
    } else if (P->getType()) {
      OS << ": ";
      P->getType()->print(OS);
    }
    if (P->getDefault()) {
      OS << " = ";
      P->getDefault()->print(OS);
    }
    OS << ";\n";
    break;
  }
  case Kind::PortDecl: {
    const auto *P = cast<PortDeclStmt>(this);
    OS << (P->isInput() ? "inport " : "outport ") << P->getName() << ": ";
    P->getType()->print(OS);
    OS << ";\n";
    break;
  }
  case Kind::InstanceDecl: {
    const auto *I = cast<InstanceDeclStmt>(this);
    OS << "instance " << I->getName() << ": " << I->getModuleName() << ";\n";
    break;
  }
  case Kind::VarDecl: {
    const auto *V = cast<VarDeclStmt>(this);
    if (V->isRuntime())
      OS << "runtime ";
    OS << "var " << V->getName() << ": ";
    V->getType()->print(OS);
    if (V->getInit()) {
      OS << " = ";
      V->getInit()->print(OS);
    }
    OS << ";\n";
    break;
  }
  case Kind::EventDecl:
    OS << "event " << cast<EventDeclStmt>(this)->getName() << ";\n";
    break;
  case Kind::Constrain: {
    const auto *C = cast<ConstrainStmt>(this);
    OS << "constrain '" << C->getVarName() << ": ";
    C->getScheme()->print(OS);
    OS << ";\n";
    break;
  }
  case Kind::If: {
    const auto *I = cast<IfStmt>(this);
    OS << "if (";
    I->getCond()->print(OS);
    OS << ")\n";
    I->getThen()->print(OS, Indent + 1);
    if (I->getElse()) {
      printIndent(OS, Indent);
      OS << "else\n";
      I->getElse()->print(OS, Indent + 1);
    }
    break;
  }
  case Kind::For: {
    const auto *F = cast<ForStmt>(this);
    OS << "for (...)\n";
    F->getBody()->print(OS, Indent + 1);
    break;
  }
  case Kind::While: {
    const auto *W = cast<WhileStmt>(this);
    OS << "while (";
    W->getCond()->print(OS);
    OS << ")\n";
    W->getBody()->print(OS, Indent + 1);
    break;
  }
  case Kind::Block: {
    OS << "{\n";
    for (const Stmt *S : cast<BlockStmt>(this)->getBody())
      S->print(OS, Indent + 1);
    printIndent(OS, Indent);
    OS << "}\n";
    break;
  }
  case Kind::Assign: {
    const auto *A = cast<AssignStmt>(this);
    A->getLHS()->print(OS);
    OS << " = ";
    A->getRHS()->print(OS);
    OS << ";\n";
    break;
  }
  case Kind::Connect: {
    const auto *C = cast<ConnectStmt>(this);
    C->getFrom()->print(OS);
    OS << " -> ";
    C->getTo()->print(OS);
    if (C->getAnnotation()) {
      OS << " : ";
      C->getAnnotation()->print(OS);
    }
    OS << ";\n";
    break;
  }
  case Kind::ExprStmt:
    cast<ExprStmt>(this)->getExpr()->print(OS);
    OS << ";\n";
    break;
  case Kind::Return: {
    const auto *R = cast<ReturnStmt>(this);
    OS << "return";
    if (R->getValue()) {
      OS << " ";
      R->getValue()->print(OS);
    }
    OS << ";\n";
    break;
  }
  case Kind::Break:
    OS << "break;\n";
    break;
  case Kind::Continue:
    OS << "continue;\n";
    break;
  }
}
