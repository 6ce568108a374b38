//===- Value.cpp - LSS elaboration & simulation values ---------------------===//

#include "interp/Value.h"

#include "types/Type.h"

#include <atomic>
#include <cassert>
#include <sstream>

using namespace liberty;
using namespace liberty::interp;

Value Value::makeString(std::string V) {
  Value R;
  R.K = Kind::String;
  R.StrVal = std::move(V);
  return R;
}

Value Value::makeArray(std::vector<Value> Elems) {
  Value R;
  R.K = Kind::Array;
  R.Elems = std::move(Elems);
  return R;
}

Value Value::makeStruct(FieldList Fields) {
  Value R;
  R.K = Kind::Struct;
  R.Fields = std::make_shared<FieldList>(std::move(Fields));
  return R;
}

Value Value::makeInstanceRef(netlist::InstanceNode *Inst) {
  Value R;
  R.K = Kind::InstanceRef;
  R.Inst = Inst;
  return R;
}

Value Value::makePort(PortHandle H) {
  Value R;
  R.K = Kind::Port;
  R.Handle = std::move(H);
  return R;
}

bool Value::isData() const {
  switch (K) {
  case Kind::Int:
  case Kind::Bool:
  case Kind::Float:
  case Kind::String:
  case Kind::Array:
  case Kind::Struct:
    return true;
  default:
    return false;
  }
}

double Value::getFloat() const {
  assert(K == Kind::Float && "not a float value");
  return FloatVal;
}

double Value::getNumeric() const {
  assert((K == Kind::Int || K == Kind::Float) && "not a numeric value");
  return K == Kind::Int ? static_cast<double>(IntVal) : FloatVal;
}

const std::string &Value::getString() const {
  assert(K == Kind::String && "not a string value");
  return StrVal;
}

const std::vector<Value> &Value::getElems() const {
  assert(K == Kind::Array && "not an array value");
  return Elems;
}

std::vector<Value> &Value::getElemsMutable() {
  assert(K == Kind::Array && "not an array value");
  return Elems;
}

const Value::FieldList &Value::getFields() const {
  assert(K == Kind::Struct && "not a struct value");
  // A moved-from struct has no payload; it reads as having no fields.
  static const FieldList NoFields;
  return Fields ? *Fields : NoFields;
}

Value::FieldList &Value::getFieldsMutable() {
  assert(K == Kind::Struct && "not a struct value");
  if (Fields.use_count() != 1)
    Fields = std::make_shared<FieldList>(getFields());
  else
    // The last other owner may have just dropped its copy on another
    // thread; order its reads of the payload before our writes.
    std::atomic_thread_fence(std::memory_order_acquire);
  return *Fields;
}

const Value *Value::getField(const std::string &Name) const {
  for (const auto &[FieldName, FieldValue] : getFields())
    if (FieldName == Name)
      return &FieldValue;
  return nullptr;
}

Value *Value::getFieldMutable(const std::string &Name) {
  for (auto &[FieldName, FieldValue] : getFieldsMutable())
    if (FieldName == Name)
      return &FieldValue;
  return nullptr;
}

netlist::InstanceNode *Value::getInstance() const {
  assert(K == Kind::InstanceRef && "not an instance reference");
  return Inst;
}

const PortHandle &Value::getPort() const {
  assert(K == Kind::Port && "not a port handle");
  return Handle;
}

bool Value::equals(const Value &Other) const {
  if (K != Other.K)
    return false;
  switch (K) {
  case Kind::Unset:
    return true;
  case Kind::Int:
    return IntVal == Other.IntVal;
  case Kind::Bool:
    return BoolVal == Other.BoolVal;
  case Kind::Float:
    return FloatVal == Other.FloatVal;
  case Kind::String:
    return StrVal == Other.StrVal;
  case Kind::Array: {
    if (Elems.size() != Other.Elems.size())
      return false;
    for (unsigned I = 0; I != Elems.size(); ++I)
      if (!Elems[I].equals(Other.Elems[I]))
        return false;
    return true;
  }
  case Kind::Struct: {
    if (Fields == Other.Fields)
      return true;
    const FieldList &Mine = getFields(), &Theirs = Other.getFields();
    if (Mine.size() != Theirs.size())
      return false;
    for (unsigned I = 0; I != Mine.size(); ++I)
      if (Mine[I].first != Theirs[I].first ||
          !Mine[I].second.equals(Theirs[I].second))
        return false;
    return true;
  }
  case Kind::InstanceRef:
    return Inst == Other.Inst;
  case Kind::Port:
    return Handle.Inst == Other.Handle.Inst &&
           Handle.Port == Other.Handle.Port &&
           Handle.Index == Other.Handle.Index;
  }
  return false;
}

bool Value::conformsTo(const types::Type *Ty) const {
  using types::Type;
  switch (Ty->getKind()) {
  case Type::Kind::Int:
    return K == Kind::Int;
  case Type::Kind::Bool:
    return K == Kind::Bool;
  case Type::Kind::Float:
    // Integer literals are accepted where a float is expected; the paper's
    // Figure 5 writes `parameter initial_state = 0:int`, and the analogous
    // float parameters are commonly defaulted with integer literals.
    return K == Kind::Float || K == Kind::Int;
  case Type::Kind::String:
    return K == Kind::String;
  case Type::Kind::Array: {
    if (K != Kind::Array)
      return false;
    if (Ty->getArraySize() >= 0 &&
        static_cast<int64_t>(Elems.size()) != Ty->getArraySize())
      return false;
    for (const Value &E : Elems)
      if (!E.conformsTo(Ty->getElem()))
        return false;
    return true;
  }
  case Type::Kind::Struct: {
    if (K != Kind::Struct)
      return false;
    const auto &FieldTys = Ty->getFields();
    const FieldList &Mine = getFields();
    if (Mine.size() != FieldTys.size())
      return false;
    for (unsigned I = 0; I != Mine.size(); ++I)
      if (Mine[I].first != FieldTys[I].first ||
          !Mine[I].second.conformsTo(FieldTys[I].second))
        return false;
    return true;
  }
  case Type::Kind::Var:
    return isData(); // Polymorphic slot accepts any data value.
  case Type::Kind::Disjunct:
    for (const types::Type *Alt : Ty->getAlternatives())
      if (conformsTo(Alt))
        return true;
    return false;
  }
  return false;
}

std::string Value::str() const {
  switch (K) {
  case Kind::Unset:
    return "<unset>";
  case Kind::Int:
    return std::to_string(IntVal);
  case Kind::Bool:
    return BoolVal ? "true" : "false";
  case Kind::Float: {
    std::ostringstream OS;
    OS << FloatVal;
    return OS.str();
  }
  case Kind::String:
    return "\"" + StrVal + "\"";
  case Kind::Array: {
    std::string S = "[";
    for (unsigned I = 0; I != Elems.size(); ++I) {
      if (I)
        S += ", ";
      S += Elems[I].str();
    }
    return S + "]";
  }
  case Kind::Struct: {
    std::string S = "{";
    const FieldList &Mine = getFields();
    for (unsigned I = 0; I != Mine.size(); ++I) {
      if (I)
        S += ", ";
      S += Mine[I].first + ": " + Mine[I].second.str();
    }
    return S + "}";
  }
  case Kind::InstanceRef:
    return "<instance>";
  case Kind::Port:
    return "<port " + Handle.Port +
           (Handle.hasIndex() ? "[" + std::to_string(Handle.Index) + "]" : "") +
           ">";
  }
  return "<invalid>";
}
