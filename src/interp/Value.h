//===- Value.h - LSS elaboration & simulation values ------------*- C++ -*-===//
///
/// \file
/// The dynamic value representation shared by the elaboration interpreter
/// (compile-time LSS execution) and the BSL runtime (userpoint execution and
/// signal values). Plain data kinds (Int/Bool/Float/String/Array/Struct)
/// flow on simulated wires; InstanceRef and PortHandle exist only at
/// elaboration time.
///
/// A struct's field list sits behind one shared, reference-counted
/// payload: copying a struct value (an instruction token moving down a
/// pipeline) bumps a count instead of copying its fields, and the mutable
/// field accessors clone a shared payload first (copy-on-write), so
/// values keep value semantics. Strings and arrays are held by value.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_INTERP_VALUE_H
#define LIBERTY_INTERP_VALUE_H

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace liberty {

namespace netlist {
class InstanceNode;
}

namespace types {
class Type;
class TypeContext;
}

namespace interp {

/// An elaboration-time reference to a port, possibly narrowed to a single
/// port instance by an index. `OnSelf` distinguishes the current module's
/// own ports from a sub-instance's ports.
struct PortHandle {
  netlist::InstanceNode *Inst = nullptr;
  std::string Port;
  int Index = -1; ///< -1 while no port instance has been selected.
  bool OnSelf = false;

  bool hasIndex() const { return Index >= 0; }
};

class Value {
public:
  using FieldList = std::vector<std::pair<std::string, Value>>;

  enum class Kind {
    Unset,
    Int,
    Bool,
    Float,
    String,
    Array,
    Struct,
    InstanceRef,
    Port,
  };

  Value() = default;

  static Value makeInt(int64_t V) {
    Value R;
    R.K = Kind::Int;
    R.IntVal = V;
    return R;
  }
  static Value makeBool(bool V) {
    Value R;
    R.K = Kind::Bool;
    R.BoolVal = V;
    return R;
  }
  static Value makeFloat(double V) {
    Value R;
    R.K = Kind::Float;
    R.FloatVal = V;
    return R;
  }
  static Value makeString(std::string V);
  static Value makeArray(std::vector<Value> Elems);
  static Value makeStruct(FieldList Fields);
  static Value makeInstanceRef(netlist::InstanceNode *Inst);
  static Value makePort(PortHandle H);

  Kind getKind() const { return K; }
  bool isUnset() const { return K == Kind::Unset; }
  bool isInt() const { return K == Kind::Int; }
  bool isBool() const { return K == Kind::Bool; }
  bool isFloat() const { return K == Kind::Float; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isStruct() const { return K == Kind::Struct; }
  bool isInstanceRef() const { return K == Kind::InstanceRef; }
  bool isPort() const { return K == Kind::Port; }
  /// True for the kinds that may flow on simulated wires.
  bool isData() const;

  int64_t getInt() const {
    assert(K == Kind::Int && "not an int value");
    return IntVal;
  }
  bool getBool() const {
    assert(K == Kind::Bool && "not a bool value");
    return BoolVal;
  }
  double getFloat() const;

  /// In-place integer store: when this value is already an Int, only the
  /// payload is updated — none of the (empty) container members are
  /// touched. The simulation engines' hot path for integer wires;
  /// observationally identical to assigning makeInt(V).
  void setInt(int64_t V) {
    if (K == Kind::Int) {
      IntVal = V;
      return;
    }
    *this = makeInt(V);
  }
  /// In-place boolean store, the Bool counterpart of setInt.
  void setBool(bool V) {
    if (K == Kind::Bool) {
      BoolVal = V;
      return;
    }
    *this = makeBool(V);
  }
  /// Numeric accessor that widens Int to double.
  double getNumeric() const;
  const std::string &getString() const;

  const std::vector<Value> &getElems() const;
  std::vector<Value> &getElemsMutable();

  /// The field list; struct copies share it until one of them is written.
  const FieldList &getFields() const;
  /// The field list, first cloned if another value shares it.
  FieldList &getFieldsMutable();
  /// Returns the field named \p Name, or null if absent.
  const Value *getField(const std::string &Name) const;
  /// Like getField, but through getFieldsMutable (copy-on-write).
  Value *getFieldMutable(const std::string &Name);

  netlist::InstanceNode *getInstance() const;
  const PortHandle &getPort() const;

  /// Structural equality on data kinds (Unset equals Unset; InstanceRef and
  /// Port compare by identity). Structs sharing one payload are equal
  /// without a field walk.
  bool equals(const Value &Other) const;

  /// True if this data value conforms to ground type \p Ty.
  bool conformsTo(const types::Type *Ty) const;

  /// Renders the value for diagnostics and collectors.
  std::string str() const;

private:
  Kind K = Kind::Unset;
  int64_t IntVal = 0;
  double FloatVal = 0.0;
  bool BoolVal = false;
  std::string StrVal;
  std::vector<Value> Elems;
  std::shared_ptr<FieldList> Fields; ///< Struct payload; null otherwise.
  netlist::InstanceNode *Inst = nullptr;
  PortHandle Handle;
};

} // namespace interp
} // namespace liberty

#endif // LIBERTY_INTERP_VALUE_H
