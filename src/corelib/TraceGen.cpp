//===- TraceGen.cpp - Synthetic µRISC instruction traces ---------------------===//

#include "corelib/TraceGen.h"

#include <iterator>
#include <string_view>

using namespace liberty;
using namespace liberty::corelib;
using interp::Value;

TraceGen::TraceGen(uint64_t Seed, int MemPercent, int BranchPercent)
    : State(Seed * 6364136223846793005ULL + 1442695040888963407ULL),
      MemPercent(MemPercent), BranchPercent(BranchPercent) {}

uint32_t TraceGen::rand32() {
  // xorshift64* mixed down to 32 bits; deterministic across platforms.
  State ^= State >> 12;
  State ^= State << 25;
  State ^= State >> 27;
  return static_cast<uint32_t>((State * 2685821657736338717ULL) >> 32);
}

int64_t TraceGen::latencyFor(OpClass Op) {
  switch (Op) {
  case OpClass::Alu:
    return 1;
  case OpClass::Mul:
    return 3;
  case OpClass::Load:
    return 2;
  case OpClass::Store:
    return 1;
  case OpClass::Branch:
    return 1;
  }
  return 1;
}

MicroInstr TraceGen::next() {
  MicroInstr I;
  I.Pc = Pc;
  Pc += 4;
  int Roll = rand32() % 100;
  OpClass Op;
  if (Roll < MemPercent / 2)
    Op = OpClass::Load;
  else if (Roll < MemPercent)
    Op = OpClass::Store;
  else if (Roll < MemPercent + BranchPercent)
    Op = OpClass::Branch;
  else if (Roll < MemPercent + BranchPercent +
                      (100 - MemPercent - BranchPercent) / 5)
    Op = OpClass::Mul;
  else
    Op = OpClass::Alu;
  I.Op = static_cast<int64_t>(Op);
  I.Dest = rand32() % 32;
  I.Src1 = rand32() % 32;
  I.Src2 = rand32() % 32;
  I.Lat = latencyFor(Op);
  return I;
}

namespace {
/// toValue's field names, in its order.
constexpr std::string_view FieldNames[] = {"pc",   "op",   "dest",
                                           "src1", "src2", "lat"};
} // namespace

Value TraceGen::toValue(const MicroInstr &I) {
  const int64_t Ints[] = {I.Pc, I.Op, I.Dest, I.Src1, I.Src2, I.Lat};
  Value::FieldList Fields;
  Fields.reserve(std::size(FieldNames));
  for (size_t F = 0; F != std::size(FieldNames); ++F)
    Fields.emplace_back(FieldNames[F], Value::makeInt(Ints[F]));
  return Value::makeStruct(std::move(Fields));
}

bool TraceGen::isCanonical(const Value &V) {
  if (!V.isStruct())
    return false;
  const Value::FieldList &Fields = V.getFields();
  if (Fields.size() != std::size(FieldNames))
    return false;
  for (size_t F = 0; F != Fields.size(); ++F)
    if (Fields[F].first != FieldNames[F] || !Fields[F].second.isInt())
      return false;
  return true;
}

MicroInstr TraceGen::fromValue(const Value &V) {
  MicroInstr I;
  int64_t *Out[] = {&I.Pc, &I.Op, &I.Dest, &I.Src1, &I.Src2, &I.Lat};
  if (isCanonical(V)) {
    const Value::FieldList &Fields = V.getFields();
    for (size_t F = 0; F != std::size(Out); ++F)
      *Out[F] = Fields[F].second.getInt();
    return I;
  }
  if (!V.isStruct())
    return I;
  // Any other struct: the first field of each name, if it is an Int.
  for (size_t F = 0; F != std::size(Out); ++F)
    if (const Value *Field = V.getField(std::string(FieldNames[F])))
      if (Field->isInt())
        *Out[F] = Field->getInt();
  return I;
}
