#include "ir/builder.hpp"

#include <algorithm>

namespace hcp::ir {

LoopId Builder::beginLoop(const std::string& name, std::uint64_t tripCount) {
  HCP_CHECK(tripCount >= 1);
  LoopInfo info;
  info.name = name;
  info.parent = currentLoop();
  info.tripCount = tripCount;
  info.sourceLine = line_;
  const LoopId id = fn_.addLoop(info);
  loopStack_.push_back(id);
  return id;
}

void Builder::endLoop() {
  HCP_CHECK_MSG(!loopStack_.empty(), "endLoop without beginLoop");
  loopStack_.pop_back();
}

PortId Builder::inPort(const std::string& name, std::uint16_t width) {
  return fn_.addPort({name, PortDirection::In, width});
}

PortId Builder::outPort(const std::string& name, std::uint16_t width) {
  return fn_.addPort({name, PortDirection::Out, width});
}

ArrayId Builder::array(const std::string& name, std::uint64_t words,
                       std::uint16_t width) {
  ArrayInfo info;
  info.name = name;
  info.words = words;
  info.bitwidth = width;
  info.sourceLine = line_;
  return fn_.addArray(info);
}

OpId Builder::constant(std::int64_t value, std::uint16_t width) {
  Op op;
  op.opcode = Opcode::Const;
  op.bitwidth = width;
  op.constValue = value;
  op.loop = currentLoop();
  op.sourceLine = line_;
  return fn_.addOp(std::move(op));
}

OpId Builder::readPort(PortId port) {
  HCP_CHECK(port < fn_.numPorts());
  HCP_CHECK(fn_.portInfo(port).direction == PortDirection::In);
  Op op;
  op.opcode = Opcode::ReadPort;
  op.bitwidth = fn_.portInfo(port).bitwidth;
  op.port = port;
  op.loop = currentLoop();
  op.sourceLine = line_;
  return fn_.addOp(std::move(op));
}

Operand Builder::fullUse(OpId id) const {
  return Operand{id, fn_.op(id).bitwidth};
}

OpId Builder::make(Opcode opcode, std::uint16_t width,
                   std::vector<OpId> operands, const std::string& name) {
  std::vector<Operand> ops;
  ops.reserve(operands.size());
  for (OpId o : operands) ops.push_back(fullUse(o));
  return makeWithBits(opcode, width, std::move(ops), name);
}

OpId Builder::makeWithBits(Opcode opcode, std::uint16_t width,
                           std::vector<Operand> operands,
                           const std::string& name) {
  Op op;
  op.opcode = opcode;
  op.bitwidth = width;
  op.operands = std::move(operands);
  op.loop = currentLoop();
  op.sourceLine = line_;
  op.name = name;
  return fn_.addOp(std::move(op));
}

OpId Builder::binary(Opcode opcode, OpId a, OpId b) {
  const std::uint16_t w =
      std::max(fn_.op(a).bitwidth, fn_.op(b).bitwidth);
  return make(opcode, w, {a, b});
}

OpId Builder::binaryWide(Opcode opcode, OpId a, OpId b) {
  const std::uint16_t w = static_cast<std::uint16_t>(
      std::min<int>(64, fn_.op(a).bitwidth + fn_.op(b).bitwidth));
  return make(opcode, w, {a, b});
}

OpId Builder::cmp(Opcode opcode, OpId a, OpId b) {
  return make(opcode, 1, {a, b});
}

OpId Builder::unary(Opcode opcode, OpId a) {
  return make(opcode, fn_.op(a).bitwidth, {a});
}

OpId Builder::select(OpId cond, OpId t, OpId f) {
  const std::uint16_t w =
      std::max(fn_.op(t).bitwidth, fn_.op(f).bitwidth);
  return make(Opcode::Select, w, {cond, t, f});
}

OpId Builder::popcount(OpId a) {
  // ceil(log2(width+1)) result bits.
  std::uint16_t w = 1;
  while ((1u << w) <= fn_.op(a).bitwidth) ++w;
  return make(Opcode::PopCount, w, {a});
}

OpId Builder::trunc(OpId a, std::uint16_t width) {
  HCP_CHECK(width <= fn_.op(a).bitwidth);
  return makeWithBits(Opcode::Trunc, width, {Operand{a, width}});
}

OpId Builder::zext(OpId a, std::uint16_t width) {
  HCP_CHECK(width >= fn_.op(a).bitwidth);
  return make(Opcode::ZExt, width, {a});
}

OpId Builder::concat(OpId hi, OpId lo) {
  const auto w = static_cast<std::uint16_t>(fn_.op(hi).bitwidth +
                                            fn_.op(lo).bitwidth);
  return make(Opcode::Concat, w, {hi, lo});
}

OpId Builder::extract(OpId a, std::uint16_t offset, std::uint16_t width) {
  HCP_CHECK(offset + width <= fn_.op(a).bitwidth);
  return makeWithBits(Opcode::Extract, width, {Operand{a, width}});
}

OpId Builder::load(ArrayId arr, OpId index) {
  HCP_CHECK(arr < fn_.numArrays());
  Op op;
  op.opcode = Opcode::Load;
  op.bitwidth = fn_.array(arr).bitwidth;
  op.array = arr;
  op.operands = {fullUse(index)};
  op.loop = currentLoop();
  op.sourceLine = line_;
  return fn_.addOp(std::move(op));
}

OpId Builder::store(ArrayId arr, OpId index, OpId value) {
  HCP_CHECK(arr < fn_.numArrays());
  Op op;
  op.opcode = Opcode::Store;
  op.bitwidth = 0;
  op.array = arr;
  op.operands = {fullUse(index),
                 Operand{value, std::min(fn_.op(value).bitwidth,
                                         fn_.array(arr).bitwidth)}};
  op.loop = currentLoop();
  op.sourceLine = line_;
  return fn_.addOp(std::move(op));
}

OpId Builder::writePort(PortId port, OpId value) {
  HCP_CHECK(port < fn_.numPorts());
  HCP_CHECK(fn_.portInfo(port).direction == PortDirection::Out);
  Op op;
  op.opcode = Opcode::WritePort;
  op.bitwidth = 0;
  op.port = port;
  op.operands = {Operand{value, std::min(fn_.op(value).bitwidth,
                                         fn_.portInfo(port).bitwidth)}};
  op.loop = currentLoop();
  op.sourceLine = line_;
  return fn_.addOp(std::move(op));
}

OpId Builder::ret() {
  Op op;
  op.opcode = Opcode::Ret;
  op.bitwidth = 0;
  op.loop = currentLoop();
  op.sourceLine = line_;
  return fn_.addOp(std::move(op));
}

OpId Builder::call(const std::string& callee, std::vector<OpId> args,
                   std::uint16_t resultWidth) {
  OpId id = make(Opcode::Call, resultWidth, std::move(args), callee);
  return id;
}

}  // namespace hcp::ir
