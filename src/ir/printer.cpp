#include "ir/printer.hpp"

#include <sstream>

namespace hcp::ir {

namespace {

void printFunctionInto(const Function& fn, const PrintOptions& options,
                       std::ostringstream& os) {
  os << "func " << fn.name() << " {\n";
  for (PortId p = 0; p < fn.numPorts(); ++p) {
    const PortInfo& port = fn.portInfo(p);
    os << "  port "
       << (port.direction == PortDirection::In ? "in" : "out") << " "
       << port.name << " :" << port.bitwidth << "\n";
  }
  for (ArrayId a = 0; a < fn.numArrays(); ++a) {
    const ArrayInfo& arr = fn.array(a);
    os << "  array " << arr.name << "[" << arr.words << "] :" << arr.bitwidth
       << " banks=" << arr.banks << "\n";
  }
  for (LoopId l = 1; l < fn.numLoops(); ++l) {
    const LoopInfo& loop = fn.loop(l);
    os << "  loop " << l << " \"" << loop.name << "\" parent=" << loop.parent
       << " trip=" << loop.tripCount;
    if (loop.unrollFactor > 1) os << " unroll=" << loop.unrollFactor;
    if (loop.pipelined) os << " pipelined ii=" << loop.initiationInterval;
    os << "\n";
  }
  for (OpId id = 0; id < fn.numOps(); ++id) {
    const Op& op = fn.op(id);
    os << "  %" << id << " = " << opcodeName(op.opcode);
    switch (op.opcode) {
      case Opcode::Const:
        os << " " << op.constValue;
        break;
      case Opcode::ReadPort:
      case Opcode::WritePort:
        os << " " << fn.portInfo(op.port).name;
        break;
      case Opcode::Load:
      case Opcode::Store:
        os << " " << fn.array(op.array).name;
        break;
      case Opcode::Call:
        os << " @" << op.name;
        break;
      default:
        break;
    }
    for (std::size_t i = 0; i < op.operands.size(); ++i) {
      os << (i == 0 && op.opcode != Opcode::Const ? " " : ", ") << "%"
         << op.operands[i].producer;
      if (op.operands[i].bitsUsed !=
          fn.op(op.operands[i].producer).bitwidth)
        os << "[" << op.operands[i].bitsUsed << "b]";
    }
    if (op.bitwidth > 0) os << " :" << op.bitwidth;
    if (options.loopBodies && op.loop != kRootRegion)
      os << " loop=" << op.loop;
    if (options.sourceLines && op.sourceLine > 0)
      os << " line=" << op.sourceLine;
    if (options.unrollOrigins &&
        (op.originOp != id || op.replicaIndex != 0))
      os << " origin=%" << op.originOp << " replica=" << op.replicaIndex;
    if (!op.name.empty() && op.opcode != Opcode::Call)
      os << "  ; " << op.name;
    os << "\n";
  }
  os << "}\n";
}

}  // namespace

std::string print(const Module& mod, const PrintOptions& options) {
  std::ostringstream os;
  os << "module " << mod.name();
  if (mod.hasTop()) os << " top=" << mod.top().name();
  os << "\n";
  for (std::uint32_t f = 0; f < mod.numFunctions(); ++f) {
    printFunctionInto(mod.function(f), options, os);
  }
  return os.str();
}

}  // namespace hcp::ir
