#include "hls/transforms.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "ir/verifier.hpp"

namespace hcp::hls {

using ir::ArrayId;
using ir::Function;
using ir::kInvalidIndex;
using ir::kInvalidOp;
using ir::kRootRegion;
using ir::LoopId;
using ir::LoopInfo;
using ir::Module;
using ir::Op;
using ir::Opcode;
using ir::OpId;
using ir::Operand;
using ir::PortDirection;

void applyArrayPartition(Function& fn, const DirectiveSet& dirs) {
  for (ArrayId a = 0; a < fn.numArrays(); ++a) {
    auto d = dirs.arrayDirective(fn.name(), fn.array(a).name);
    if (!d) continue;
    ir::ArrayInfo& info = fn.array(a);
    if (d->complete) {
      info.banks = static_cast<std::uint32_t>(info.words);
    } else {
      info.banks = std::max<std::uint32_t>(1, d->partitionFactor);
    }
  }
}

void applyPipeline(Function& fn, const DirectiveSet& dirs) {
  for (LoopId l = 1; l < fn.numLoops(); ++l) {
    auto d = dirs.loopDirective(fn.name(), fn.loop(l).name);
    if (!d || !d->pipeline) continue;
    fn.loop(l).pipelined = true;
    fn.loop(l).initiationInterval = std::max<std::uint32_t>(
        1, d->initiationInterval);
  }
}

void unrollLoop(Function& fn, LoopId loop, std::uint32_t factor) {
  HCP_CHECK(loop != kRootRegion && loop < fn.numLoops());
  const std::uint64_t trip = fn.loop(loop).tripCount;
  factor = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(factor, trip));
  if (factor <= 1) return;

  // Ops lexically inside `loop` (including nested regions).
  std::vector<OpId> body;
  const std::size_t numOpsBefore = fn.numOps();
  for (OpId id = 0; id < numOpsBefore; ++id)
    if (fn.inLoop(id, loop)) body.push_back(id);

  // Nested loops rooted under `loop` (excluding it).
  std::vector<LoopId> nested;
  const std::size_t numLoopsBefore = fn.numLoops();
  for (LoopId l = 1; l < numLoopsBefore; ++l) {
    if (l == loop) continue;
    LoopId cur = l;
    while (cur != kRootRegion && cur != loop) cur = fn.loop(cur).parent;
    if (cur == loop) nested.push_back(l);
  }

  for (std::uint32_t rep = 1; rep < factor; ++rep) {
    // Fresh copies of nested loop regions for this replica.
    std::map<LoopId, LoopId> loopRemap;
    loopRemap[loop] = loop;
    for (LoopId l : nested) {
      LoopInfo copy = fn.loop(l);
      auto it = loopRemap.find(copy.parent);
      if (it != loopRemap.end()) copy.parent = it->second;
      copy.name += "_u" + std::to_string(rep);
      loopRemap[l] = fn.addLoop(copy);
    }
    // Clone the body ops with operand remapping.
    std::map<OpId, OpId> opRemap;
    for (OpId id : body) {
      Op clone = fn.op(id);
      clone.loop = loopRemap.at(clone.loop);
      // Induction-derived constants (memory indices, per-iteration offsets)
      // advance with the replica, so unrolled accesses spread over banks the
      // way i, i+1, ... would.
      if (clone.opcode == Opcode::Const) clone.constValue += rep;
      for (Operand& use : clone.operands) {
        auto it = opRemap.find(use.producer);
        if (it != opRemap.end()) use.producer = it->second;
      }
      clone.originOp = fn.op(id).originOp;
      clone.replicaIndex = fn.op(id).replicaIndex + rep * 1000u;
      // Call ops use `name` as the callee reference — never decorate it.
      if (!clone.name.empty() && clone.opcode != Opcode::Call)
        clone.name += "_u" + std::to_string(rep);
      opRemap[id] = fn.addOp(std::move(clone));
    }
  }

  LoopInfo& info = fn.loop(loop);
  info.unrollFactor *= factor;
  info.tripCount = (trip + factor - 1) / factor;
}

void applyUnroll(Function& fn, const DirectiveSet& dirs) {
  // Innermost-first: a loop is processed after all loops nested in it. Loops
  // are appended parent-before-child by the builder, so reverse id order
  // visits children first; replica regions added during unrolling never have
  // their own directives (their names carry the _uN suffix).
  const std::size_t numLoopsBefore = fn.numLoops();
  for (LoopId l = static_cast<LoopId>(numLoopsBefore); l-- > 1;) {
    auto d = dirs.loopDirective(fn.name(), fn.loop(l).name);
    if (!d || d->unrollFactor <= 1) continue;
    unrollLoop(fn, l, d->unrollFactor);
  }
}

namespace {

/// Rebuilds `caller`, splicing in the bodies of inlined callees at each call
/// site. Callees must already be fully processed (bottom-up order).
void inlineCallsInFunction(Function& caller, const Module& mod,
                           const DirectiveSet& dirs) {
  bool hasInlinableCall = false;
  for (OpId id = 0; id < caller.numOps(); ++id) {
    const Op& op = caller.op(id);
    if (op.opcode == Opcode::Call && dirs.shouldInline(op.name)) {
      hasInlinableCall = true;
      break;
    }
  }
  if (!hasInlinableCall) return;

  Function next(caller.name());
  // Copy loop/array/port tables; op splicing appends callee tables later.
  for (LoopId l = 1; l < caller.numLoops(); ++l) next.addLoop(caller.loop(l));
  for (ArrayId a = 0; a < caller.numArrays(); ++a)
    next.addArray(caller.array(a));
  for (ir::PortId p = 0; p < caller.numPorts(); ++p)
    next.addPort(caller.portInfo(p));

  std::vector<OpId> remap(caller.numOps(), kInvalidOp);
  int inlineCount = 0;

  for (OpId id = 0; id < caller.numOps(); ++id) {
    const Op& op = caller.op(id);
    if (op.opcode != Opcode::Call || !dirs.shouldInline(op.name)) {
      Op clone = op;
      for (Operand& use : clone.operands) {
        HCP_CHECK(remap[use.producer] != kInvalidOp);
        use.producer = remap[use.producer];
      }
      clone.originOp = (op.originOp < id && remap[op.originOp] != kInvalidOp)
                           ? remap[op.originOp]
                           : kInvalidOp;
      remap[id] = next.addOp(std::move(clone));
      if (next.op(remap[id]).originOp == kInvalidOp)
        next.op(remap[id]).originOp = remap[id];
      continue;
    }

    // Splice the callee.
    const auto calleeIdx = mod.findFunction(op.name);
    HCP_CHECK_MSG(calleeIdx != kInvalidIndex, "unknown callee " << op.name);
    const Function& callee = mod.function(calleeIdx);
    const std::string tag =
        callee.name() + "_i" + std::to_string(inlineCount++);

    // Map callee in-ports to call arguments, positionally.
    std::vector<Operand> args;
    for (const Operand& use : op.operands) {
      Operand a = use;
      HCP_CHECK(remap[a.producer] != kInvalidOp);
      a.producer = remap[a.producer];
      args.push_back(a);
    }
    std::vector<ir::PortId> inPorts, outPorts;
    for (ir::PortId p = 0; p < callee.numPorts(); ++p) {
      (callee.portInfo(p).direction == PortDirection::In ? inPorts
                                                         : outPorts)
          .push_back(p);
    }
    HCP_CHECK_MSG(args.size() == inPorts.size(),
                  callee.name() << ": call arity " << args.size()
                                << " != in-ports " << inPorts.size());

    // Copy callee loops (fresh per call site), parented at the call's region.
    std::map<LoopId, LoopId> loopRemap;
    loopRemap[kRootRegion] = op.loop;
    for (LoopId l = 1; l < callee.numLoops(); ++l) {
      LoopInfo copy = callee.loop(l);
      copy.parent = loopRemap.at(copy.parent);
      copy.name = tag + "." + copy.name;
      loopRemap[l] = next.addLoop(copy);
    }
    // Copy callee arrays (local arrays are per-instance in HLS).
    std::map<ArrayId, ArrayId> arrayRemap;
    for (ArrayId a = 0; a < callee.numArrays(); ++a) {
      ir::ArrayInfo copy = callee.array(a);
      copy.name = tag + "." + copy.name;
      arrayRemap[a] = next.addArray(copy);
    }

    std::vector<OpId> calleeRemap(callee.numOps(), kInvalidOp);
    OpId returnValue = kInvalidOp;
    for (OpId cid = 0; cid < callee.numOps(); ++cid) {
      const Op& cop = callee.op(cid);
      if (cop.opcode == Opcode::Ret) continue;
      if (cop.opcode == Opcode::ReadPort) {
        // Becomes a passthrough of the corresponding argument.
        const auto argIdx = static_cast<std::size_t>(
            std::find(inPorts.begin(), inPorts.end(), cop.port) -
            inPorts.begin());
        HCP_CHECK(argIdx < args.size());
        Op pass;
        pass.opcode = Opcode::Passthrough;
        pass.bitwidth = cop.bitwidth;
        pass.operands = {args[argIdx]};
        pass.loop = loopRemap.at(cop.loop);
        pass.sourceLine = cop.sourceLine;
        pass.name = tag + ".arg" + std::to_string(argIdx);
        calleeRemap[cid] = next.addOp(std::move(pass));
        continue;
      }
      if (cop.opcode == Opcode::WritePort) {
        // Record the value as the call's return; no op emitted.
        HCP_CHECK(cop.operands.size() == 1);
        OpId v = calleeRemap[cop.operands[0].producer];
        HCP_CHECK(v != kInvalidOp);
        returnValue = v;
        calleeRemap[cid] = v;
        continue;
      }
      Op clone = cop;
      clone.loop = loopRemap.at(cop.loop);
      if (clone.array != kInvalidIndex &&
          (cop.opcode == Opcode::Load || cop.opcode == Opcode::Store ||
           cop.opcode == Opcode::Alloca)) {
        clone.array = arrayRemap.at(cop.array);
      }
      for (Operand& use : clone.operands) {
        HCP_CHECK(calleeRemap[use.producer] != kInvalidOp);
        use.producer = calleeRemap[use.producer];
      }
      clone.originOp = kInvalidOp;  // provenance restarts in the caller
      // Every inlined op carries its origin tag so the resolution advisor
      // can attribute hotspots to the inlined callee.
      clone.name = clone.name.empty() ? tag : tag + "." + clone.name;
      calleeRemap[cid] = next.addOp(std::move(clone));
      if (next.op(calleeRemap[cid]).originOp == kInvalidOp)
        next.op(calleeRemap[cid]).originOp = calleeRemap[cid];
    }

    // Replace the Call with a passthrough of the return value.
    if (op.bitwidth > 0) {
      HCP_CHECK_MSG(returnValue != kInvalidOp,
                    callee.name() << " returns no value but call expects one");
      Op pass;
      pass.opcode = Opcode::Passthrough;
      pass.bitwidth = op.bitwidth;
      pass.operands = {
          Operand{returnValue,
                  std::min(op.bitwidth, next.op(returnValue).bitwidth)}};
      pass.loop = op.loop;
      pass.sourceLine = op.sourceLine;
      pass.name = tag + ".ret";
      remap[id] = next.addOp(std::move(pass));
    } else {
      // Void call: stand in with a 1-bit constant (kept alive by nothing).
      Op c;
      c.opcode = Opcode::Const;
      c.bitwidth = 1;
      c.loop = op.loop;
      c.sourceLine = op.sourceLine;
      remap[id] = next.addOp(std::move(c));
    }
  }

  caller = std::move(next);
}

}  // namespace

void applyInline(Module& mod, const DirectiveSet& dirs) {
  // Bottom-up over the (acyclic) call graph: repeatedly process functions
  // whose inlinable callees contain no further inlinable calls. With no
  // recursion, iterating numFunctions times reaches the fixpoint.
  for (std::size_t pass = 0; pass < mod.numFunctions(); ++pass) {
    bool any = false;
    for (std::uint32_t f = 0; f < mod.numFunctions(); ++f) {
      Function& fn = mod.function(f);
      // Only inline into fn if every inlinable callee is itself "clean"
      // (contains no inlinable calls) — guarantees bottom-up splicing.
      bool ready = false, blocked = false;
      for (OpId id = 0; id < fn.numOps(); ++id) {
        const Op& op = fn.op(id);
        if (op.opcode != Opcode::Call || !dirs.shouldInline(op.name)) continue;
        ready = true;
        const auto ci = mod.findFunction(op.name);
        HCP_CHECK(ci != kInvalidIndex);
        const Function& callee = mod.function(ci);
        for (OpId c = 0; c < callee.numOps(); ++c) {
          const Op& cop = callee.op(c);
          if (cop.opcode == Opcode::Call && dirs.shouldInline(cop.name)) {
            blocked = true;
            break;
          }
        }
        if (blocked) break;
      }
      if (ready && !blocked) {
        inlineCallsInFunction(fn, mod, dirs);
        any = true;
      }
    }
    if (!any) break;
  }
}

void applyDirectives(Module& mod, const DirectiveSet& dirs) {
  for (std::uint32_t f = 0; f < mod.numFunctions(); ++f) {
    Function& fn = mod.function(f);
    applyArrayPartition(fn, dirs);
    applyUnroll(fn, dirs);
    applyPipeline(fn, dirs);
  }
  applyInline(mod, dirs);
  ir::verifyOrThrow(mod);
}

}  // namespace hcp::hls
