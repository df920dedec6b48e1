// Directive-driven IR transformations, modelling what Vivado HLS does before
// scheduling: array partitioning, loop unrolling (with replica provenance —
// the marginal-sample filter of §III-C1 needs to know which ops are copies
// of the same pre-unroll op) and function inlining. The case study's
// "Replication" step (§IV-C step 2) is built into the face_detection
// generator (FaceDetectionConfig::replicateWindowArray), not applied here.
#pragma once

#include <cstdint>

#include "hls/directives.hpp"
#include "ir/module.hpp"

namespace hcp::hls {

/// Applies array-partition directives to `fn` (sets ArrayInfo::banks).
void applyArrayPartition(ir::Function& fn, const DirectiveSet& dirs);

/// Unrolls loops of `fn` per directives. Nested loops are processed
/// innermost-first. Replicated ops carry originOp/replicaIndex provenance.
void applyUnroll(ir::Function& fn, const DirectiveSet& dirs);

/// Marks pipeline directives on the loop table (consumed by the scheduler).
void applyPipeline(ir::Function& fn, const DirectiveSet& dirs);

/// Unrolls one loop of `fn` by `factor` (clamped to the trip count).
void unrollLoop(ir::Function& fn, ir::LoopId loop, std::uint32_t factor);

/// Inlines every call to directive-marked functions, bottom-up over the call
/// graph, rewriting callers in place. Callee arrays/loops are copied per call
/// site. Calls to unmarked functions remain black-box Call ops.
void applyInline(ir::Module& mod, const DirectiveSet& dirs);

/// Applies all directives to a module in HLS order:
/// partition -> unroll -> pipeline marks -> inline. The module is modified
/// in place and re-verified.
void applyDirectives(ir::Module& mod, const DirectiveSet& dirs);

}  // namespace hcp::hls
