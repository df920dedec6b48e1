// IR function: a list of operations in def-before-use order, organized into
// (possibly nested) loop regions, plus arrays (on-chip memories) and I/O
// ports. This mirrors the information the paper consumes from the Vivado HLS
// front-end IR: operations with bitwidths, dependency edges carrying wire
// counts, loop structure (for unrolling provenance / marginal-sample
// filtering) and source-line provenance for mapping congestion back to code.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "ir/opcode.hpp"
#include "support/error.hpp"

namespace hcp::ir {

using OpId = std::uint32_t;
using LoopId = std::uint32_t;
using ArrayId = std::uint32_t;
using PortId = std::uint32_t;

inline constexpr OpId kInvalidOp = std::numeric_limits<OpId>::max();
inline constexpr LoopId kRootRegion = 0;  // function body, not a real loop
inline constexpr std::uint32_t kInvalidIndex =
    std::numeric_limits<std::uint32_t>::max();

/// A use of another op's result. `bitsUsed` is the number of wires this
/// connection actually carries — the paper's dependency-graph edge weight
/// (a consumer may take only 8 of a producer's 32 bits).
struct Operand {
  OpId producer = kInvalidOp;
  std::uint16_t bitsUsed = 0;
};

/// One IR operation.
struct Op {
  Opcode opcode = Opcode::Passthrough;
  std::uint16_t bitwidth = 0;  ///< result width in bits (0 for void ops)
  LoopId loop = kRootRegion;   ///< innermost enclosing loop region
  std::int32_t sourceLine = 0; ///< provenance into the (virtual) source file
  std::vector<Operand> operands;

  // Opcode-specific payloads (kInvalidIndex when unused).
  std::int64_t constValue = 0;             ///< Const
  ArrayId array = kInvalidIndex;           ///< Load / Store / Alloca
  PortId port = kInvalidIndex;             ///< ReadPort / WritePort
  std::uint32_t callee = kInvalidIndex;    ///< Call: function index in Module

  /// Unroll provenance: the pre-unroll op this one was replicated from, and
  /// the replica index. Ops that were never replicated point at themselves
  /// with replica 0. Used by the marginal-sample filter (paper §III-C1).
  OpId originOp = kInvalidOp;
  std::uint32_t replicaIndex = 0;

  std::string name;  ///< optional debug name; RTL cells derive names from it
};

/// A loop region. Loops form a forest rooted at kRootRegion; `parent` of a
/// top-level loop is kRootRegion. Ops store their innermost loop id.
struct LoopInfo {
  std::string name;
  LoopId parent = kRootRegion;
  std::uint64_t tripCount = 1;
  std::uint32_t unrollFactor = 1;  ///< directive state (applied by transforms)
  bool pipelined = false;
  std::uint32_t initiationInterval = 1;
  std::int32_t sourceLine = 0;
};

/// An on-chip array (BRAM/LUTRAM memory). `banks` reflects array partitioning
/// (complete partitioning → banks == words, registers instead of BRAM).
struct ArrayInfo {
  std::string name;
  std::uint64_t words = 0;
  std::uint16_t bitwidth = 0;
  std::uint32_t banks = 1;
  std::int32_t sourceLine = 0;
};

enum class PortDirection : std::uint8_t { In, Out };

/// A function I/O port. The paper adds "port" nodes to the dependency graph
/// so operators sharing an I/O connection are linked.
struct PortInfo {
  std::string name;
  PortDirection direction = PortDirection::In;
  std::uint16_t bitwidth = 0;
};

/// An IR function.
class Function {
 public:
  explicit Function(std::string name) : name_(std::move(name)) {
    // Region 0 is the implicit function body.
    loops_.push_back(LoopInfo{.name = "<body>", .parent = kRootRegion,
                              .tripCount = 1});
  }

  const std::string& name() const { return name_; }

  // --- ops -----------------------------------------------------------------
  OpId addOp(Op op) {
    ops_.push_back(std::move(op));
    const OpId id = static_cast<OpId>(ops_.size() - 1);
    if (ops_.back().originOp == kInvalidOp) ops_.back().originOp = id;
    return id;
  }
  const Op& op(OpId id) const {
    HCP_CHECK_MSG(id < ops_.size(), "bad OpId " << id << " in " << name_);
    return ops_[id];
  }
  Op& op(OpId id) {
    HCP_CHECK_MSG(id < ops_.size(), "bad OpId " << id << " in " << name_);
    return ops_[id];
  }
  std::size_t numOps() const { return ops_.size(); }
  const std::vector<Op>& ops() const { return ops_; }
  std::vector<Op>& ops() { return ops_; }

  // --- loops ---------------------------------------------------------------
  LoopId addLoop(LoopInfo info) {
    loops_.push_back(std::move(info));
    return static_cast<LoopId>(loops_.size() - 1);
  }
  const LoopInfo& loop(LoopId id) const {
    HCP_CHECK(id < loops_.size());
    return loops_[id];
  }
  LoopInfo& loop(LoopId id) {
    HCP_CHECK(id < loops_.size());
    return loops_[id];
  }
  std::size_t numLoops() const { return loops_.size(); }

  // --- arrays --------------------------------------------------------------
  ArrayId addArray(ArrayInfo info) {
    arrays_.push_back(std::move(info));
    return static_cast<ArrayId>(arrays_.size() - 1);
  }
  const ArrayInfo& array(ArrayId id) const {
    HCP_CHECK(id < arrays_.size());
    return arrays_[id];
  }
  ArrayInfo& array(ArrayId id) {
    HCP_CHECK(id < arrays_.size());
    return arrays_[id];
  }
  std::size_t numArrays() const { return arrays_.size(); }

  // --- ports ---------------------------------------------------------------
  PortId addPort(PortInfo info) {
    ports_.push_back(std::move(info));
    return static_cast<PortId>(ports_.size() - 1);
  }
  const PortInfo& portInfo(PortId id) const {
    HCP_CHECK(id < ports_.size());
    return ports_[id];
  }
  std::size_t numPorts() const { return ports_.size(); }

  /// True if the op is (transitively) inside loop `l`.
  bool inLoop(OpId opId, LoopId l) const;

 private:
  std::string name_;
  std::vector<Op> ops_;
  std::vector<LoopInfo> loops_;
  std::vector<ArrayInfo> arrays_;
  std::vector<PortInfo> ports_;
};

}  // namespace hcp::ir
