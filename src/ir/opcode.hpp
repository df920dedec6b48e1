// Opcode set of the HLS intermediate representation.
//
// The paper extracts an "operator type" feature category: a one-hot encoding
// of the op kind plus, for each kind, the count of that kind among one-hop
// neighbours (Table II). The registry therefore needs a fixed, enumerable
// opcode universe; ours has exactly 53 kinds (asserted in tests), chosen to
// cover the LLVM-like IR Vivado HLS derives its IR from plus the HLS-level
// pseudo-ops (ports, muxes) the paper's dependency graph adds.
#pragma once

#include <cstdint>
#include <string_view>

namespace hcp::ir {

enum class Opcode : std::uint8_t {
  // Integer arithmetic.
  Add, Sub, Mul, Div, Rem, Neg,
  // Fixed/floating arithmetic (mapped to DSP-heavy operators).
  FAdd, FSub, FMul, FDiv, FSqrt,
  // Bitwise logic and shifts.
  And, Or, Xor, Not, Shl, LShr, AShr,
  // Comparisons.
  ICmpEq, ICmpNe, ICmpLt, ICmpLe, ICmpGt, ICmpGe, FCmp,
  // Selection.
  Select, Mux,
  // Memory.
  Load, Store, Alloca,
  // Width casts.
  Trunc, ZExt, SExt, BitCast,
  // Control / structure.
  Phi, Call, Ret, Br, Switch,
  // Bit manipulation.
  Concat, Extract, PopCount, AbsDiff,
  // Fused DSP patterns.
  MulAdd, Mac, Dot,
  // Constants and I/O.
  Const, ReadPort, WritePort, Port,
  // Misc.
  Min, Max, Passthrough,
};

/// Number of distinct opcodes; the feature registry depends on this value
/// (operator-type category = 2*kNumOpcodes + 1 features).
inline constexpr std::size_t kNumOpcodes = 53;

/// Stable lower-case mnemonic, e.g. "add", "fmul", "readport".
std::string_view opcodeName(Opcode op);

/// True for ops whose removal changes observable behaviour (stores, port
/// writes, returns, calls, branches); DCE must keep them.
bool hasSideEffects(Opcode op);

/// True for ops that become datapath functional units in RTL (arith, logic,
/// cmp, select, fused DSP). False for structural ops (const, phi, br, port).
bool isFunctionalUnit(Opcode op);

/// True for ops eligible for resource sharing across control steps
/// (multi-cycle / expensive units: mul, div, fp ops, fused DSP).
bool isSharable(Opcode op);

/// Opcode from index (bounds-checked) — used by the feature registry to
/// enumerate the one-hot encoding deterministically.
Opcode opcodeFromIndex(std::size_t idx);

}  // namespace hcp::ir
