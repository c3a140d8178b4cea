// Scratchpad bank-conflict counter for generated CodeUnits.
//
// The machine simulator charges scratchpad traffic a flat per-element cost;
// this module supplies the missing second-order term: how many of those
// accesses serialize because the lanes of a warp hit the same bank. It runs
// the unit on the one CodeUnit engine (ir/interp.h) in its lane mode — no
// array data is touched — so it can grade a layout (see
// src/smem/buffer_layout.h) before any code runs; this module only tallies.
//
// Warp model: the OUTERMOST ThreadParallel loop is the lane dimension, as in
// emit_cuda (threadIdx.x). A warp is `warpSize` consecutive iterations of
// that loop at one fixed binding of everything around it. The engine
// executes the subtree in SIMT lockstep: each lane carries its own variable
// slots, inner loops advance all lanes by a shared iteration offset
// while each lane binds its own bound-derived value (so point loops like
// `for (p0 = t0; ...)` keep the lane identity), and guards mask individual
// lanes. At every Copy/Call touching a local buffer the active lanes' flat
// padded addresses map to banks and the warp is charged
// max-per-bank-distinct-addresses cycles — same-address lanes broadcast,
// exactly the G80 rule for a half-warp.
//
// Approximations, all conservative for the generated kernels here:
//  - trip counts are driven by lane 0's bounds (rectangular tiles make the
//    per-lane counts equal anyway; diverging lanes are masked per iteration
//    against their own bounds);
//  - buffers are laid out back to back at bank-row-aligned base offsets,
//    mirroring the packing planner, so inter-buffer interference is modeled
//    the same way the planner prevents it;
//  - accesses outside any ThreadParallel loop are scalar (one cycle, no
//    conflict possible) and tallied separately.
#pragma once

#include "ir/ast.h"

namespace emm {

struct BankConflictOptions {
  int banks = 16;          ///< bank count; <= 1 disables conflicts entirely
  int warpSize = 16;       ///< lanes that access the scratchpad together (G80: half-warp)
  i64 elementBytes = 4;    ///< element size of local buffers
  i64 bankWidthBytes = 4;  ///< successive words of this size map to successive banks
};

/// What the counter tallied.
struct BankConflictStats {
  i64 warpAccesses = 0;        ///< warp-wide local access instructions issued
  i64 bankCycles = 0;          ///< cycles after serialization; >= warpAccesses
  i64 conflictedAccesses = 0;  ///< warp accesses that took more than one cycle
  i64 scalarAccesses = 0;      ///< local accesses outside thread-parallel loops

  /// Cycles lost to serialization: 0 for a conflict-free layout.
  i64 excessCycles() const { return bankCycles - warpAccesses; }
  /// Fraction of scratchpad access cycles that are serialization overhead.
  double serializedFraction() const {
    return bankCycles > 0 ? static_cast<double>(excessCycles()) / static_cast<double>(bankCycles)
                          : 0.0;
  }
};

/// Counts bank conflicts of `unit` at a concrete parameter binding. Local
/// buffers are addressed through their padded extents (LocalBuffer::pad), so
/// running this before and after applyBufferLayout measures exactly what the
/// padding bought.
BankConflictStats countBankConflicts(const CodeUnit& unit, const IntVec& paramValues,
                                     const BankConflictOptions& options = {});

}  // namespace emm
