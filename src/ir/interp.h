// The one engine that executes a CodeUnit: the AST interpreter.
//
// Each call lowers the unit (variables to slots, innermost binding first;
// bounds and guards to min/max lists of slot rows; one local-buffer
// geometry) and runs it over L lanes in SIMT lockstep, by the rules of
// gpusim/bank_conflicts.h. With L = 1 that is exactly sequential execution.
//
// The interpreter is the semantic backbone of the test suite: the original
// block (via executeReference) and any generated CodeUnit (tiled, with
// scratchpad buffers and move-in/move-out code) must leave the global arrays
// in identical states. Parallel loop markers are executed sequentially; the
// framework guarantees that is equivalent.
//
// The interpreter also produces a MemTrace: counts of global-memory and
// local-buffer accesses and synchronizations, which the machine simulator
// converts to time. This keeps "what the code does" and "what it costs" in
// one place. Its lane mode (executeLanes) feeds the bank-conflict model.
#pragma once

#include <functional>

#include "ir/ast.h"

namespace emm {

/// Access counters gathered while executing a CodeUnit.
struct MemTrace {
  i64 globalReads = 0;    ///< element loads from off-chip arrays
  i64 globalWrites = 0;   ///< element stores to off-chip arrays
  i64 localReads = 0;     ///< element loads from scratchpad buffers
  i64 localWrites = 0;    ///< element stores to scratchpad buffers
  i64 syncs = 0;          ///< Sync nodes executed
  i64 stmtInstances = 0;  ///< statement instances executed
  i64 copyElements = 0;   ///< elements moved by Copy nodes

  MemTrace& operator+=(const MemTrace& o);
};

/// Executes `unit` with the given parameter binding against `globals`.
/// Local buffers are allocated per execution from their size expressions.
/// Returns the access trace.
MemTrace executeCodeUnit(const CodeUnit& unit, const IntVec& paramValues, ArrayStore& globals);

/// Peak scratchpad residency in elements: the sum of all local buffer sizes
/// at the given parameter binding (the framework allocates all buffers for
/// the duration of the block, matching the paper's footprint model).
i64 scratchpadFootprint(const CodeUnit& unit, const IntVec& paramValues);

/// Runs `unit` without data, `lanes` iterations of each outermost
/// ThreadParallel loop to a warp, and calls `warpAccess` with the active
/// lanes' word addresses (arena offset times `wordsPerElement`, bases rounded
/// to `arenaAlign`) at every local access a warp makes. Returns the number of
/// local accesses outside any ThreadParallel loop.
i64 executeLanes(const CodeUnit& unit, const IntVec& paramValues, int lanes, i64 arenaAlign,
                 i64 wordsPerElement,
                 const std::function<void(const i64* wordAddrs, int activeLanes)>& warpAccess);

}  // namespace emm
