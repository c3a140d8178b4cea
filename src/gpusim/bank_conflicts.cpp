#include "gpusim/bank_conflicts.h"

#include <algorithm>

#include "ir/interp.h"

namespace emm {

BankConflictStats countBankConflicts(const CodeUnit& unit, const IntVec& paramValues,
                                     const BankConflictOptions& options) {
  BankConflictStats stats;
  const int banks = options.banks;
  std::vector<i64> perBank(std::max(banks, 1), 0);
  std::vector<i64> distinct;
  /// Tallies one warp-wide access from the per-lane word addresses; cycles =
  /// max over banks of DISTINCT addresses routed there (same-address lanes
  /// broadcast, the G80 half-warp rule).
  /// Addresses are never negative: the engine bounds-checks local indices.
  auto tally = [&](const i64* laneAddrs, int n) {
    if (n == 0) return;
    ++stats.warpAccesses;
    i64 cycles = 1;
    if (banks > 1) {
      distinct.assign(laneAddrs, laneAddrs + n);
      std::sort(distinct.begin(), distinct.end());
      distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
      for (i64 addr : distinct) cycles = std::max(cycles, ++perBank[addr % banks]);
      for (i64 addr : distinct) perBank[addr % banks] = 0;
    }
    stats.bankCycles += cycles;
    if (cycles > 1) ++stats.conflictedAccesses;
  };
  const i64 wordsPerElem =
      std::max<i64>(1, options.elementBytes / std::max<i64>(1, options.bankWidthBytes));
  stats.scalarAccesses = executeLanes(unit, paramValues, options.warpSize, std::max(1, banks),
                                      wordsPerElem, tally);
  return stats;
}

}  // namespace emm
