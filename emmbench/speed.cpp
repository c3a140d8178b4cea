// The machine-speed probe: a fixed unit of work that belongs to the
// benchmark, not to the compiler, timed between the slices of a window.
//
// On a shared host the speed of the whole machine drifts by 20-50% over
// tens of seconds with what the neighbours run, and a single-threaded
// compile loop shows it in its CPU time as much as in its wall time, so
// waiting for a quiet stretch does not remove it. The probe runs the same
// kind of work a compile does (small vector allocations, integer row
// reduction, ordered-map inserts, string formatting, sorting) over a small
// working set, so it slows down with the compiler when the host does. Its
// code calls nothing in the compiler, so a change to the compiler cannot
// move it.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace emmbench {

namespace {

constexpr int kProbeUnits = 3;
constexpr int kRowsPerUnit = 200;

/// Keeps the probe's result alive so its work is not optimised away.
volatile u64 probeSink = 0;

u64 probeUnit() {
  u64 h = 1469598103934665603ull;
  std::map<std::vector<i64>, int> seen;
  for (int it = 0; it < kRowsPerUnit; ++it) {
    std::vector<std::vector<i64>> rows(24, std::vector<i64>(12));
    for (size_t r = 0; r < rows.size(); ++r)
      for (size_t c = 0; c < 12; ++c) rows[r][c] = static_cast<i64>((h >> ((c + r) % 40)) % 13) - 6;
    for (size_t p = 0; p < 12; ++p)
      for (size_t r = p + 1; r < rows.size(); ++r) {
        const i64 a = rows[p][p] != 0 ? rows[p][p] : 1, b = rows[r][p];
        for (size_t c = 0; c < 12; ++c) rows[r][c] = (a * rows[r][c] - b * rows[p][c]) % 1000003;
      }
    for (const std::vector<i64>& r : rows) {
      seen[r] += 1;
      for (i64 x : r) h = (h ^ static_cast<u64>(x)) * 1099511628211ull;
    }
    h += std::to_string(h).size();
    std::sort(rows.begin(), rows.end());
  }
  return h + seen.size();
}

}  // namespace

double probeSpeedMs() {
  std::vector<double> ms;
  for (int i = 0; i < kProbeUnits; ++i) {
    const auto t0 = Clock::now();
    probeSink = probeSink + probeUnit();
    ms.push_back(msSince(t0));
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

}  // namespace emmbench
