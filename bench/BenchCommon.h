//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for the benchmark binaries: the one timer they all use
/// and the exact-counter checks they gate their claims with.
///
//===----------------------------------------------------------------------===//

#ifndef OSC_BENCH_BENCHCOMMON_H
#define OSC_BENCH_BENCHCOMMON_H

#include "support/Diag.h"
#include "osc.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace osc::bench {

/// Evaluates \p Src, aborting the benchmark on error (a benchmark that
/// silently measures an error path is worse than no benchmark).
inline Value mustEval(Interp &I, const std::string &Src) {
  Interp::Result R = I.eval(Src);
  if (!R.Ok)
    oscFatal(("benchmark workload failed: " + R.Error).c_str());
  return R.Val;
}

/// True when OSC_BENCH_FAST is set: trims the largest configurations so the
/// whole suite runs in seconds (shapes are preserved, absolute magnitudes
/// shrink).
inline bool fastMode() { return std::getenv("OSC_BENCH_FAST") != nullptr; }

/// One timed stretch of work: the value of its last evaluation, its
/// wall-clock milliseconds, and the counters it moved.
struct Run {
  Value Val;
  double Ms = 0;
  Stats::Snapshot D;
};

/// Evaluates \p Src \p Reps times back to back under steady_clock.  The
/// counter snapshots sit outside the timed region.
inline Run timed(Interp &I, const std::string &Src, int Reps = 1) {
  Run R;
  Stats::Snapshot S0 = I.snapshot();
  auto T0 = std::chrono::steady_clock::now();
  for (int K = 0; K != Reps; ++K)
    R.Val = mustEval(I, Src);
  auto T1 = std::chrono::steady_clock::now();
  R.Ms = std::chrono::duration<double, std::milli>(T1 - T0).count();
  R.D = I.snapshot() - S0;
  return R;
}

/// Aborts unless counter \p What reads exactly \p Want.  The benches gate
/// their claims on machine-independent counters, never on timings.
inline void expectCount(const std::string &What, uint64_t Got,
                        uint64_t Want) {
  if (Got != Want)
    oscFatal((What + " = " + std::to_string(Got) + ", expected " +
              std::to_string(Want))
                 .c_str());
}

/// The column named \p Name in \p Cols; aborts if the run did not produce
/// it (a dropped column would read as "nothing regressed").
template <typename ColumnT>
const ColumnT &column(const std::vector<ColumnT> &Cols,
                      const std::string &Name) {
  for (const ColumnT &C : Cols)
    if (C.Name == Name)
      return C;
  oscFatal(("missing column " + Name).c_str());
}

} // namespace osc::bench

#endif // OSC_BENCH_BENCHCOMMON_H
