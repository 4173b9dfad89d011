//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 5, native edition: the src/sched green-thread scheduler against
/// the Scheme-level thread systems (call/cc, call/1cc, engines) on the
/// paper's workload — N threads each computing fib(20), context switching
/// every I procedure calls.
///
/// Two claims are checked with exact counters, not timings:
///
///   * A steady-state native context switch copies ZERO stack words: both
///     suspension (captureOneShot) and resumption (the one-shot invoke)
///     are segment pointer swaps.  The harness aborts if WordsCopied moves
///     at all during the native runs.
///   * The call/cc thread system copies words on every resume (Fig. 3), so
///     its WordsCopied grows with the switch count.  The harness aborts if
///     it doesn't — otherwise the comparison would be measuring nothing.
///
/// The timing table mirrors bench_threads so the native column can be read
/// against the paper's three systems directly.  OSC_BENCH_FAST=1 shrinks
/// the workload for smoke runs.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "Workloads.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace osc;
using namespace osc::bench;
using namespace osc::workloads;

namespace {

/// The native workload, shaped exactly like run-threads / run-threads-engines
/// in bench/Workloads.cpp: same doubly recursive fib, same completion
/// criterion (sum of all thread results), but scheduling and switching live
/// entirely inside the VM.
const char *NativeSetup =
    "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))"
    "(define (run-threads-native n fib-n interval)"
    "  (let ((tids (map (lambda (i) (spawn (lambda () (fib fib-n))))"
    "                   (iota n))))"
    "    (scheduler-run interval)"
    "    (fold-left + 0 (map thread-join tids))))";

struct Sample {
  double Ms = 0;
  uint64_t WordsCopied = 0;
  uint64_t Switches = 0;
};

Sample runNative(int Threads, int FibN, int Interval) {
  Interp I;
  mustEval(I, NativeSetup);
  Run R = timed(I, "(run-threads-native " + std::to_string(Threads) + " " +
                       std::to_string(FibN) + " " + std::to_string(Interval) +
                       ")");
  return {R.Ms, R.D.WordsCopied, R.D.ContextSwitches};
}

Sample runScheme(const std::string &Setup, const char *Runner, int Threads,
                 int FibN, int Interval) {
  Interp I;
  mustEval(I, Setup);
  Run R = timed(I, "(" + std::string(Runner) + " " + std::to_string(Threads) +
                       " " + std::to_string(FibN) + " " +
                       std::to_string(Interval) + ")");
  return {R.Ms, R.D.WordsCopied,
          R.D.OneShotInvokes + R.D.MultiShotInvokes};
}

} // namespace

int main() {
  const bool Fast = fastMode();
  const int FibN = Fast ? 14 : 20;
  std::vector<int> ThreadCounts = Fast ? std::vector<int>{10, 100}
                                       : std::vector<int>{10, 100, 1000};
  std::vector<int> Intervals = Fast ? std::vector<int>{1, 8, 64, 512}
                                    : std::vector<int>{1,  2,  4,   8,  16,
                                                       32, 64, 128, 256, 512};

  // --- Part 1: the zero-copy steady state, isolated ------------------------
  //
  // A pure switch loop (threads that only yield) makes the per-switch cost
  // visible with nothing else on the meter.
  {
    const int Yielders = 4;
    const int Rounds = Fast ? 2000 : 20000;
    Interp I;
    std::string Setup =
        "(define (yielder n)"
        "  (lambda () (let loop ((i 0))"
        "    (if (= i n) 'done (begin (yield) (loop (+ i 1)))))))";
    for (int T = 0; T < Yielders; ++T)
      Setup += "(spawn (yielder " + std::to_string(Rounds) + "))";
    mustEval(I, Setup);
    Run R = timed(I, "(scheduler-run)");
    uint64_t Switches = R.D.ContextSwitches;
    uint64_t Copied = R.D.WordsCopied;
    double Ns = R.Ms * 1e6 / Switches;
    std::printf("Steady-state native switch: %llu switches, %llu words "
                "copied (%.3f words/switch), %.0f ns/switch.\n",
                static_cast<unsigned long long>(Switches),
                static_cast<unsigned long long>(Copied),
                Switches ? double(Copied) / Switches : 0.0, Ns);
    if (Copied != 0)
      oscFatal("native scheduler copied stack words in steady state; the "
               "one-shot switch path has regressed");
  }

  // --- Part 2: Figure 5 with a native column -------------------------------

  std::printf("\nFigure 5 + native scheduler: %s threads x fib(%d), switch "
              "every N procedure calls.  Times in ms.\n",
              Fast ? "{10,100}" : "{10,100,1000}", FibN);

  std::string CcSetup = std::string(threadsCallCC()) + threadSchedulerCommon();
  std::string OneSetup =
      std::string(threadsCall1CC()) + threadSchedulerCommon();

  uint64_t NativeCopiedTotal = 0, NativeSwitchTotal = 0;
  uint64_t CcCopiedTotal = 0, CcSwitchTotal = 0;

  for (int N : ThreadCounts) {
    std::printf("\n-- %d threads --\n", N);
    std::printf("%-10s %12s %12s %12s %12s %14s %14s\n", "interval",
                "native", "engines", "call/cc", "call/1cc", "native wds/sw",
                "cc wds/sw");
    for (int Interval : Intervals) {
      Sample Nat = runNative(N, FibN, Interval);
      Sample Eng = runScheme(threadsEngines(), "run-threads-engines", N, FibN,
                             Interval);
      Sample Cc = runScheme(CcSetup, "run-threads", N, FibN, Interval);
      Sample One = runScheme(OneSetup, "run-threads", N, FibN, Interval);
      NativeCopiedTotal += Nat.WordsCopied;
      NativeSwitchTotal += Nat.Switches;
      CcCopiedTotal += Cc.WordsCopied;
      CcSwitchTotal += Cc.Switches;
      std::printf("%-10d %12.1f %12.1f %12.1f %12.1f %14.2f %14.2f\n",
                  Interval, Nat.Ms, Eng.Ms, Cc.Ms, One.Ms,
                  Nat.Switches ? double(Nat.WordsCopied) / Nat.Switches : 0.0,
                  Cc.Switches ? double(Cc.WordsCopied) / Cc.Switches : 0.0);
    }
  }

  std::printf("\nTotals: native %llu words copied across %llu switches; "
              "call/cc %llu across %llu.\n",
              static_cast<unsigned long long>(NativeCopiedTotal),
              static_cast<unsigned long long>(NativeSwitchTotal),
              static_cast<unsigned long long>(CcCopiedTotal),
              static_cast<unsigned long long>(CcSwitchTotal));
  if (NativeCopiedTotal != 0)
    oscFatal("native scheduler copied stack words during the fib workload; "
             "switches are expected to stay zero-copy");
  if (CcCopiedTotal == 0)
    oscFatal("call/cc thread system copied no stack words; the baseline is "
             "not exercising multi-shot resumption");
  std::printf("Check passed: native switches copy zero stack words; the "
              "call/cc system pays %.1f words per switch.\n",
              CcSwitchTotal ? double(CcCopiedTotal) / CcSwitchTotal : 0.0);
  return 0;
}
