//===----------------------------------------------------------------------===//
///
/// \file
/// Experiment E2 (Figure 5) and E4 (the §5 crossover claim).
///
/// Paper, Figure 5: "the relative performance of CPS, call/cc, and call/1cc
/// versions of a thread system.  Each run involved 10, 100, or 1000 active
/// threads each computing the 20th Fibonacci number with the simple doubly
/// recursive algorithm.  Context switch frequency is shown varying from
/// once every procedure call through once every 512 procedure calls.
/// Times are shown in milliseconds."
///
/// Reported shapes: call/1cc threads are consistently faster than call/cc
/// threads (advantage shrinking at low switch frequencies); CPS is fastest
/// only for extremely rapid context switches (more often than once every
/// 4–8 procedure calls) and loses its advantage as the interval grows.
///
/// The harness prints one table per thread count — rows are switch
/// intervals, columns the three systems — followed by the measured
/// crossover points (§5: a simple heap-based implementation is superior
/// only if context switches occur more frequently than once every eight
/// procedure calls; about once every four for call/1cc).
///
/// OSC_BENCH_FAST=1 trims thread counts / fib size for quick smoke runs.
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

struct Sample {
  double Ms = 0;
  uint64_t WordsCopied = 0;
  uint64_t Switches = 0;
};

Sample runVariant(const char *Setup, const char *Runner, int Threads,
                  int FibN, int Interval) {
  Interp I;
  mustEval(I, std::string(Setup));
  std::string Call = "(" + std::string(Runner) + " " +
                     std::to_string(Threads) + " " + std::to_string(FibN) +
                     " " + std::to_string(Interval) + ")";
  Run R = timed(I, Call);
  return {R.Ms, R.D.WordsCopied, R.D.OneShotInvokes + R.D.MultiShotInvokes};
}

} // namespace

int main() {
  const bool Fast = fastMode();
  const int FibN = Fast ? 14 : 20;
  std::vector<int> ThreadCounts = Fast ? std::vector<int>{10, 100}
                                       : std::vector<int>{10, 100, 1000};
  std::vector<int> Intervals = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512};

  std::printf("E2 / Figure 5: thread system, %s threads x fib(%d), "
              "context switch every N procedure calls.\n",
              Fast ? "{10,100}" : "{10,100,1000}", FibN);
  std::printf("Times in milliseconds (lower is better).\n");

  struct Row {
    int Interval;
    double Cps, Cc, OneCc;
  };

  std::string CcSetup = std::string(threadsCallCC()) + threadSchedulerCommon();
  std::string OneSetup =
      std::string(threadsCall1CC()) + threadSchedulerCommon();

  for (int N : ThreadCounts) {
    std::printf("\n-- %d threads --\n", N);
    std::printf("%-10s %12s %12s %12s %12s %10s %14s\n", "interval",
                "CPS (ms)", "call/cc", "call/1cc", "engines", "1cc/cc",
                "cc words-cp");
    std::vector<Row> Rows;
    for (int Interval : Intervals) {
      Sample Cps = runVariant(threadsCPS(), "run-threads-cps", N, FibN,
                              Interval);
      Sample Cc = runVariant(CcSetup.c_str(), "run-threads", N, FibN,
                             Interval);
      Sample One = runVariant(OneSetup.c_str(), "run-threads", N, FibN,
                              Interval);
      // Extension column: preemptive engine threads (one-shot transfers,
      // switch frequency enforced by the VM timer).
      Sample Eng = runVariant(threadsEngines(), "run-threads-engines", N,
                              FibN, Interval);
      std::printf("%-10d %12.1f %12.1f %12.1f %12.1f %10.2f %14llu\n",
                  Interval, Cps.Ms, Cc.Ms, One.Ms, Eng.Ms, One.Ms / Cc.Ms,
                  static_cast<unsigned long long>(Cc.WordsCopied));
      Rows.push_back({Interval, Cps.Ms, Cc.Ms, One.Ms});
    }

    // E4: largest switch frequency (smallest interval) at which the stack
    // representations beat the heap/CPS representation.
    int CrossCc = -1, CrossOne = -1;
    for (const Row &R : Rows) {
      if (CrossCc < 0 && R.Cc <= R.Cps)
        CrossCc = R.Interval;
      if (CrossOne < 0 && R.OneCc <= R.Cps)
        CrossOne = R.Interval;
    }
    std::printf("crossover (first interval where stack beats CPS): "
                "call/cc at %d (paper: ~8), call/1cc at %d (paper: ~4)\n",
                CrossCc, CrossOne);
  }

  std::printf("\nShape checks (paper):\n"
              "  * call/1cc <= call/cc at every point, advantage largest at "
              "interval 1..8, a few percent beyond 128;\n"
              "  * CPS wins only at the very smallest intervals.\n");
  return 0;
}
