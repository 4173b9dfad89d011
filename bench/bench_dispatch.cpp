//===----------------------------------------------------------------------===//
///
/// \file
/// The dispatch benchmark: logical instructions retired per second for
/// classic call-heavy workloads (fib, tak, ack) plus a global-read/write
/// loop, each measured at four corners of the dispatch lattice:
///
///   * switch-bare    — portable switch loop, no fusion, no inline caches;
///   * switch-ic      — switch loop plus inline caches;
///   * threaded-bare  — computed-goto loop alone;
///   * threaded-full  — computed goto + superinstructions + inline caches
///                      (the shipping default).
///
/// Logical instruction counts are dispatch-invariant by construction — a
/// fused pair retires two, caches retire nothing — so every column of a
/// workload must retire exactly the count in the workload table below;
/// the binary aborts otherwise, and also if a column with inline caches
/// never hits them or one without them does.  The mips field is wall
/// clock and never gated in fast mode; outside fast mode the binary
/// self-gates the headline claim: threaded-full must retire instructions
/// no slower than switch-bare on every workload, and at least 1.25x
/// faster on fib and tak.
///
/// OSC_BENCH_FAST=1 shrinks the run for a smoke test.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "compiler/Bytecode.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

using namespace osc;
using namespace osc::bench;

namespace {

struct Mode {
  const char *Name;
  bool Threaded;
  uint32_t Fuse;
  bool Caches;
};

const Mode ModeTab[] = {
    {"switch-bare", false, 0, false},
    {"switch-ic", false, 0, true},
    {"threaded-bare", true, 0, false},
    {"threaded-full", true, FuseAll, true},
};

struct Workload {
  const char *Name;
  const char *Setup;  ///< Definitions, evaluated before the warmup.
  const char *Warmup; ///< Small run: segments grown, caches primed.
  const char *Timed;  ///< The measured expression (fast-mode variant below).
  const char *TimedFast;
  const char *Expect; ///< write-form result of Timed / TimedFast.
  const char *ExpectFast;
  /// Logical instructions Timed / TimedFast retires, in every mode.
  uint64_t Instructions, InstructionsFast;
};

const Workload Workloads[] = {
    {"fib",
     "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))",
     "(fib 12)", "(fib 27)", "(fib 18)", "196418", "2584", 9852121, 129591},
    {"tak",
     "(define (tak x y z)"
     "  (if (< y x)"
     "      (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))"
     "      z))"
     "(define (rep n acc)"
     "  (if (zero? n) acc (rep (- n 1) (+ acc (tak 18 12 6)))))",
     "(tak 12 8 4)", "(rep 25 0)", "(rep 1 0)", "175", "7", 26636611, 1065475},
    {"ack",
     "(define (ack m n)"
     "  (cond ((zero? m) (+ n 1))"
     "        ((zero? n) (ack (- m 1) 1))"
     "        (else (ack (- m 1) (ack m (- n 1))))))",
     "(ack 2 3)", "(ack 3 6)", "(ack 2 5)", "509", "13", 2755224, 1431},
    {"global-loop",
     "(define g 0)"
     "(define (gloop n acc)"
     "  (if (zero? n) acc"
     "      (begin (set! g (+ g 1)) (gloop (- n 1) (+ acc g)))))",
     "(begin (set! g 0) (gloop 100 0))",
     "(begin (set! g 0) (gloop 300000 0))",
     "(begin (set! g 0) (gloop 5000 0))", "45000150000", "12502500", 6300014,
     105014},
};

struct Column {
  std::string Name; ///< "<workload>/<mode>".
  uint64_t Instructions = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  double Ms = 0;

  double mips() const { return Ms > 0 ? Instructions / Ms / 1e3 : 0; }
};

Column runColumn(const Workload &W, const Mode &M) {
  Config C;
  C.ThreadedDispatch = M.Threaded;
  C.Superinstructions = M.Fuse;
  C.InlineCaches = M.Caches;
  Interp I(C);
  mustEval(I, W.Setup);
  mustEval(I, W.Warmup);

  // Best of three: every Timed expression is re-runnable (pure, or it
  // resets its own state), so repeats retire identical instruction
  // counts and the minimum wall clock discards scheduler noise and any
  // first-run cold-start (page faults, branch-predictor warmup).
  const char *Timed = fastMode() ? W.TimedFast : W.Timed;
  const char *Expect = fastMode() ? W.ExpectFast : W.Expect;
  const int Reps = fastMode() ? 1 : 3;
  Column Col;
  Col.Name = std::string(W.Name) + "/" + M.Name;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    Run R = timed(I, Timed);
    if (I.valueToString(R.Val) != Expect)
      oscFatal(("bench_dispatch: " + Col.Name + " computed " +
                I.valueToString(R.Val) + ", expected " + Expect +
                "; the workload drifted")
                   .c_str());
    if (Rep == 0) {
      Col.Instructions = R.D.Instructions;
      Col.CacheHits = R.D.CacheHits;
      Col.CacheMisses = R.D.CacheMisses;
      Col.Ms = R.Ms;
    } else {
      if (R.D.Instructions != Col.Instructions)
        oscFatal(("bench_dispatch: " + Col.Name +
                  " retired a different instruction count on a repeat run; "
                  "the workload is not re-runnable")
                     .c_str());
      Col.Ms = std::min(Col.Ms, R.Ms);
    }
  }
  return Col;
}

} // namespace

int main() {
  std::printf("Dispatch: instructions/sec across the dispatch lattice "
              "(%s mode).\n\n",
              fastMode() ? "fast/smoke" : "full");

  std::vector<Column> Cols;
  for (const Workload &W : Workloads)
    for (const Mode &M : ModeTab)
      Cols.push_back(runColumn(W, M));

  std::printf("%24s %14s %10s %10s %12s %12s\n", "column", "instructions",
              "ms", "mips", "cache-hits", "cache-miss");
  for (const Column &C : Cols)
    std::printf("%24s %14llu %10.2f %10.1f %12llu %12llu\n", C.Name.c_str(),
                static_cast<unsigned long long>(C.Instructions), C.Ms,
                C.mips(), static_cast<unsigned long long>(C.CacheHits),
                static_cast<unsigned long long>(C.CacheMisses));

  // Logical instruction counts are the dispatch contract: every column
  // of a workload must retire exactly the workload's count, or the modes
  // have diverged (or the workload drifted) and every other number is
  // meaningless.  Whether a column ran with inline caches shows in its
  // hit count.
  for (const Workload &W : Workloads)
    for (const Mode &M : ModeTab) {
      const Column &C = column(Cols, std::string(W.Name) + "/" + M.Name);
      expectCount("bench_dispatch: " + C.Name + " instructions",
                  C.Instructions,
                  fastMode() ? W.InstructionsFast : W.Instructions);
      if ((C.CacheHits != 0) != M.Caches)
        oscFatal(("bench_dispatch: " + C.Name + " hit its inline caches " +
                  std::to_string(C.CacheHits) + " times; the column ran " +
                  "in the wrong mode")
                     .c_str());
    }

  auto Mips = [&](const char *W, const char *M) {
    return column(Cols, std::string(W) + "/" + M).mips();
  };
  double SpeedupFib = Mips("fib", "threaded-full") / Mips("fib", "switch-bare");
  double SpeedupTak = Mips("tak", "threaded-full") / Mips("tak", "switch-bare");

  if (!fastMode()) {
    // Wall-clock self-gates only outside fast mode: smoke workloads are
    // too small to time.
    for (const Workload &W : Workloads)
      if (Mips(W.Name, "threaded-full") < Mips(W.Name, "switch-bare"))
        oscFatal(("bench_dispatch: threaded-full is slower than switch-bare "
                  "on " +
                  std::string(W.Name))
                     .c_str());
    if (SpeedupFib < 1.25 || SpeedupTak < 1.25)
      oscFatal("bench_dispatch: threaded+superinstructions+caches is below "
               "the 1.25x instructions/sec floor over the bare switch loop");
  }

  std::printf("\nthreaded-full over switch-bare: %.2fx on fib, %.2fx on tak "
              "(floor 1.25x%s).\n",
              SpeedupFib, SpeedupTak,
              fastMode() ? ", not gated in fast mode" : "");
  return 0;
}
