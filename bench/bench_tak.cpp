//===----------------------------------------------------------------------===//
///
/// \file
/// Experiment E1 (§4, first paragraph): the continuation-intensive tak.
///
/// Paper: "we modified the call-intensive tak program so that each call
/// captures and invokes a continuation, either with call/cc or with
/// call/1cc.  The version using call/1cc is 13% faster than the version
/// using call/cc and allocates 23% less memory."
///
/// This binary measures tak(18,12,6) plain, with call/cc and with call/1cc,
/// plus Gabriel's ctak (continuations as escapes) with each operator, and
/// prints time, allocation, copy and invoke counts per run with the
/// paper-vs-measured summary.  The copy and invoke counts are exact and
/// gated: the binary aborts if any differs from the value below.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "Workloads.h"

#include <cstdio>
#include <iterator>
#include <string>

using namespace osc;
using namespace osc::bench;

namespace {

struct Variant {
  const char *Name;
  const char *Call;
  // Exact counts per run of Call.
  uint64_t WordsCopied, OneShotInvokes, MultiShotInvokes;
};

// tak-cc and tak-1cc capture and invoke one continuation per call of
// tak(18,12,6).  Gabriel's ctak invokes every k2 exactly once too, so
// call/1cc applies; its escapes discard frames rather than returning
// through a seal.
const Variant Variants[] = {
    {"tak-plain", "(tak-plain 18 12 6)", 0, 0, 0},
    {"call/cc", "(tak-cc 18 12 6)", 526120, 0, 63608},
    {"call/1cc", "(tak-1cc 18 12 6)", 0, 63608, 0},
    {"ctak call/cc", "(ctak 18 12 6)", 382455, 0, 47706},
    {"ctak call/1cc", "(ctak-1cc 18 12 6)", 0, 47706, 0},
};

struct Result {
  double MsPerRun, BytesPerRun;
  uint64_t WordsCopied, OneShotInvokes, MultiShotInvokes; ///< Per run.
};

Result measure(const Variant &V, int Reps) {
  Interp I;
  mustEval(I, workloads::takVariants());
  mustEval(I, V.Call); // Warm up.
  Run R = timed(I, V.Call, Reps);
  std::string What = std::string("bench_tak: ") + V.Name;
  expectCount(What + " words copied", R.D.WordsCopied, V.WordsCopied * Reps);
  expectCount(What + " one-shot invokes", R.D.OneShotInvokes,
              V.OneShotInvokes * Reps);
  expectCount(What + " multi-shot invokes", R.D.MultiShotInvokes,
              V.MultiShotInvokes * Reps);
  return {R.Ms / Reps, double(R.D.BytesAllocated) / Reps,
          R.D.WordsCopied / Reps, R.D.OneShotInvokes / Reps,
          R.D.MultiShotInvokes / Reps};
}

} // namespace

int main() {
  // The counts are per run and do not depend on the rep count.
  const int Reps = fastMode() ? 2 : 25;
  std::printf("--- E1: tak(18,12,6) and ctak(18,12,6), one continuation "
              "capture+invoke per call, %d runs each ---\n",
              Reps);
  std::printf("%-14s %14s %16s %18s %14s %14s\n", "variant", "time/run (ms)",
              "alloc/run (KB)", "words copied/run", "1cc invokes",
              "cc invokes");
  Result Res[std::size(Variants)];
  for (size_t K = 0; K != std::size(Variants); ++K) {
    const Variant &V = Variants[K];
    Res[K] = measure(V, Reps);
    std::printf("%-14s %14.2f %16.1f %18llu %14llu %14llu\n", V.Name,
                Res[K].MsPerRun, Res[K].BytesPerRun / 1024.0,
                static_cast<unsigned long long>(Res[K].WordsCopied),
                static_cast<unsigned long long>(Res[K].OneShotInvokes),
                static_cast<unsigned long long>(Res[K].MultiShotInvokes));
  }

  const Result &CC = Res[1], &OneCC = Res[2];
  std::printf("call/1cc speedup over call/cc: %.1f%%   (paper: 13%%)\n",
              (CC.MsPerRun / OneCC.MsPerRun - 1.0) * 100.0);
  std::printf("call/1cc allocation reduction: %.1f%%   (paper: 23%%)\n",
              (1.0 - OneCC.BytesPerRun / CC.BytesPerRun) * 100.0);
  return 0;
}
