//===----------------------------------------------------------------------===//
///
/// \file
/// Experiment E3 (§4, third paragraph): stack-overflow handling on deep
/// recursion.
///
/// Paper: "we compared the performance of a program that repeatedly recurs
/// deeply (one million calls) while doing very little work between calls.
/// In this extreme case overflow handling using one-shot continuations is
/// 300% faster and allocates much less.  In fact, after the first
/// recursion, the one-shot version always finds fresh stack segments in
/// the stack cache and so allocates very little additional memory."
///
/// The harness runs (deep 1000000) repeatedly under both overflow policies
/// with the paper's default 16KB (2048-word) segments and prints time,
/// copy traffic, and allocation per run.  It aborts unless every segment
/// the one-shot policy needs after the first descent comes from the cache.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "Workloads.h"

#include <cstdio>
#include <string>

using namespace osc;
using namespace osc::bench;

namespace {

struct PolicyResult {
  double MsPerRun = 0;
  double MBAllocPerRun = 0;
  double MWordsCopiedPerRun = 0;
  double CacheHitRate = 0;
  uint64_t Overflows = 0;
};

PolicyResult runPolicy(OverflowPolicy P, int Reps, int Depth) {
  Config C;
  C.SegmentWords = 2048; // The paper's 16KB default.
  C.InitialSegmentWords = 2048;
  C.Overflow = P;
  Interp I(C);
  mustEval(I, workloads::deepRecursion());
  // First descent warms the cache ("after the first recursion...").
  mustEval(I, "(deep " + std::to_string(Depth) + ")");

  Run Timed = timed(I, "(deep-repeat " + std::to_string(Reps) + " " +
                            std::to_string(Depth) + ")");
  const Stats::Snapshot &D = Timed.D;

  PolicyResult R;
  R.MsPerRun = Timed.Ms / Reps;
  R.MBAllocPerRun = static_cast<double>(D.BytesAllocated) / Reps / (1 << 20);
  R.MWordsCopiedPerRun = static_cast<double>(D.WordsCopied) / Reps / 1e6;
  R.CacheHitRate = D.SegmentsAllocated + D.SegmentCacheHits
                       ? static_cast<double>(D.SegmentCacheHits) /
                             (D.SegmentsAllocated + D.SegmentCacheHits)
                       : 0.0;
  R.Overflows = D.Overflows / Reps;
  return R;
}

} // namespace

int main() {
  const bool Fast = fastMode();
  const int Depth = Fast ? 100000 : 1000000;
  const int Reps = Fast ? 3 : 5;

  std::printf("E3: repeated deep recursion, depth %d x %d runs, 2048-word "
              "segments.\n\n",
              Depth, Reps);
  std::printf("%-22s %12s %14s %16s %12s %12s\n", "overflow policy",
              "ms/run", "alloc MB/run", "Mwords-copied", "cache-hit%",
              "overflows");

  PolicyResult Multi = runPolicy(OverflowPolicy::MultiShot, Reps, Depth);
  PolicyResult One = runPolicy(OverflowPolicy::OneShot, Reps, Depth);

  std::printf("%-22s %12.1f %14.2f %16.2f %12.1f %12llu\n",
              "implicit call/cc", Multi.MsPerRun, Multi.MBAllocPerRun,
              Multi.MWordsCopiedPerRun, Multi.CacheHitRate * 100,
              static_cast<unsigned long long>(Multi.Overflows));
  std::printf("%-22s %12.1f %14.2f %16.2f %12.1f %12llu\n",
              "implicit call/1cc", One.MsPerRun, One.MBAllocPerRun,
              One.MWordsCopiedPerRun, One.CacheHitRate * 100,
              static_cast<unsigned long long>(One.Overflows));

  std::printf("\none-shot speedup: %.0f%% faster   (paper: 300%% faster)\n",
              (Multi.MsPerRun / One.MsPerRun - 1.0) * 100.0);
  std::printf("one-shot allocation: %.2f MB/run vs %.2f MB/run   (paper: "
              "\"allocates much less\")\n",
              One.MBAllocPerRun, Multi.MBAllocPerRun);
  // "After the first recursion, the one-shot version always finds fresh
  // stack segments in the stack cache."
  if (One.CacheHitRate != 1.0)
    oscFatal("E3: the one-shot policy allocated fresh segments after the "
             "first descent; its segment-cache hit rate is below 100%");
  return 0;
}
