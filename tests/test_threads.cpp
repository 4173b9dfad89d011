// Integration tests for the three user-level thread systems the paper's
// Figure 5 compares: call/cc, call/1cc and CPS.  All three must compute the
// same results for every thread count and context-switch interval; the
// counters must show the representation differences (copying vs zero-copy
// vs no captures at all).

#include "Workloads.h"
#include "osc.h"

#include <gtest/gtest.h>

#include <string>

using namespace osc;
using namespace osc::workloads;

namespace {

int64_t fibRef(int N) { return N < 2 ? N : fibRef(N - 1) + fibRef(N - 2); }

std::string runThreads(Interp &I, const char *Variant, int N, int FibN,
                       int Interval) {
  std::string Setup = std::string(Variant) + threadSchedulerCommon();
  if (!I.eval(Setup).Ok)
    return "setup failed";
  return I.evalToString("(run-threads " + std::to_string(N) + " " +
                        std::to_string(FibN) + " " +
                        std::to_string(Interval) + ")");
}

std::string runCPS(Interp &I, int N, int FibN, int Interval) {
  if (!I.eval(threadsCPS()).Ok)
    return "setup failed";
  return I.evalToString("(run-threads-cps " + std::to_string(N) + " " +
                        std::to_string(FibN) + " " +
                        std::to_string(Interval) + ")");
}

} // namespace

TEST(Threads, AllVariantsAgreeAcrossIntervals) {
  for (int Interval : {1, 2, 7, 32, 512}) {
    std::string Expect = std::to_string(8 * fibRef(12));
    Interp I1, I2, I3;
    EXPECT_EQ(runThreads(I1, threadsCallCC(), 8, 12, Interval), Expect)
        << "call/cc interval " << Interval;
    EXPECT_EQ(runThreads(I2, threadsCall1CC(), 8, 12, Interval), Expect)
        << "call/1cc interval " << Interval;
    EXPECT_EQ(runCPS(I3, 8, 12, Interval), Expect)
        << "cps interval " << Interval;
  }
}

TEST(Threads, AllVariantsAgreeAcrossThreadCounts) {
  for (int N : {1, 3, 25}) {
    std::string Expect = std::to_string(N * fibRef(10));
    Interp I1, I2, I3;
    EXPECT_EQ(runThreads(I1, threadsCallCC(), N, 10, 4), Expect);
    EXPECT_EQ(runThreads(I2, threadsCall1CC(), N, 10, 4), Expect);
    EXPECT_EQ(runCPS(I3, N, 10, 4), Expect);
  }
}

TEST(Threads, OneShotVariantDoesZeroCopyTransfers) {
  Interp I;
  ASSERT_EQ(runThreads(I, threadsCall1CC(), 10, 12, 4),
            std::to_string(10 * fibRef(12)));
  EXPECT_GT(I.stats().OneShotInvokes, 100u);
  // Each switch is a segment swap, not a copy: copied words should be tiny
  // relative to the multi-shot variant below.
  Interp IM;
  ASSERT_EQ(runThreads(IM, threadsCallCC(), 10, 12, 4),
            std::to_string(10 * fibRef(12)));
  EXPECT_GT(IM.stats().MultiShotInvokes, 100u);
  EXPECT_GT(IM.stats().WordsCopied, 10 * I.stats().WordsCopied);
}

TEST(Threads, CPSVariantCapturesNothing) {
  Interp I;
  ASSERT_EQ(runCPS(I, 10, 12, 4), std::to_string(10 * fibRef(12)));
  EXPECT_EQ(I.stats().MultiShotCaptures, 0u);
  EXPECT_EQ(I.stats().OneShotCaptures, 0u);
}

TEST(Threads, OneShotVariantLeansOnSegmentCache) {
  Interp I;
  ASSERT_EQ(runThreads(I, threadsCall1CC(), 10, 12, 2),
            std::to_string(10 * fibRef(12)));
  EXPECT_GT(I.stats().SegmentCacheHits, I.stats().SegmentsAllocated * 10);
}

TEST(Threads, ManyThreadsSmallSegments) {
  // 200 threads with small segments: forces the segment machinery through
  // constant churn while threads also overflow.
  Config C;
  C.SegmentWords = 512;
  C.InitialSegmentWords = 512;
  Interp I(C);
  ASSERT_EQ(runThreads(I, threadsCall1CC(), 200, 10, 8),
            std::to_string(200 * fibRef(10)));
}

TEST(Threads, EngineThreadsAgreeWithCooperative) {
  for (int Interval : {3, 40, 500}) {
    Interp I;
    ASSERT_TRUE(I.eval(threadsEngines()).Ok);
    EXPECT_EQ(I.evalToString("(run-threads-engines 6 11 " +
                             std::to_string(Interval) + ")"),
              std::to_string(6 * fibRef(11)))
        << "interval " << Interval;
    if (Interval == 3) {
      EXPECT_GT(I.stats().OneShotCaptures, 50u); // Real preemptions.
    }
  }
}

TEST(Threads, EngineThreadsUnderTinySegments) {
  Config C;
  C.SegmentWords = 256;
  C.InitialSegmentWords = 256;
  Interp I(C);
  ASSERT_TRUE(I.eval(threadsEngines()).Ok);
  EXPECT_EQ(I.evalToString("(run-threads-engines 20 10 7)"),
            std::to_string(20 * fibRef(10)));
}

TEST(Threads, TakVariantsAgree) {
  Interp I;
  ASSERT_TRUE(I.eval(takVariants()).Ok);
  EXPECT_EQ(I.evalToString("(tak-plain 14 10 4)"), "5");
  EXPECT_EQ(I.evalToString("(tak-cc 14 10 4)"), "5");
  EXPECT_EQ(I.evalToString("(tak-1cc 14 10 4)"), "5");
  EXPECT_EQ(I.evalToString("(list (tak-plain 18 12 6) (tak-cc 18 12 6)"
                           "      (tak-1cc 18 12 6))"),
            "(7 7 7)");
}

TEST(Threads, TakOneShotAllocatesLessThanMultiShot) {
  // §4: the call/1cc tak "allocates 23% less memory" than the call/cc one.
  Interp I1, I2;
  ASSERT_TRUE(I1.eval(takVariants()).Ok);
  ASSERT_TRUE(I2.eval(takVariants()).Ok);
  uint64_t Before1 = I1.stats().BytesAllocated;
  uint64_t Before2 = I2.stats().BytesAllocated;
  ASSERT_EQ(I1.evalToString("(tak-1cc 16 11 5)"), "11");
  ASSERT_EQ(I2.evalToString("(tak-cc 16 11 5)"), "11");
  uint64_t OneShotBytes = I1.stats().BytesAllocated - Before1;
  uint64_t MultiBytes = I2.stats().BytesAllocated - Before2;
  EXPECT_LT(OneShotBytes, MultiBytes);
}

TEST(Threads, DeepRepeatMatchesAcrossPolicies) {
  for (OverflowPolicy P :
       {OverflowPolicy::OneShot, OverflowPolicy::MultiShot}) {
    Config C;
    C.SegmentWords = 1024;
    C.InitialSegmentWords = 1024;
    C.Overflow = P;
    Interp I(C);
    ASSERT_TRUE(I.eval(deepRecursion()).Ok);
    EXPECT_EQ(I.evalToString("(deep-repeat 10 5000)"), "50000");
  }
}

TEST(Threads, BoyerProvesItsTheoremWithoutClosures) {
  Interp I;
  ASSERT_TRUE(I.eval(boyer()).Ok);
  ASSERT_TRUE(I.eval("(boyer-setup!)").Ok);
  uint64_t ClosuresBefore = I.stats().ClosuresAllocated;
  uint64_t CallsBefore = I.stats().ProcedureCalls;
  EXPECT_EQ(I.evalToString("(boyer-run)"), "#t");
  // §5: the stack-based implementation allocates no closures for Boyer.
  EXPECT_EQ(I.stats().ClosuresAllocated - ClosuresBefore, 0u);
  EXPECT_GT(I.stats().ProcedureCalls - CallsBefore, 100000u);
}

TEST(Threads, CtakVariantsAgree) {
  Interp I;
  ASSERT_TRUE(I.eval(takVariants()).Ok);
  EXPECT_EQ(I.evalToString("(ctak 14 10 4)"), "5");
  EXPECT_EQ(I.evalToString("(ctak-1cc 14 10 4)"), "5");
  EXPECT_EQ(I.evalToString("(list (ctak 18 12 6) (ctak-1cc 18 12 6))"),
            "(7 7)");
}
