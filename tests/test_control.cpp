// The delimited-control subsystem (src/control): tagged reset/shift built
// on the one-shot substrate, plus the generator and async/await prelude
// layers.  Three kinds of coverage:
//
//   1. Semantics: value flow through reset/shift, tag selection, winder
//      travel across the delimiter, one-shot reuse detection, and the
//      prompt table's pruning behaviour under undelimited escapes.
//   2. Representation: the capture-to-mark path relinks headers and never
//      copies stack words in the one-shot steady state (SliceClonedWords
//      and WordsCopied stay flat across generator yields), while the
//      Config::DelimOneShot=false copying shim clones every member.
//   3. Differential: every program here runs under DelimOneShot on and
//      off at every point of the shared config lattice with byte-identical
//      observable behaviour — the shim is the semantic oracle for the
//      zero-copy path, mirroring what test_differential.cpp does for
//      call/1cc vs call/cc.
//
// Registered under the ctest label "control".

#include "ConfigLattice.h"
#include "osc.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

using namespace osc;
using osc_test::ConfigPoint;
using osc_test::configLattice;

namespace {

class ControlTest : public ::testing::Test {
protected:
  std::string run(const std::string &Src) { return I.evalToString(Src); }
  Interp I;
};

// --- reset/shift semantics ------------------------------------------------------

TEST_F(ControlTest, ResetWithoutShiftIsTransparent) {
  EXPECT_EQ(run("(reset 'p 42)"), "42");
  EXPECT_EQ(run("(+ 1 (reset 'p (* 2 3)))"), "7");
  EXPECT_EQ(run("(reset 'p (reset 'q (+ 20 22)))"), "42");
}

TEST_F(ControlTest, ShiftAbortsToTheDelimiter) {
  // The receiver's value becomes the reset's value; the delimited context
  // (+ 2 _) is discarded when k is never invoked.
  EXPECT_EQ(run("(+ 1 (reset 'p (+ 2 (shift 'p k 100))))"), "101");
}

TEST_F(ControlTest, InvokingKRunsTheSlice) {
  EXPECT_EQ(run("(reset 'p (+ 1 (shift 'p k (k 10))))"), "11");
  // The receiver continues around the invocation: k returns the slice's
  // completion value into the receiver's own frame.
  EXPECT_EQ(run("(reset 'p (+ 1 (shift 'p k (+ 100 (k 10)))))"), "111");
}

TEST_F(ControlTest, ShiftInTailPositionCapturesEmptySlice) {
  EXPECT_EQ(run("(reset 'p (shift 'p k (k 42)))"), "42");
  EXPECT_EQ(run("(+ 1 (reset 'p (shift 'p k 41)))"), "42");
}

TEST_F(ControlTest, TagsSelectTheDelimiter) {
  // shift 'outer jumps past the inner 'inner delimiter entirely.
  EXPECT_EQ(
      run("(reset 'outer (+ 1 (reset 'inner (+ 10 (shift 'outer k (k 100))))))"),
      "111");
  EXPECT_EQ(
      run("(reset 'outer (+ 1 (reset 'inner (+ 10 (shift 'outer k 100)))))"),
      "100");
  // Same-tag nesting picks the innermost delimiter.
  EXPECT_EQ(run("(reset 'p (+ 1 (reset 'p (+ 10 (shift 'p k (k 100))))))"),
            "111");
}

TEST_F(ControlTest, ShiftWithoutResetIsAnError) {
  auto R = I.eval("(shift 'nope k 1)");
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("no reset for tag"), std::string::npos) << R.Error;
}

TEST_F(ControlTest, DelimitedContinuationIsOneShot) {
  auto R = I.eval("(reset 'p (+ 1 (shift 'p k (k (k 10)))))");
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("invoked a second time"), std::string::npos)
      << R.Error;
}

TEST_F(ControlTest, KSurvivesBeingInvokedAfterTheReceiverReturned) {
  // The classic suspended-computation shape: the receiver smuggles k out,
  // the reset returns, and k is invoked later from a different extent.
  // The delimiter travels with k, so the slice's eventual value surfaces
  // at the invoke site.
  EXPECT_EQ(run("(define k* #f)"
                "(define r1 (reset 'p (+ 1 (shift 'p k (set! k* k) 'parked))))"
                "(list r1 (+ 100 (k* 10)))"),
            "(parked 111)");
}

TEST_F(ControlTest, ResumedSliceCanShiftAgain) {
  // After a splice the delimiter is re-established around the slice, so a
  // second shift inside the resumed computation finds it (what generators
  // depend on).
  EXPECT_EQ(run("(define k* #f)"
                "(reset 'p (+ 1 (shift 'p a (set! k* a) 'x)"
                "             (shift 'p b (set! k* b) 0)))"
                "(k* 10)"),
            "0");
}

TEST_F(ControlTest, EscapePastThePromptPrunesItsRecord) {
  // A call/1cc escape jumps out of the reset without returning through the
  // prompt stub; the stranded record must not catch a later same-tag shift.
  auto R = I.eval("(call/1cc (lambda (out)"
                  "  (reset 'p (out 'escaped))))"
                  "(shift 'p k 1)");
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("no reset for tag"), std::string::npos) << R.Error;
}

TEST_F(ControlTest, MultipleValuesFlowThroughReset) {
  EXPECT_EQ(run("(call-with-values (lambda () (reset 'p (values 1 2 3)))"
                "                  list)"),
            "(1 2 3)");
}

// --- dynamic-wind across the delimiter ------------------------------------------

TEST_F(ControlTest, ShiftRunsAfterThunksAndReentryRunsBeforeThunks) {
  EXPECT_EQ(run("(define log '())"
                "(define (note x) (set! log (cons x log)))"
                "(define r"
                "  (reset 'p"
                "    (dynamic-wind"
                "      (lambda () (note 'in))"
                "      (lambda () (+ 1 (shift 'p k (note 'recv) (k 10))))"
                "      (lambda () (note 'out)))))"
                "(list r (reverse log))"),
            "(11 (in out recv in out))");
}

TEST_F(ControlTest, AbortWithoutResumeOnlyUnwinds) {
  EXPECT_EQ(run("(define log '())"
                "(define (note x) (set! log (cons x log)))"
                "(define r"
                "  (reset 'p"
                "    (dynamic-wind"
                "      (lambda () (note 'in))"
                "      (lambda () (shift 'p k 'aborted))"
                "      (lambda () (note 'out)))))"
                "(list r (reverse log))"),
            "(aborted (in out))");
}

TEST_F(ControlTest, ReentryRebasesOntoTheInvokeSitesWinders) {
  // k is invoked inside a *different* dynamic-wind: the slice's winders
  // re-enter on top of the invoke site's, and unwinding on completion
  // leaves the invoke site's extent intact.
  EXPECT_EQ(run("(define log '())"
                "(define (note x) (set! log (cons x log)))"
                "(define k* #f)"
                "(reset 'p"
                "  (dynamic-wind"
                "    (lambda () (note 'slice-in))"
                "    (lambda () (shift 'p k (set! k* k) 'parked))"
                "    (lambda () (note 'slice-out))))"
                "(dynamic-wind"
                "  (lambda () (note 'host-in))"
                "  (lambda () (k* 7))"
                "  (lambda () (note 'host-out)))"
                "(reverse log)"),
            "(slice-in slice-out host-in slice-in slice-out host-out)");
}

TEST(ControlGCTest, PromptRecordsSurviveACollectionMidExtent) {
  // The prompt table is a GC root: a collection fired while a handler
  // extent is live must keep the record's tag, mark, winders and handler
  // values alive (PromptTable::traceRoots), or the later perform would
  // dispatch through freed objects.  A small threshold forces several
  // collections inside the extent before the perform runs.
  // The heap re-arms its threshold to 2x live bytes after every
  // collection, so the loop has to outgrow what the prelude load left
  // armed — hence the generous iteration count; the GcCount delta below
  // keeps the test honest.
  Config C;
  C.GcThresholdBytes = 32 * 1024;
  Interp I(C);
  Stats::Snapshot S0 = I.snapshot();
  EXPECT_EQ(I.evalToString("(with-handler 'gc ((op k a) (k (+ a 1)))"
                           "  (let loop ((i 0) (acc 0))"
                           "    (if (= i 50000)"
                           "        (perform 'gc 'op acc)"
                           "        (loop (+ i 1) (+ acc (length (list i i i)))))))"),
            "150001");
  EXPECT_GT((I.snapshot() - S0).GcCount, 0u)
      << "the workload never collected inside the extent";
}

TEST_F(ControlTest, DormantFirstClassKSurvivesADelimitedCut) {
  // Found by the control fuzzer (ControlFuzz.h seed 96534540, shrunk):
  // call/1cc captures j inside the reset extent, then a shift cuts a
  // slice whose frames j still points into.  Relinking those frames under
  // the receiver would silently retarget j — invoking it must instead
  // escape through the capture-time chain, so the reset returns 1 to
  // toplevel and the receiver's pending (+ 1 _) is abandoned.  The cut
  // detects the first-class alias (Continuation::ByValue) and clones the
  // shared suffix of the slice, exactly like the multi-shot shim.
  EXPECT_EQ(run("(reset 't0"
                "  (call/1cc (lambda (j)"
                "    (+ (shift 't0 s (+ 1 (s 1)))"
                "       (j 1)))))"),
            "1");
}

TEST_F(ControlTest, NestedDormantKsForceSuffixCloning) {
  // Sharing is suffix-closed: both nested call/1cc members sit in the cut
  // slice, and the dormant outer j1 must still reach the reset's return
  // point after the inner frames were spliced and run.
  EXPECT_EQ(run("(reset 't0"
                "  (call/1cc (lambda (j1)"
                "    (call/1cc (lambda (j2)"
                "      (+ (shift 't0 s (+ 1 (s 1)))"
                "         (j1 5)))))))"),
            "5");
}

// --- generators -----------------------------------------------------------------

TEST_F(ControlTest, GeneratorYieldsThenEof) {
  EXPECT_EQ(run("(define g (make-generator"
                "  (lambda (v) (yield 1) (yield 2) (yield 3) 'end)))"
                "(list (generator-next g) (generator-next g)"
                "      (generator-next g) (generator-next g)"
                "      (generator-next g))"),
            "(1 2 3 #<eof> #<eof>)");
}

TEST_F(ControlTest, GeneratorRoundTripsValuesBothWays) {
  // (yield v) evaluates to the value handed to the resuming
  // generator-next — a full two-way conversation.
  EXPECT_EQ(run("(define g (make-generator"
                "  (lambda (v)"
                "    (let* ((a (yield (* v 2)))"
                "           (b (yield (+ a 1))))"
                "      (yield (list a b))))))"
                "(list (generator-next g 5) (generator-next g 7)"
                "      (generator-next g 9) (generator-next g))"),
            "(10 8 (7 9) #<eof>)");
}

TEST_F(ControlTest, GeneratorsAreIndependent) {
  EXPECT_EQ(run("(define (counter) (make-generator"
                "  (lambda (v) (let loop ((i 0)) (yield i) (loop (+ i 1))))))"
                "(define a (counter)) (define b (counter))"
                "(list (generator-next a) (generator-next a)"
                "      (generator-next b) (generator-next a)"
                "      (generator-next b))"),
            "(0 1 0 2 1)");
}

TEST_F(ControlTest, GeneratorsNest) {
  // The inner generator's yields bind to the innermost live delimiter, so
  // driving an inner generator from inside an outer one works.
  EXPECT_EQ(run("(define (walk l) (make-generator"
                "  (lambda (v) (for-each (lambda (x) (yield x)) l) 'done)))"
                "(define g (make-generator"
                "  (lambda (v)"
                "    (let ((inner (walk '(1 2))))"
                "      (let loop ()"
                "        (let ((x (generator-next inner)))"
                "          (unless (eof-object? x)"
                "            (yield (* 10 x))"
                "            (loop)))))"
                "    'outer-done)))"
                "(list (generator-next g) (generator-next g)"
                "      (generator-next g))"),
            "(10 20 #<eof>)");
}

TEST_F(ControlTest, YieldWithNoArgumentIsStillTheSchedulerYield) {
  EXPECT_EQ(run("(define out '())"
                "(define (worker tag)"
                "  (lambda ()"
                "    (set! out (cons tag out)) (yield)"
                "    (set! out (cons tag out))))"
                "(spawn (worker 'a)) (spawn (worker 'b))"
                "(scheduler-run)"
                "(reverse out)"),
            "(a b a b)");
}

TEST_F(ControlTest, GeneratorSurvivesSchedulerParks) {
  // The suspended slice lives in the heap, not on the thread's chain, so a
  // generator keeps working across channel parks of its owning thread —
  // the shape the server's STREAM verb relies on.
  EXPECT_EQ(run("(define ch (make-channel 0))"
                "(define out '())"
                "(define g (make-generator"
                "  (lambda (v) (yield 'a) (yield 'b) (yield 'c) 'fin)))"
                "(spawn (lambda ()"
                "  (let loop ()"
                "    (let ((x (generator-next g)))"
                "      (if (eof-object? x) (channel-close! ch)"
                "          (begin (channel-send! ch x) (loop)))))))"
                "(spawn (lambda ()"
                "  (let loop ()"
                "    (let ((x (channel-recv ch)))"
                "      (unless (eof-object? x)"
                "        (set! out (cons x out)) (loop))))))"
                "(scheduler-run)"
                "(reverse out)"),
            "(a b c)");
}

// --- async/await ----------------------------------------------------------------

TEST_F(ControlTest, AsyncBodyRunsUnderTheScheduler) {
  EXPECT_EQ(run("(define f (async (+ 40 2)))"
                "(scheduler-run)"
                "(future-get f)"),
            "42");
}

TEST_F(ControlTest, AwaitChainsFutures) {
  EXPECT_EQ(run("(define f1 (async (+ 1 2)))"
                "(define f2 (async (* (await f1) 10)))"
                "(define f3 (async (+ (await f2) 7)))"
                "(scheduler-run)"
                "(future-get f3)"),
            "37");
}

TEST_F(ControlTest, AwaitParksWithoutBlockingSiblings) {
  // While one async body is parked in await, other threads keep running;
  // the awaited value arrives from a plain worker thread.
  EXPECT_EQ(run("(define ch (make-channel 0))"
                "(define f (async (list 'got (await ch))))"
                "(spawn (lambda () (channel-send! ch (list 99))))"
                "(scheduler-run)"
                "(future-get f)"),
            "(got 99)");
}

TEST_F(ControlTest, MultipleAwaitsInOneBody) {
  EXPECT_EQ(run("(define a (async 1))"
                "(define b (async 2))"
                "(define c (async (+ (await a) (await b))))"
                "(scheduler-run)"
                "(future-get c)"),
            "3");
}

// --- effect handlers (with-handler / perform) -----------------------------------
//
// The handler veneer is a shift0 variant: doPerform pops the handler's own
// prompt record before running the clause, so clauses run *outside* their
// own delimiter — abortive operations are just clauses that never invoke
// k, and an unmatched operation forwards outward by re-performing.

TEST_F(ControlTest, HandlerResumesTheSlice) {
  EXPECT_EQ(run("(with-handler 'io ((get k) (k 42))"
                "  (+ 1 (perform 'io 'get)))"),
            "43");
  // Operation arguments flow into the clause's formals.
  EXPECT_EQ(run("(with-handler 'st ((add k a b) (k (+ a b)))"
                "  (* 2 (perform 'st 'add 3 4)))"),
            "14");
}

TEST_F(ControlTest, DeepHandlerStaysInstalledAcrossPerforms) {
  // Deep mode: the splice re-pushes the handler with the slice, so every
  // perform in the body finds it again.
  EXPECT_EQ(run("(with-handler 'c ((tick k) (k 1))"
                "  (+ (perform 'c 'tick) (perform 'c 'tick)"
                "     (perform 'c 'tick)))"),
            "3");
}

TEST_F(ControlTest, AbortiveOperationDiscardsTheSlice) {
  // The clause never invokes k: its value is the with-handler form's
  // value, and the (+ 2 _) slice is simply dropped.
  EXPECT_EQ(run("(+ 1 (with-handler 't ((bail k v) v)"
                "       (+ 2 (perform 't 'bail 100))))"),
            "101");
}

TEST_F(ControlTest, NormalReturnIsTheBodyValue) {
  EXPECT_EQ(run("(with-handler 'u ((op k) (k 1)) 'plain)"), "plain");
  EXPECT_EQ(run("(+ 1 (with-handler 'u ((op k) (k 1)) (+ 20 21)))"), "42");
}

TEST_F(ControlTest, ShallowHandlerHandlesExactlyOnce) {
  // Shallow mode: the handler is consumed by the first perform; the
  // second one forwards to the next matching handler out.
  EXPECT_EQ(run("(with-handler 'tag ((op k) (k 'outer))"
                "  (with-shallow-handler 'tag ((op k) (k 'once))"
                "    (cons (perform 'tag 'op) (perform 'tag 'op))))"),
            "(once . outer)");
}

TEST_F(ControlTest, UnmatchedOperationForwardsOutward) {
  // The inner handler has no 'pong clause: the dispatcher re-performs to
  // the outer handler and resumes the inner k with its answer.
  EXPECT_EQ(run("(with-handler 'fx ((pong k) (k 'from-outer))"
                "  (with-handler 'fx ((ping k) (k 'inner-ping))"
                "    (list (perform 'fx 'ping) (perform 'fx 'pong))))"),
            "(inner-ping from-outer)");
}

TEST_F(ControlTest, TagsSelectTheHandler) {
  // Distinct tags route independently even when nested.
  EXPECT_EQ(run("(with-handler 'a ((op k) (k 'handled-a))"
                "  (with-handler 'b ((op k) (k 'handled-b))"
                "    (list (perform 'a 'op) (perform 'b 'op))))"),
            "(handled-a handled-b)");
  // Plain resets with the same tag are transparent to perform: it binds
  // to handlers only, cutting straight through the reset's prompt.
  EXPECT_EQ(run("(with-handler 'p ((op k) (k 7))"
                "  (reset 'p (+ 1 (perform 'p 'op))))"),
            "8");
}

TEST_F(ControlTest, ClausesRunOutsideTheirOwnDelimiter) {
  // shift0 discipline: a perform from inside a clause must find the
  // *outer* handler, never the one whose clause is running.
  EXPECT_EQ(run("(with-handler 'e ((op k) (k 'outer-answer))"
                "  (with-handler 'e ((op k) (k (perform 'e 'op)))"
                "    (perform 'e 'op)))"),
            "outer-answer");
}

TEST_F(ControlTest, PerformWithoutHandlerIsAnError) {
  auto R = I.eval("(perform 'nobody 'op 1)");
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("no handler for tag"), std::string::npos) << R.Error;
  // A plain reset with the right tag is not a handler.
  auto R2 = I.eval("(reset 'p (perform 'p 'op))");
  ASSERT_FALSE(R2.Ok);
  EXPECT_NE(R2.Error.find("no handler for tag"), std::string::npos)
      << R2.Error;
}

TEST_F(ControlTest, HandlerContinuationIsOneShot) {
  auto R = I.eval("(with-handler 'd ((op k) (k (k 1)))"
                  "  (+ 1 (perform 'd 'op)))");
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("invoked a second time"), std::string::npos)
      << R.Error;
}

TEST_F(ControlTest, HandlerKSurvivesTheFormReturning) {
  // The clause smuggles k out and returns; the with-handler form settles
  // on the clause's value, and k is invoked later from a fresh extent —
  // the suspended slice completes there, like a parked generator.
  EXPECT_EQ(run("(define k* #f)"
                "(define r1 (with-handler 'p ((op k) (set! k* k) 'parked)"
                "             (+ 1 (perform 'p 'op))))"
                "(list r1 (+ 100 (k* 10)))"),
            "(parked 111)");
}

TEST_F(ControlTest, PerformRunsAfterThunksOnAbort) {
  // Winder travel matches shift: cutting the slice runs the after-thunks
  // of every dynamic-wind between the perform and the handler.
  EXPECT_EQ(run("(define log '())"
                "(define (note x) (set! log (cons x log)))"
                "(define r (with-handler 'a ((bail k v) (note 'clause) v)"
                "  (dynamic-wind"
                "    (lambda () (note 'in))"
                "    (lambda () (perform 'a 'bail 'done))"
                "    (lambda () (note 'out)))))"
                "(list r (reverse log))"),
            "(done (in out clause))");
}

TEST_F(ControlTest, ResumeRerunsBeforeThunks) {
  EXPECT_EQ(run("(define log '())"
                "(define (note x) (set! log (cons x log)))"
                "(define r (with-handler 'b ((get k) (note 'clause) (k 5))"
                "  (dynamic-wind"
                "    (lambda () (note 'in))"
                "    (lambda () (+ 1 (perform 'b 'get)))"
                "    (lambda () (note 'out)))))"
                "(list r (reverse log))"),
            "(6 (in out clause in out))");
}

TEST_F(ControlTest, HandlerTagIsComparedByIdentity) {
  // The tag expression is evaluated once; any value works as a tag as
  // long as the perform presents the same (eq?) value.
  EXPECT_EQ(run("(define t (list 'fresh))"
                "(with-handler t ((op k) (k 'found))"
                "  (perform t 'op))"),
            "found");
}

TEST_F(ControlTest, HandlersComposeWithGenerators) {
  // A generator body performing effects interpreted outside the
  // generator: two distinct delimiters interleave their slices.
  EXPECT_EQ(run("(define g (make-generator (lambda (v)"
                "  (yield (perform 'env 'get))"
                "  (yield (perform 'env 'get))"
                "  'done)))"
                "(define n 0)"
                "(with-handler 'env ((get k) (set! n (+ n 10)) (k n))"
                "  (list (generator-next g) (generator-next g)))"),
            "(10 20)");
}

// --- representation: the zero-copy capture path ---------------------------------

TEST(ControlRepresentation, SteadyStateYieldCopiesZeroWords) {
  // After warm-up, each yield/next round trip is: one-shot capture, cut to
  // the mark (header relinks only), splice (one link store), one-shot
  // invoke.  No stack words move and nothing is cloned.
  Interp I;
  ASSERT_TRUE(I.eval("(define g (make-generator (lambda (v)"
                     "  (let loop ((i 0)) (yield i) (loop (+ i 1))))))"
                     "(generator-next g) (generator-next g)")
                  .Ok);
  uint64_t W0 = I.stats().WordsCopied;
  uint64_t C0 = I.stats().SliceClonedWords;
  uint64_t Cap0 = I.stats().SliceCaptures;
  ASSERT_TRUE(I.eval("(let loop ((i 0))"
                     "  (when (< i 200) (generator-next g) (loop (+ i 1))))")
                  .Ok);
  EXPECT_EQ(I.stats().WordsCopied, W0);
  EXPECT_EQ(I.stats().SliceClonedWords, C0);
  EXPECT_EQ(I.stats().SliceCaptures, Cap0 + 200);
  EXPECT_GE(I.stats().SliceSplices, 200u);
}

TEST(ControlRepresentation, CopyingShimClonesEveryMember) {
  // With DelimOneShot off, reset marks are captured multi-shot and every
  // slice member fails the exclusively-owned test, so the same program
  // pays real word copies — the contrast bench_control quantifies.
  Config C;
  C.DelimOneShot = false;
  Interp I(C);
  ASSERT_TRUE(I.eval("(define g (make-generator (lambda (v)"
                     "  (let loop ((i 0)) (yield i) (loop (+ i 1))))))"
                     "(generator-next g) (generator-next g)")
                  .Ok);
  uint64_t C0 = I.stats().SliceClonedWords;
  ASSERT_TRUE(I.eval("(let loop ((i 0))"
                     "  (when (< i 50) (generator-next g) (loop (+ i 1))))")
                  .Ok);
  EXPECT_GT(I.stats().SliceClonedWords, C0);
}

TEST(ControlRepresentation, CountersExposedThroughVmStat) {
  Interp I;
  EXPECT_EQ(I.evalToString("(reset 'p (shift 'p k (k 1)))"
                           "(list (> (vm-stat 'prompt-resets) 0)"
                           "      (> (vm-stat 'slice-captures) 0)"
                           "      (> (vm-stat 'slice-splices) 0))"),
            "(#t #t #t)");
}

TEST(ControlRepresentation, TraceRecordsResetShiftSplice) {
  Interp I;
  I.trace().start();
  auto R = I.eval("(reset 'p (+ 1 (shift 'p k (k 10))))");
  I.trace().stop();
  ASSERT_TRUE(R.Ok) << R.Error;
  bool SawReset = false, SawShift = false, SawSplice = false;
  for (const Trace::Record &Rec : I.trace().snapshot()) {
    if (Rec.Kind == TraceEvent::Reset)
      SawReset = true;
    if (Rec.Kind == TraceEvent::Shift) {
      SawShift = true;
      EXPECT_EQ(Rec.Payload[2], 0u) << "steady-state shift cloned a member";
    }
    if (Rec.Kind == TraceEvent::Splice)
      SawSplice = true;
  }
  EXPECT_TRUE(SawReset && SawShift && SawSplice) << I.trace().toString();
}

TEST(ControlRepresentation, SteadyStatePerformCopiesZeroWords) {
  // The handler analogue of the generator invariant: after warm-up, each
  // perform-and-resume round trip cuts the slice to the handler's mark by
  // header relinking and splices it back with a link store — no stack
  // words move, nothing is cloned.  bench_control quantifies the same
  // loop and aborts if it copies a word.
  Interp I;
  ASSERT_TRUE(I.eval("(define (burst n)"
                     "  (with-handler 'tick ((tick k) (k #t))"
                     "    (let loop ((i 0))"
                     "      (if (< i n)"
                     "          (begin (perform 'tick 'tick) (loop (+ i 1)))"
                     "          i))))"
                     "(burst 2)")
                  .Ok);
  uint64_t W0 = I.stats().WordsCopied;
  uint64_t C0 = I.stats().SliceClonedWords;
  uint64_t Cap0 = I.stats().SliceCaptures;
  ASSERT_TRUE(I.eval("(burst 200)").Ok);
  EXPECT_EQ(I.stats().WordsCopied, W0);
  EXPECT_EQ(I.stats().SliceClonedWords, C0);
  EXPECT_EQ(I.stats().SliceCaptures, Cap0 + 200);
}

TEST(ControlRepresentation, CopyingShimClonesEveryPerform) {
  // Same program under the DelimOneShot=false shim: every cut clones its
  // members, so SliceClonedWords must grow — the contrast the zero-copy
  // claim is measured against.
  Config C;
  C.DelimOneShot = false;
  Interp I(C);
  ASSERT_TRUE(I.eval("(define (burst n)"
                     "  (with-handler 'tick ((tick k) (k #t))"
                     "    (let loop ((i 0))"
                     "      (if (< i n)"
                     "          (begin (perform 'tick 'tick) (loop (+ i 1)))"
                     "          i))))"
                     "(burst 2)")
                  .Ok);
  uint64_t C0 = I.stats().SliceClonedWords;
  ASSERT_TRUE(I.eval("(burst 50)").Ok);
  EXPECT_GT(I.stats().SliceClonedWords, C0);
}

TEST(ControlRepresentation, HandlerCountersExposedThroughVmStat) {
  Interp I;
  EXPECT_EQ(I.evalToString(
                "(with-handler 'h ((op k) (k 1)) (perform 'h 'op)"
                "                                (perform 'h 'op))"
                "(list (vm-stat 'handlers-installed) (vm-stat 'performs))"),
            "(1 2)");
}

TEST(ControlRepresentation, TraceRecordsHandleAndPerform) {
  Interp I;
  I.trace().start();
  auto R = I.eval("(with-handler 'h ((op k) (k 10))"
                  "  (+ 1 (perform 'h 'op)))");
  I.trace().stop();
  ASSERT_TRUE(R.Ok) << R.Error;
  bool SawHandle = false, SawPerform = false, SawSplice = false;
  for (const Trace::Record &Rec : I.trace().snapshot()) {
    if (Rec.Kind == TraceEvent::Handle) {
      SawHandle = true;
      EXPECT_EQ(Rec.Payload[1], 0u) << "deep handler traced as shallow";
    }
    if (Rec.Kind == TraceEvent::Perform) {
      SawPerform = true;
      EXPECT_EQ(Rec.Payload[2], 0u) << "steady-state perform cloned a member";
    }
    if (Rec.Kind == TraceEvent::Splice)
      SawSplice = true;
  }
  EXPECT_TRUE(SawHandle && SawPerform && SawSplice) << I.trace().toString();
}

// --- differential: DelimOneShot on == off across the lattice --------------------

struct Observed {
  bool Ok = false;
  std::string Val;
  std::string Err;
  std::string Out;
};

bool operator==(const Observed &A, const Observed &B) {
  return A.Ok == B.Ok && A.Val == B.Val && A.Err == B.Err && A.Out == B.Out;
}

std::ostream &operator<<(std::ostream &OS, const Observed &O) {
  return OS << "{ok=" << O.Ok << " val=" << O.Val << " err=" << O.Err
            << " out=" << O.Out << "}";
}

Observed runOnce(Config C, const std::string &Source, bool OneShot) {
  C.DelimOneShot = OneShot;
  Interp I(C);
  I.captureOutput(true);
  auto R = I.eval(Source);
  Observed O;
  O.Ok = R.Ok;
  if (R.Ok)
    O.Val = I.valueToString(R.Val);
  O.Err = R.Error;
  O.Out = I.takeOutput();
  return O;
}

struct Program {
  const char *Name;
  const char *Source;
};

const Program DelimPrograms[] = {
    {"value-flow",
     "(list (reset 'p (+ 1 (shift 'p k (k 10))))"
     "      (+ 1 (reset 'p (+ 2 (shift 'p k 100))))"
     "      (reset 'p (+ 1 (shift 'p k (+ 100 (k 10))))))"},
    {"nested-tags",
     "(list (reset 'a (+ 1 (reset 'b (+ 10 (shift 'a k (k 100))))))"
     "      (reset 'a (+ 1 (reset 'b (+ 10 (shift 'b k (k 100))))))"
     "      (reset 'p (+ 1 (reset 'p (+ 10 (shift 'p k (k 100)))))))"},
    {"wind-crossing",
     "(define log '())"
     "(define (note x) (set! log (cons x log)))"
     "(define r (reset 'p (dynamic-wind"
     "  (lambda () (note 'in))"
     "  (lambda () (+ 1 (shift 'p k (note 'recv) (k 10))))"
     "  (lambda () (note 'out)))))"
     "(list r (reverse log))"},
    {"parked-slice-generator",
     "(define g (make-generator (lambda (v)"
     "  (let loop ((i 0) (acc 0))"
     "    (if (= i 5) acc (loop (+ i 1) (+ acc (yield i))))))))"
     "(define parts '())"
     "(let loop ((x (generator-next g 0)))"
     "  (if (eof-object? x) (reverse parts)"
     "      (begin (set! parts (cons x parts))"
     "             (loop (generator-next g (* 2 x))))))"},
    {"one-shot-reuse-error",
     "(display (reset 'p (+ 1 (shift 'p k (k 1)))))"
     "(reset 'p (+ 1 (shift 'p k (k (k 10)))))"},
    {"async-await-pipeline",
     "(define f1 (async (+ 1 2)))"
     "(define f2 (async (* (await f1) 10)))"
     "(define sink '())"
     "(spawn (lambda () (set! sink (future-get f2))))"
     "(scheduler-run)"
     "sink"},
    {"escape-prunes-prompt",
     "(display (call/1cc (lambda (out) (reset 'p (out 'gone)))))"
     "(newline)"
     "(shift 'p k 1)"},
    {"handler-state-effect",
     // get/put interpreted by a deep handler holding mutable state: every
     // perform cuts and splices under both representations.
     "(define cell 0)"
     "(with-handler 'st ((get k) (k cell))"
     "              ((put k v) (set! cell v) (k 'ok))"
     "  (perform 'st 'put 10)"
     "  (let ((a (perform 'st 'get)))"
     "    (perform 'st 'put (* a 3))"
     "    (list a (perform 'st 'get))))"},
    {"handler-abort-through-winders",
     "(define log '())"
     "(define (note x) (set! log (cons x log)))"
     "(define r (with-handler 'x ((bail k v) (note 'clause) v)"
     "  (dynamic-wind (lambda () (note 'in))"
     "                (lambda () (perform 'x 'bail 'stopped))"
     "                (lambda () (note 'out)))))"
     "(list r (reverse log))"},
    {"shallow-handler-chain",
     "(with-handler 'tag ((op k) (k 'deep))"
     "  (with-shallow-handler 'tag ((op k) (k 'shallow))"
     "    (list (perform 'tag 'op) (perform 'tag 'op)"
     "          (perform 'tag 'op))))"},
    {"handler-forwarding-double-error",
     // First form prints, second must fail identically: k is one-shot in
     // both worlds (the shim clones slices but keeps the contract).
     "(display (with-handler 'f ((op k) (k 1)) (perform 'f 'op)))"
     "(newline)"
     "(with-handler 'f ((op k) (k (k 1))) (perform 'f 'op))"},
    {"handler-under-generator",
     "(define g (make-generator (lambda (v)"
     "  (yield (perform 'env 'get)) (yield (perform 'env 'get)) 'done)))"
     "(define n 0)"
     "(with-handler 'env ((get k) (set! n (+ n 10)) (k n))"
     "  (list (generator-next g) (generator-next g)))"},
    {"nursery-cancels-parked-children",
     "(define out '())"
     "(define (note x) (set! out (cons x out)))"
     "(define tids '())"
     "(spawn (lambda ()"
     "  (nursery"
     "   (set! tids (cons (spawn (lambda ()"
     "     (note 'c1) (channel-recv (make-channel 0)) (note 'never))) tids))"
     "   (set! tids (cons (spawn (lambda ()"
     "     (note 'c2) (channel-recv (make-channel 0)) (note 'never))) tids))"
     "   (yield)"
     "   (note 'scope-end))))"
     "(scheduler-run)"
     "(list (reverse out) (map thread-state (reverse tids))"
     "      (vm-stat 'nursery-cancels))"},
};

class DelimDifferential
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(DelimDifferential, OneShotEqualsCopyingShim) {
  auto [ProgIdx, CfgIdx] = GetParam();
  const Program &P = DelimPrograms[ProgIdx];
  std::vector<ConfigPoint> Lattice = configLattice();
  const ConfigPoint &CP = Lattice[CfgIdx];
  Observed Fast = runOnce(CP.C, P.Source, /*OneShot=*/true);
  Observed Shim = runOnce(CP.C, P.Source, /*OneShot=*/false);
  EXPECT_EQ(Fast, Shim) << "program " << P.Name << " under config "
                        << CP.Name;
}

std::string delimName(
    const ::testing::TestParamInfo<std::tuple<size_t, size_t>> &Info) {
  auto [ProgIdx, CfgIdx] = Info.param;
  std::string N = std::string(DelimPrograms[ProgIdx].Name) + "_" +
                  configLattice()[CfgIdx].Name;
  for (char &C : N)
    if (C == '-')
      C = '_';
  return N;
}

INSTANTIATE_TEST_SUITE_P(
    AllPrograms, DelimDifferential,
    ::testing::Combine(
        ::testing::Range<size_t>(0, std::size(DelimPrograms)),
        ::testing::Range<size_t>(0, configLattice().size())),
    delimName);

} // namespace
