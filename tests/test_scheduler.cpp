// The native green-thread scheduler (src/sched) built on one-shot
// continuation switching.  The tests pin down the scheduling policy
// (round-robin, deterministic sleeper aging), the blocking channel
// semantics (FIFO, rendezvous, bounded back-pressure), the dynamic-wind
// interaction (winders are suspended with a preempted thread, never run
// and never visible to other threads), and the paper's headline property:
// a steady-state context switch copies zero stack words.

#include "osc.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace osc;

namespace {

std::string run(Interp &I, const std::string &Src) {
  return I.evalToString(Src);
}

} // namespace

// --- Basics ----------------------------------------------------------------

TEST(Scheduler, RunWithNoThreadsReturnsZero) {
  Interp I;
  EXPECT_EQ(run(I, "(scheduler-run)"), "0");
  EXPECT_EQ(run(I, "(scheduler-run 100)"), "0");
}

TEST(Scheduler, SpawnRunJoin) {
  Interp I;
  EXPECT_EQ(run(I, "(define t1 (spawn (lambda () (* 6 7))))"
                   "(define t2 (spawn (lambda () 'second)))"
                   "(define n (scheduler-run))"
                   "(list n (thread-join t1) (thread-join t2))"),
            "(2 42 second)");
}

TEST(Scheduler, CompletedCountAccumulatesPerRun) {
  Interp I;
  EXPECT_EQ(run(I, "(spawn (lambda () 1))"
                   "(spawn (lambda () 2))"
                   "(spawn (lambda () 3))"
                   "(scheduler-run)"),
            "3");
  // A later run counts only its own completions.
  EXPECT_EQ(run(I, "(spawn (lambda () 4))"
                   "(scheduler-run)"),
            "1");
}

TEST(Scheduler, ThreadHandlesAndStates) {
  Interp I;
  EXPECT_EQ(run(I, "(define t (spawn (lambda () (current-thread))))"
                   "(define before (thread-state t))"
                   "(scheduler-run)"
                   "(list before (thread-state t) (thread-join t) t"
                   "      (current-thread))"),
            "(ready done 0 0 #f)");
}

TEST(Scheduler, CooperativeYieldInterleavesRoundRobin) {
  Interp I;
  EXPECT_EQ(run(I, "(define trace '())"
                   "(define (note x) (set! trace (cons x trace)))"
                   "(define (worker tag)"
                   "  (lambda ()"
                   "    (note (list tag 1)) (yield)"
                   "    (note (list tag 2)) (yield)"
                   "    (note (list tag 3))))"
                   "(spawn (worker 'a))"
                   "(spawn (worker 'b))"
                   "(scheduler-run)"
                   "(reverse trace)"),
            "((a 1) (b 1) (a 2) (b 2) (a 3) (b 3))");
  EXPECT_EQ(I.stats().VoluntaryYields, 4u);
}

TEST(Scheduler, YieldOutsideRunIsANoOp) {
  Interp I;
  EXPECT_EQ(run(I, "(begin (yield) (yield) 'ok)"), "ok");
}

TEST(Scheduler, SpawnInsideRunningThread) {
  Interp I;
  EXPECT_EQ(run(I, "(define inner #f)"
                   "(spawn (lambda ()"
                   "         (set! inner (spawn (lambda () 'child)))"
                   "         (thread-join inner)))"
                   "(define n (scheduler-run))"
                   "(list n (thread-join inner))"),
            "(2 child)");
}

TEST(Scheduler, ImplicitExitOfPlainThunk) {
  Interp I;
  // No wrapper required: the thread's return value is its result.
  EXPECT_EQ(run(I, "(define t (spawn (lambda () (cons 1 2))))"
                   "(scheduler-run)"
                   "(thread-join t)"),
            "(1 . 2)");
}

// --- Preemption ------------------------------------------------------------

TEST(Scheduler, PreemptiveInterleavingWithoutYields) {
  Interp I;
  // Two spin loops that never yield still interleave under a small slice:
  // both must record progress before either finishes.
  EXPECT_EQ(run(I, "(define trace '())"
                   "(define (worker tag)"
                   "  (lambda ()"
                   "    (let loop ((i 0))"
                   "      (if (= i 400)"
                   "          tag"
                   "          (begin (set! trace (cons tag trace))"
                   "                 (loop (+ i 1)))))))"
                   "(spawn (worker 'a))"
                   "(spawn (worker 'b))"
                   "(scheduler-run 50)"
                   // Strip the leading pure-a prefix; if b shows up before
                   // the trailing pure-b run, they interleaved.
                   "(let loop ((l (reverse trace)))"
                   "  (if (eq? (car l) 'a) (loop (cdr l))"
                   "      (if (memq 'a l) 'interleaved 'sequential)))"),
            "interleaved");
  EXPECT_GT(I.stats().PreemptiveSwitches, 2u);
}

TEST(Scheduler, CooperativeRunNeverPreempts) {
  Interp I;
  EXPECT_EQ(run(I, "(define (spin i) (if (zero? i) 'ok (spin (- i 1))))"
                   "(spawn (lambda () (spin 5000)))"
                   "(spawn (lambda () (spin 5000)))"
                   "(scheduler-run)"),
            "2");
  EXPECT_EQ(I.stats().PreemptiveSwitches, 0u);
}

TEST(Scheduler, StatsCountersTrackARun) {
  Interp I;
  EXPECT_EQ(run(I, "(spawn (lambda () (yield) 1))"
                   "(spawn (lambda () (yield) 2))"
                   "(spawn (lambda () 3))"
                   "(scheduler-run)"
                   "(list (vm-stat 'threads-spawned)"
                   "      (vm-stat 'voluntary-yields)"
                   "      (>= (vm-stat 'run-queue-peak) 3)"
                   "      (> (vm-stat 'context-switches) 3))"),
            "(3 2 #t #t)");
}

// --- The zero-copy property (paper Figure 5, made native) -------------------

TEST(Scheduler, SteadyStateSwitchCopiesZeroStackWords) {
  Interp I;
  run(I, "(define (yielder n)"
         "  (lambda () (let loop ((i 0))"
         "    (if (= i n) 'done (begin (yield) (loop (+ i 1)))))))"
         "(spawn (yielder 200))"
         "(spawn (yielder 200))"
         "(spawn (yielder 200))");
  uint64_t CopiedBefore = I.stats().WordsCopied;
  uint64_t SwitchesBefore = I.stats().ContextSwitches;
  EXPECT_EQ(run(I, "(scheduler-run)"), "3");
  EXPECT_GT(I.stats().ContextSwitches - SwitchesBefore, 600u);
  EXPECT_EQ(I.stats().WordsCopied - CopiedBefore, 0u);
}

TEST(Scheduler, PreemptiveSwitchAlsoCopiesZeroStackWords) {
  Interp I;
  run(I, "(define (spin i) (if (zero? i) 'ok (spin (- i 1))))"
         "(spawn (lambda () (spin 20000)))"
         "(spawn (lambda () (spin 20000)))");
  uint64_t CopiedBefore = I.stats().WordsCopied;
  EXPECT_EQ(run(I, "(scheduler-run 25)"), "2");
  EXPECT_GT(I.stats().PreemptiveSwitches, 100u);
  EXPECT_EQ(I.stats().WordsCopied - CopiedBefore, 0u);
}

// --- dynamic-wind across involuntary switches ------------------------------
//
// A context switch is not an escape: the preempted thread's winders are
// suspended with it (after-thunks do NOT run), other threads never see
// them, and they are back in place when the thread resumes.

TEST(Scheduler, WindersSuspendedAndRestoredAcrossPreemption) {
  Interp I;
  EXPECT_EQ(
      run(I, "(define trace '())"
             "(define (note x) (set! trace (cons x trace)))"
             "(define (spin i) (if (zero? i) 'ok (spin (- i 1))))"
             "(spawn (lambda ()"
             "  (dynamic-wind"
             "    (lambda () (note 'before))"
             "    (lambda ()"
             "      (spin 3000)"                     // preempted mid-wind
             "      (note (list 'inside (length *winders*))))"
             "    (lambda () (note 'after)))))"
             "(spawn (lambda ()"
             "  (spin 500)"                          // runs while t1 is wound
             "  (note (list 'other-sees (length *winders*)))"
             "  (spin 3000)))"
             "(scheduler-run 40)"
             "(list (reverse trace) (length *winders*))"),
      "((before (other-sees 0) (inside 1) after) 0)");
  EXPECT_GT(I.stats().PreemptiveSwitches, 0u);
}

TEST(Scheduler, WindersSuspendedAcrossVoluntaryYield) {
  Interp I;
  EXPECT_EQ(run(I, "(define trace '())"
                   "(define (note x) (set! trace (cons x trace)))"
                   "(spawn (lambda ()"
                   "  (dynamic-wind"
                   "    (lambda () (note 'in))"
                   "    (lambda () (yield) (yield) 'x)"
                   "    (lambda () (note 'out)))))"
                   "(spawn (lambda ()"
                   "  (note (length *winders*)) (yield)"
                   "  (note (length *winders*))))"
                   "(scheduler-run)"
                   "(reverse trace)"),
            // 'in / 'out exactly once each; the observer sees no winders.
            "(in 0 0 out)");
}

TEST(Scheduler, ThreadExitSkipsAfterThunks) {
  Interp I;
  // Like an engine being dropped: thread-exit abandons the thread's
  // extent without running its after-thunks.
  EXPECT_EQ(run(I, "(define ran-after #f)"
                   "(define t (spawn (lambda ()"
                   "  (dynamic-wind"
                   "    (lambda () 'in)"
                   "    (lambda () (thread-exit 'early) 'unreachable)"
                   "    (lambda () (set! ran-after #t))))))"
                   "(scheduler-run)"
                   "(list (thread-join t) ran-after (length *winders*))"),
            "(early #f 0)");
}

TEST(Scheduler, MainWindersUnaffectedByRun) {
  Interp I;
  // scheduler-run called inside the main computation's dynamic extent:
  // threads start on the base winders, and main's own wind completes.
  EXPECT_EQ(run(I, "(define trace '())"
                   "(define (note x) (set! trace (cons x trace)))"
                   "(spawn (lambda () (note (list 'thread (length *winders*)))))"
                   "(dynamic-wind"
                   "  (lambda () (note 'enter))"
                   "  (lambda () (note (list 'ran (scheduler-run))))"
                   "  (lambda () (note 'leave)))"
                   "(reverse trace)"),
            "(enter (thread 1) (ran 1) leave)");
}

// --- Join, sleep, exit -----------------------------------------------------

TEST(Scheduler, JoinBlocksUntilTargetFinishes) {
  Interp I;
  EXPECT_EQ(run(I, "(define trace '())"
                   "(define slow (spawn (lambda ()"
                   "  (yield) (yield) (set! trace (cons 'slow-done trace))"
                   "  'payload)))"
                   "(spawn (lambda ()"
                   "  (set! trace (cons (list 'joined (thread-join slow))"
                   "                    trace))))"
                   "(scheduler-run)"
                   "(reverse trace)"),
            "(slow-done (joined payload))");
}

TEST(Scheduler, JoinOfFinishedThreadReturnsImmediately) {
  Interp I;
  EXPECT_EQ(run(I, "(define t (spawn (lambda () 'done-first)))"
                   "(scheduler-run)"
                   // From main, after the run: no blocking possible.
                   "(list (thread-join t) (thread-join t))"),
            "(done-first done-first)");
}

TEST(Scheduler, SelfJoinIsAnError) {
  Interp I;
  std::string R = run(I, "(spawn (lambda () (thread-join (current-thread))))"
                         "(scheduler-run)");
  EXPECT_NE(R.find("error"), std::string::npos);
  EXPECT_NE(R.find("join"), std::string::npos);
}

TEST(Scheduler, JoinOfUnfinishedThreadOutsideRunIsAnError) {
  Interp I;
  std::string R = run(I, "(define t (spawn (lambda () 'never-ran)))"
                         "(thread-join t)");
  EXPECT_NE(R.find("error"), std::string::npos);
}

TEST(Scheduler, SleepersWakeInDeadlineThenSpawnOrder) {
  Interp I;
  // Sleep time is measured in context switches, so wake order is exact:
  // shortest deadline first, ties broken by spawn order.
  EXPECT_EQ(run(I, "(define trace '())"
                   "(define (sleeper tag n)"
                   "  (lambda () (thread-sleep! n)"
                   "             (set! trace (cons tag trace))))"
                   "(spawn (sleeper 'long 9))"
                   "(spawn (sleeper 'short 3))"
                   "(spawn (sleeper 'mid 6))"
                   "(spawn (sleeper 'short-too 3))"
                   "(scheduler-run)"
                   "(reverse trace)"),
            "(short short-too mid long)");
}

TEST(Scheduler, SleepZeroDoesNotSuspend) {
  Interp I;
  EXPECT_EQ(run(I, "(spawn (lambda () (thread-sleep! 0) 'ok))"
                   "(scheduler-run)"),
            "1");
}

// --- Channels --------------------------------------------------------------

TEST(Scheduler, BufferedChannelBasics) {
  Interp I;
  EXPECT_EQ(run(I, "(define ch (make-channel 3))"
                   "(list (channel-capacity ch)"
                   "      (channel-try-send! ch 'a)"
                   "      (channel-try-send! ch 'b)"
                   "      (channel-length ch)"
                   "      (channel-try-recv ch)"
                   "      (channel-try-recv ch)"
                   "      (channel-try-recv ch))"),
            "(3 #t #t 2 a b #f)");
}

TEST(Scheduler, TrySendFailsOnFullBuffer) {
  Interp I;
  EXPECT_EQ(run(I, "(define ch (make-channel 1))"
                   "(list (channel-try-send! ch 1)"
                   "      (channel-try-send! ch 2)"
                   "      (channel-try-recv ch))"),
            "(#t #f 1)");
}

TEST(Scheduler, BlockingSendAndRecvBetweenThreads) {
  Interp I;
  EXPECT_EQ(run(I, "(define ch (make-channel 1))"
                   "(define got '())"
                   "(spawn (lambda ()"
                   "  (channel-send! ch 1) (channel-send! ch 2)"
                   "  (channel-send! ch 3)))"
                   "(spawn (lambda ()"
                   "  (set! got (list (channel-recv ch) (channel-recv ch)"
                   "                  (channel-recv ch)))))"
                   "(scheduler-run)"
                   "got"),
            "(1 2 3)");
}

TEST(Scheduler, RendezvousChannelHandsOffDirectly) {
  Interp I;
  // Capacity 0: a send completes only by pairing with a receive.  The
  // first send finds no receiver and blocks; the second finds the
  // receiver already parked and hands off without blocking.  Either way
  // the sender is never more than one hand-off ahead.
  EXPECT_EQ(run(I, "(define ch (make-channel 0))"
                   "(define trace '())"
                   "(spawn (lambda ()"
                   "  (for-each (lambda (i)"
                   "              (channel-send! ch i)"
                   "              (set! trace (cons (list 'sent i) trace)))"
                   "            '(1 2))))"
                   "(spawn (lambda ()"
                   "  (set! trace (cons (list 'got (channel-recv ch)) trace))"
                   "  (set! trace (cons (list 'got (channel-recv ch)) trace))))"
                   "(scheduler-run)"
                   "(list (reverse trace) (channel-length ch))"),
            "(((got 1) (sent 1) (sent 2) (got 2)) 0)");
  EXPECT_GT(I.stats().ChannelBlocks, 0u);
}

TEST(Scheduler, BoundedChannelPreservesFifoUnderBackPressure) {
  Interp I;
  // A fast producer against a capacity-2 buffer: it must block, and the
  // consumer must still see strictly increasing values.
  EXPECT_EQ(run(I, "(define ch (make-channel 2))"
                   "(define got '())"
                   "(spawn (lambda ()"
                   "  (let loop ((i 0))"
                   "    (if (< i 10)"
                   "        (begin (channel-send! ch i) (loop (+ i 1)))))))"
                   "(spawn (lambda ()"
                   "  (let loop ((n 0))"
                   "    (if (< n 10)"
                   "        (begin (set! got (cons (channel-recv ch) got))"
                   "               (loop (+ n 1)))))))"
                   "(scheduler-run)"
                   "(reverse got)"),
            "(0 1 2 3 4 5 6 7 8 9)");
  EXPECT_GT(I.stats().ChannelBlocks, 0u);
  EXPECT_EQ(I.stats().ChannelMessages, 10u);
}

TEST(Scheduler, ChannelDataSurvivesAcrossRuns) {
  Interp I;
  // Main can stage data before a run and drain leftovers after it.
  EXPECT_EQ(run(I, "(define ch (make-channel 4))"
                   "(channel-try-send! ch 'staged)"
                   "(spawn (lambda ()"
                   "  (let ((v (channel-recv ch)))"
                   "    (channel-send! ch (list v 'echoed)))))"
                   "(scheduler-run)"
                   "(channel-try-recv ch)"),
            "(staged echoed)");
}

TEST(Scheduler, DeterministicProducerConsumerStress) {
  Interp I;
  // 4 producers x 50 messages, 3 consumers, a coordinator that joins the
  // producers and then poisons the channel once per consumer.  Every
  // message is tagged producer*1000+seq, so the sorted receipt list must
  // equal the sorted send list exactly: nothing lost, nothing duplicated.
  EXPECT_EQ(
      run(I, "(define nprod 4) (define nmsg 50)"
             "(define ch (make-channel 4))"
             "(define got '())"
             "(define (producer p)"
             "  (lambda ()"
             "    (let loop ((i 0))"
             "      (if (< i nmsg)"
             "          (begin (channel-send! ch (+ (* p 1000) i))"
             "                 (loop (+ i 1)))))))"
             "(define (consumer)"
             "  (let loop ()"
             "    (let ((v (channel-recv ch)))"
             "      (if (eq? v 'stop) 'done"
             "          (begin (set! got (cons v got)) (loop))))))"
             "(define prods (map (lambda (p) (spawn (producer p)))"
             "                   (iota nprod)))"
             "(spawn consumer) (spawn consumer) (spawn consumer)"
             "(spawn (lambda ()"
             "  (for-each thread-join prods)"
             "  (channel-send! ch 'stop) (channel-send! ch 'stop)"
             "  (channel-send! ch 'stop)))"
             // An awkward slice so preemption lands at varied points.
             "(define completed (scheduler-run 7))"
             "(define (insert x l)"
             "  (if (or (null? l) (< x (car l))) (cons x l)"
             "      (cons (car l) (insert x (cdr l)))))"
             "(define sorted (fold-left (lambda (acc v) (insert v acc))"
             "                          '() got))"
             "(define expected"
             "  (fold-right (lambda (p acc)"
             "                (fold-right (lambda (i a) (cons (+ (* p 1000) i) a))"
             "                            acc (iota nmsg)))"
             "              '() (iota nprod)))"
             "(list completed (length got) (equal? sorted expected))"),
      "(8 200 #t)");
  EXPECT_GT(I.stats().PreemptiveSwitches, 0u);
  EXPECT_GT(I.stats().ChannelBlocks, 0u);
}

// --- Errors and recovery ---------------------------------------------------

TEST(Scheduler, DeadlockIsDetectedAndReported) {
  Interp I;
  std::string R = run(I, "(define ch (make-channel 0))"
                         "(spawn (lambda () (channel-recv ch)))"
                         "(spawn (lambda () (channel-recv ch)))"
                         "(scheduler-run)");
  EXPECT_NE(R.find("error"), std::string::npos);
  EXPECT_NE(R.find("deadlock"), std::string::npos);
}

TEST(Scheduler, NestedSchedulerRunIsAnError) {
  Interp I;
  std::string R = run(I, "(spawn (lambda () (scheduler-run)))"
                         "(scheduler-run)");
  EXPECT_NE(R.find("error"), std::string::npos);
}

TEST(Scheduler, ErrorInThreadAbortsRunButVmRecovers) {
  Interp I;
  std::string R = run(I, "(spawn (lambda () (car 5)))"
                         "(spawn (lambda () 'innocent))"
                         "(scheduler-run)");
  EXPECT_NE(R.find("error"), std::string::npos);
  // The aborted run's threads are dropped; a fresh run works.
  EXPECT_EQ(run(I, "(spawn (lambda () 'fresh))"
                   "(scheduler-run)"),
            "1");
}

TEST(Scheduler, SpawnRejectsNonProcedures) {
  Interp I;
  std::string R = run(I, "(spawn 42)");
  EXPECT_NE(R.find("error"), std::string::npos);
}

// --- Coexistence with engines ----------------------------------------------

TEST(Scheduler, EnginesStillWorkAfterSchedulerRuns) {
  Interp I;
  EXPECT_EQ(run(I, "(spawn (lambda () 'warm-up))"
                   "(scheduler-run 10)"
                   "((make-engine (lambda () (+ 40 2)))"
                   " 1000 (lambda (left r) r) (lambda (e) 'expired))"),
            "42");
}

TEST(Scheduler, EngineRunsInsideAThread) {
  Interp I;
  // An engine driven to completion from within a green thread: the engine
  // timer wins inside its slice (engine semantics are preserved), and the
  // surrounding cooperative threads still interleave.
  EXPECT_EQ(run(I, "(define (fib n)"
                   "  (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))"
                   "(define result #f)"
                   "(define expirations 0)"
                   "(define (drive eng)"
                   "  (eng 100"
                   "       (lambda (left r) (set! result r))"
                   "       (lambda (e2)"
                   "         (set! expirations (+ expirations 1))"
                   "         (yield)"
                   "         (drive e2))))"
                   "(define other 0)"
                   "(spawn (lambda () (drive (make-engine (lambda () (fib 12))))))"
                   "(spawn (lambda ()"
                   "  (let loop () (if (not result)"
                   "                   (begin (set! other (+ other 1))"
                   "                          (yield) (loop))))))"
                   "(scheduler-run)"
                   "(list result (> expirations 0) (> other 0))"),
            "(144 #t #t)");
}

// --- Cancellation and nurseries ----------------------------------------------
//
// thread-cancel! retires a non-running thread by deadline-style poisoning:
// the parked one-shot resume point is marked shot (never reinstated, zero
// stack words copied), the thread is detached from whatever structure
// would have woken it, and its joiners wake with 'cancelled.  Nurseries
// (prelude) drive the same primitive for scope teardown.

TEST(Cancel, ReadyThreadNeverRuns) {
  Interp I;
  EXPECT_EQ(run(I, "(define ran #f)"
                   "(define t (spawn (lambda () (yield) (set! ran #t))))"
                   "(spawn (lambda () (thread-cancel! t)))"
                   "(scheduler-run)"
                   "(list ran (thread-state t) (thread-join t))"),
            "(#f done cancelled)");
}

TEST(Cancel, BlockedOnChannelCopiesZeroWords) {
  Interp I;
  Stats::Snapshot B = I.snapshot();
  EXPECT_EQ(run(I, "(define ch (make-channel 0))"
                   "(define t (spawn (lambda () (channel-recv ch))))"
                   "(spawn (lambda () (yield) (thread-cancel! t)))"
                   "(scheduler-run)"
                   "(list (thread-state t) (thread-join t))"),
            "(done cancelled)");
  Stats::Snapshot A = I.snapshot();
  EXPECT_EQ(A.WordsCopied - B.WordsCopied, 0u);
  EXPECT_EQ(A.NurseryCancels - B.NurseryCancels, 1u);
}

TEST(Cancel, SleepingThreadIsRemovedFromTheWheel) {
  Interp I;
  EXPECT_EQ(run(I, "(define t (spawn (lambda () (thread-sleep! 1000) 'woke)))"
                   "(spawn (lambda () (yield) (thread-cancel! t)))"
                   "(scheduler-run)"
                   "(thread-join t)"),
            "cancelled");
}

TEST(Cancel, ParkedSenderLeavesChannelConsistent) {
  // Cancel a sender parked on a full bounded channel, then drain: the
  // cancelled send must not deliver, and the channel keeps working.
  Interp I;
  EXPECT_EQ(run(I, "(define ch (make-channel 1))"
                   "(channel-send! ch 'first)"
                   "(define t (spawn (lambda () (channel-send! ch 'ghost))))"
                   "(spawn (lambda () (yield) (thread-cancel! t)))"
                   "(scheduler-run)"
                   "(define r1 (channel-recv ch))"
                   "(channel-send! ch 'second)"
                   "(list r1 (channel-recv ch) (channel-try-recv ch))"),
            "(first second #f)");
}

TEST(Cancel, CancelSelfAndDoneAreRefused) {
  Interp I;
  EXPECT_EQ(run(I, "(define done-t (spawn (lambda () 'x)))"
                   "(scheduler-run)"
                   "(define self-result 'unset)"
                   "(spawn (lambda ()"
                   "  (set! self-result (thread-cancel! (current-thread)))))"
                   "(scheduler-run)"
                   "(list (thread-cancel! done-t) self-result)"),
            "(#f #f)");
}

TEST(Cancel, JoinersWakeWithCancelled) {
  // Two threads already joined on the victim: cancellation completes the
  // join like a normal exit would, with the 'cancelled value.
  Interp I;
  EXPECT_EQ(run(I, "(define ch (make-channel 0))"
                   "(define victim (spawn (lambda () (channel-recv ch))))"
                   "(define a (spawn (lambda () (list 'a (thread-join victim)))))"
                   "(define b (spawn (lambda () (list 'b (thread-join victim)))))"
                   "(spawn (lambda () (yield) (thread-cancel! victim)))"
                   "(scheduler-run)"
                   "(list (thread-join a) (thread-join b))"),
            "((a cancelled) (b cancelled))");
}

TEST(Nursery, ScopeExitCancelsParkedChildren) {
  Interp I;
  EXPECT_EQ(run(I, "(define out '())"
                   "(define (note x) (set! out (cons x out)))"
                   "(spawn (lambda ()"
                   "  (nursery"
                   "   (spawn (lambda ()"
                   "     (note 'c1) (channel-recv (make-channel 0)) (note 'n1)))"
                   "   (spawn (lambda ()"
                   "     (note 'c2) (channel-recv (make-channel 0)) (note 'n2)))"
                   "   (yield)"
                   "   (note 'scope-end))))"
                   "(scheduler-run)"
                   "(list (reverse out) (vm-stat 'nursery-cancels))"),
            "((c1 c2 scope-end) 2)");
}

TEST(Nursery, CompletedChildrenAreNotCancelled) {
  Interp I;
  EXPECT_EQ(run(I, "(define t #f)"
                   "(spawn (lambda ()"
                   "  (nursery"
                   "   (set! t (spawn (lambda () 'finished)))"
                   "   (yield))))"
                   "(scheduler-run)"
                   "(list (thread-join t) (vm-stat 'nursery-cancels))"),
            "(finished 0)");
}

TEST(Nursery, FinishedChildrenAreUnlinked) {
  // A long-lived scope (a connection serving request after request) keeps
  // only its live children: 1,000 children that each finish before the
  // next spawn leave the list holding the parked child and the newest one.
  Interp I;
  EXPECT_EQ(run(I, "(define listed #f)"
                   "(spawn (lambda ()"
                   "  (nursery"
                   "   (spawn (lambda () (channel-recv (make-channel 0))))"
                   "   (let loop ((i 0))"
                   "     (if (< i 1000)"
                   "         (begin (thread-join (spawn (lambda () i)))"
                   "                (loop (+ i 1)))))"
                   "   (set! listed (length (vector-ref *nursery* 0))))))"
                   "(scheduler-run)"
                   "(list listed (vm-stat 'nursery-cancels))"),
            "(2 1)");
}

TEST(Nursery, ChildrenInheritTheScope) {
  // A child's own spawn enrolls the grandchild in the same nursery, so
  // closing the scope reaps the whole tree, not just direct children.
  Interp I;
  EXPECT_EQ(run(I, "(define gc #f)"
                   "(spawn (lambda ()"
                   "  (nursery"
                   "   (spawn (lambda ()"
                   "     (set! gc (spawn (lambda ()"
                   "       (channel-recv (make-channel 0)))))))"
                   "   (yield) (yield))))"
                   "(scheduler-run)"
                   "(list (thread-state gc) (thread-join gc))"),
            "(done cancelled)");
}

TEST(Nursery, NestedScopesCancelInnermostFirst) {
  // The inner nursery closes with its own children when the outer scope
  // ends; the NurseryCancel trace records the order: inner child before
  // outer child, each in spawn order.
  Interp I;
  I.trace().start();
  EXPECT_EQ(run(I, "(define inner-tid #f) (define outer-tid #f)"
                   "(spawn (lambda ()"
                   "  (nursery"
                   "   (set! outer-tid (spawn (lambda ()"
                   "     (channel-recv (make-channel 0)))))"
                   "   (nursery"
                   "    (set! inner-tid (spawn (lambda ()"
                   "      (channel-recv (make-channel 0)))))"
                   "    (yield) (yield)))))"
                   "(scheduler-run)"
                   "(list (thread-state inner-tid) (thread-state outer-tid)"
                   "      (< inner-tid outer-tid))"),
            "(done done #f)");
  I.trace().stop();
  std::vector<uint64_t> CancelledTids;
  for (const Trace::Record &R : I.trace().snapshot())
    if (R.Kind == TraceEvent::NurseryCancel)
      CancelledTids.push_back(R.Payload[0]);
  ASSERT_EQ(CancelledTids.size(), 2u) << I.trace().toString();
  // The inner child has the higher tid (spawned later) but dies first.
  EXPECT_GT(CancelledTids[0], CancelledTids[1]);
}

TEST(Nursery, FailCancelsSiblingsImmediately) {
  Interp I;
  EXPECT_EQ(run(I, "(define sib #f)"
                   "(define t (spawn (lambda ()"
                   "  (nursery"
                   "   (set! sib (spawn (lambda ()"
                   "     (channel-recv (make-channel 0)))))"
                   "   (spawn (lambda () (nursery-fail 'boom)))"
                   "   (yield) (yield) (yield)))))"
                   "(scheduler-run)"
                   "(thread-state sib)"),
            "done");
}

TEST(Nursery, SpawnOutsideAnyScopeIsUnmanaged) {
  Interp I;
  EXPECT_EQ(run(I, "(define t (spawn (lambda () 'free)))"
                   "(scheduler-run)"
                   "(list (thread-join t) (vm-stat 'nursery-cancels))"),
            "(free 0)");
}

TEST(Nursery, CancellationTraceIsDeterministic) {
  // Two identical runs produce byte-identical traces: teardown is driven
  // by the scheduler's deterministic queues, never wall-clock time.
  auto Run = [](std::string &Dump) {
    Interp I;
    I.trace().start();
    ASSERT_TRUE(I.eval("(spawn (lambda ()"
                       "  (nursery"
                       "   (spawn (lambda () (channel-recv (make-channel 0))))"
                       "   (spawn (lambda () (thread-sleep! 500)))"
                       "   (spawn (lambda () (channel-recv (make-channel 0))))"
                       "   (yield))))"
                       "(scheduler-run)")
                    .Ok);
    I.trace().stop();
    Dump = I.trace().toString();
  };
  std::string A, B;
  Run(A);
  if (::testing::Test::HasFatalFailure())
    return;
  Run(B);
  if (::testing::Test::HasFatalFailure())
    return;
  EXPECT_EQ(A, B);
  EXPECT_NE(A.find("nursery-cancel"), std::string::npos) << A;
}
