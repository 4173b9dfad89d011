// Generation-tagged handles (src/support/HandleTable.h) and the records
// they let the system free: detached green threads (spawn-detached) and
// closed stream ports.  A freed slot is reused, most recently freed first,
// under a new generation; these tests pin down that no stale handle — held by Scheme
// code, a nursery list or a lazily cancelled reactor timer — ever reaches
// the slot's next occupant, that freed handles answer what the retired
// object answered (done / EOF / #f / closed), and that traces stay
// byte-identical run to run with slots being reused.
//
// Registered under the ctest label "sched".

#include "osc.h"
#include "support/HandleTable.h"

#include <gtest/gtest.h>

#include <string>

using namespace osc;

namespace {

std::string run(Interp &I, const std::string &Src) {
  return I.evalToString(Src);
}

/// The handle a slot's second occupant gets: generation 1, same index.
const std::string Gen1 = std::to_string(uint64_t{1} << 32);

struct Item {
  explicit Item(Handle H, int V = 0) : H(H), V(V) {}
  Handle H;
  int V;
};

} // namespace

// --- The table ---------------------------------------------------------------

TEST(HandleTable, GenerationZeroHandlesAreDenseIndices) {
  HandleTable<Item> T;
  EXPECT_EQ(T.emplace().H, 0u);
  EXPECT_EQ(T.emplace().H, 1u);
  EXPECT_EQ(T.emplace(7).H, 2u);
  EXPECT_EQ(T.get(2)->V, 7);
  EXPECT_EQ(T.get(3), nullptr);
  EXPECT_EQ(T.get(-1), nullptr);
  EXPECT_EQ(T.slotCount(), 3u);
}

TEST(HandleTable, FreedSlotsAreReusedMostRecentFirstUnderANewGeneration) {
  HandleTable<Item> T;
  for (int I = 0; I != 4; ++I)
    T.emplace(I);
  T.free(0);
  T.free(2);
  EXPECT_EQ(T.get(0), nullptr);
  EXPECT_EQ(T.get(2), nullptr);
  EXPECT_TRUE(T.stale(0));
  EXPECT_FALSE(T.stale(1));
  EXPECT_FALSE(T.stale(4)); // Never issued.
  Handle A = T.emplace(10).H, B = T.emplace(20).H, C = T.emplace(30).H;
  EXPECT_EQ(A, HandleTable<Item>::makeHandle(2, 1));
  EXPECT_EQ(B, HandleTable<Item>::makeHandle(0, 1));
  EXPECT_EQ(C, 4u); // Nothing free: a new slot.
  // The stale handle never reaches the slot's next occupant.
  EXPECT_EQ(T.get(0), nullptr);
  EXPECT_EQ(T.get(static_cast<int64_t>(B))->V, 20);
  EXPECT_EQ(T.slotCount(), 5u);
  int Sum = 0;
  T.forEach([&Sum](Item &It) { Sum += It.V; });
  EXPECT_EQ(Sum, 20 + 1 + 10 + 3 + 30);
  EXPECT_TRUE(T.anyOf([](Item &It) { return It.V == 3; }));
  EXPECT_FALSE(T.anyOf([](Item &It) { return It.V == 2; })); // Freed.
}

// --- Detached threads --------------------------------------------------------

TEST(Detached, RecordIsFreedWhenTheThreadFinishes) {
  Interp I;
  // The finished thread's slot is the only free one, so the next spawn
  // takes it under generation 1; the old handle reads as done.
  EXPECT_EQ(run(I, "(define t (spawn-detached (lambda () 1)))"
                   "(scheduler-run)"
                   "(define u (spawn (lambda () 2)))"
                   "(scheduler-run)"
                   "(list t u (thread-state t) (thread-join u))"),
            "(0 " + Gen1 + " done 2)");
  // A thousand sequential detached threads occupy one record.
  EXPECT_EQ(run(I, "(let loop ((n 1000))"
                   "  (if (> n 0)"
                   "      (begin (spawn-detached (lambda () n))"
                   "             (scheduler-run)"
                   "             (loop (- n 1)))))"
                   "(vm-stat 'thread-slot-peak)"),
            "2");
}

TEST(Detached, RecordIsFreedWhenANurseryCancelsIt) {
  Interp I;
  EXPECT_EQ(run(I, "(define ch (make-channel 0))"
                   "(define child #f)"
                   "(define before #f)"
                   "(spawn (lambda ()"
                   "  (nursery"
                   "    (set! child (spawn-detached (lambda () (channel-recv ch))))"
                   "    (yield)"
                   "    (set! before (thread-state child)))))"
                   "(scheduler-run)"
                   "(define next (spawn-detached (lambda () 'x)))"
                   "(list before (thread-state child) (%thread-cancel! child)"
                   "      (= next (+ child " + Gen1 + "))"
                   "      (vm-stat 'nursery-cancels))"),
            "(blocked done #f #t 1)");
}

TEST(Detached, JoiningADetachedThreadIsAClassifiedError) {
  for (const char *When : {"", "(scheduler-run)"}) {
    Interp I;
    auto R = I.eval(std::string("(define t (spawn-detached (lambda () 1)))") +
                    When + "(thread-join t)");
    ASSERT_FALSE(R.Ok);
    EXPECT_EQ(R.Kind, ErrorKind::Runtime) << R.Error;
    EXPECT_NE(R.Error.find("detached"), std::string::npos) << R.Error;
  }
  // Inside a run as well, and spawn's joinable threads are unchanged.
  Interp I;
  auto R = I.eval("(define t (spawn-detached (lambda () (yield) 1)))"
                  "(spawn (lambda () (thread-join t)))"
                  "(scheduler-run)");
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("detached"), std::string::npos) << R.Error;
  EXPECT_EQ(run(I, "(define j (spawn (lambda () 5)))"
                   "(scheduler-run)"
                   "(list (thread-join j) (thread-join j))"),
            "(5 5)");
}

TEST(Detached, FreedHandleReadsDoneAndUnknownIdsStillFail) {
  Interp I;
  EXPECT_EQ(run(I, "(define t (spawn-detached (lambda () 1)))"
                   "(define s0 (thread-state t))"
                   "(scheduler-run)"
                   "(list s0 (thread-state t) (%thread-cancel! t))"),
            "(ready done #f)");
  auto R = I.eval("(thread-state 99)");
  EXPECT_FALSE(R.Ok);
  R = I.eval("(%thread-cancel! (+ 99 " + Gen1 + "))");
  EXPECT_FALSE(R.Ok);
}

TEST(Detached, StaleTimerNeverFiresOnTheSlotsNextOccupant) {
  // t1 parks on a channel under a 30 ms with-deadline, which arms a
  // reactor Timer waiter (cancelled lazily), then wakes through the
  // channel and ends; t2 takes t1's slot and parks the same way — its own
  // first deadline park — under a 5 s deadline.  t1's stale timer expires
  // while t2 is parked.  Had it carried a bare slot index it would have
  // matched t2 (same slot, same park count) and fired t2's deadline early;
  // as a handle it is recognized as freed and dropped.  t2 gets 'b once
  // the sender's own 100 ms wait runs out.
  Interp I;
  EXPECT_EQ(run(I, "(define ch1 (make-channel 0))"
                   "(define ch2 (make-channel 0))"
                   "(define ch3 (make-channel 0))"
                   "(define r #f) (define t2 #f)"
                   "(define t1 (spawn-detached (lambda ()"
                   "  (with-deadline 30 (lambda () (channel-recv ch1))))))"
                   "(spawn (lambda ()"
                   "  (channel-send! ch1 'a)"
                   "  (yield)" // t1 finishes; its slot is free.
                   "  (set! t2 (spawn-detached (lambda ()"
                   "    (set! r (with-deadline 5000"
                   "              (lambda () (channel-recv ch2)))))))"
                   "  (with-deadline 100 (lambda () (channel-recv ch3)))"
                   "  (channel-send! ch2 'b)))"
                   "(scheduler-run)"
                   "(list (= t2 (+ t1 " + Gen1 + ")) r (vm-stat 'timeouts))"),
            "(#t b 1)");
}

// --- Freed ports -------------------------------------------------------------

TEST(FreedPort, AnswersEofFalseAndAnIdempotentClose) {
  Interp I;
  EXPECT_EQ(run(I, "(define p (open-pipe))"
                   "(define rd (car p)) (define wr (cdr p))"
                   "(io-write wr \"one\ntwo\")"
                   "(io-close wr)"
                   "(define l1 (io-read-line rd))"
                   // Closed with "two" still buffered: the record stays
                   // until that is read.
                   "(io-close rd)"
                   "(define l2 (io-read-line rd))"
                   "(define q (open-pipe))" // Reuses both freed slots.
                   "(define w #f)"
                   "(spawn (lambda () (set! w (io-write wr \"late\n\"))))"
                   "(scheduler-run)"
                   "(io-close wr) (io-close rd)"
                   "(list l1 l2 (eof-object? (io-read-line rd)) w"
                   "      (io-closed? wr) (io-closed? (car q))"
                   "      (= (car q) (+ rd " + Gen1 + "))"
                   "      (vm-stat 'port-slot-peak))"),
            "(\"one\" \"two\" #t #f #t #f #t 2)");
  // The stale writes and closes never reached q's ports.
  EXPECT_EQ(run(I, "(io-write (cdr q) \"fresh\n\")"
                   "(io-read-line (car q))"),
            "\"fresh\"");
  // The main computation still gets the closed-port error.
  auto R = I.eval("(io-write wr \"x\n\")");
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Kind, ErrorKind::Io);
  EXPECT_NE(R.Error.find("port is closed"), std::string::npos) << R.Error;
}

// --- Determinism -------------------------------------------------------------

TEST(HandleReuse, TraceIdenticalRunToRun) {
  // Detached threads, a nursery cancel and port churn, all reusing slots.
  const char *Body =
      "(trace-start!)"
      "(define ch (make-channel 0))"
      "(define (churn n)"
      "  (if (> n 0)"
      "      (let ((p (open-pipe)))"
      "        (spawn-detached (lambda ()"
      "          (io-write (cdr p) \"x\n\") (io-close (cdr p))))"
      "        (spawn-detached (lambda ()"
      "          (io-read-line (car p)) (io-read-line (car p))"
      "          (io-close (car p))))"
      "        (churn (- n 1)))))"
      "(spawn (lambda ()"
      "  (nursery"
      "    (spawn-detached (lambda () (channel-recv ch)))"
      "    (churn 8)"
      "    (yield))"
      "  (churn 8)))"
      "(scheduler-run)"
      "(trace-stop!)"
      "(list (vm-stat 'thread-slot-peak) (vm-stat 'port-slot-peak)"
      "      (trace-dump))";
  Interp A, B;
  auto RA = A.eval(Body);
  auto RB = B.eval(Body);
  ASSERT_TRUE(RA.Ok) << RA.Error;
  ASSERT_TRUE(RB.Ok) << RB.Error;
  std::string DA = A.valueToString(RA.Val), DB = B.valueToString(RB.Val);
  EXPECT_EQ(DA, DB);
  // Slots were reused: some event names a generation-1 handle.
  EXPECT_NE(DA.find("4294967"), std::string::npos) << DA;
  EXPECT_NE(DA.find("nursery-cancel"), std::string::npos);
}
