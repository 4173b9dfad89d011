// Failure-injection suite: every runtime error path must produce a clear
// diagnostic, abort only the current evaluation, and leave the machine —
// including the control stack — in a usable state.

#include "osc.h"
#include "support/Diag.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

using namespace osc;

namespace {

class ErrorsTest : public ::testing::Test {
protected:
  std::string run(const std::string &Src) { return I.evalToString(Src); }
  Interp I;
};

} // namespace

TEST_F(ErrorsTest, TypeErrors) {
  EXPECT_EQ(run("(car 1)"), "error: car: not a pair: 1");
  EXPECT_EQ(run("(cdr #t)"), "error: cdr: not a pair: #t");
  EXPECT_EQ(run("(+ 1 'a)"), "error: add: not a number: a");
  EXPECT_EQ(run("(< 1 \"x\")"), "error: num<: not a number: \"x\"");
  EXPECT_EQ(run("(vector-ref '(1) 0)"), "error: vector-ref: bad arguments");
  EXPECT_EQ(run("(string-length 5)"), "error: string-length: not a string");
  EXPECT_EQ(run("(length '(1 . 2))"),
            "error: length: not a proper list: (1 . 2)");
  EXPECT_EQ(run("(zero? 'x)"), "error: zero?: not a number: x");
}

TEST_F(ErrorsTest, ArityErrors) {
  EXPECT_EQ(run("((lambda (a b) a) 1)"),
            "error: wrong number of arguments (1) to #<procedure>");
  EXPECT_EQ(run("((lambda (a) a) 1 2)"),
            "error: wrong number of arguments (2) to #<procedure>");
  EXPECT_EQ(run("(cons 1)"),
            "error: wrong number of arguments (1) to #<native cons>");
  EXPECT_EQ(run("(apply +)"),
            "error: wrong number of arguments (1) to #<native apply>");
  EXPECT_EQ(run("(%call/cc)"),
            "error: wrong number of arguments (0) to #<native %call/cc>");
  EXPECT_EQ(run("(%call/1cc (lambda (k) k) 'extra)"),
            "error: wrong number of arguments (2) to #<native %call/1cc>");
}

TEST_F(ErrorsTest, ApplyNonProcedure) {
  EXPECT_EQ(run("(5 6)"), "error: attempt to apply non-procedure 5");
  EXPECT_EQ(run("('sym)"), "error: attempt to apply non-procedure sym");
  EXPECT_EQ(run("(apply 7 '(1))"),
            "error: attempt to apply non-procedure 7");
  EXPECT_EQ(run("(\"str\" 1)"),
            "error: attempt to apply non-procedure \"str\"");
}

TEST_F(ErrorsTest, ApplyImproperList) {
  EXPECT_EQ(run("(apply + '(1 . 2))"),
            "error: apply: last argument is not a proper list");
  EXPECT_EQ(run("(apply + 1 2)"),
            "error: apply: last argument is not a proper list");
}

TEST_F(ErrorsTest, UnboundVariables) {
  EXPECT_EQ(run("nope"), "error: unbound variable: nope");
  EXPECT_EQ(run("(set! nope 1)"), "error: set! of unbound variable: nope");
  // Using a letrec variable before initialization is caught because the
  // reference reads the undefined marker through the cell... which flows
  // into the operator position.
  EXPECT_EQ(run("(letrec ((f (g)) (g (lambda () 1))) f)"),
            "error: attempt to apply non-procedure #<undefined>");
}

TEST_F(ErrorsTest, DivisionErrors) {
  EXPECT_EQ(run("(quotient 1 0)"), "error: quotient: division by zero");
  EXPECT_EQ(run("(remainder 1 0)"), "error: remainder: division by zero");
  EXPECT_EQ(run("(modulo 1 0)"), "error: modulo: division by zero");
}

TEST_F(ErrorsTest, UserErrorsWithIrritants) {
  EXPECT_EQ(run("(error \"bad thing\")"), "error: error: bad thing");
  EXPECT_EQ(run("(error 'who \"msg\" 1 '(2))"),
            "error: error: who \"msg\" 1 (2)");
}

TEST_F(ErrorsTest, ShotContinuationErrors) {
  EXPECT_EQ(run("(define k #f)"
                "(car (list (call/1cc (lambda (c) (set! k c) (c 1)))))"
                "(k 2)"),
            "error: one-shot continuation invoked a second time");
  // Implicit re-invocation via underflow is also caught.
  EXPECT_EQ(run("(define k2 #f)"
                "(define once #f)"
                "(define (grab) (car (list (%call/1cc (lambda (c)"
                "  (set! k2 c) 'first)))))"
                "(grab)"
                "(if once 'done (begin (set! once #t) (k2 'second)))"),
            "error: one-shot continuation invoked a second time");
}

TEST_F(ErrorsTest, MachineUsableAfterEveryError) {
  const char *Errors[] = {
      "(car 1)",
      "(undefined-thing)",
      "((lambda (x) x))",
      "(vector-ref (vector) 2)",
      "(error \"synthetic\")",
  };
  for (const char *E : Errors) {
    EXPECT_NE(run(E).find("error:"), std::string::npos) << E;
    EXPECT_EQ(run("(+ 40 2)"), "42") << "after " << E;
    EXPECT_EQ(run("(call/1cc (lambda (k) (k 'alive)))"), "alive")
        << "after " << E;
  }
}

TEST_F(ErrorsTest, ErrorDeepInsideContinuationMachinery) {
  // Error raised in a thread body mid-scheduling.
  EXPECT_EQ(run("(define pending #f)"
                "(car (list (call/1cc (lambda (k)"
                "  (set! pending k)"
                "  (car 'boom)))))"),
            "error: car: not a pair: boom");
  // The aborted evaluation left a dormant continuation; invoking it later
  // still works (it resumes the *old* toplevel, which completes).
  EXPECT_EQ(run("(pending 'recovered)"), "recovered");
}

TEST_F(ErrorsTest, ErrorsUnderTinySegments) {
  Config C;
  C.SegmentWords = 96;
  C.InitialSegmentWords = 96;
  Interp Small(C);
  EXPECT_EQ(Small.evalToString("(define (deep n)"
                               "  (if (zero? n) (car 'x)"
                               "      (+ 1 (deep (- n 1)))))"
                               "(deep 500)"),
            "error: car: not a pair: x");
  EXPECT_EQ(Small.evalToString("(define (deep2 n)"
                               "  (if (zero? n) 0 (+ 1 (deep2 (- n 1)))))"
                               "(deep2 500)"),
            "500");
}

TEST_F(ErrorsTest, TimerErrors) {
  EXPECT_EQ(run("(%set-timer! 0 (lambda (k v) v))"),
            "error: %set-timer!: ticks must be a positive fixnum");
  EXPECT_EQ(run("(%set-timer! 'soon (lambda (k v) v))"),
            "error: %set-timer!: ticks must be a positive fixnum");
}

TEST_F(ErrorsTest, VmStatUnknownCounter) {
  EXPECT_EQ(run("(vm-stat 'no-such-counter)"),
            "error: vm-stat: unknown counter: no-such-counter");
  EXPECT_EQ(run("(vm-stat \"words\")"), "error: vm-stat: expects a symbol");
}

TEST_F(ErrorsTest, BacktraceNamesTheCallChain) {
  Interp::Result R = I.eval("(define (inner x) (car x))"
                            "(define (middle x) (+ 1 (inner x)))"
                            "(define (outer x) (+ 2 (middle x)))"
                            "(+ 3 (outer 5))");
  ASSERT_FALSE(R.Ok);
  ASSERT_GE(R.Backtrace.size(), 4u);
  // Innermost first: the failing native ran inside inner's frame context.
  std::string Joined;
  for (const std::string &Fr : R.Backtrace)
    Joined += Fr + " ";
  EXPECT_NE(Joined.find("inner"), std::string::npos) << Joined;
  EXPECT_NE(Joined.find("middle"), std::string::npos) << Joined;
  EXPECT_NE(Joined.find("outer"), std::string::npos) << Joined;
  EXPECT_NE(Joined.find("toplevel"), std::string::npos) << Joined;
}

TEST_F(ErrorsTest, BacktraceCrossesSegmentBoundaries) {
  // Under tiny segments the failing chain spans many segments; the walk
  // must hop through the continuation chain (§3.1 stack walking).
  Config C;
  C.SegmentWords = 96;
  C.InitialSegmentWords = 96;
  Interp Small(C);
  Interp::Result R =
      Small.eval("(define (deep n)"
                 "  (if (zero? n) (vector-ref (vector) 1)"
                 "      (+ 1 (deep (- n 1)))))"
                 "(deep 200)");
  ASSERT_FALSE(R.Ok);
  unsigned Deeps = 0;
  for (const std::string &Fr : R.Backtrace)
    if (Fr == "deep")
      ++Deeps;
  EXPECT_GE(Deeps, 10u) << "backtrace did not cross segment seals";
}

TEST_F(ErrorsTest, BacktraceEmptyOnSyntaxErrors) {
  Interp::Result R = I.eval("(if)");
  ASSERT_FALSE(R.Ok);
  EXPECT_TRUE(R.Backtrace.empty());
}

// --- Internal-invariant aborts -------------------------------------------------

namespace {

/// What the dying child wrote to its redirected stdout.
std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  return std::string(std::istreambuf_iterator<char>(In), {});
}

} // namespace

TEST(DiagDeathTest, FatalAndUnreachableFlushStdoutFirst) {
  // With stdout on a file it is block-buffered: what a program printed
  // before an invariant failed (a bench's tables) must survive the abort.
  std::string Fatal = ::testing::TempDir() + "osc_fatal_stdout.txt";
  std::string Unreach = ::testing::TempDir() + "osc_unreachable_stdout.txt";
  std::remove(Fatal.c_str());
  std::remove(Unreach.c_str());
  EXPECT_DEATH(
      {
        if (std::freopen(Fatal.c_str(), "w", stdout))
          std::printf("table printed before the failure\n");
        oscFatal("check failed");
      },
      "osc fatal error: check failed");
  EXPECT_NE(slurp(Fatal).find("table printed before the failure"),
            std::string::npos);
  EXPECT_DEATH(
      {
        if (std::freopen(Unreach.c_str(), "w", stdout))
          std::printf("table printed before the failure\n");
        oscUnreachable("bad case");
      },
      "osc unreachable executed: bad case");
  EXPECT_NE(slurp(Unreach).find("table printed before the failure"),
            std::string::npos);
  std::remove(Fatal.c_str());
  std::remove(Unreach.c_str());
}
