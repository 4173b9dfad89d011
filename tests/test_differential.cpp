// The differential semantics oracle: for one-shot-respecting programs,
// call/1cc and call/cc are interchangeable (Kobayashi–Kameyama; the
// paper's §2 contract — one-shot continuations exist purely as a
// representation optimization).  Every program here runs twice at every
// point of the shared config lattice: once as written, once with the
// prelude-level shim
//
//     (define %call/1cc %call/cc)
//
// which turns every call/1cc wrapper capture into a multi-shot capture at
// runtime (the wrapper reads the global late).  Success flag, return
// value, error text and all printed output must be byte-identical; only
// the performance counters may differ.
//
// Registered under the ctest label "oracle".

#include "ConfigLattice.h"
#include "osc.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

using namespace osc;
using osc_test::ConfigPoint;
using osc_test::configLattice;

namespace {

struct Observed {
  bool Ok = false;
  std::string Val; ///< write-form of the result (empty on error).
  std::string Err;
  std::string Out; ///< Everything display/write/newline printed.
};

bool operator==(const Observed &A, const Observed &B) {
  return A.Ok == B.Ok && A.Val == B.Val && A.Err == B.Err && A.Out == B.Out;
}

std::ostream &operator<<(std::ostream &OS, const Observed &O) {
  return OS << "{ok=" << O.Ok << " val=" << O.Val << " err=" << O.Err
            << " out=" << O.Out << "}";
}

Observed runOnce(const Config &C, const std::string &Source, bool Shimmed) {
  Interp I(C);
  I.captureOutput(true);
  if (Shimmed) {
    auto S = I.eval("(define %call/1cc %call/cc)");
    EXPECT_TRUE(S.Ok) << S.Error;
  }
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

// One-shot-respecting control-heavy programs: every captured call/1cc
// continuation is invoked at most once.  (call/cc continuations may be
// re-invoked freely — the shim only widens call/1cc.)
const Program Programs[] = {
    {"escape-value", "(call/1cc (lambda (k) (+ 1 (k 41) 1000)))"},
    {"unused-k", "(call/1cc (lambda (k) 42))"},
    {"escape-through-frames",
     "(+ 1 (* 2 (call/1cc (lambda (k) (- (k 20) 999)))))"},
    {"early-exit-search",
     "(define (find pred)"
     "  (call/1cc (lambda (return)"
     "    (let loop ((i 0))"
     "      (if (> i 500) 'none"
     "          (begin (if (pred i) (return i) #f) (loop (+ i 1))))))))"
     "(list (find (lambda (i) (= (* i i) 144)))"
     "      (find (lambda (i) (> i 1000))))"},
    {"product-short-circuit",
     "(define (product l)"
     "  (call/1cc (lambda (exit)"
     "    (let loop ((l l) (acc 1))"
     "      (cond ((null? l) acc)"
     "            ((zero? (car l)) (exit 0))"
     "            (else (loop (cdr l) (* acc (car l)))))))))"
     "(list (product '(1 2 3 4)) (product '(1 2 0 4)))"},
    {"deep-escape",
     "(define (deep n exit)"
     "  (if (zero? n) (exit 'bottom) (+ 1 (deep (- n 1) exit))))"
     "(call/1cc (lambda (k) (deep 300 k)))"},
    {"escape-prints",
     "(display \"before \")"
     "(call/1cc (lambda (k) (display \"inside \") (k 'x) "
     "                      (display \"unreached\")))"
     "(display \"after\")"
     "(newline)"},
    {"coroutine-pair",
     "(define producer-k #f) (define consumer-k #f) (define out '())"
     "(define (yield v)"
     "  (call/1cc (lambda (k) (set! producer-k k) (consumer-k v))))"
     "(define (producer) (yield 1) (yield 2) (yield 3) (consumer-k 'eos))"
     "(define (next)"
     "  (call/1cc (lambda (k)"
     "    (set! consumer-k k)"
     "    (if producer-k (producer-k #f) (producer)))))"
     "(let loop ()"
     "  (let ((v (next)))"
     "    (if (eq? v 'eos) (reverse out)"
     "        (begin (set! out (cons v out)) (loop)))))"},
    {"samefringe-mini",
     "(define (make-gen tree)"
     "  (define caller #f) (define resume #f)"
     "  (define (yield v)"
     "    (call/1cc (lambda (k) (set! resume k) (caller v))))"
     "  (define (walk t)"
     "    (cond ((pair? t) (walk (car t)) (walk (cdr t)))"
     "          ((null? t) #f)"
     "          (else (yield t))))"
     "  (lambda ()"
     "    (call/1cc (lambda (back)"
     "      (set! caller back)"
     "      (if resume (resume #f)"
     "          (begin (walk tree) (caller 'done)))))))"
     "(define (same? t1 t2)"
     "  (let ((g1 (make-gen t1)) (g2 (make-gen t2)))"
     "    (let loop ()"
     "      (let ((a (g1)) (b (g2)))"
     "        (cond ((and (eq? a 'done) (eq? b 'done)) #t)"
     "              ((or (eq? a 'done) (eq? b 'done)) #f)"
     "              ((eqv? a b) (loop))"
     "              (else #f))))))"
     "(list (same? '((1 2) (3 4)) '(1 (2 3 (4))))"
     "      (same? '(1 2 3) '(1 2 4)))"},
    {"generator-restart",
     "(define resume #f)"
     "(define (gen consume)"
     "  (for-each (lambda (x)"
     "              (set! consume (call/1cc (lambda (r)"
     "                                        (set! resume r)"
     "                                        (consume x)))))"
     "            '(a b c))"
     "  (consume 'done))"
     "(define (next)"
     "  (call/1cc (lambda (k) (if resume (resume k) (gen k)))))"
     "(list (next) (next) (next) (next))"},
    {"wind-escape-order",
     "(define log '())"
     "(define (note x) (set! log (cons x log)))"
     "(call/1cc (lambda (k)"
     "  (dynamic-wind (lambda () (note 'in))"
     "                (lambda () (note 'body) (k 'jumped))"
     "                (lambda () (note 'out)))))"
     "(reverse log)"},
    {"wind-nested-escape",
     "(define log '())"
     "(define (note x) (set! log (cons x log)))"
     "(call/1cc (lambda (k)"
     "  (dynamic-wind (lambda () (note 'o-in))"
     "                (lambda ()"
     "                  (dynamic-wind (lambda () (note 'i-in))"
     "                                (lambda () (k 'deep))"
     "                                (lambda () (note 'i-out))))"
     "                (lambda () (note 'o-out)))))"
     "(reverse log)"},
    {"wind-normal-through-1cc",
     "(define log '())"
     "(dynamic-wind"
     "  (lambda () (set! log (cons 'in log)))"
     "  (lambda () (call/1cc (lambda (k) (k 5))))"
     "  (lambda () (set! log (cons 'out log))))"
     "(reverse log)"},
    {"engine-complete",
     "(define e (make-engine (lambda () (+ 40 2))))"
     "(e 1000 (lambda (left result) (list 'done result (> left 0)))"
     "        (lambda (e2) 'expired))"},
    {"engine-expire-resume",
     "(define (fib n)"
     "  (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))"
     "(define expirations 0)"
     "(define (drive eng)"
     "  (eng 100"
     "       (lambda (left r) r)"
     "       (lambda (e2)"
     "         (set! expirations (+ expirations 1))"
     "         (drive e2))))"
     "(list (drive (make-engine (lambda () (fib 13)))) (> expirations 2))"},
    {"nested-loop-exit",
     "(call/1cc (lambda (break)"
     "  (let outer ((i 0))"
     "    (if (= i 20) 'exhausted"
     "        (begin"
     "          (let inner ((j 0))"
     "            (if (= j 20) #f"
     "                (begin (if (= (* i j) 56) (break (list i j)) #f)"
     "                       (inner (+ j 1)))))"
     "          (outer (+ i 1)))))))"},
    {"tree-find-leaf",
     "(define (find-leaf pred tree)"
     "  (call/1cc (lambda (found)"
     "    (let walk ((t tree))"
     "      (cond ((pair? t) (walk (car t)) (walk (cdr t)))"
     "            ((null? t) #f)"
     "            ((pred t) (found t))"
     "            (else #f)))"
     "    'none)))"
     "(list (find-leaf even? '(1 (3 (5 8)) 9))"
     "      (find-leaf (lambda (x) (> x 100)) '(1 (3 (5 8)) 9)))"},
    {"mixed-with-multishot-amb",
     "(define %fail #f)"
     "(define (amb-list choices)"
     "  (call/cc (lambda (k)"
     "    (let ((prev %fail))"
     "      (let try ((cs choices))"
     "        (if (null? cs)"
     "            (begin (set! %fail prev) (%fail))"
     "            (begin"
     "              (call/cc (lambda (retry)"
     "                (set! %fail (lambda () (retry #f)))"
     "                (k (car cs))))"
     "              (try (cdr cs)))))))))"
     "(call/1cc (lambda (return)"
     "  (call/cc (lambda (top)"
     "    (set! %fail (lambda () (top 'none)))"
     "    (let ((x (amb-list '(1 2 3 4 5)))"
     "          (y (amb-list '(1 2 3 4 5))))"
     "      (if (and (= (+ x y) 7) (> x y)) (return (list x y))"
     "          (%fail)))))))"},
    {"escape-carries-values",
     "(call-with-values"
     "  (lambda () (call/1cc (lambda (k) (k (values 3 4)))))"
     "  list)"},
    {"deep-wind-stack",
     "(define log '())"
     "(define (note x) (set! log (cons x log)))"
     "(define (nest d k)"
     "  (if (zero? d) (k 'deepest)"
     "      (dynamic-wind (lambda () (note d))"
     "                    (lambda () (nest (- d 1) k))"
     "                    (lambda () (note (- d))))))"
     "(call/1cc (lambda (k) (nest 8 k)))"
     "(reverse log)"},
    {"fold-with-abort",
     "(define (sum-until-neg l)"
     "  (call/1cc (lambda (abort)"
     "    (let loop ((l l) (acc 0))"
     "      (cond ((null? l) acc)"
     "            ((< (car l) 0) (abort (- acc)))"
     "            (else (loop (cdr l) (+ acc (car l)))))))))"
     "(list (sum-until-neg '(1 2 3)) (sum-until-neg '(5 6 -1 100)))"},
    {"gc-churn-with-escapes",
     "(define (build n)"
     "  (call/1cc (lambda (done)"
     "    (let loop ((i 0) (acc '()))"
     "      (if (= i n) (done (length acc))"
     "          (loop (+ i 1) (cons (list i i) acc)))))))"
     "(list (build 500) (build 700))"},
    {"sched-threads-with-escapes",
     "(define (worker n)"
     "  (lambda ()"
     "    (call/1cc (lambda (exit)"
     "      (let loop ((i 0) (acc 0))"
     "        (if (> acc n) (exit acc)"
     "            (begin (yield) (loop (+ i 1) (+ acc i)))))))))"
     "(define t1 (spawn (worker 10)))"
     "(define t2 (spawn (worker 20)))"
     "(scheduler-run)"
     "(list (thread-join t1) (thread-join t2))"},
    {"channel-pingpong",
     "(define ch (make-channel 0))"
     "(define out '())"
     "(spawn (lambda ()"
     "         (channel-send! ch 'ping)"
     "         (set! out (cons (channel-recv ch) out))))"
     "(spawn (lambda ()"
     "         (set! out (cons (channel-recv ch) out))"
     "         (channel-send! ch 'pong)))"
     "(scheduler-run)"
     "(reverse out)"},
    {"preempted-threads",
     "(define (spin n) (if (zero? n) 'done (spin (- n 1))))"
     "(spawn (lambda () (spin 300)))"
     "(spawn (lambda () (spin 300)))"
     "(scheduler-run 25)"},
    {"io-pipe-escape",
     // A call/1cc escape captured before an I/O park and invoked after
     // the resume: the exit crosses a parked one-shot continuation.
     "(define p (open-pipe))"
     "(define rd (car p)) (define wr (cdr p))"
     "(define (read-until-stop)"
     "  (call/1cc (lambda (stop)"
     "    (let loop ((acc 0))"
     "      (let ((l (io-read-line rd)))"
     "        (cond ((eof-object? l) (stop (- acc)))"
     "              ((string=? l \"STOP\") (stop acc))"
     "              (else (loop (+ acc (string-length l))))))))))"
     "(define t (spawn read-until-stop))"
     "(spawn (lambda ()"
     "  (io-write wr \"abc\n\")"
     "  (io-write wr \"de\n\")"
     "  (io-write wr \"STOP\n\")"
     "  (io-close wr)))"
     "(scheduler-run)"
     "(thread-join t)"},
    {"channel-close-escape",
     "(define ch (make-channel 1))"
     "(define out '())"
     "(spawn (lambda ()"
     "  (call/1cc (lambda (done)"
     "    (let loop ()"
     "      (let ((v (channel-recv ch)))"
     "        (if (eof-object? v) (done 'fin)"
     "            (begin (set! out (cons v out)) (loop)))))))))"
     "(spawn (lambda ()"
     "  (channel-send! ch 1) (channel-send! ch 2) (channel-close! ch)))"
     "(scheduler-run)"
     "(reverse out)"},
    {"reentrant-multishot-alongside",
     // call/cc reentry stays legal beside 1cc escapes: the shim must not
     // change how many times the multi-shot part re-enters.
     "(define k #f) (define n 0)"
     "(define (deep d) (if (zero? d) (call/cc (lambda (c) (set! k c) 0))"
     "                     (+ 1 (deep (- d 1)))))"
     "(define r (call/1cc (lambda (exit) (deep 100))))"
     "(set! n (+ n 1))"
     "(if (< n 3) (k 0) (list r n))"},
    {"deadline-fires-on-blocked-recv",
     // with-deadline is itself a call/1cc wrapper, so the shim widens the
     // timeout escape to a multi-shot capture; the deadline is measured in
     // virtual poll ticks, so which side wins never depends on wall time.
     "(define ch (make-channel 0))"
     "(define t (spawn (lambda ()"
     "  (with-deadline 5 (lambda () (channel-recv ch))))))"
     "(scheduler-run)"
     "(timeout-object? (thread-join t))"},
    {"deadline-inside-wind",
     "(define log '())"
     "(define (note x) (set! log (cons x log)))"
     "(define ch (make-channel 0))"
     "(define t (spawn (lambda ()"
     "  (with-deadline 5 (lambda ()"
     "    (dynamic-wind (lambda () (note 'in))"
     "                  (lambda () (channel-recv ch))"
     "                  (lambda () (note 'out))))))))"
     "(scheduler-run)"
     "(list (timeout-object? (thread-join t)) (reverse log))"},
    {"deadline-vs-channel-close-race",
     // The closer runs before the recv's first poll tick can elapse, so
     // EOF must win the race against the (much longer) deadline — in both
     // the one-shot and the widened capture world.
     "(define ch (make-channel 0))"
     "(define out '())"
     "(define t (spawn (lambda ()"
     "  (let ((r (with-deadline 1000 (lambda () (channel-recv ch)))))"
     "    (set! out (list (timeout-object? r) (eof-object? r)))))))"
     "(spawn (lambda () (channel-close! ch)))"
     "(scheduler-run)"
     "out"},
    {"delim-nested-tagged-resets",
     // Tagged delimiters (src/control) alongside the call/1cc wrapper the
     // shim widens: tag selection and slice splicing must not depend on
     // how the surrounding one-shot escapes are represented.
     "(call/1cc (lambda (exit)"
     "  (list (reset 'a (+ 1 (reset 'b (+ 10 (shift 'a k (k 100))))))"
     "        (reset 'a (+ 1 (reset 'b (+ 10 (shift 'b k (k 100))))))"
     "        (reset 'p (+ 1 (reset 'p (+ 10 (shift 'p k 100))))))))"},
    {"delim-shift-under-wind",
     "(define log '())"
     "(define (note x) (set! log (cons x log)))"
     "(define r"
     "  (reset 'p"
     "    (dynamic-wind"
     "      (lambda () (note 'in))"
     "      (lambda () (+ 1 (shift 'p k (note 'recv) (k 10))))"
     "      (lambda () (note 'out)))))"
     "(list r (reverse log))"},
    {"delim-one-shot-reuse-error",
     // The second (k ...) must fail identically whether or not the shim
     // widened every call/1cc in the surrounding prelude machinery.
     "(display (reset 'p (+ 1 (shift 'p k (k 1))))) (newline)"
     "(reset 'p (+ 1 (shift 'p k (k (k 10)))))"},
    {"delim-escape-through-prompt",
     // A call/1cc escape (widened by the shim) jumping out of a live
     // reset extent: the stranded prompt record must be pruned the same
     // way in both worlds, so the later shift errors identically.
     "(display (call/1cc (lambda (out)"
     "  (reset 'p (+ 1 (out 'jumped))))))"
     "(newline)"
     "(shift 'p k 1)"},
    {"delim-generator-roundtrip",
     "(define g (make-generator"
     "  (lambda (v)"
     "    (let loop ((i 0) (acc v))"
     "      (if (= i 4) acc (loop (+ i 1) (+ acc (yield (* acc 2)))))))))"
     "(define out '())"
     "(let loop ((x (generator-next g 1)))"
     "  (if (eof-object? x) (reverse out)"
     "      (begin (set! out (cons x out))"
     "             (loop (generator-next g 1)))))"},
    {"delim-async-await-with-escape",
     // await parks through the same machinery with-deadline poisons; an
     // async pipeline inside a call/1cc extent must settle identically.
     "(call/1cc (lambda (done)"
     "  (let* ((f1 (async (+ 20 1)))"
     "         (f2 (async (* (await f1) 2))))"
     "    (scheduler-run)"
     "    (done (future-get f2)))))"},
    {"shed-under-load",
     // Admission control in miniature: arrivals past the cap are shed.
     // The shed path (serve-shed! + a refusal value) must be a pure
     // counter/trace effect — byte-identical output under the shim.
     "(define p (open-pipe))"
     "(define out '())"
     "(define (admit live) (if (>= live 3)"
     "                         (begin (serve-shed! (car p)) 'busy)"
     "                         'ok))"
     "(let loop ((i 0))"
     "  (if (< i 6)"
     "      (begin (set! out (cons (admit i) out)) (loop (+ i 1)))))"
     "(reverse out)"},
    // Effect handlers + nurseries on the same substrate: every perform's
    // cut/splice and every nursery teardown rides the one-shot machinery
    // the shim widens, so the whole handler surface must be observably
    // shim-invariant too.
    {"handler-resume-and-abort",
     "(list (with-handler 'io ((get k) (k 42)) (+ 1 (perform 'io 'get)))"
     "      (+ 1 (with-handler 't ((bail k v) v)"
     "             (+ 2 (perform 't 'bail 100)))))"},
    {"handler-state-cell",
     "(define cell 1)"
     "(with-handler 'st ((get k) (k cell))"
     "              ((put k v) (set! cell v) (k 'ok))"
     "  (perform 'st 'put (* (perform 'st 'get) 7))"
     "  (perform 'st 'get))"},
    {"handler-shallow-consumes",
     "(with-handler 'tag ((op k) (k 'deep))"
     "  (with-shallow-handler 'tag ((op k) (k 'shallow))"
     "    (list (perform 'tag 'op) (perform 'tag 'op))))"},
    {"handler-forwarding-unmatched-op",
     "(with-handler 'fx ((pong k) (k 'outer-pong))"
     "  (with-handler 'fx ((ping k) (k 'inner-ping))"
     "    (list (perform 'fx 'ping) (perform 'fx 'pong))))"},
    {"handler-winder-travel",
     "(define log '())"
     "(define (note x) (set! log (cons x log)))"
     "(define r (with-handler 'w ((get k) (note 'clause) (k 3))"
     "  (dynamic-wind (lambda () (note 'in))"
     "                (lambda () (+ 1 (perform 'w 'get)))"
     "                (lambda () (note 'out)))))"
     "(list r (reverse log))"},
    {"handler-escape-through-extent",
     // A call/1cc escape (widened by the shim) jumping out of a live
     // with-handler extent: the stranded handler record must be pruned
     // identically, so the later perform errors the same way.
     "(display (call/1cc (lambda (out)"
     "  (with-handler 'p ((op k) (k 1)) (out 'jumped)))))"
     "(newline)"
     "(perform 'p 'op)"},
    {"handler-one-shot-reuse-error",
     "(display (with-handler 'd ((op k) (k 1)) (perform 'd 'op)))"
     "(newline)"
     "(with-handler 'd ((op k) (k (k 1))) (perform 'd 'op))"},
    {"handler-parked-k-across-threads",
     // The clause parks k in a global; a different green thread resumes
     // it.  The slice lives in the heap, so it travels across the context
     // switch for free in the one-shot world — and must behave the same
     // when the shim makes every park a copying capture.
     "(define k* #f)"
     "(define out '())"
     "(spawn (lambda ()"
     "  (set! out (cons (with-handler 'p ((op k) (set! k* k) 'parked)"
     "                    (+ 1 (perform 'p 'op)))"
     "                  out))))"
     "(spawn (lambda () (set! out (cons (k* 10) out))))"
     "(scheduler-run)"
     "(reverse out)"},
    {"nursery-scope-teardown",
     "(define out '())"
     "(define (note x) (set! out (cons x out)))"
     "(define kids '())"
     "(spawn (lambda ()"
     "  (nursery"
     "   (set! kids (cons (spawn (lambda ()"
     "     (note 'c1) (channel-recv (make-channel 0)))) kids))"
     "   (set! kids (cons (spawn (lambda ()"
     "     (note 'c2) (thread-sleep! 500))) kids))"
     "   (yield)"
     "   (note 'end))))"
     "(scheduler-run)"
     "(list (reverse out) (map thread-join (reverse kids))"
     "      (vm-stat 'nursery-cancels))"},
    {"nursery-fail-cancels-siblings",
     "(define sib #f)"
     "(spawn (lambda ()"
     "  (nursery"
     "   (set! sib (spawn (lambda () (channel-recv (make-channel 0)))))"
     "   (spawn (lambda () (nursery-fail 'boom)))"
     "   (yield) (yield) (yield))))"
     "(scheduler-run)"
     "(list (thread-state sib) (thread-join sib))"},
    // The regex subsystem rides the same substrate: natives never park,
    // but streams are fed from parked threads, driven by generators, and
    // escaped out of via call/1cc — all shapes the shim must not perturb.
    {"regex-scan-with-escape",
     // call/1cc escape out of a match-scanning loop the moment the
     // running total crosses a threshold.
     "(define re (regex-compile \"[0-9]+\"))"
     "(define (first-long-run text)"
     "  (call/1cc (lambda (found)"
     "    (let loop ((at 0))"
     "      (let ((m (regex-search re (substring text at"
     "                                           (string-length text)))))"
     "        (if m"
     "            (let ((w (- (cdr m) (car m))))"
     "              (if (> w 2) (found (+ at (car m)))"
     "                  (loop (+ at (cdr m)))))"
     "            'none))))))"
     "(list (first-long-run \"a1 b22 c333 d4444\")"
     "      (first-long-run \"x1 y2\"))"},
    {"regex-try-compile-fallback",
     "(define (grep pat text)"
     "  (let ((re (regex-try-compile pat)))"
     "    (if re (regex-search re text) 'bad-pattern)))"
     "(list (grep \"a(b|c)+d\" \"zzacbcbd!\")"
     "      (grep \"a(b|cd\" \"whatever\")"
     "      (grep \"x{2,3}\" \"wxxxy\"))"},
    {"regex-stream-across-threads",
     // Producer thread channel-feeds chunks; consumer feeds the stream.
     // Every handoff parks both sides through the machinery the shim
     // turns into copying captures — the decision must not move.
     "(define re (regex-compile \"end\\\\.\"))"
     "(define ch (make-channel 0))"
     "(define st (regex-stream re))"
     "(define t (spawn (lambda ()"
     "  (let loop ((r #f))"
     "    (let ((c (channel-recv ch)))"
     "      (if (eof-object? c) (list r (regex-stream-offset st))"
     "          (loop (or r (regex-stream-feed! st c)))))))))"
     "(spawn (lambda ()"
     "  (for-each (lambda (c) (channel-send! ch c))"
     "            '(\"the e\" \"n\" \"d. trailer\"))"
     "  (channel-close! ch)))"
     "(scheduler-run)"
     "(thread-join t)"},
    {"regex-stream-generator",
     // The MATCH/STREAM shape in miniature: a generator feeds a stream
     // and yields each verdict; the driver pulls until decided.
     "(define re (regex-compile \"ab+c\"))"
     "(define g (make-generator"
     "  (lambda (chunks)"
     "    (let ((st (regex-stream re)))"
     "      (let loop ((cs chunks))"
     "        (if (null? cs) (regex-stream-end! st)"
     "            (let ((r (regex-stream-feed! st (car cs))))"
     "              (if r r (begin (yield 'again) (loop (cdr cs)))))))))))"
     "(let loop ((v (generator-next g '(\"xxa\" \"bb\" \"bcyy\")))"
     "           (acc '()))"
     "  (if (or (pair? v) (eof-object? v)) (cons v (reverse acc))"
     "      (loop (generator-next g #f) (cons v acc))))"},
    {"regex-under-handler",
     // The clause re-performs: each search result travels through a
     // cut/splice round trip before the body sees it.
     "(define re (regex-compile \"w[aeiou]rd\"))"
     "(with-handler 'grep ((scan k text) (k (regex-search re text)))"
     "  (list (perform 'grep 'scan \"a word here\")"
     "        (perform 'grep 'scan \"no luck\")"
     "        (perform 'grep 'scan \"wyrd?\")))"},
    {"regex-stream-one-shot-reuse-error",
     // A mid-stream suspension is a one-shot continuation; resuming it
     // completes the match across the chunk boundary, and a second
     // invoke of the spent resume must error identically in both worlds.
     "(define re (regex-compile \"zz\"))"
     "(define saved #f)"
     "(display (reset 'p"
     "  (let ((st (regex-stream re)))"
     "    (regex-stream-feed! st \"az\")"
     "    (shift 'p k (set! saved k) 'suspended)"
     "    (regex-stream-feed! st \"za\"))))"
     "(newline)"
     "(display (saved 'resume)) (newline)"
     "(saved 'resume)"},
};

class Differential
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(Differential, OneShotEqualsMultiShot) {
  auto [ProgIdx, CfgIdx] = GetParam();
  const Program &P = Programs[ProgIdx];
  std::vector<ConfigPoint> Lattice = configLattice();
  const ConfigPoint &CP = Lattice[CfgIdx];
  Observed Native = runOnce(CP.C, P.Source, /*Shimmed=*/false);
  Observed Shimmed = runOnce(CP.C, P.Source, /*Shimmed=*/true);
  EXPECT_EQ(Native, Shimmed)
      << "program " << P.Name << " under config " << CP.Name;
}

std::string diffName(
    const ::testing::TestParamInfo<std::tuple<size_t, size_t>> &Info) {
  auto [ProgIdx, CfgIdx] = Info.param;
  std::vector<ConfigPoint> Lattice = configLattice();
  std::string N =
      std::string(Programs[ProgIdx].Name) + "_" + Lattice[CfgIdx].Name;
  for (char &C : N)
    if (C == '-')
      C = '_';
  return N;
}

INSTANTIATE_TEST_SUITE_P(
    AllPrograms, Differential,
    ::testing::Combine(
        ::testing::Range<size_t>(0, std::size(Programs)),
        ::testing::Range<size_t>(0, configLattice().size())),
    diffName);

// --- The shipped example programs ---------------------------------------------

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

// The file name is a std::string, not a const char *: gtest prints a
// pointer parameter with its address, which ASLR changes on every run,
// and ctest bakes the printed parameter into each test's name.
class DifferentialExamples
    : public ::testing::TestWithParam<std::tuple<std::string, size_t>> {};

TEST_P(DifferentialExamples, OneShotEqualsMultiShot) {
  auto [File, CfgIdx] = GetParam();
  std::vector<ConfigPoint> Lattice = configLattice();
  const ConfigPoint &CP = Lattice[CfgIdx];
  std::string Source = readFile(std::string(OSC_EXAMPLES_DIR "/") + File);
  ASSERT_FALSE(Source.empty());
  Observed Native = runOnce(CP.C, Source, /*Shimmed=*/false);
  Observed Shimmed = runOnce(CP.C, Source, /*Shimmed=*/true);
  EXPECT_TRUE(Native.Ok) << File << ": " << Native.Err;
  EXPECT_EQ(Native, Shimmed) << File << " under config " << CP.Name;
}

const std::string ExampleFiles[] = {"samefringe.scm", "queens.scm",
                                    "fib-threads.scm", "chan-pipeline.scm"};

std::string exampleName(
    const ::testing::TestParamInfo<std::tuple<std::string, size_t>> &Info) {
  auto [File, CfgIdx] = Info.param;
  std::string N = File;
  N = N.substr(0, N.find('.'));
  N += "_" + std::string(configLattice()[CfgIdx].Name);
  for (char &C : N)
    if (C == '-' || C == '_')
      C = '_';
  return N;
}

INSTANTIATE_TEST_SUITE_P(
    AllExamples, DifferentialExamples,
    ::testing::Combine(::testing::ValuesIn(ExampleFiles),
                       ::testing::Range<size_t>(0, configLattice().size())),
    exampleName);

} // namespace
