// Scheme-semantics tests for the expander + compiler + VM pipeline: special
// forms, closures, assignment conversion, varargs, derived forms, data
// primitives.  The control representation is exercised indirectly (every
// call runs on the segmented stack); dedicated continuation tests live in
// test_continuations.cpp / test_oneshot.cpp.

#include "osc.h"

#include <gtest/gtest.h>

using namespace osc;

namespace {

class VmSemantics : public ::testing::Test {
protected:
  std::string run(const std::string &Src) { return I.evalToString(Src); }
  Interp I;
};

} // namespace

TEST_F(VmSemantics, Literals) {
  EXPECT_EQ(run("42"), "42");
  EXPECT_EQ(run("-7"), "-7");
  EXPECT_EQ(run("#t"), "#t");
  EXPECT_EQ(run("#f"), "#f");
  EXPECT_EQ(run("'()"), "()");
  EXPECT_EQ(run("\"hi\\n\""), "\"hi\\n\"");
  EXPECT_EQ(run("#\\a"), "#\\a");
  EXPECT_EQ(run("#\\space"), "#\\space");
  EXPECT_EQ(run("3.5"), "3.5");
  EXPECT_EQ(run("'sym"), "sym");
  EXPECT_EQ(run("''x"), "(quote x)");
}

TEST_F(VmSemantics, QuoteStructures) {
  EXPECT_EQ(run("'(1 2 3)"), "(1 2 3)");
  EXPECT_EQ(run("'(1 . 2)"), "(1 . 2)");
  EXPECT_EQ(run("'(a (b c) d)"), "(a (b c) d)");
  EXPECT_EQ(run("'#(1 2 3)"), "#(1 2 3)");
}

TEST_F(VmSemantics, IfAndTruthiness) {
  EXPECT_EQ(run("(if #t 1 2)"), "1");
  EXPECT_EQ(run("(if #f 1 2)"), "2");
  EXPECT_EQ(run("(if 0 'yes 'no)"), "yes");    // 0 is true in Scheme
  EXPECT_EQ(run("(if '() 'yes 'no)"), "yes");  // so is ()
  EXPECT_EQ(run("(if (> 3 2) 'a 'b)"), "a");
}

TEST_F(VmSemantics, LambdaAndClosures) {
  EXPECT_EQ(run("((lambda (x y) (+ x y)) 3 4)"), "7");
  EXPECT_EQ(run("(define (adder n) (lambda (x) (+ x n))) ((adder 10) 5)"),
            "15");
  EXPECT_EQ(run("(define (compose f g) (lambda (x) (f (g x))))"
                "(define (inc x) (+ x 1))"
                "(define (dbl x) (* x 2))"
                "((compose inc dbl) 5)"),
            "11");
  // Capture through two lambda levels.
  EXPECT_EQ(run("(define (f a) (lambda (b) (lambda (c) (+ a (+ b c)))))"
                "(((f 1) 2) 3)"),
            "6");
}

TEST_F(VmSemantics, VarargsAndApply) {
  EXPECT_EQ(run("((lambda args args) 1 2 3)"), "(1 2 3)");
  EXPECT_EQ(run("((lambda (a . rest) (cons a rest)) 1 2 3)"), "(1 2 3)");
  EXPECT_EQ(run("((lambda (a b . r) r) 1 2)"), "()");
  EXPECT_EQ(run("(apply + '(1 2 3))"), "6");
  EXPECT_EQ(run("(apply + 1 2 '(3 4))"), "10");
  EXPECT_EQ(run("(apply list 1 '(2 3))"), "(1 2 3)");
  EXPECT_EQ(run("(apply apply (list + (list 1 2)))"), "3");
}

TEST_F(VmSemantics, SetAndBoxing) {
  EXPECT_EQ(run("(define x 1) (set! x 5) x"), "5");
  // Assigned local captured by a closure: shared cell semantics.
  EXPECT_EQ(run("(define (counter)"
                "  (let ((n 0))"
                "    (lambda () (set! n (+ n 1)) n)))"
                "(define c (counter))"
                "(c) (c) (c)"),
            "3");
  // Two closures over the same cell.
  EXPECT_EQ(run("(define (make)"
                "  (let ((n 0))"
                "    (cons (lambda () (set! n (+ n 1)) n)"
                "          (lambda () n))))"
                "(define p (make))"
                "((car p)) ((car p))"
                "((cdr p))"),
            "2");
}

TEST_F(VmSemantics, LetForms) {
  EXPECT_EQ(run("(let ((x 2) (y 3)) (* x y))"), "6");
  EXPECT_EQ(run("(let ((x 2)) (let ((x 3) (y x)) (+ x y)))"), "5");
  EXPECT_EQ(run("(let* ((x 2) (y (* x 3))) (+ x y))"), "8");
  EXPECT_EQ(run("(letrec ((even? (lambda (n) (if (zero? n) #t (odd? (- n 1)))))"
                "         (odd?  (lambda (n) (if (zero? n) #f (even? (- n 1))))))"
                "  (even? 100))"),
            "#t");
  EXPECT_EQ(run("(let loop ((i 0) (acc '()))"
                "  (if (= i 4) (reverse acc) (loop (+ i 1) (cons i acc))))"),
            "(0 1 2 3)");
  // Non-tail let followed by more computation (SetTop path).
  EXPECT_EQ(run("(+ (let ((a 1) (b 2)) (+ a b)) (let ((c 3)) c))"), "6");
}

TEST_F(VmSemantics, InternalDefines) {
  EXPECT_EQ(run("(define (f x)"
                "  (define y (* x 2))"
                "  (define (g z) (+ z y))"
                "  (g 1))"
                "(f 10)"),
            "21");
  // Mutually recursive internal defines.
  EXPECT_EQ(run("(define (f n)"
                "  (define (ev? n) (if (zero? n) #t (od? (- n 1))))"
                "  (define (od? n) (if (zero? n) #f (ev? (- n 1))))"
                "  (ev? n))"
                "(f 10)"),
            "#t");
}

TEST_F(VmSemantics, CondCaseAndOrWhenUnless) {
  EXPECT_EQ(run("(cond (#f 1) (#t 2) (else 3))"), "2");
  EXPECT_EQ(run("(cond (#f 1) (else 3))"), "3");
  EXPECT_EQ(run("(cond ((assv 2 '((1 . a) (2 . b))) => cdr) (else 'no))"),
            "b");
  EXPECT_EQ(run("(cond (42))"), "42");
  EXPECT_EQ(run("(case 3 ((1 2) 'small) ((3 4) 'medium) (else 'big))"),
            "medium");
  EXPECT_EQ(run("(case 9 ((1 2) 'small) ((3 4) 'medium) (else 'big))"),
            "big");
  EXPECT_EQ(run("(and)"), "#t");
  EXPECT_EQ(run("(and 1 2 3)"), "3");
  EXPECT_EQ(run("(and 1 #f 3)"), "#f");
  EXPECT_EQ(run("(or)"), "#f");
  EXPECT_EQ(run("(or #f 2 3)"), "2");
  EXPECT_EQ(run("(or #f #f)"), "#f");
  EXPECT_EQ(run("(when (> 2 1) 'a 'b)"), "b");
  EXPECT_EQ(run("(unless (> 2 1) 'a)"), "#<unspecified>");
}

TEST_F(VmSemantics, DoLoops) {
  EXPECT_EQ(run("(do ((i 0 (+ i 1)) (acc 0 (+ acc i))) ((= i 5) acc))"),
            "10");
  EXPECT_EQ(run("(do ((v (make-vector 3)) (i 0 (+ i 1)))"
                "    ((= i 3) v)"
                "  (vector-set! v i (* i i)))"),
            "#(0 1 4)");
}

TEST_F(VmSemantics, Quasiquote) {
  EXPECT_EQ(run("`(1 2 3)"), "(1 2 3)");
  EXPECT_EQ(run("`(1 ,(+ 1 1) 3)"), "(1 2 3)");
  EXPECT_EQ(run("`(1 ,@(list 2 3) 4)"), "(1 2 3 4)");
  EXPECT_EQ(run("(let ((x 5)) `(a ,x))"), "(a 5)");
  EXPECT_EQ(run("`#(1 ,(+ 1 1))"), "#(1 2)");
}

TEST_F(VmSemantics, NumericTower) {
  EXPECT_EQ(run("(quotient 17 5)"), "3");
  EXPECT_EQ(run("(remainder 17 5)"), "2");
  EXPECT_EQ(run("(modulo -7 3)"), "2");
  EXPECT_EQ(run("(remainder -7 3)"), "-1");
  EXPECT_EQ(run("(abs -5)"), "5");
  EXPECT_EQ(run("(min 3 1 2)"), "1");
  EXPECT_EQ(run("(max 3 1 2)"), "3");
  EXPECT_EQ(run("(+ 1 2.5)"), "3.5");
  EXPECT_EQ(run("(< 1 2 3)"), "#t");
  EXPECT_EQ(run("(< 1 3 2)"), "#f");
  EXPECT_EQ(run("(= 2 2 2)"), "#t");
  EXPECT_EQ(run("(even? 4)"), "#t");
  EXPECT_EQ(run("(odd? 4)"), "#f");
  EXPECT_EQ(run("(- 5)"), "-5");
}

TEST_F(VmSemantics, ListLibrary) {
  EXPECT_EQ(run("(length '(a b c))"), "3");
  EXPECT_EQ(run("(append '(1 2) '(3) '() '(4 5))"), "(1 2 3 4 5)");
  EXPECT_EQ(run("(reverse '(1 2 3))"), "(3 2 1)");
  EXPECT_EQ(run("(list-tail '(a b c d) 2)"), "(c d)");
  EXPECT_EQ(run("(list-ref '(a b c d) 2)"), "c");
  EXPECT_EQ(run("(memq 'c '(a b c d))"), "(c d)");
  EXPECT_EQ(run("(memv 2 '(1 2 3))"), "(2 3)");
  EXPECT_EQ(run("(member '(1) '((0) (1) (2)))"), "((1) (2))");
  EXPECT_EQ(run("(assq 'b '((a 1) (b 2)))"), "(b 2)");
  EXPECT_EQ(run("(assoc '(x) '(((x) . 1)))"), "((x) . 1)");
  EXPECT_EQ(run("(map (lambda (x) (* x x)) '(1 2 3))"), "(1 4 9)");
  EXPECT_EQ(run("(map + '(1 2 3) '(10 20 30))"), "(11 22 33)");
  EXPECT_EQ(run("(filter odd? '(1 2 3 4 5))"), "(1 3 5)");
  EXPECT_EQ(run("(fold-left + 0 '(1 2 3 4))"), "10");
  EXPECT_EQ(run("(fold-right cons '() '(1 2 3))"), "(1 2 3)");
  EXPECT_EQ(run("(iota 5)"), "(0 1 2 3 4)");
  EXPECT_EQ(run("(list? '(1 2))"), "#t");
  EXPECT_EQ(run("(list? '(1 . 2))"), "#f");
}

TEST_F(VmSemantics, EqualityPredicates) {
  EXPECT_EQ(run("(eq? 'a 'a)"), "#t");
  EXPECT_EQ(run("(eq? '(a) '(a))"), "#f");
  EXPECT_EQ(run("(eqv? 1.5 1.5)"), "#t");
  EXPECT_EQ(run("(equal? '(1 (2 3)) '(1 (2 3)))"), "#t");
  EXPECT_EQ(run("(equal? \"ab\" \"ab\")"), "#t");
  EXPECT_EQ(run("(equal? #(1 2) #(1 2))"), "#t");
  EXPECT_EQ(run("(equal? #(1 2) #(1 3))"), "#f");
}

TEST_F(VmSemantics, EqualWalksDeepDataWithoutRecursing) {
  // equal? keeps what it still owes on a stack of its own, so data nested
  // 300,000 deep, in cars or in vector elements, is a loop rather than
  // 300,000 C frames (a recursive equal? overflowed an 8 MB stack at
  // 200,000).
  run("(define (nest wrap n leaf)"
      "  (let loop ((i 0) (acc leaf))"
      "    (if (= i n) acc (loop (+ i 1) (wrap acc)))))"
      "(define (vec2 x) (vector x 'v))"
      "(define list-a (nest list 300000 1))"
      "(define list-b (nest list 300000 1))"
      "(define list-c (nest list 300000 2))"
      "(define vec-a (nest vec2 300000 'x))"
      "(define vec-b (nest vec2 300000 'x))"
      "(define vec-c (nest vec2 300000 'y))");
  EXPECT_EQ(run("(equal? list-a list-b)"), "#t");
  EXPECT_EQ(run("(equal? list-a list-c)"), "#f"); // unequal at the bottom
  EXPECT_EQ(run("(equal? vec-a vec-b)"), "#t");
  EXPECT_EQ(run("(equal? vec-a vec-c)"), "#f");
  // member and assoc compare with equal? too.
  EXPECT_EQ(run("(pair? (member list-b (list 0 list-a)))"), "#t");
  EXPECT_EQ(run("(assoc list-c (list (cons list-a 'a)))"), "#f");
  EXPECT_EQ(run("(cdr (assoc vec-b (list (cons 1 'n) (cons vec-a 'v))))"),
            "v");
  // Long spines, mixed nesting, and where lengths part.
  EXPECT_EQ(run("(equal? (iota 100000) (iota 100000))"), "#t");
  EXPECT_EQ(run("(equal? '(1 #(2 (3 \"x\")) 4) '(1 #(2 (3 \"x\")) 4))"),
            "#t");
  EXPECT_EQ(run("(equal? '(1 #(2 (3 \"x\")) 4) '(1 #(2 (3 \"y\")) 4))"),
            "#f");
  EXPECT_EQ(run("(equal? '((1) 2) '((1) 2 3))"), "#f");
  EXPECT_EQ(run("(equal? #(1 #(2)) #(1 #(2) 3))"), "#f");
  EXPECT_EQ(run("(equal? #(#() ()) #(#() ()))"), "#t");
}

TEST_F(VmSemantics, NumberToStringAgreesWithWrite) {
  // Fixnums are formatted without the printer; the digits must be the
  // ones write prints, up to both ends of the 63-bit range.
  for (const char *N : {"0", "-1", "7", "-42", "1000000007",
                        "4611686018427387903", "-4611686018427387904"}) {
    std::string Written = run(N);
    EXPECT_EQ(Written, N);
    EXPECT_EQ(run(std::string("(number->string ") + N + ")"),
              "\"" + Written + "\"");
  }
  EXPECT_EQ(run("(number->string (* -3 1000000007))"), "\"-3000000021\"");
  EXPECT_EQ(run("(number->string 1.5)"), "\"1.5\"");
  EXPECT_EQ(run("(string->number (number->string -4611686018427387904))"),
            "-4611686018427387904");
}

TEST_F(VmSemantics, VectorsAndStrings) {
  EXPECT_EQ(run("(vector-length (make-vector 4 'x))"), "4");
  EXPECT_EQ(run("(vector-ref (vector 'a 'b 'c) 1)"), "b");
  EXPECT_EQ(run("(let ((v (make-vector 2 0))) (vector-set! v 1 9) v)"),
            "#(0 9)");
  EXPECT_EQ(run("(vector->list #(1 2 3))"), "(1 2 3)");
  EXPECT_EQ(run("(list->vector '(1 2))"), "#(1 2)");
  EXPECT_EQ(run("(string-length \"hello\")"), "5");
  EXPECT_EQ(run("(string-append \"foo\" \"bar\")"), "\"foobar\"");
  EXPECT_EQ(run("(substring \"hello\" 1 3)"), "\"el\"");
  EXPECT_EQ(run("(string=? \"a\" \"a\" \"a\")"), "#t");
  EXPECT_EQ(run("(string->symbol \"abc\")"), "abc");
  EXPECT_EQ(run("(symbol->string 'abc)"), "\"abc\"");
  EXPECT_EQ(run("(string->number \"42\")"), "42");
  EXPECT_EQ(run("(string->number \"nope\")"), "#f");
  EXPECT_EQ(run("(number->string 42)"), "\"42\"");
  EXPECT_EQ(run("(char->integer #\\A)"), "65");
  EXPECT_EQ(run("(integer->char 97)"), "#\\a");
}

TEST_F(VmSemantics, HigherOrderPrimitivesAreFirstClass) {
  // Open-coded at call sites, but also real procedures.
  EXPECT_EQ(run("(map car '((1 2) (3 4)))"), "(1 3)");
  EXPECT_EQ(run("(map + '(1 2) '(3 4))"), "(4 6)");
  EXPECT_EQ(run("(let ((f cons)) (f 1 2))"), "(1 . 2)");
}

TEST_F(VmSemantics, ShadowingPrimitivesLexically) {
  // A lexical binding of a primitive name must win over open-coding.
  EXPECT_EQ(run("(let ((+ -)) (+ 10 4))"), "6");
  EXPECT_EQ(run("(let ((car cdr)) (car '(1 2 3)))"), "(2 3)");
}

TEST_F(VmSemantics, Errors) {
  EXPECT_EQ(run("(car 5)"), "error: car: not a pair: 5");
  EXPECT_EQ(run("(undefined-fn 1)"), "error: unbound variable: undefined-fn");
  EXPECT_EQ(run("(error \"boom\" 1 2)"), "error: error: boom 1 2");
  EXPECT_EQ(run("((lambda (x) x))"),
            "error: wrong number of arguments (0) to #<procedure>");
  EXPECT_EQ(run("(vector-ref (vector 1) 5)"),
            "error: vector-ref: index out of range");
  EXPECT_EQ(run("(set! nope 3)"), "error: set! of unbound variable: nope");
  EXPECT_EQ(run("(1 2 3)"), "error: attempt to apply non-procedure 1");
}

TEST_F(VmSemantics, TailPositionsDontGrowTheStack) {
  // Mutual recursion through and/or/cond/when in tail position.
  EXPECT_EQ(run("(define (f n) (if (zero? n) 'done (g (- n 1))))"
                "(define (g n) (f n))"
                "(f 300000)"),
            "done");
  EXPECT_EQ(run("(define (f n) (cond ((zero? n) 'done) (else (f (- n 1)))))"
                "(f 300000)"),
            "done");
  EXPECT_EQ(run("(define (f n) (and (> n -1) (or (zero? n) (f (- n 1)))))"
                "(f 300000)"),
            "#t");
}

TEST_F(VmSemantics, MultipleValues) {
  EXPECT_EQ(run("(call-with-values (lambda () (values 1 2)) +)"), "3");
  EXPECT_EQ(run("(call-with-values (lambda () (values)) (lambda () 'none))"),
            "none");
  EXPECT_EQ(run("(call-with-values (lambda () 42) (lambda (x) (* x 2)))"),
            "84");
  EXPECT_EQ(run("(call-with-values (lambda () (values 1 2 3)) list)"),
            "(1 2 3)");
  // values in non-tail position: single-value continuation takes the first.
  EXPECT_EQ(run("(+ 1 (values 5))"), "6");
  // Nested call-with-values.
  EXPECT_EQ(run("(call-with-values"
                "  (lambda () (call-with-values (lambda () (values 1 2))"
                "                               (lambda (a b) (values b a))))"
                "  list)"),
            "(2 1)");
}

TEST_F(VmSemantics, GcSurvivesWorkload) {
  // Allocate enough to force several collections and verify structure
  // integrity afterwards.
  EXPECT_EQ(run("(define (build n) "
                "  (let loop ((i 0) (acc '()))"
                "    (if (= i n) acc (loop (+ i 1) (cons (list i i) acc)))))"
                "(define big (build 50000))"
                "(gc)"
                "(length big)"),
            "50000");
  EXPECT_GT(I.stats().GcCount, 0u);
  EXPECT_EQ(run("(car (car big))"), "49999");
}
