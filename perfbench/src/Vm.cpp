//===----------------------------------------------------------------------===//
///
/// \file
/// The continuation workloads: one osc::Interp in-process, no network.
///
/// A pass runs every phase of the workload, each as its own eval, then an
/// explicit collect.  The first pass is discarded.  Phase results are
/// checked against values computed here in C++, and each phase's
/// capture / invoke / copy / overflow / splice counts must repeat exactly
/// from pass to pass.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdlib>

namespace pb {

namespace {

/// The workload programs.  Every phase is one call into these.
const char *OneShotSource = R"scheme(
(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))

;; Native green threads: spawn + scheduler-run preempting every `slice`
;; procedure calls.  Each switch is a one-shot capture and invoke.
(define (native-threads n fib-n slice)
  (let ((tids (map (lambda (i) (spawn (lambda () (fib fib-n)))) (iota n))))
    (scheduler-run slice)
    (fold-left + 0 (map thread-join tids))))

;; Generator yields and handler performs from `depth` frames below the
;; delimiter: one-shot delimited cut and splice.
(define (deep-yield n i)
  (if (zero? n) (yield i) (+ 1 (deep-yield (- n 1) i))))
(define (gen-sum depth count base)
  (let ((g (make-generator
            (lambda (v)
              (let loop ((i base)) (deep-yield depth i) (loop (+ i 1)))))))
    (let loop ((k 0) (acc 0))
      (if (= k count) acc (loop (+ k 1) (+ acc (generator-next g 0)))))))
(define (deep-perform n i)
  (if (zero? n) (perform 'pb 'tick i) (+ 1 (deep-perform (- n 1) i))))
(define (perform-sum depth count base)
  (with-handler 'pb ((tick k a) (k a))
    (let loop ((i 0) (acc 0))
      (if (= i count) acc
          (loop (+ i 1) (+ acc (deep-perform depth (+ base i))))))))

;; Deep non-tail recursion: every segment overflow is an implicit one-shot
;; capture with a small copy-up.
(define (deep n) (if (zero? n) 0 (+ 1 (deep (- n 1)))))
(define (deep-repeat reps n)
  (let loop ((r reps) (acc 0)) (if (zero? r) acc (loop (- r 1) (+ acc (deep n))))))

(define (tak-1cc x y z)
  (call/1cc
   (lambda (k)
     (k (if (not (< y x)) z
            (tak-1cc (tak-1cc (- x 1) y z) (tak-1cc (- y 1) z x)
                     (tak-1cc (- z 1) x y)))))))
)scheme";

/// The paper's thread system (Fig. 5), written once for both capture
/// operators: fib with a decrement-per-call fuel counter, switching every
/// `interval` calls through `capture`.
const char *ContThreadsSource = R"scheme(
(define %tq-front '())
(define %tq-back '())
(define (%tq-push! t) (set! %tq-back (cons t %tq-back)))
(define (%tq-empty?) (and (null? %tq-front) (null? %tq-back)))
(define (%tq-pop!)
  (when (null? %tq-front)
    (set! %tq-front (reverse %tq-back))
    (set! %tq-back '()))
  (let ((t (car %tq-front)))
    (set! %tq-front (cdr %tq-front))
    t))
(define %fuel 0)
(define %interval 0)
(define %sum 0)
(define %finish #f)
(define %capture #f)
(define (%run-next) (set! %fuel %interval) ((%tq-pop!)))
(define (%switch)
  (%capture (lambda (k) (%tq-push! (lambda () (k #f))) (%run-next))))
(define (%tfib n)
  (set! %fuel (- %fuel 1))
  (if (<= %fuel 0) (%switch) #f)
  (if (< n 2) n (+ (%tfib (- n 1)) (%tfib (- n 2)))))
(define (%tdone r)
  (set! %sum (+ %sum r))
  (if (%tq-empty?) (%finish %sum) (%run-next)))
(define (cont-threads capture n fib-n interval)
  (set! %capture capture)
  (set! %tq-front '())
  (set! %tq-back '())
  (set! %interval interval)
  (set! %sum 0)
  (capture
   (lambda (finish)
     (set! %finish finish)
     (let loop ((i 0))
       (if (< i n)
           (begin (%tq-push! (lambda () (%tdone (%tfib fib-n))))
                  (loop (+ i 1)))
           (%run-next))))))
)scheme";

const char *MultiShotSource = R"scheme(
(define (tak-cc x y z)
  (call/cc
   (lambda (k)
     (k (if (not (< y x)) z
            (tak-cc (tak-cc (- x 1) y z) (tak-cc (- y 1) z x)
                    (tak-cc (- z 1) x y)))))))

;; amb on multi-shot continuations, as in examples/scheme/queens.scm.
(define %fail #f)
(define (amb-list choices)
  (call/cc
   (lambda (k)
     (let ((prev %fail))
       (let try ((cs choices))
         (if (null? cs)
             (begin (set! %fail prev) (%fail))
             (begin
               (call/cc (lambda (retry)
                          (set! %fail (lambda () (retry #f)))
                          (k (car cs))))
               (try (cdr cs)))))))))
(define (require p) (if p #t (%fail)))
(define (range a b) (if (>= a b) '() (cons a (range (+ a 1) b))))
(define (safe? col placed)
  (let loop ((ps placed) (d 1))
    (cond ((null? ps) #t)
          ((= (car ps) col) #f)
          ((= (abs (- (car ps) col)) d) #f)
          (else (loop (cdr ps) (+ d 1))))))
(define (count-solutions n)
  (let ((count 0))
    (call/cc
     (lambda (done)
       (set! %fail (lambda () (done count)))
       (let place ((row 0) (placed '()))
         (if (= row n)
             (begin (set! count (+ count 1)) (%fail))
             (let ((col (amb-list (range 0 n))))
               (require (safe? col placed))
               (place (+ row 1) (cons col placed)))))))))
(define (amb-repeat reps n)
  (let loop ((r reps) (acc 0))
    (if (zero? r) acc (loop (- r 1) (+ acc (count-solutions n))))))

;; A one-shot early exit around a multi-shot search: the search's call/cc
;; captures promote the one-shot continuation below them.
(define (queens n)
  (call/1cc
   (lambda (return)
     (call/cc
      (lambda (top)
        (set! %fail (lambda () (top 'none)))
        (let place ((row 0) (placed '()))
          (if (= row n)
              (return (reverse placed))
              (let ((col (amb-list (range 0 n))))
                (require (safe? col placed))
                (place (+ row 1) (cons col placed))))))))))
(define (digits l) (fold-left (lambda (acc d) (+ (* acc 10) d)) 0 l))
(define (promote-repeat reps n salt)
  (let loop ((r reps) (acc 0))
    (if (zero? r) acc (loop (- r 1) (+ acc salt (digits (queens n)))))))
)scheme";

// --- Expected results, computed without the VM --------------------------------

int64_t fib(int N) {
  int64_t A = 0, B = 1;
  for (int K = 0; K != N; ++K) {
    int64_t T = A + B;
    A = B;
    B = T;
  }
  return A;
}

int64_t tak(int64_t X, int64_t Y, int64_t Z) {
  return Y < X ? tak(tak(X - 1, Y, Z), tak(Y - 1, Z, X), tak(Z - 1, X, Y)) : Z;
}

/// N-queens by the same search order the Scheme program uses: rows in
/// order, columns tried from 0 up.  Returns the solution count and the
/// first solution (row order).
void queens(int N, std::vector<int> &Placed, int64_t &Count,
            std::vector<int> &First) {
  if (static_cast<int>(Placed.size()) == N) {
    if (Count++ == 0)
      First = Placed;
    return;
  }
  for (int Col = 0; Col != N; ++Col) {
    bool Safe = true;
    int Row = static_cast<int>(Placed.size());
    for (int R = 0; R != Row && Safe; ++R)
      Safe = Placed[size_t(R)] != Col &&
             std::abs(Placed[size_t(R)] - Col) != Row - R;
    if (!Safe)
      continue;
    Placed.push_back(Col);
    queens(N, Placed, Count, First);
    Placed.pop_back();
  }
}

struct Phase {
  const char *Span; ///< Trace span name, also the phase's name.
  std::string Call;
  int64_t Want;
};

std::vector<Phase> oneShotPhases(Rng &R) {
  int64_t GenBase = R.range(0, 999), PerfBase = R.range(0, 999);
  const int64_t Threads = 8, FibN = 20, Yields = 20000, Depth = 24;
  auto SumFrom = [](int64_t Base, int64_t N) { return N * Base + N * (N - 1) / 2; };
  return {
      {"phase.native", "(native-threads 8 20 8)", Threads * fib(FibN)},
      {"phase.threads1cc", "(cont-threads call/1cc 8 20 8)", Threads * fib(FibN)},
      {"phase.yield", "(gen-sum 24 20000 " + std::to_string(GenBase) + ")",
       SumFrom(GenBase, Yields)},
      {"phase.perform", "(perform-sum 24 20000 " + std::to_string(PerfBase) + ")",
       SumFrom(PerfBase, Yields) + Depth * Yields},
      {"phase.overflow", "(deep-repeat 20 20000)", 20 * 20000},
      {"phase.tak1cc", "(tak-1cc 18 12 6)", tak(18, 12, 6)},
      {"phase.fib", "(fib 27)", fib(27)},
  };
}

std::vector<Phase> multiShotPhases(Rng &R) {
  int64_t Salt = R.range(1, 999);
  int64_t Count7 = 0, Count8 = 0;
  std::vector<int> Placed, First7, First;
  queens(7, Placed, Count7, First7);
  queens(8, Placed, Count8, First);
  int64_t Digits = 0;
  for (int D : First)
    Digits = Digits * 10 + D;
  return {
      {"phase.threadscc", "(cont-threads call/cc 8 20 8)", 8 * fib(20)},
      {"phase.takcc", "(tak-cc 18 12 6)", tak(18, 12, 6)},
      {"phase.amb", "(amb-repeat 8 7)", 8 * Count7},
      {"phase.promote", "(promote-repeat 40 8 " + std::to_string(Salt) + ")",
       40 * (Salt + Digits)},
  };
}

/// The counts the paper's mechanism determines; they must repeat exactly.
bool sameMechanismCounts(const osc::Stats::Snapshot &A,
                         const osc::Stats::Snapshot &B) {
  return A.OneShotCaptures == B.OneShotCaptures &&
         A.MultiShotCaptures == B.MultiShotCaptures &&
         A.SliceCaptures == B.SliceCaptures &&
         A.OneShotInvokes == B.OneShotInvokes &&
         A.MultiShotInvokes == B.MultiShotInvokes &&
         A.WordsCopied == B.WordsCopied && A.Overflows == B.Overflows &&
         A.SliceSplices == B.SliceSplices;
}

} // namespace

void commonCounts(Report &Rep, const osc::Stats::Snapshot &D, double Scale,
                  double Requests) {
  auto C = [&](uint64_t N) { return Scale ? double(N) / Scale : 0.0; };
  auto Per = [&](uint64_t N) { return Requests ? double(N) / Requests : 0.0; };
  auto Ratio = [](uint64_t A, uint64_t B) {
    return A + B ? double(A) / double(A + B) : 0.0;
  };
  Rep.layer("core.words_copied", C(D.WordsCopied));
  Rep.layer("core.oneshot_invokes", C(D.OneShotInvokes));
  Rep.layer("core.multishot_invokes", C(D.MultiShotInvokes));
  Rep.layer("core.seg_cache_hit_ratio",
            Ratio(D.SegmentCacheHits, D.SegmentsAllocated));
  Rep.layer("core.overflows", C(D.Overflows));
  Rep.layer("core.splits", C(D.Splits));
  Rep.layer("core.promote_walk_steps", C(D.PromotionWalkSteps));
  Rep.layer("control.splices", C(D.SliceSplices));
  Rep.layer("control.cloned_words", C(D.SliceClonedWords));
  Rep.layer("vm.instr_per_req", Per(D.Instructions));
  Rep.layer("vm.calls_per_req", Per(D.ProcedureCalls));
  Rep.layer("vm.ic_hit_ratio", Ratio(D.CacheHits, D.CacheMisses));
  Rep.layer("object.bytes_per_req", Per(D.BytesAllocated));
  Rep.layer("object.gc_count", C(D.GcCount));
}

void runVm(const RunArgs &A, Report &Rep, bool MultiShot) {
  pinToOneCpu(); // the reference loop then samples the vCPU the work runs on
  Rng R(A.Seed);
  std::vector<Phase> Phases = MultiShot ? multiShotPhases(R) : oneShotPhases(R);
  std::string Source = std::string(ContThreadsSource) +
                       (MultiShot ? MultiShotSource : OneShotSource);
  Tracer Tr;
  Tr.On = A.Trace;
  RefLoop Ref, SetupRef;
  Clock::time_point Begin = Clock::now();

  // Set-up: Interp construction (prelude expand, compile and run) plus
  // loading the workload's program, many times; the last one stays.
  std::unique_ptr<osc::Interp> I;
  double SetupS = timeSetUps(SetupRef, [&](int K, double &Ms) {
    I.reset();
    int S = Tr.open("vm.setup", -1, K);
    Clock::time_point T0 = Clock::now();
    int New = Tr.open("compiler.interp_new", S, K);
    I = std::make_unique<osc::Interp>();
    Tr.close(New);
    int Load = Tr.open("compiler.load", S, K);
    osc::Interp::Result Res = I->eval(Source);
    Tr.close(Load);
    Ms = msSince(T0);
    Tr.close(S);
    if (!Res.Ok)
      Rep.broken("loading the workload program: " + Res.Error);
    return Res.Ok;
  });
  if (SetupS < 0)
    return;

  std::vector<double> PassRef[2], PassRaw, PassP50, PassP99;
  size_t Evals = 0;
  std::vector<osc::Stats::Snapshot> FirstCounts;
  double EvalMsTotal = 0, EvalMsRaw = 0;
  int Timed = 0;
  double Before = Ref.run();
  for (int Pass = 0;; ++Pass) {
    bool Warm = Pass == 0;
    // Traced runs alternate traced and untraced passes, so one run also
    // measures what the spans cost.
    Tr.On = A.Trace && Pass % 2 == 1;
    int PS = Tr.open("vm.pass", -1, Pass);
    double PassMs = 0;
    std::vector<double> PhaseMs;
    std::vector<osc::Stats::Snapshot> Counts;
    for (const Phase &Ph : Phases) {
      osc::Stats::Snapshot S0 = I->snapshot();
      int Sp = Tr.open(Ph.Span, PS, Pass);
      Clock::time_point T0 = Clock::now();
      osc::Interp::Result Res = I->eval(Ph.Call);
      double Ms = msSince(T0);
      osc::Stats::Snapshot D = I->snapshot() - S0;
      Tr.close(Sp, &D);
      ++Rep.Attempted;
      if (!Res.Ok)
        Rep.fail(std::string(Ph.Span) + ": " + Res.Error);
      else if (!Res.Val.isFixnum() || Res.Val.asFixnum() != Ph.Want)
        Rep.fail(std::string(Ph.Span) + ": got " + I->valueToString(Res.Val) +
                 ", want " + std::to_string(Ph.Want));
      PassMs += Ms;
      PhaseMs.push_back(Ms);
      Counts.push_back(D);
    }
    osc::Stats::Snapshot S0 = I->snapshot();
    int Cs = Tr.open("object.collect", PS, Pass);
    Clock::time_point T0 = Clock::now();
    I->collect();
    PassMs += msSince(T0);
    osc::Stats::Snapshot D = I->snapshot() - S0;
    Tr.close(Cs, &D);
    Tr.close(PS);
    double After = Ref.run();

    if (!Warm) {
      // Timed beside the passes, the VM slowed down 1.6-2 times as much
      // as the reference loop in log terms (see README.md), so its times
      // are scaled to nominal host speed by the square of the loop's
      // slowdown.  run_ref is the pass time in reference-loop units at
      // nominal speed: PassMs / RefMs * (RefNominalMs / RefMs).
      double RefMs = (Before + After) / 2;
      double Scale = (RefNominalMs / RefMs) * (RefNominalMs / RefMs);
      PassRef[Tr.On].push_back(PassMs * Scale / RefNominalMs);
      PassRaw.push_back(PassMs);
      std::vector<double> PassUs;
      for (double Ms : PhaseMs) {
        PassUs.push_back(Ms * 1e3 * Scale);
        EvalMsTotal += Ms * Scale;
        EvalMsRaw += Ms;
      }
      PassP50.push_back(percentile(PassUs, 50));
      PassP99.push_back(percentile(PassUs, 99));
      Evals += PassUs.size();
      ++Timed;
      if (FirstCounts.empty())
        FirstCounts = Counts;
      for (size_t K = 0; K != Phases.size(); ++K)
        if (!sameMechanismCounts(Counts[K], FirstCounts[K]))
          Rep.broken(std::string(Phases[K].Span) + ": mechanism counts of pass " +
                     std::to_string(Pass) + " differ from pass 1");
    }
    Before = After;
    // Stop when the next pass would overrun the budget; always time a few.
    double Elapsed = msSince(Begin) / 1e3;
    double PerPass = Elapsed / (Pass + 1);
    if (Timed >= 4 && Elapsed + PerPass > A.Seconds)
      break;
  }
  Tr.On = A.Trace;

  double RunRef = midmean(PassRef[0]);
  Rep.e2e("setup_s", SetupS);
  Rep.e2e("rps", double(Evals) / (EvalMsTotal / 1e3));
  // Percentiles per pass, then the interquartile mean over passes, as the
  // serving workloads do per second: a pass has only a few evals, and
  // pooled over a run the 99th percentile is its second-slowest eval.
  Rep.e2e("p50_us", midmean(PassP50));
  Rep.e2e("p99_us", midmean(PassP99));
  Rep.e2e("run_ref", RunRef);
  // Each pass ends with a full collection, so memory does not grow with
  // the number of passes and the end-of-run peak is comparable.
  Rep.e2e("rss_mb", peakRssMb());
  Rep.note(std::to_string(Timed) + " timed passes of " +
           std::to_string(Phases.size()) + " phase evals; reference loop " +
           std::to_string(median(Ref.Runs)) + " ms (median); unscaled pass " +
           std::to_string(midmean(PassRaw)) + " ms, rate " +
           std::to_string(double(Evals) / (EvalMsRaw / 1e3)) +
           " evals/s");

  if (!A.Trace)
    return;
  // Per-layer metrics from the traced passes' spans.
  osc::Stats::Snapshot D;
  for (const Phase &Ph : Phases)
    D += Tr.agg(Ph.Span).Delta;
  D += Tr.agg("object.collect").Delta;
  double Passes = double(Tr.agg("vm.pass").Count);
  auto Ms = [&](const char *Span) { return Tr.agg(Span).medianMs(); };
  Tracer::Agg Native = Tr.agg("phase.native"), Fib = Tr.agg("phase.fib");
  Rep.layer("sched.spawns_per_req", double(D.ThreadsSpawned) / (Passes * Phases.size()));
  Rep.layer("sched.switches_per_req", double(D.ContextSwitches) / (Passes * Phases.size()));
  Rep.layer("sched.chan_blocks", double(D.ChannelBlocks) / Passes);
  Rep.layer("sched.runq_peak", double(I->snapshot().RunQueuePeak));
  Rep.layer("sched.native_ms", Ms("phase.native"));
  Rep.layer("sched.switch_ns",
            Native.Delta.ContextSwitches
                ? Native.TotalMs * 1e6 / double(Native.Delta.ContextSwitches)
                : 0);
  commonCounts(Rep, D, Passes, Passes * double(Phases.size()));
  Rep.layer("core.threads1cc_ms", Ms("phase.threads1cc"));
  Rep.layer("core.overflow_ms", Ms("phase.overflow"));
  Rep.layer("core.tak1cc_ms", Ms("phase.tak1cc"));
  Rep.layer("core.threadscc_ms", Ms("phase.threadscc"));
  Rep.layer("core.takcc_ms", Ms("phase.takcc"));
  Rep.layer("core.amb_ms", Ms("phase.amb"));
  Rep.layer("control.yield_ms", Ms("phase.yield"));
  Rep.layer("control.perform_ms", Ms("phase.perform"));
  Rep.layer("vm.fib_mips",
            Fib.TotalMs ? double(Fib.Delta.Instructions) / (Fib.TotalMs * 1e3) : 0);
  Rep.layer("object.bytes_per_pass", double(D.BytesAllocated) / Passes);
  Rep.layer("object.collect_ms", Ms("object.collect"));
  Rep.layer("compiler.interp_new_ms", Ms("compiler.interp_new"));
  Rep.layer("compiler.load_ms", Ms("compiler.load"));
  Rep.layer("bench.ref_ms", median(Ref.Runs));
  Rep.layer("bench.stall_max_ms", Ref.StallMaxMs);
  Rep.layer("bench.trace_overhead",
            RunRef > 0 ? midmean(PassRef[1]) / RunRef - 1 : 0);
  Tr.printTable(stdout);
  if (!Tr.writeJson(A.TracePath))
    Rep.broken("cannot write " + A.TracePath);
}

} // namespace pb
