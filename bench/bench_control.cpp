//===----------------------------------------------------------------------===//
///
/// \file
/// The delimited-control benchmark: two workloads on the capture-to-mark
/// path, each measured once one-shot (Config::DelimOneShot, the default)
/// and once on the copying shim (DelimOneShot=false: reset marks are
/// captured multi-shot, so every slice member must be deep-cloned before
/// its link can be rewritten).
///
///   * generator — values pumped through (yield v) / (generator-next g);
///   * handler   — (perform 'bench 'tick i) dispatched from a deep call
///     chain to a (with-handler ...) clause that immediately resumes:
///     the effect-handler steady state of a request loop.
///
/// The claim checked with exact counters, not timings: a steady-state
/// yield/next or perform/resume round trip on the one-shot path copies
/// ZERO stack words — the cut relinks continuation headers up to the
/// delimiter's mark and the splice is a single link store.  The harness
/// aborts if WordsCopied moves at all during the one-shot runs, and also
/// aborts if a shim column does NOT copy (a shim that stopped copying
/// would make the comparison vacuous), if any of the four columns is
/// missing, or if a column did not cut and splice exactly one slice per
/// operation (a drifted workload).
///
/// OSC_BENCH_FAST=1 shrinks the run for a smoke test.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace osc;
using namespace osc::bench;

namespace {

/// A generator whose extent is a few frames deep, so each yield's slice
/// has real substance (deep enough that a copying implementation pays,
/// shallow enough to model a streaming producer's steady state).
const char *Setup =
    "(define (pump depth)"
    "  (make-generator"
    "   (lambda (v)"
    "     (define (deep n i)"
    "       (if (zero? n) (yield i) (+ 1 (deep (- n 1) i))))"
    "     (let loop ((i 0))"
    "       (deep depth i)"
    "       (loop (+ i 1))))))"
    "(define (drain g n)"
    "  (let loop ((k 0) (acc 0))"
    "    (if (= k n) acc (loop (+ k 1) (+ acc (generator-next g 0))))))";

struct Column {
  std::string Name;
  bool OneShot = true;
  uint64_t Ops = 0;
  double Ms = 0;
  uint64_t WordsCopied = 0;      ///< Steady-state total (post-warmup).
  uint64_t SliceCaptures = 0;
  uint64_t SliceSplices = 0;

  double wordsPerOp() const {
    return Ops ? double(WordsCopied) / double(Ops) : 0;
  }
};

Column runColumn(bool OneShot, int Depth, int Yields) {
  Config C;
  C.DelimOneShot = OneShot;
  Interp I(C);
  mustEval(I, Setup);
  mustEval(I, "(define g (pump " + std::to_string(Depth) + "))"
              "(drain g 3)"); // Warmup: segments grown, stub frames planted.

  Run R = timed(I, "(drain g " + std::to_string(Yields) + ")");
  const Stats::Snapshot &D = R.D;

  Column Col;
  Col.Name = OneShot ? "generator-oneshot" : "generator-copying-shim";
  Col.OneShot = OneShot;
  Col.Ops = uint64_t(Yields);
  Col.Ms = R.Ms;
  Col.WordsCopied = D.WordsCopied;
  Col.SliceCaptures = D.SliceCaptures;
  Col.SliceSplices = D.SliceSplices;
  return Col;
}

/// The effect-handler steady state: a resuming clause, performs arriving
/// from \p Depth frames below the delimiter.  Each perform cuts the slice
/// to the handler's mark and each resume splices it back — the exact
/// request-loop shape the serving layer runs.
const char *HandlerSetup =
    "(define (deep-perform n i)"
    "  (if (zero? n)"
    "      (perform 'bench 'tick i)"
    "      (+ 1 (deep-perform (- n 1) i))))"
    "(define (burst depth n)"
    "  (with-handler 'bench ((tick k a) (k a))"
    "    (let loop ((i 0) (acc 0))"
    "      (if (= i n) acc"
    "          (loop (+ i 1) (+ acc (deep-perform depth i)))))))";

Column runHandlerColumn(bool OneShot, int Depth, int Performs) {
  Config C;
  C.DelimOneShot = OneShot;
  Interp I(C);
  mustEval(I, HandlerSetup);
  mustEval(I, "(burst " + std::to_string(Depth) + " 3)"); // Warmup.

  Run R = timed(I, "(burst " + std::to_string(Depth) + " " +
                      std::to_string(Performs) + ")");
  const Stats::Snapshot &D = R.D;

  if (D.Performs != uint64_t(Performs))
    oscFatal("bench_control: the handler column did not perform the "
             "requested number of operations; the workload drifted");

  Column Col;
  Col.Name = OneShot ? "handler-oneshot" : "handler-copying-shim";
  Col.OneShot = OneShot;
  Col.Ops = uint64_t(Performs);
  Col.Ms = R.Ms;
  Col.WordsCopied = D.WordsCopied;
  Col.SliceCaptures = D.SliceCaptures;
  Col.SliceSplices = D.SliceSplices;
  return Col;
}

} // namespace

int main() {
  const int Depth = 24;
  const int Ops = fastMode() ? 2000 : 100000;
  std::printf("Delimited control: %d yields through a depth-%d generator, "
              "%d performs from depth %d under a resuming handler.\n\n",
              Ops, Depth, Ops, Depth);

  std::vector<Column> Cols;
  Cols.push_back(runColumn(/*OneShot=*/true, Depth, Ops));
  Cols.push_back(runColumn(/*OneShot=*/false, Depth, Ops));
  Cols.push_back(runHandlerColumn(/*OneShot=*/true, Depth, Ops));
  Cols.push_back(runHandlerColumn(/*OneShot=*/false, Depth, Ops));

  std::printf("%24s %10s %10s %14s %12s\n", "column", "ops", "ms",
              "words-copied", "words/op");
  for (const Column &C : Cols)
    std::printf("%24s %10llu %10.1f %14llu %12.2f\n", C.Name.c_str(),
                static_cast<unsigned long long>(C.Ops), C.Ms,
                static_cast<unsigned long long>(C.WordsCopied),
                C.wordsPerOp());

  // The paper's invariant, delimited edition: zero words copied per yield
  // and per perform/resume in the one-shot steady state — and the
  // contrast must be real: each shim column exists to show what the
  // one-shot representation saves.
  for (const char *Name : {"generator-oneshot", "generator-copying-shim",
                           "handler-oneshot", "handler-copying-shim"})
    column(Cols, Name);
  for (const Column &C : Cols) {
    expectCount("bench_control: " + C.Name + " slice captures",
                C.SliceCaptures, C.Ops);
    expectCount("bench_control: " + C.Name + " slice splices",
                C.SliceSplices, C.Ops);
    if (C.OneShot && C.WordsCopied != 0)
      oscFatal(("bench_control: the " + C.Name +
                " column copied stack words; the capture-to-mark path has "
                "regressed to copying")
                   .c_str());
    if (!C.OneShot && C.WordsCopied == 0)
      oscFatal(("bench_control: the " + C.Name +
                " column copied nothing; the comparison is measuring two "
                "identical paths")
                   .c_str());
  }

  std::printf("\nCheck passed: one-shot yields and performs copied 0 stack "
              "words (shim paid %.2f words/yield, %.2f words/perform).\n",
              column(Cols, "generator-copying-shim").wordsPerOp(),
              column(Cols, "handler-copying-shim").wordsPerOp());
  return 0;
}
