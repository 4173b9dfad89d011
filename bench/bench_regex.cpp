//===----------------------------------------------------------------------===//
///
/// \file
/// The regex-engine benchmark: four workloads on the bytecode Pike VM
/// (src/regex), all gated on exact counters rather than timings.
///
///   * search-throughput — whole-string regex-search over a synthetic log
///     corpus: raw scanning rate, no continuations involved.  The
///     pattern's first byte is rare in the corpus, so the search skips
///     most of it without stepping a thread;
///   * search-dense — the same corpus under a pattern whose first byte
///     may be any corpus byte, so no byte can be skipped and every one
///     steps the thread list: the path the skip cannot take;
///   * stream — chunked matching through a producer/consumer pair of
///     green threads rendezvousing on a channel, so every chunk handoff
///     is a scheduler park.  Measured once with one-shot switching (the
///     default) and once on the SchedOneShotSwitch=false copying shim:
///     steady-state streaming parks must copy ZERO stack words one-shot,
///     and a strictly positive count on the shim keeps the contrast real;
///   * pathological — the classic (a?)^n a^n against a^n, exponential
///     under backtracking.  The thread-list executor's machine-checkable
///     linearity bound is Steps <= (bytes+1) * instructions; the harness
///     aborts the moment any run exceeds it, a wall-clock-free proof that
///     the engine cannot blow up.
///
/// The harness also aborts if a column is missing, or scanned or stepped
/// other than its exact byte and step counts (a drifted workload, or a
/// skip that stopped firing or fired where it must not).  OSC_BENCH_FAST=1
/// shrinks the run for a smoke test.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace osc;
using namespace osc::bench;

namespace {

struct Column {
  std::string Name;
  bool OneShot = true;
  uint64_t Bytes = 0;
  uint64_t Chunks = 0;     ///< Stream columns: chunk handoffs (parks).
  uint64_t Steps = 0;      ///< Executor visits (Stats::RegexSteps).
  uint64_t StepsBound = 0; ///< (bytes+1) * instructions, 0 when untracked.
  double Ms = 0;
  uint64_t WordsCopied = 0;

  double mbPerSec() const {
    return Ms > 0 ? double(Bytes) / 1e6 / (Ms / 1e3) : 0;
  }
};

/// A log-like corpus.  Neither search pattern matches it, so every
/// search scans end to end — otherwise leftmost-match semantics would
/// stop the scan at the first hit and the column would measure a prefix.
std::string corpus(size_t Lines) {
  std::string Text;
  Text.reserve(Lines * 48);
  for (size_t K = 0; K < Lines; ++K) {
    Text += "tick ";
    Text += std::to_string(K * 7919 % 100000);
    Text += (K % 17 == 0) ? " GET /idx status=200 " : " put cache=warm ";
  }
  return Text;
}

Column runSearch(const char *Name, const std::string &Pattern, int Execs,
                 const std::string &Text) {
  Interp I;
  mustEval(I, "(define re (regex-compile \"" + Pattern + "\"))");
  mustEval(I, "(define text \"" + Text + "\")");
  mustEval(I, "(regex-search re text)"); // Warmup.

  Run R = timed(I, "(let loop ((k 0) (r #f))"
                  "  (if (= k " + std::to_string(Execs) + ") r"
                  "      (loop (+ k 1) (regex-search re text))))");

  Column Col;
  Col.Name = Name;
  Col.Bytes = R.D.RegexBytesScanned;
  Col.Steps = R.D.RegexSteps;
  Col.Ms = R.Ms;
  Col.WordsCopied = R.D.WordsCopied;
  return Col;
}

/// The streaming shape: a producer green thread hands chunks to a
/// consumer over a rendezvous channel; the consumer feeds the incremental
/// matcher.  Every handoff parks both sides, so the run is dominated by
/// scheduler switches — exactly what the one-shot representation makes
/// copy-free.
Column runStream(bool OneShot, int Chunks, int ChunkBytes) {
  Config C;
  C.SchedOneShotSwitch = OneShot;
  Interp I(C);
  std::string Chunk(static_cast<size_t>(ChunkBytes), 'x');
  mustEval(I, "(define re (regex-compile \"zz9q\"))" // absent from traffic
              "(define ch (make-channel 0))"
              "(define chunk \"" + Chunk + "\")"
              "(define st #f)"
              "(define (stream-run n)"
              "  (set! st (regex-stream re))"
              "  (spawn (lambda ()"
              "    (let loop ((k 0))"
              "      (if (< k n)"
              "          (begin (channel-send! ch chunk) (loop (+ k 1)))))))"
              "  (spawn (lambda ()"
              "    (let loop ((k 0))"
              "      (if (< k n)"
              "          (begin (regex-stream-feed! st (channel-recv ch))"
              "                 (loop (+ k 1)))))))"
              "  (scheduler-run))");
  mustEval(I, "(stream-run 4)"); // Warmup: segments grown, stubs planted.

  Run R = timed(I, "(stream-run " + std::to_string(Chunks) + ")");
  const Stats::Snapshot &D = R.D;

  if (D.RegexStreamFeeds != uint64_t(Chunks))
    oscFatal("bench_regex: the stream column did not feed the requested "
             "number of chunks; the workload drifted");

  Column Col;
  Col.Name = OneShot ? "stream-oneshot" : "stream-copying-shim";
  Col.OneShot = OneShot;
  Col.Bytes = D.RegexBytesScanned;
  Col.Chunks = uint64_t(Chunks);
  Col.Steps = D.RegexSteps;
  Col.Ms = R.Ms;
  Col.WordsCopied = D.WordsCopied;
  return Col;
}

Column runPathological(int N) {
  Interp I;
  std::string Pat, Text(static_cast<size_t>(N), 'a');
  for (int K = 0; K < N; ++K)
    Pat += "a?";
  Pat += Text;
  mustEval(I, "(define re (regex-compile \"" + Pat + "\"))"
              "(define text \"" + Text + "\")");
  uint64_t NInstrs = static_cast<uint64_t>(
      mustEval(I, "(regex-program-size re)").asFixnum());

  Run R = timed(I, "(if (regex-match re text) 'hit 'miss)");

  Column Col;
  Col.Name = "pathological-n" + std::to_string(N);
  Col.Bytes = R.D.RegexBytesScanned;
  Col.Steps = R.D.RegexSteps;
  Col.StepsBound = (uint64_t(N) + 1) * NInstrs;
  Col.Ms = R.Ms;
  Col.WordsCopied = R.D.WordsCopied;
  if (Col.Steps > Col.StepsBound)
    oscFatal(("bench_regex: " + Col.Name + " exceeded the linearity bound "
              "(steps > (bytes+1)*instructions) — the executor has "
              "regressed to blowup territory")
                 .c_str());
  return Col;
}

} // namespace

int main() {
  const bool Fast = fastMode();
  const int Execs = Fast ? 20 : 400;
  const int Chunks = Fast ? 500 : 20000;
  const int ChunkBytes = 64;
  const std::string Text = corpus(Fast ? 200 : 2000);

  std::printf("Regex engine: %d searches over a %zu-byte corpus, %d "
              "chunked feeds through parked green threads, and the "
              "(a?)^n a^n family under the linearity bound.\n\n",
              Execs, Text.size(), Chunks);

  std::vector<Column> Cols;
  const char *Sparse = "status=5[0-9][0-9]", *Dense = ".tatus=5[0-9][0-9]";
  Cols.push_back(runSearch("search-throughput", Sparse, Execs, Text));
  Cols.push_back(runSearch("search-dense", Dense, Execs, Text));
  Cols.push_back(runStream(/*OneShot=*/true, Chunks, ChunkBytes));
  Cols.push_back(runStream(/*OneShot=*/false, Chunks, ChunkBytes));
  for (int N : {8, 16, 32})
    Cols.push_back(runPathological(N));

  std::printf("%24s %12s %12s %10s %14s %10s\n", "column", "bytes", "steps",
              "ms", "words-copied", "MB/s");
  for (const Column &C : Cols)
    std::printf("%24s %12llu %12llu %10.2f %14llu %10.1f\n", C.Name.c_str(),
                static_cast<unsigned long long>(C.Bytes),
                static_cast<unsigned long long>(C.Steps), C.Ms,
                static_cast<unsigned long long>(C.WordsCopied), C.mbPerSec());

  // Every column, scanning exactly the bytes its workload feeds it and
  // visiting exactly the thread states the engine needs for them.  The
  // skip shows in search-throughput (about one visit per 28 bytes) and in
  // the stream columns (the init and the first spawn, then no visit for
  // any 'x'); search-dense, where nothing can be skipped, visits what an
  // engine without the skip visits.
  const struct {
    const char *Name;
    uint64_t Bytes, BytesFast, Steps, StepsFast;
  } Shapes[] = {
      {"search-throughput", 20943600, 104680, 756000, 3880},
      {"search-dense", 20943600, 104680, 43770400, 218800},
      {"stream-oneshot", 1280000, 32000, 2, 2},
      {"stream-copying-shim", 1280000, 32000, 2, 2},
      {"pathological-n8", 8, 8, 117, 117},
      {"pathological-n16", 16, 16, 425, 425},
      {"pathological-n32", 32, 32, 1617, 1617},
  };
  for (const auto &S : Shapes) {
    const Column &C = column(Cols, S.Name);
    expectCount(std::string("bench_regex: ") + S.Name + " bytes", C.Bytes,
                Fast ? S.BytesFast : S.Bytes);
    expectCount(std::string("bench_regex: ") + S.Name + " steps", C.Steps,
                Fast ? S.StepsFast : S.Steps);
  }

  // The paper's invariant carried into the regex service: steady-state
  // streaming parks copy nothing one-shot, and the shim column must show
  // what that saves — a shim that stopped copying is measuring nothing.
  for (const Column &C : Cols) {
    if (C.OneShot && C.WordsCopied != 0)
      oscFatal(("bench_regex: the " + C.Name +
                " column copied stack words in the one-shot steady state")
                   .c_str());
    if (!C.OneShot && C.WordsCopied == 0)
      oscFatal("bench_regex: the stream-copying-shim column copied "
               "nothing; the comparison is measuring two identical paths");
  }

  const Column &Shim = column(Cols, "stream-copying-shim");
  std::printf("\nCheck passed: one-shot streaming parks copied 0 stack "
              "words (shim paid %.1f words/chunk); every pathological "
              "run stayed under (bytes+1)*instructions.\n",
              double(Shim.WordsCopied) / double(Shim.Chunks));
  return 0;
}
