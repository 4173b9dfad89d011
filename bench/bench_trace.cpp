//===----------------------------------------------------------------------===//
///
/// \file
/// Cost of the control-event tracer on the continuation-intensive tak.
///
/// The acceptance bar for the tracer is that a binary with tracing compiled
/// in but *disabled* behaves like one without it: the OSC_TRACE guard is a
/// pointer test plus a flag test, and no bytecode instruction is added, so
/// Stats::Instructions must be bit-identical between a traced and an
/// untraced run and the per-instruction wall cost of the disabled guards
/// must stay within noise (<= 1%).
///
/// Three variants of tak-cc (one capture + one invoke per call):
///   disabled  -- trace never started (the default production state)
///   enabled   -- ring buffer live, every control event recorded
///   wrap-64   -- a 64-event ring, so every emit also evicts (worst case)
///
/// The binary aborts unless all three retire the same instructions and
/// both traced runs emit exactly the control events a run of tak-cc makes.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "Workloads.h"

#include <cstdio>

using namespace osc;
using namespace osc::bench;

namespace {

const char *takCall() {
  return fastMode() ? "(tak-cc 14 10 4)" : "(tak-cc 18 12 6)";
}

struct Sample {
  const char *Name;
  double MsPerRun = 0;
  uint64_t InstructionsPerRun = 0;
  uint64_t EventsPerRun = 0;

  double nsPerInstr() const { return MsPerRun * 1e6 / InstructionsPerRun; }
};

Sample measure(const char *Name, bool Enabled, uint32_t RingEvents) {
  Config C;
  C.TraceBufferEvents = RingEvents;
  Interp I(C);
  mustEval(I, workloads::takVariants());
  if (Enabled)
    I.trace().start();
  mustEval(I, takCall()); // Warm up.
  uint64_t Events0 = I.trace().emitted();
  const int Reps = fastMode() ? 5 : 25;
  Run R = timed(I, takCall(), Reps);
  return {Name, R.Ms / Reps, R.D.Instructions / Reps,
          (I.trace().emitted() - Events0) / Reps};
}

} // namespace

int main() {
  const Sample Off = measure("disabled", false, Config().TraceBufferEvents);
  const Sample On = measure("enabled", true, Config().TraceBufferEvents);
  const Sample Wrap = measure("wrap-64", true, 64);

  std::printf("--- tracer cost on %s ---\n", takCall());
  std::printf("%-10s %14s %18s %14s %12s\n", "tracing", "time/run (ms)",
              "instructions/run", "events/run", "ns/instr");
  for (const Sample &S : {Off, On, Wrap})
    std::printf("%-10s %14.2f %18llu %14llu %12.3f\n", S.Name, S.MsPerRun,
                static_cast<unsigned long long>(S.InstructionsPerRun),
                static_cast<unsigned long long>(S.EventsPerRun),
                S.nsPerInstr());
  bool SameInstr = Off.InstructionsPerRun == On.InstructionsPerRun &&
                   Off.InstructionsPerRun == Wrap.InstructionsPerRun;
  std::printf("instructions identical: %s   enabled overhead: %.1f%%   "
              "wrap-64 overhead: %.1f%%\n",
              SameInstr ? "yes" : "NO",
              (On.MsPerRun / Off.MsPerRun - 1.0) * 100.0,
              (Wrap.MsPerRun / Off.MsPerRun - 1.0) * 100.0);
  if (!SameInstr)
    oscFatal("bench_trace: tracing perturbed the instruction stream");
  const uint64_t Events = fastMode() ? 424914 : 1272699;
  expectCount("bench_trace: enabled events/run", On.EventsPerRun, Events);
  expectCount("bench_trace: wrap-64 events/run", Wrap.EventsPerRun, Events);
  return 0;
}
