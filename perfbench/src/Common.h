//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the benchmark program: the seeded generator, the
/// percentile code, the host-speed reference loop, the in-memory span
/// tracer and the report every workload fills.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "osc.h"

#include <chrono>
#include <cstdio>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}
inline double msSince(Clock::time_point A) { return msBetween(A, Clock::now()); }

/// splitmix64: every input the benchmark sends derives from --seed
/// through this generator.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform integer in [Lo, Hi].
  int64_t range(int64_t Lo, int64_t Hi) {
    return Lo + static_cast<int64_t>(next() % static_cast<uint64_t>(Hi - Lo + 1));
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  bool chance(double P) { return unit() < P; }

private:
  uint64_t S;
};

/// Nearest-rank percentile (P in [0, 100]) of \p V; 0 for an empty set.
double percentile(std::vector<double> V, double P);
inline double median(std::vector<double> V) {
  return percentile(std::move(V), 50);
}
/// Arithmetic mean; 0 for an empty set.
double mean(const std::vector<double> &V);
/// Interquartile mean: the mean of the middle half of \p V (all of it
/// when there are fewer than four values); 0 for an empty set.  Unlike
/// the median it moves smoothly when the values fall in two clusters, as
/// the VM's speed does when a collection moves its data.
double midmean(std::vector<double> V);

/// The host-speed yardstick, about 30 ms: 30 rounds of fib(22) run by a
/// small bytecode stack interpreter.  It slows down when other tenants
/// share the core's front end, as the VM and the kernel's TCP code do.
/// Memory-latency work does not track them: a random walk over an 8 MB
/// table, timed beside this loop, correlated with VM pass times at 0.1
/// and with serve-churn's session rate at 0.02.  It lives in the
/// benchmark, so it is the same code on both commits of any comparison;
/// CPU-bound times are reported divided by it.
class RefLoop {
public:
  /// Runs the loop once; returns its wall time in ms.
  double run();
  /// Largest single-round excess over the median round seen so far: a
  /// stall the host imposed, not work the loop did.
  double StallMaxMs = 0;
  std::vector<double> Runs;
};

/// CPU-bound times are reported at a nominal host speed: a time t measured
/// while the reference loop took r ms is reported as t * RefNominalMs / r,
/// so a host that runs everything slower moves both and the figure stays.
/// The VM workloads use the square of that factor (see Vm.cpp).
constexpr double RefNominalMs = 25;

/// setup_s is the interquartile mean of SetupRounds x SetupsPerRound
/// set-ups.  A set-up takes 1-4 ms, so one slow moment of the host moves
/// a few of them, not the figure.
constexpr int SetupRounds = 8;
constexpr int SetupsPerRound = 25;

/// Runs the set-ups in rounds, with a reference-loop sample (on \p Ref)
/// before each round and after the last.  \p SetUp(K, Ms) performs set-up
/// K, stores its time in Ms and returns false if the run cannot go on.
/// Returns the interquartile mean of the set-up times in seconds, each
/// scaled to nominal host speed by the mean of the two samples around its
/// round; -1 when a set-up failed.
template <class F> double timeSetUps(RefLoop &Ref, F &&SetUp) {
  std::vector<double> Scaled;
  double Before = Ref.run();
  for (int Round = 0; Round != SetupRounds; ++Round) {
    std::vector<double> Ms;
    for (int K = 0; K != SetupsPerRound; ++K) {
      double T = 0;
      if (!SetUp(Round * SetupsPerRound + K, T))
        return -1;
      Ms.push_back(T);
    }
    double After = Ref.run();
    for (double T : Ms)
      Scaled.push_back(T * RefNominalMs / ((Before + After) / 2) / 1e3);
    Before = After;
  }
  return midmean(Scaled);
}

/// Pins the calling thread, and every thread it starts afterwards, to the
/// highest-numbered vCPU the process may use.  The vCPUs of one guest ran
/// at different speeds, so a workload that moved between them, or was
/// placed on a different one from run to run, measured the placement.
void pinToOneCpu();

/// Peak resident memory of this process in MB.
double peakRssMb();
/// CPU time (user + system) of the whole process / the calling thread, ms.
double processCpuMs();
double threadCpuMs();

/// In-memory spans at the benchmark's own call boundaries, written out
/// once at the end.  When off, every call is a test of one flag.
class Tracer {
public:
  struct Span {
    const char *Name;
    int64_t BeginNs;
    int64_t EndNs;
    int32_t Parent; ///< Index of the enclosing span; -1 at top level.
    int64_t Id;     ///< Request, session, pass or setup number.
    int32_t Counters = -1; ///< Index into Deltas, or -1.
  };

  bool On = false;

  /// Opens a span; returns its index (-1 while off).
  int open(const char *Name, int Parent = -1, int64_t Id = 0);
  /// Closes \p S; \p Delta, if given, is the counter change the span saw.
  void close(int S, const osc::Stats::Snapshot *Delta = nullptr);
  /// Records a finished span with explicit times (requests are timed from
  /// their scheduled send, not from when the tracer learned of them).
  void add(const char *Name, Clock::time_point B, Clock::time_point E,
           int Parent, int64_t Id);

  /// Aggregates over every span named \p Name.
  struct Agg {
    uint64_t Count = 0;
    double TotalMs = 0;
    double SelfMs = 0; ///< Total minus the time children cover.
    std::vector<double> Ms;
    osc::Stats::Snapshot Delta; ///< Sum of the spans' counter deltas.
    double medianMs() const { return median(Ms); }
  };
  Agg agg(std::string_view Name) const;

  /// Prints one row per span name: count, total, self time, and the main
  /// counters the spans carried.
  void printTable(std::FILE *Out) const;
  /// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
  bool writeJson(const std::string &Path) const;

private:
  int64_t ns(Clock::time_point T) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(T - Epoch)
        .count();
  }
  /// Self time of every span, computed once the spans stop changing.
  const std::vector<double> &selfMs() const;

  Clock::time_point Epoch = Clock::now();
  std::vector<Span> Spans;
  std::vector<osc::Stats::Snapshot> Deltas;
  mutable std::vector<double> SelfCache;
};

/// What one run of one workload produced.  Metric units live in the name
/// tables main.cpp prints from, which mirror BENCHMARK.json.
struct Report {
  std::map<std::string, double> EndToEnd;
  std::map<std::string, double> PerLayer;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors; ///< Wrong results and broken invariants.
  std::vector<std::string> Notes;  ///< Extra lines for the human reader.

  void e2e(const std::string &N, double V) { EndToEnd[N] = V; }
  void layer(const std::string &N, double V) { PerLayer[N] = V; }
  /// Records a failed operation with the first few reasons kept for the log.
  void fail(const std::string &Why) {
    ++Failed;
    if (Errors.size() < 20)
      Errors.push_back(Why);
  }
  /// A broken invariant: not an operation, but the run is wrong.
  void broken(const std::string &Why) { Errors.push_back("invariant: " + Why); }
  void note(const std::string &S) { Notes.push_back(S); }
};

/// Everything a workload needs from the command line.
struct RunArgs {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TracePath; ///< Where the traced run writes its spans.
};

} // namespace pb

#endif // PERFBENCH_COMMON_H
