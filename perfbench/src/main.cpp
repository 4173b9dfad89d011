//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench: runs one workload and prints its metrics.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--trace-out <path>]
///
/// Workloads: serve-pipelined, serve-churn, vm-oneshot, vm-multishot.
/// The last line of standard output is one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// holding the end-to-end metrics (--trace 0) or the per-layer metrics
/// (--trace 1).  The exit code is 1 when a result was wrong or a
/// zero-copy / exact-count invariant broke, 2 on a usage error.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>
#include <cstring>
#include <exception>

using namespace pb;

namespace {

struct MetricName {
  const char *Name;
  const char *Unit;
};

/// Printed by every untraced run, in this order, and gated.
const MetricName EndToEndMetrics[] = {
    {"setup_s", "s"}, {"rps", "req/s"}, {"p50_us", "us"},
    {"rss_mb", "MB"}, {"run_ref", "ref"},
};
/// Printed by every untraced run for the reader, but not gated: on
/// serve-pipelined the 99th percentile sits inside the delayed-ACK stall
/// population, whose share moved it by up to 40% between runs.
const MetricName ReadOnlyMetrics[] = {{"p99_us", "us"}};
const size_t NumEndToEndMetrics = std::size(EndToEndMetrics);

/// Printed by every traced run; a layer a workload bypasses reads 0.
const MetricName PerLayerMetrics[] = {
    {"serve.start_ms", "ms"},
    {"serve.stop_ms", "ms"},
    {"serve.requests", "count"},
    {"serve.shed", "count"},
    {"serve.reaped", "count"},
    {"io.parks_per_req", "1/req"},
    {"io.bytes_in_per_req", "B/req"},
    {"io.bytes_out_per_req", "B/req"},
    {"io.wait_peak", "count"},
    {"io.accepts", "count"},
    {"io.accept_batch", "conn/batch"},
    {"io.live_after_stop", "count"},
    {"io.connect_us", "us"},
    {"sexp.read_us", "us"},
    {"regex.compiles_per_req", "1/req"},
    {"regex.steps_per_byte", "steps/B"},
    {"regex.stream_feeds", "count"},
    {"regex.compile_us", "us"},
    {"regex.search_ns_per_byte", "ns/B"},
    {"sched.spawns_per_req", "1/req"},
    {"sched.switches_per_req", "1/req"},
    {"sched.chan_blocks", "count"},
    {"sched.runq_peak", "count"},
    {"sched.native_ms", "ms"},
    {"sched.switch_ns", "ns"},
    {"core.words_copied", "words"},
    {"core.oneshot_invokes", "count"},
    {"core.multishot_invokes", "count"},
    {"core.seg_cache_hit_ratio", "ratio"},
    {"core.overflows", "count"},
    {"core.splits", "count"},
    {"core.promote_walk_steps", "count"},
    {"core.threads1cc_ms", "ms"},
    {"core.overflow_ms", "ms"},
    {"core.tak1cc_ms", "ms"},
    {"core.threadscc_ms", "ms"},
    {"core.takcc_ms", "ms"},
    {"core.amb_ms", "ms"},
    {"control.yield_ms", "ms"},
    {"control.perform_ms", "ms"},
    {"control.splices", "count"},
    {"control.cloned_words", "words"},
    {"vm.instr_per_req", "1/req"},
    {"vm.calls_per_req", "1/req"},
    {"vm.ic_hit_ratio", "ratio"},
    {"vm.fib_mips", "MIPS"},
    {"object.bytes_per_req", "B/req"},
    {"object.bytes_per_pass", "B"},
    {"object.gc_count", "count"},
    {"object.collect_ms", "ms"},
    {"compiler.interp_new_ms", "ms"},
    {"compiler.load_ms", "ms"},
    {"bench.ref_ms", "ms"},
    {"bench.late_ms", "ms"},
    {"bench.stall_max_ms", "ms"},
    {"bench.trace_overhead", "ratio"},
};
const size_t NumPerLayerMetrics = std::size(PerLayerMetrics);

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<serve-pipelined|serve-churn|vm-oneshot|vm-multishot> --seed "
               "<n> --seconds <s> --trace <0|1> [--trace-out <path>]\n",
               Why);
  return 2;
}

bool listed(const std::string &Name, const MetricName *Names, size_t N) {
  for (size_t K = 0; K != N; ++K)
    if (Name == Names[K].Name)
      return true;
  return false;
}

/// A reported name missing from the tables is a misspelling, which would
/// otherwise read as a bypassed layer's 0; it makes the run broken.
void checkNames(Report &Rep) {
  for (const auto &[Name, V] : Rep.EndToEnd)
    if (!listed(Name, EndToEndMetrics, NumEndToEndMetrics) &&
        !listed(Name, ReadOnlyMetrics, std::size(ReadOnlyMetrics)))
      Rep.broken("unlisted end-to-end metric " + Name);
  for (const auto &[Name, V] : Rep.PerLayer)
    if (!listed(Name, PerLayerMetrics, NumPerLayerMetrics))
      Rep.broken("unlisted per-layer metric " + Name);
}

/// Prints \p Names from \p Have as the JSON metrics object; a name the
/// workload did not report reads 0 (its layer did none of that work).
void printJson(const Report &Rep, const MetricName *Names, size_t N,
               const std::map<std::string, double> &Have) {
  bool Correct = Rep.Failed == 0 && Rep.Errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Rep.Attempted),
              static_cast<unsigned long long>(Rep.Failed));
  for (size_t K = 0; K != N; ++K) {
    auto It = Have.find(Names[K].Name);
    double V = It == Have.end() ? 0.0 : It->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", K ? ", " : "",
                Names[K].Name, V, Names[K].Unit);
  }
  std::printf("}}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  RunArgs A;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int K = 1; K < Argc; ++K) {
    std::string Opt = Argv[K];
    if (K + 1 >= Argc)
      return usage(("missing value for " + Opt).c_str());
    std::string Val = Argv[++K];
    try {
      if (Opt == "--workload")
        A.Workload = Val;
      else if (Opt == "--seed")
        A.Seed = std::stoull(Val), HaveSeed = true;
      else if (Opt == "--seconds")
        A.Seconds = std::stod(Val), HaveSeconds = true;
      else if (Opt == "--trace")
        A.Trace = std::stoi(Val) != 0, HaveTrace = true;
      else if (Opt == "--trace-out")
        A.TracePath = Val;
      else
        return usage(("unknown option " + Opt).c_str());
    } catch (const std::exception &) {
      return usage(("bad value for " + Opt).c_str());
    }
  }
  if (A.Workload.empty() || !HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--workload, --seed, --seconds and --trace are required");
  // Shorter serving runs would not reach the request counts at which
  // rss_mb is read.
  if (A.Seconds < 8 || A.Seconds > 120)
    return usage("--seconds must be between 8 and 120");
  if (A.TracePath.empty())
    A.TracePath = "perfbench-trace-" + A.Workload + "-" +
                  std::to_string(A.Seed) + ".json";

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, A.Trace ? 1 : 0);
  std::fflush(stdout);
  Report Rep;
  try {
    if (A.Workload == "serve-pipelined")
      runServePipelined(A, Rep);
    else if (A.Workload == "serve-churn")
      runServeChurn(A, Rep);
    else if (A.Workload == "vm-oneshot")
      runVm(A, Rep, /*MultiShot=*/false);
    else if (A.Workload == "vm-multishot")
      runVm(A, Rep, /*MultiShot=*/true);
    else
      return usage(("unknown workload " + A.Workload).c_str());
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 2;
  }
  checkNames(Rep);

  for (const std::string &N : Rep.Notes)
    std::printf("  %s\n", N.c_str());
  if (A.Trace) {
    std::printf("per-layer metrics (trace written to %s):\n",
                A.TracePath.c_str());
    for (size_t K = 0; K != NumPerLayerMetrics; ++K) {
      auto It = Rep.PerLayer.find(PerLayerMetrics[K].Name);
      std::printf("  %-26s %14.4f %s\n", PerLayerMetrics[K].Name,
                  It == Rep.PerLayer.end() ? 0.0 : It->second,
                  PerLayerMetrics[K].Unit);
    }
  } else {
    std::printf("end-to-end metrics:\n");
    for (size_t K = 0; K != NumEndToEndMetrics; ++K)
      std::printf("  %-10s %14.4f %s\n", EndToEndMetrics[K].Name,
                  Rep.EndToEnd[EndToEndMetrics[K].Name],
                  EndToEndMetrics[K].Unit);
    for (const MetricName &M : ReadOnlyMetrics)
      std::printf("  %-10s %14.4f %s (not gated)\n", M.Name,
                  Rep.EndToEnd[M.Name], M.Unit);
  }
  std::printf("  %-10s %14.6f ratio (%llu failed of %llu attempted)\n",
              "fail_ratio",
              Rep.Attempted ? double(Rep.Failed) / double(Rep.Attempted) : 0.0,
              static_cast<unsigned long long>(Rep.Failed),
              static_cast<unsigned long long>(Rep.Attempted));
  for (const std::string &E : Rep.Errors)
    std::printf("  FAIL %s\n", E.c_str());
  std::fflush(stdout);
  if (A.Trace)
    printJson(Rep, PerLayerMetrics, NumPerLayerMetrics, Rep.PerLayer);
  else
    printJson(Rep, EndToEndMetrics, NumEndToEndMetrics, Rep.EndToEnd);
  return Rep.Failed == 0 && Rep.Errors.empty() ? 0 : 1;
}
