#include "Common.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unordered_map>

namespace pb {

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  // Nearest rank: the smallest value with at least P% of the set at or
  // below it.
  double Rank = std::ceil(P / 100.0 * static_cast<double>(V.size()));
  size_t K = Rank < 1 ? 0 : static_cast<size_t>(Rank) - 1;
  K = std::min(K, V.size() - 1);
  std::nth_element(V.begin(), V.begin() + static_cast<long>(K), V.end());
  return V[K];
}

double mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0 : Sum / static_cast<double>(V.size());
}

double midmean(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Cut = V.size() >= 4 ? V.size() / 4 : 0;
  double Sum = 0;
  for (size_t I = Cut; I != V.size() - Cut; ++I)
    Sum += V[I];
  return Sum / static_cast<double>(V.size() - 2 * Cut);
}

namespace {

volatile int64_t RefArg = 22;
volatile int64_t RefSink = 0;

/// The reference program: doubly recursive fib in a small stack
/// bytecode, run by a switch-dispatched interpreter loop.  It has the
/// shape of the VM's own hot loop (indirect dispatch, stack traffic,
/// calls and returns), so a host that slows the VM down by sharing its
/// core's front end slows this down too, which a plain arithmetic loop
/// does not show.
enum RefOp : uint8_t { Arg, Const, Less, JumpIfNot, Sub, Add, Call, Ret, Halt };
struct RefIns {
  RefOp Op;
  int32_t A;
};
const RefIns RefProgram[] = {
    {Arg, 0},  {Const, 2}, {Less, 0}, {JumpIfNot, 6}, {Arg, 0}, {Ret, 0},
    {Arg, 0},  {Const, 1}, {Sub, 0},  {Call, 0},      {Arg, 0}, {Const, 2},
    {Sub, 0},  {Call, 0},  {Add, 0},  {Ret, 0},       {Call, 0}, {Halt, 0}};
constexpr int32_t RefEntry = 16;

int64_t refFib(int64_t N) {
  int64_t Stack[256];
  size_t Base[64];
  int32_t RetPc[64];
  size_t Sp = 0, Fp = 0;
  int32_t Pc = RefEntry;
  Stack[Sp++] = N;
  for (;;) {
    const RefIns &I = RefProgram[Pc++];
    switch (I.Op) {
    case Arg:
      Stack[Sp] = Stack[Base[Fp - 1]];
      ++Sp;
      break;
    case Const:
      Stack[Sp++] = I.A;
      break;
    case Less:
      --Sp;
      Stack[Sp - 1] = Stack[Sp - 1] < Stack[Sp];
      break;
    case JumpIfNot:
      if (!Stack[--Sp])
        Pc = I.A;
      break;
    case Sub:
      --Sp;
      Stack[Sp - 1] -= Stack[Sp];
      break;
    case Add:
      --Sp;
      Stack[Sp - 1] += Stack[Sp];
      break;
    case Call:
      Base[Fp] = Sp - 1;
      RetPc[Fp] = Pc;
      ++Fp;
      Pc = 0;
      break;
    case Ret: {
      int64_t V = Stack[Sp - 1];
      --Fp;
      Sp = Base[Fp];
      Stack[Sp++] = V;
      Pc = RetPc[Fp];
      break;
    }
    case Halt:
      return Stack[Sp - 1];
    }
  }
}

} // namespace

double RefLoop::run() {
  constexpr int Chunks = 30;
  std::vector<double> ChunkMs(Chunks);
  int64_t Sum = 0;
  Clock::time_point T0 = Clock::now(), Prev = T0;
  for (int C = 0; C != Chunks; ++C) {
    Sum += refFib(RefArg);
    Clock::time_point Now = Clock::now();
    ChunkMs[static_cast<size_t>(C)] = msBetween(Prev, Now);
    Prev = Now;
  }
  RefSink = Sum;
  double Total = msBetween(T0, Prev);
  StallMaxMs = std::max(StallMaxMs, *std::max_element(ChunkMs.begin(),
                                                      ChunkMs.end()) -
                                        median(ChunkMs));
  Runs.push_back(Total);
  return Total;
}

void pinToOneCpu() {
  cpu_set_t Allowed, One;
  sched_getaffinity(0, sizeof Allowed, &Allowed);
  CPU_ZERO(&One);
  for (int C = CPU_SETSIZE - 1; C >= 0; --C)
    if (CPU_ISSET(C, &Allowed)) {
      CPU_SET(C, &One);
      break;
    }
  sched_setaffinity(0, sizeof One, &One);
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KB
}

static double cpuMs(clockid_t Id) {
  timespec T{};
  clock_gettime(Id, &T);
  return static_cast<double>(T.tv_sec) * 1e3 +
         static_cast<double>(T.tv_nsec) / 1e6;
}
double processCpuMs() { return cpuMs(CLOCK_PROCESS_CPUTIME_ID); }
double threadCpuMs() { return cpuMs(CLOCK_THREAD_CPUTIME_ID); }

int Tracer::open(const char *Name, int Parent, int64_t Id) {
  if (!On)
    return -1;
  int64_t T = ns(Clock::now());
  Spans.push_back({Name, T, T, Parent, Id});
  return static_cast<int>(Spans.size()) - 1;
}

void Tracer::close(int S, const osc::Stats::Snapshot *Delta) {
  if (S < 0)
    return;
  Span &Sp = Spans[static_cast<size_t>(S)];
  Sp.EndNs = ns(Clock::now());
  if (Delta) {
    Sp.Counters = static_cast<int32_t>(Deltas.size());
    Deltas.push_back(*Delta);
  }
}

void Tracer::add(const char *Name, Clock::time_point B, Clock::time_point E,
                 int Parent, int64_t Id) {
  if (On)
    Spans.push_back({Name, ns(B), ns(E), Parent, Id});
}

const std::vector<double> &Tracer::selfMs() const {
  if (SelfCache.size() == Spans.size())
    return SelfCache;
  // Self time: a span's length minus the union of its children's
  // intervals, clipped to the span.  Children may overlap each other
  // (pipelined requests), so the union is taken, not the sum.
  std::unordered_map<int, std::vector<std::pair<int64_t, int64_t>>> Kids;
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Kids[S.Parent].push_back({S.BeginNs, S.EndNs});
  std::vector<double> &Out = SelfCache;
  Out.assign(Spans.size(), 0);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    int64_t Covered = 0;
    auto It = Kids.find(static_cast<int>(I));
    if (It != Kids.end()) {
      auto &Iv = It->second;
      std::sort(Iv.begin(), Iv.end());
      int64_t Lo = 0, Hi = -1;
      for (auto [B, E] : Iv) {
        B = std::max(B, S.BeginNs);
        E = std::min(E, S.EndNs);
        if (E <= B)
          continue;
        if (B > Hi) {
          Covered += Hi - Lo > 0 ? Hi - Lo : 0;
          Lo = B;
          Hi = E;
        } else {
          Hi = std::max(Hi, E);
        }
      }
      Covered += Hi - Lo > 0 ? Hi - Lo : 0;
    }
    Out[I] = static_cast<double>(S.EndNs - S.BeginNs - Covered) / 1e6;
  }
  return Out;
}

Tracer::Agg Tracer::agg(std::string_view Name) const {
  Agg A;
  const std::vector<double> &Self = selfMs();
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (Name != S.Name)
      continue;
    double Ms = static_cast<double>(S.EndNs - S.BeginNs) / 1e6;
    ++A.Count;
    A.TotalMs += Ms;
    A.SelfMs += Self[I];
    A.Ms.push_back(Ms);
    if (S.Counters >= 0)
      A.Delta += Deltas[static_cast<size_t>(S.Counters)];
  }
  return A;
}

void Tracer::printTable(std::FILE *Out) const {
  std::vector<std::string> Names;
  for (const Span &S : Spans)
    if (std::find(Names.begin(), Names.end(), S.Name) == Names.end())
      Names.push_back(S.Name);
  std::fprintf(Out, "%-22s %8s %11s %11s %11s %10s %10s %10s %9s\n", "span",
               "count", "total_ms", "self_ms", "median_ms", "instr",
               "1shot_inv", "words_cp", "splices");
  for (const std::string &N : Names) {
    Agg A = agg(N);
    std::fprintf(Out, "%-22s %8llu %11.3f %11.3f %11.4f %10llu %10llu %10llu %9llu\n",
                 N.c_str(), static_cast<unsigned long long>(A.Count),
                 A.TotalMs, A.SelfMs, A.medianMs(),
                 static_cast<unsigned long long>(A.Delta.Instructions),
                 static_cast<unsigned long long>(A.Delta.OneShotInvokes),
                 static_cast<unsigned long long>(A.Delta.WordsCopied),
                 static_cast<unsigned long long>(A.Delta.SliceSplices));
  }
}

bool Tracer::writeJson(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out.good())
    return false;
  // Complete ("X") events for the benchmark's own phases; async b/e pairs
  // for requests and sessions, which overlap on one connection.
  Out << std::fixed;
  Out.precision(3);
  Out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool First = true;
  auto Sep = [&] {
    if (!First)
      Out << ",\n";
    First = false;
  };
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    double Ts = static_cast<double>(S.BeginNs) / 1e3;
    double Dur = static_cast<double>(S.EndNs - S.BeginNs) / 1e3;
    std::string Args = "{\"span\":" + std::to_string(I) +
                       ",\"parent\":" + std::to_string(S.Parent) +
                       ",\"id\":" + std::to_string(S.Id);
    if (S.Counters >= 0) {
      const osc::Stats::Snapshot &D = Deltas[static_cast<size_t>(S.Counters)];
      Args += ",\"counters\":{";
      bool F = true;
#define PB_FIELD(Name)                                                         \
  if (D.Name) {                                                                \
    Args += std::string(F ? "" : ",") + "\"" #Name "\":" +                     \
            std::to_string(D.Name);                                            \
    F = false;                                                                 \
  }
      OSC_STATS_COUNTERS(PB_FIELD)
#undef PB_FIELD
      Args += "}";
    }
    Args += "}";
    bool Async = std::string_view(S.Name) == "request" ||
                 std::string_view(S.Name) == "session";
    Sep();
    if (Async) {
      Out << "{\"name\":\"" << S.Name << "\",\"cat\":\"" << S.Name
          << "\",\"ph\":\"b\",\"id\":" << S.Id << ",\"pid\":1,\"tid\":1,\"ts\":"
          << Ts << ",\"args\":" << Args << "},\n";
      Out << "{\"name\":\"" << S.Name << "\",\"cat\":\"" << S.Name
          << "\",\"ph\":\"e\",\"id\":" << S.Id << ",\"pid\":1,\"tid\":1,\"ts\":"
          << Ts + Dur << "}";
    } else {
      Out << "{\"name\":\"" << S.Name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":0,"
          << "\"ts\":" << Ts << ",\"dur\":" << Dur << ",\"args\":" << Args
          << "}";
    }
  }
  Out << "\n]}\n";
  return Out.good();
}

} // namespace pb
