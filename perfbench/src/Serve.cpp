//===----------------------------------------------------------------------===//
///
/// \file
/// The serving workloads: real loopback TCP into osc::Pool from one load
/// thread with non-blocking sockets.
///
///   serve-pipelined  1 worker, 4 long-lived connections.  A saturated
///                    closed-loop phase (32 requests in flight per
///                    connection) gives rps; a paced open-loop phase at a
///                    fixed rate gives p50/p99 from each scheduled send.
///   serve-churn      2 workers on the SO_REUSEPORT accept path, all on
///                    one vCPU, 4 closed-loop slots that each connect, run
///                    one session, QUIT and repeat.
///
/// The benchmark sets no option on server-side sockets and connects only
/// through the pool's own listener.
///
//===----------------------------------------------------------------------===//

#include "Check.h"
#include "Workloads.h"

#include "sexp/Reader.h"
#include "regex/Regex.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace pb {

namespace {

constexpr int PipelinedConns = 4;
constexpr int InFlightPerConn = 32;
/// The paced phase's offered load, all connections together.  The seed
/// keeps pace at this rate (see README.md), so latency is the server's,
/// not a growing queue's.
constexpr double PacedRate = 8000;
constexpr double PacedWarmSeconds = 0.3;
constexpr int ChurnSlots = 4;
constexpr double DrainSeconds = 5;
constexpr double SessionTimeoutSeconds = 5;
/// Peak RSS is read when the measured pool has completed this many
/// requests (serve-pipelined) or measured sessions (serve-churn): the
/// server's memory grows with every request served, so a reading at the
/// end of a run would follow the request rate.  At the seed the paced
/// phase alone completes 39,000 requests and churn about 60,000 sessions;
/// a run that falls short of its count is broken.
constexpr uint64_t RssAtRequests = 30000;
constexpr uint64_t RssAtSessions = 20000;

/// One client socket with line framing on both directions.
class Conn {
public:
  Conn() = default;
  ~Conn() { close(); }
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;

  /// Blocking connect to the pool's loopback port, then non-blocking.
  /// TCP_NODELAY is the client's own setting: the load generator must
  /// not add Nagle delays of its own.
  bool connect(uint16_t Port, std::string &Err) {
    close();
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0) {
      Err = std::strerror(errno);
      return false;
    }
    sockaddr_in A{};
    A.sin_family = AF_INET;
    A.sin_port = htons(Port);
    A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof A) != 0) {
      Err = std::string("connect: ") + std::strerror(errno);
      close();
      return false;
    }
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof One);
    ::fcntl(Fd, F_SETFL, ::fcntl(Fd, F_GETFL) | O_NONBLOCK);
    return true;
  }
  void close() {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
    Out.clear();
    OutOff = 0;
    In.clear();
  }
  bool open() const { return Fd >= 0; }
  int fd() const { return Fd; }
  void queue(const std::string &S) { Out += S; }
  bool wantWrite() const { return OutOff < Out.size(); }

  /// Writes what the socket takes now; false on a hard error.
  bool flush() {
    while (OutOff < Out.size()) {
      ssize_t N = ::send(Fd, Out.data() + OutOff, Out.size() - OutOff,
                         MSG_NOSIGNAL);
      if (N < 0)
        return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
      OutOff += static_cast<size_t>(N);
    }
    Out.clear();
    OutOff = 0;
    return true;
  }

  /// Reads what is available and hands every complete line to \p OnLine.
  /// False on EOF or a socket error.
  template <class F> bool readLines(F &&OnLine) {
    char Buf[65536];
    for (;;) {
      ssize_t N = ::recv(Fd, Buf, sizeof Buf, 0);
      if (N == 0)
        return false;
      if (N < 0)
        return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
      In.append(Buf, static_cast<size_t>(N));
      size_t From = 0;
      for (size_t Nl; (Nl = In.find('\n', From)) != std::string::npos;
           From = Nl + 1) {
        OnLine(std::string_view(In).substr(From, Nl - From));
        if (!open())
          return true; // the callback closed us
      }
      In.erase(0, From);
      if (static_cast<size_t>(N) < sizeof Buf)
        return true;
    }
  }

  ReplyMatcher M;

private:
  int Fd = -1;
  std::string Out;
  size_t OutOff = 0;
  std::string In;
};

/// poll(2) over every open connection for at most \p WaitNs; \p Ready
/// receives the indices of the connections with events.
void pollConns(std::vector<Conn> &Cs, int64_t WaitNs, std::vector<pollfd> &Pfd,
               std::vector<int> &Ready) {
  Pfd.clear();
  Ready.clear();
  std::vector<int> Idx;
  for (size_t I = 0; I != Cs.size(); ++I) {
    Conn &K = Cs[I];
    if (!K.open())
      continue;
    short Ev = POLLIN;
    if (K.wantWrite())
      Ev |= POLLOUT;
    Pfd.push_back({K.fd(), Ev, 0});
    Idx.push_back(static_cast<int>(I));
  }
  timespec Ts{static_cast<time_t>(WaitNs / 1000000000),
              static_cast<long>(WaitNs % 1000000000)};
  if (::ppoll(Pfd.data(), Pfd.size(), &Ts, nullptr) <= 0)
    return;
  for (size_t I = 0; I != Pfd.size(); ++I)
    if (Pfd[I].revents)
      Ready.push_back(Idx[I]);
}

int64_t nsUntil(Clock::time_point T) {
  auto D = std::chrono::duration_cast<std::chrono::nanoseconds>(
               T - Clock::now())
               .count();
  return D < 0 ? 0 : D;
}

std::vector<Request> pipelinedMix(Rng &R, size_t N) {
  std::vector<Request> Out;
  for (size_t K = 0; K != N; ++K) {
    double U = R.unit();
    Out.push_back(U < 0.25   ? makePing()
                  : U < 0.65 ? makeEval(R)
                  : U < 0.90 ? makeMatch(R)
                             : makeStream(R));
  }
  return Out;
}

std::vector<Request> churnMix(Rng &R, size_t N) {
  std::vector<Request> Out;
  for (size_t K = 0; K != N; ++K) {
    double U = R.unit();
    Out.push_back(U < 0.30   ? makeMatchStream(R)
                  : U < 0.60 ? makeEval(R)
                  : U < 0.80 ? makePing()
                             : makeStream(R));
  }
  return Out;
}

/// Shared state of one serving run.
struct ServeRun {
  const RunArgs &A;
  Report &Rep;
  Tracer Tr;
  RefLoop Ref;
  RefLoop SetupRef; ///< Samples taken between set-up rounds.
  std::unique_ptr<osc::Pool> P;
  double SetupS = 0; ///< setup_s, from timeSetUps.
  std::vector<pollfd> Pfd;
  std::vector<int> Ready;
  uint64_t SearchBytes = 0; ///< Bytes the regex.search probes scanned.
  int PoolSpan = -1;        ///< The current pool's whole-life span.
  int PoolId = 0;           ///< The current pool's set-up number.

  ServeRun(const RunArgs &Args, Report &R) : A(Args), Rep(R) { Tr.On = A.Trace; }

  osc::Stats::Snapshot snap() const { return P->snapshot(); }

  /// Pool construction until every one of \p Cs has had its first reply,
  /// timed into \p Ms.  Returns false (with an error recorded) if the pool
  /// cannot serve.
  bool setUp(const osc::ServeOptions &O, std::vector<Conn> &Cs, int Id,
             double &Ms) {
    PoolId = Id;
    PoolSpan = Tr.open("serve.pool", -1, Id);
    int S = Tr.open("serve.setup", PoolSpan, Id);
    Clock::time_point T0 = Clock::now();
    P = std::make_unique<osc::Pool>(O);
    int St = Tr.open("serve.start", S, Id);
    if (!P->start()) {
      Rep.broken("Pool::start: " + P->error().Message);
      return false;
    }
    std::string Err;
    for (Conn &C : Cs) {
      int Cn = Tr.open("io.connect", St, Id);
      bool Ok = C.connect(P->tcpPort(), Err);
      Tr.close(Cn);
      if (!Ok) {
        Rep.broken("setup " + Err);
        return false;
      }
      C.queue("PING\n");
    }
    size_t Pongs = 0;
    Clock::time_point Deadline = T0 + std::chrono::seconds(10);
    while (Pongs < Cs.size() && Clock::now() < Deadline) {
      for (Conn &C : Cs)
        C.flush();
      pollConns(Cs, nsUntil(Deadline), Pfd, Ready);
      for (int I : Ready)
        Cs[static_cast<size_t>(I)].readLines([&](std::string_view L) {
          if (L == "PONG")
            ++Pongs;
          else
            Rep.broken("setup reply: " + std::string(L));
        });
    }
    Tr.close(St);
    Ms = msSince(T0);
    Tr.close(S);
    if (Pongs < Cs.size()) {
      Rep.broken("setup: no first reply on every connection");
      return false;
    }
    return true;
  }

  /// Closes the client side, then stops the pool.  Returns the pool's
  /// counters from start() to after stop().
  osc::Stats::Snapshot tearDown(std::vector<Conn> &Cs) {
    for (Conn &C : Cs)
      C.close();
    osc::Stats::Snapshot Before = P->snapshot();
    int S = Tr.open("serve.stop", PoolSpan, PoolId);
    P->stop();
    osc::Stats::Snapshot After = P->snapshot();
    osc::Stats::Snapshot Stop = After - Before, Life = After - P->baseline();
    Tr.close(S, &Stop);
    Tr.close(PoolSpan, &Life);
    if (!P->error().ok())
      Rep.broken("pool: " + P->error().Message);
    return Life;
  }

  /// The paper's zero-copy parks, over the pool's whole life.
  void checkParks(const osc::Stats::Snapshot &Life) {
    if (Life.WordsCopied != 0)
      Rep.broken("serve copied " + std::to_string(Life.WordsCopied) +
                 " stack words");
    if (Life.SliceClonedWords != 0)
      Rep.broken("serve cloned " + std::to_string(Life.SliceClonedWords) +
                 " slice words");
    if (Life.IoParks != Life.IoWakes)
      Rep.broken("parks " + std::to_string(Life.IoParks) + " != wakes " +
                 std::to_string(Life.IoWakes));
  }

  /// Times the set-ups into SetupS (see timeSetUps); every pool but the
  /// last is torn down untimed, and the last stays up for the measurement.
  bool setUps(const osc::ServeOptions &O, std::vector<Conn> &Cs) {
    SetupS = timeSetUps(SetupRef, [&](int K, double &Ms) {
      if (K)
        checkParks(tearDown(Cs));
      return setUp(O, Cs, K, Ms);
    });
    return SetupS >= 0;
  }

  /// The sexp and regex probes: the seed's payloads fed straight to
  /// readDatum and to regex::compile / init / feed / finish.
  void probes(const std::vector<Request> &Reqs) {
    if (!Tr.On)
      return;
    int Interp = Tr.open("compiler.interp_new");
    osc::Interp I;
    Tr.close(Interp);
    for (int Rep3 = 0; Rep3 != 3; ++Rep3) {
      for (const Request &Q : Reqs) {
        const std::string &L = Q.Sends[0];
        if (Q.V == Request::Eval || Q.V == Request::Stream) {
          std::string_view Payload(L);
          Payload = Payload.substr(Payload.find(' ') + 1);
          Payload.remove_suffix(1);
          int S = Tr.open("sexp.read");
          osc::ReadResult R = osc::readDatum(I.heap(), Payload);
          Tr.close(S);
          if (!R.Ok)
            Rep.broken("probe: readDatum rejected a payload");
        } else if (Q.V == Request::Match || Q.V == Request::MatchStream) {
          size_t P0 = L.find(' ') + 1;
          size_t P1 = L.find_first_of(" \n", P0);
          std::string_view Pat(L.data() + P0, P1 - P0);
          osc::regex::ProgramBuffer Buf;
          std::string Err;
          int S = Tr.open("regex.compile");
          bool Ok = osc::regex::compile(Pat, Buf, Err);
          Tr.close(S);
          if (!Ok) {
            Rep.broken("probe: regex::compile: " + Err);
            continue;
          }
          if (Q.V != Request::Match)
            continue;
          std::string_view Text(L.data() + P1 + 1, L.size() - P1 - 2);
          std::vector<osc::RegexThread> Threads(Buf.size());
          osc::regex::Machine M;
          M.Prog = Buf.data();
          M.NInstrs = Buf.size();
          M.Threads = Threads.data();
          S = Tr.open("regex.search", -1, static_cast<int64_t>(Text.size()));
          osc::regex::init(M);
          osc::regex::feed(M, Text);
          osc::regex::finish(M);
          Tr.close(S);
          SearchBytes += M.Offset;
        }
      }
      I.collect();
    }
  }

  /// Per-layer metrics every serving workload shares, from the trace.
  void layers(const osc::Stats::Snapshot &D, const osc::Stats::Snapshot &Life) {
    auto Per = [&](uint64_t N) {
      return D.RequestsServed ? double(N) / double(D.RequestsServed) : 0.0;
    };
    auto Ratio = [](uint64_t A, uint64_t B) {
      return B ? double(A) / double(B) : 0.0;
    };
    Tracer::Agg Start = Tr.agg("serve.start"), Stop = Tr.agg("serve.stop");
    Rep.layer("serve.start_ms", Start.medianMs());
    Rep.layer("serve.stop_ms", Stop.medianMs());
    Rep.layer("serve.requests", double(D.RequestsServed));
    Rep.layer("serve.shed", double(Life.RequestsShed));
    Rep.layer("serve.reaped", double(Life.ConnsReaped));
    Rep.layer("io.parks_per_req", Per(D.IoParks));
    Rep.layer("io.bytes_in_per_req", Per(D.BytesRead));
    Rep.layer("io.bytes_out_per_req", Per(D.BytesWritten));
    Rep.layer("io.wait_peak", double(Life.IoWaitPeak));
    Rep.layer("io.accepts", double(D.AcceptedConnections));
    Rep.layer("io.accept_batch", Ratio(D.AcceptedConnections, D.AcceptBatches));
    Rep.layer("io.live_after_stop",
              double(Life.AcceptedConnections - Life.ConnectionsClosed));
    Rep.layer("io.connect_us", Tr.agg("io.connect").medianMs() * 1e3);
    Tracer::Agg Read = Tr.agg("sexp.read");
    Rep.layer("sexp.read_us", Read.Count ? Read.TotalMs * 1e3 / double(Read.Count) : 0);
    Tracer::Agg Comp = Tr.agg("regex.compile"), Search = Tr.agg("regex.search");
    Rep.layer("regex.compiles_per_req", Per(D.RegexCompiles));
    Rep.layer("regex.steps_per_byte", Ratio(D.RegexSteps, D.RegexBytesScanned));
    Rep.layer("regex.stream_feeds", double(D.RegexStreamFeeds));
    Rep.layer("regex.compile_us", Comp.Count ? Comp.TotalMs * 1e3 / double(Comp.Count) : 0);
    Rep.layer("regex.search_ns_per_byte",
              SearchBytes ? Search.TotalMs * 1e6 / double(SearchBytes) : 0);
    Rep.layer("sched.spawns_per_req", Per(D.ThreadsSpawned));
    Rep.layer("sched.switches_per_req", Per(D.ContextSwitches));
    Rep.layer("sched.chan_blocks", double(D.ChannelBlocks));
    Rep.layer("sched.runq_peak", double(Life.RunQueuePeak));
    commonCounts(Rep, D, 1, double(D.RequestsServed));
    Rep.layer("compiler.interp_new_ms", Tr.agg("compiler.interp_new").medianMs());
    Rep.layer("bench.ref_ms", median(Ref.Runs));
    Rep.layer("bench.stall_max_ms", Ref.StallMaxMs);
  }

  /// Worker CPU over a window: the whole process minus the load thread.
  struct CpuMark {
    double Proc = processCpuMs();
    double Self = threadCpuMs();
    double workerMsSince() const {
      return (processCpuMs() - Proc) - (threadCpuMs() - Self);
    }
  };
};

/// Alternates tracing on and off in half-second slices of a measured
/// window, so one traced run also measures what the tracing costs.
struct OverheadSlices {
  Tracer &Tr;
  bool Enabled = false;
  Clock::time_point T0, Last;
  double Ms[2] = {0, 0};
  uint64_t Done[2] = {0, 0};

  explicit OverheadSlices(Tracer &T) : Tr(T) {}
  /// Starts slicing if this is a traced run.
  void begin(bool Traced) {
    Enabled = Traced;
    T0 = Last = Clock::now();
  }
  void tick(Clock::time_point Now) {
    if (!Enabled)
      return;
    Ms[Tr.On] += msBetween(Last, Now);
    Last = Now;
    Tr.On = (static_cast<int64_t>(msBetween(T0, Now) / 500) % 2) == 1;
  }
  /// Stops slicing and leaves tracing on again.
  void end() {
    if (!Enabled)
      return;
    tick(Clock::now());
    Enabled = false;
    Tr.On = true;
  }
  void completed() { Done[Tr.On] += 1; }
  /// Relative slowdown of the traced slices; 0 unless enabled.
  double overhead() const {
    if (!Ms[0] || !Ms[1] || !Done[1])
      return 0;
    double Untraced = double(Done[0]) / Ms[0], Traced = double(Done[1]) / Ms[1];
    return Untraced / Traced - 1;
  }
};

} // namespace

void runServePipelined(const RunArgs &A, Report &Rep) {
  Rng R(A.Seed);
  std::vector<Request> Reqs = pipelinedMix(R, 2048);
  ServeRun Run(A, Rep);
  Tracer &Tr = Run.Tr;
  osc::ServeOptions O; // defaults: the delayed-reply regime stays visible
  O.Workers = 1;
  std::vector<Conn> Cs(PipelinedConns);
  if (!Run.setUps(O, Cs))
    return;

  size_t Cursor = 0;
  uint64_t NextId = 0;
  uint64_t Served = 0; ///< Requests the measured pool has completed.
  auto Send = [&](Conn &C, Clock::time_point Due) {
    const Request &Q = Reqs[Cursor++ % Reqs.size()];
    C.queue(Q.Sends[0]);
    C.M.expect(&Q, NextId++, Due);
    ++Rep.Attempted;
  };
  auto Lost = [&](Conn &C, const char *Why) {
    for (const ReplyMatcher::Pending &Pd : C.M.pending())
      Rep.fail(std::string(Why) + ": " + verbName(Pd.Req->V) + " #" +
               std::to_string(Pd.Id));
    C.M = ReplyMatcher();
    C.close();
  };
  // One poll round: flush, wait, read; OnDone(conn, pending, now) per
  // completed request.
  auto Pump = [&](int64_t WaitNs, auto &&OnDone) {
    for (Conn &C : Cs)
      if (C.open() && !C.flush())
        Lost(C, "write error");
    pollConns(Cs, WaitNs, Run.Pfd, Run.Ready);
    Clock::time_point Now = Clock::now();
    for (int I : Run.Ready) {
      Conn &C = Cs[static_cast<size_t>(I)];
      bool Ok = C.readLines([&](std::string_view L) {
        ReplyMatcher::Pending Done;
        switch (C.M.onLine(L, Done)) {
        case ReplyMatcher::Outcome::Progress:
          break;
        case ReplyMatcher::Outcome::Completed:
          if (++Served == RssAtRequests)
            Rep.e2e("rss_mb", peakRssMb());
          OnDone(C, Done, Now);
          break;
        case ReplyMatcher::Outcome::Unmatched:
          Rep.fail("unmatched reply: " + std::string(L.substr(0, 80)));
          break;
        }
      });
      if (!Ok)
        Lost(C, "connection lost");
    }
  };
  auto CountOutstanding = [&] {
    size_t N = 0;
    for (Conn &C : Cs)
      N += C.M.outstanding();
    return N;
  };
  auto Drain = [&](auto &&OnDone) {
    Clock::time_point Deadline =
        Clock::now() + std::chrono::milliseconds(int64_t(DrainSeconds * 1e3));
    while (CountOutstanding() && Clock::now() < Deadline)
      Pump(std::min<int64_t>(nsUntil(Deadline), 10000000), OnDone);
    for (Conn &C : Cs)
      if (C.M.outstanding())
        Lost(C, "timeout");
  };

  auto CloseWindow = [&](int S, const osc::Stats::Snapshot &Before) {
    osc::Stats::Snapshot D = Run.snap() - Before;
    Tr.close(S, &D);
  };

  // Set-up, the saturated warm-up and the drains take about 2 s.
  double PacedSeconds = std::max(1.0, (A.Seconds - 2 - PacedWarmSeconds) * 0.6);
  double SatSeconds = std::max(1.0, A.Seconds - 2 - PacedWarmSeconds - PacedSeconds);
  Run.Ref.run();
  // Saturated: closed loop, InFlightPerConn requests per connection.
  {
    // A short unmeasured warm-up at the saturated shape.
    Clock::time_point End = Clock::now() + std::chrono::milliseconds(300);
    for (Conn &C : Cs)
      for (int K = 0; K != InFlightPerConn; ++K)
        Send(C, Clock::now());
    auto Refill = [&](Conn &C, const ReplyMatcher::Pending &, Clock::time_point Now) {
      if (Now < End)
        Send(C, Now);
    };
    while (Clock::now() < End)
      Pump(nsUntil(End), Refill);
    Drain(Refill);
  }

  uint64_t SatDone = 0;
  double SatMs = 0, SatCpuMs = 0;
  std::vector<double> SatLatUs;
  OverheadSlices Slices(Tr);
  {
    osc::Stats::Snapshot Before = Run.snap();
    int W = Tr.open("load.saturated", Run.PoolSpan);
    Slices.begin(A.Trace);
    ServeRun::CpuMark Cpu;
    Clock::time_point T0 = Clock::now();
    Clock::time_point End = T0 + std::chrono::milliseconds(int64_t(SatSeconds * 1e3));
    for (Conn &C : Cs)
      for (int K = 0; K != InFlightPerConn; ++K)
        Send(C, T0);
    auto OnDone = [&](Conn &C, const ReplyMatcher::Pending &Pd, Clock::time_point Now) {
      if (Now >= End)
        return;
      ++SatDone;
      Slices.completed();
      SatLatUs.push_back(msBetween(Pd.Due, Now) * 1e3);
      Tr.add("request", Pd.Due, Now, W, int64_t(Pd.Id));
      Send(C, Now);
    };
    while (Clock::now() < End) {
      Pump(std::min<int64_t>(nsUntil(End), 10000000), OnDone);
      Slices.tick(Clock::now());
    }
    SatMs = msBetween(T0, End);
    SatCpuMs = Cpu.workerMsSince();
    Slices.end();
    Drain(OnDone);
    CloseWindow(W, Before);
  }
  Run.Ref.run();

  // Paced second, on connections the saturated phase has aged: on fresh
  // connections the share of replies held up by delayed ACKs climbs for
  // seconds, at a rate that differs from run to run; once aged it stays
  // near its plateau.  Open loop at PacedRate, round-robin over the
  // connections, the first PacedWarmSeconds not measured.
  double PacedCpuMs = 0;
  OpenLoop L(PacedRate, Clock::now() + std::chrono::milliseconds(1));
  Clock::time_point MeasureFrom =
      L.due(0) + std::chrono::milliseconds(int64_t(PacedWarmSeconds * 1e3));
  WindowedLatency LatUs(MeasureFrom);
  {
    osc::Stats::Snapshot Before = Run.snap();
    int W = Tr.open("load.paced", Run.PoolSpan);
    ServeRun::CpuMark Cpu;
    Clock::time_point End =
        MeasureFrom + std::chrono::milliseconds(int64_t(PacedSeconds * 1e3));
    auto OnDone = [&](Conn &, const ReplyMatcher::Pending &Pd, Clock::time_point Now) {
      if (Pd.Due < MeasureFrom)
        return;
      LatUs.add(Now, msBetween(Pd.Due, Now) * 1e3);
      Tr.add("request", Pd.Due, Now, W, int64_t(Pd.Id));
    };
    for (;;) {
      Clock::time_point Now = Clock::now();
      while (L.isDue(Now) && L.nextDue() < End) {
        Conn &C = Cs[L.issued() % Cs.size()];
        Clock::time_point Due = L.issue(Now);
        if (C.open())
          Send(C, Due);
      }
      if (L.nextDue() >= End)
        break;
      Pump(nsUntil(L.nextDue()), OnDone);
    }
    Drain(OnDone);
    PacedCpuMs = Cpu.workerMsSince();
    CloseWindow(W, Before);
  }
  Run.Ref.run();

  osc::Stats::Snapshot Life = Run.tearDown(Cs);
  Run.checkParks(Life);
  Run.probes(Reqs);
  if (Served < RssAtRequests)
    Rep.broken("rss_mb is read at request " + std::to_string(RssAtRequests) +
               ", but only " + std::to_string(Served) + " completed");

  double RefMs = median(Run.Ref.Runs);
  Rep.e2e("setup_s", Run.SetupS);
  Rep.e2e("rps", SatMs > 0 ? double(SatDone) / (SatMs / 1e3) : 0);
  Rep.e2e("p50_us", LatUs.across(50));
  Rep.e2e("p99_us", LatUs.across(99));
  Rep.e2e("run_ref", (PacedCpuMs + SatCpuMs) / double(L.issued() + SatDone) * 1e3 / RefMs);
  Rep.note("saturated: " + std::to_string(SatDone) + " replies in " +
           std::to_string(SatMs / 1e3) + " s, p50 " +
           std::to_string(percentile(SatLatUs, 50)) + " us, p99 " +
           std::to_string(percentile(SatLatUs, 99)) + " us");
  Rep.note("paced at " + std::to_string(int(PacedRate)) + " req/s: " +
           std::to_string(LatUs.size()) + " replies, pooled p99 " +
           std::to_string(percentile(LatUs.pooled(), 99)) + " us, p999 " +
           std::to_string(percentile(LatUs.pooled(), 99.9)) + " us (not gated), mean lateness " +
           std::to_string(L.meanLateMs()) + " ms, p99 lateness " +
           std::to_string(percentile(L.LateMs, 99)) + " ms");
  Rep.note("worker cpu " + std::to_string(SatCpuMs) + " ms in the saturated window, " +
           std::to_string(PacedCpuMs) + " ms in the paced window; ref loop " +
           std::to_string(RefMs) + " ms");
  Rep.note("peak rss " + std::to_string(peakRssMb()) + " MB after " +
           std::to_string(Served) + " requests (rss_mb is read at " +
           std::to_string(RssAtRequests) + ")");

  if (A.Trace) {
    osc::Stats::Snapshot D = Tr.agg("load.saturated").Delta;
    D += Tr.agg("load.paced").Delta;
    Run.layers(D, Life);
    Rep.layer("bench.late_ms", L.meanLateMs());
    Rep.layer("bench.trace_overhead", Slices.overhead());
    Tr.printTable(stdout);
    if (!Tr.writeJson(A.TracePath))
      Rep.broken("cannot write " + A.TracePath);
  }
}

void runServeChurn(const RunArgs &A, Report &Rep) {
  // Every thread of this workload, the load thread and both shards, runs
  // on one vCPU.  Spread over idle vCPUs, each session waits on several
  // cross-vCPU wake-ups, whose latency on a shared host swung the session
  // rate 2-3x between runs; on one vCPU a wake-up is a local context
  // switch.  The shards still split the connections.
  pinToOneCpu();
  Rng R(A.Seed);
  std::vector<Request> Sessions = churnMix(R, 2048);
  ServeRun Run(A, Rep);
  Tracer &Tr = Run.Tr;
  osc::ServeOptions O; // default accept path: per-shard SO_REUSEPORT
  O.Workers = 2;
  {
    std::vector<Conn> First(ChurnSlots);
    if (!Run.setUps(O, First))
      return;
    for (Conn &C : First)
      C.close();
  }

  // A session ends with QUIT once its last reply is in, so the server
  // closes first and TIME_WAIT stays on its side.  A client that closed
  // first would leave one TIME_WAIT socket per session on the client
  // side, more than the ephemeral port range holds after a few runs.
  struct Slot {
    const Request *Q = nullptr;
    size_t Got = 0; ///< Reply lines received so far.
    bool Bye = false;
    Clock::time_point T0, Replied;
    uint64_t Id = 0;
    int Span = -1;
  };
  std::vector<Conn> Cs(ChurnSlots);
  std::vector<Slot> Ss(ChurnSlots);
  size_t Cursor = 0;
  uint64_t NextId = 0;
  uint64_t Done = 0;
  WindowedLatency LatUs(Clock::now());
  size_t Chunk = 0;
  double ChunkScale = 1;
  std::vector<uint64_t> Verbs(Request::NumVerbs);
  const std::string Bye = "BYE";
  int W = -1;
  bool Counting = false;
  Clock::time_point End;
  OverheadSlices Slices(Tr);

  auto Start = [&](size_t I) {
    Slot &S = Ss[I];
    S.Q = &Sessions[Cursor++ % Sessions.size()];
    S.Got = 0;
    S.Bye = false;
    S.Id = NextId++;
    S.T0 = Clock::now();
    S.Span = Tr.open("session", W, int64_t(S.Id));
    int Cn = Tr.open("io.connect", S.Span, int64_t(S.Id));
    std::string Err;
    bool Ok = Cs[I].connect(Run.P->tcpPort(), Err);
    Tr.close(Cn);
    ++Rep.Attempted;
    if (!Ok) {
      Rep.fail("session " + Err);
      Tr.close(S.Span);
      S.Q = nullptr;
      return;
    }
    Cs[I].queue(S.Q->Sends[0]);
  };
  auto Finish = [&](size_t I, const std::string &Failure) {
    Slot &S = Ss[I];
    Clock::time_point Now = Clock::now();
    Cs[I].close();
    Tr.close(S.Span);
    if (!Failure.empty()) {
      Rep.fail(std::string(verbName(S.Q->V)) + " session: " + Failure);
    } else if (Counting && Now < End) {
      if (++Done == RssAtSessions)
        Rep.e2e("rss_mb", peakRssMb());
      ++Verbs[S.Q->V];
      Slices.completed();
      LatUs.addTo(Chunk, msBetween(S.T0, S.Replied) * 1e3 * ChunkScale);
    }
    S.Q = nullptr;
    if (Now < End)
      Start(I);
  };
  auto Loop = [&](Clock::time_point Until) {
    End = Until;
    for (size_t I = 0; I != Cs.size(); ++I)
      Start(I);
    Clock::time_point HardStop =
        Until + std::chrono::milliseconds(int64_t(DrainSeconds * 1e3));
    for (;;) {
      Clock::time_point Now = Clock::now();
      bool Busy = false;
      for (size_t I = 0; I != Cs.size(); ++I) {
        if (!Ss[I].Q) {
          if (Now < End)
            Start(I);
          continue;
        }
        Busy = true;
        if (msBetween(Ss[I].T0, Now) > SessionTimeoutSeconds * 1e3 || Now > HardStop)
          Finish(I, "timeout");
        else if (!Cs[I].flush())
          Finish(I, "write error");
      }
      if (!Busy && Now >= End)
        return;
      pollConns(Cs, std::min<int64_t>(10000000, Now < End ? nsUntil(End) : 10000000),
                Run.Pfd, Run.Ready);
      for (int Ix : Run.Ready) {
        size_t I = static_cast<size_t>(Ix);
        Slot &S = Ss[I];
        if (!S.Q)
          continue;
        bool Ok = Cs[I].readLines([&](std::string_view L) {
          if (!S.Q)
            return;
          bool Quitting = S.Got == S.Q->Replies.size();
          const std::string &Want = Quitting ? Bye : S.Q->Replies[S.Got];
          if (L != Want || S.Bye) {
            Finish(I, "got \"" + std::string(L.substr(0, 60)) + "\", want \"" +
                          (S.Bye ? "end of stream" : Want) + "\"");
            return;
          }
          if (Quitting) {
            S.Bye = true;
          } else if (++S.Got == S.Q->Replies.size()) {
            S.Replied = Clock::now();
            Cs[I].queue("QUIT\n");
          } else if (S.Got < S.Q->Sends.size()) {
            Cs[I].queue(S.Q->Sends[S.Got]);
          }
        });
        if (!Ok && S.Q)
          Finish(I, S.Bye ? "" : "connection lost");
      }
      Slices.tick(Clock::now());
    }
  };

  Run.Ref.run();
  Loop(Clock::now() + std::chrono::milliseconds(300)); // unmeasured warm-up
  osc::Stats::Snapshot Before = Run.snap();
  W = Tr.open("load.churn", Run.PoolSpan);
  Slices.begin(A.Trace);
  Counting = true;
  ServeRun::CpuMark Cpu;
  // One-second chunks, each right after a reference-loop sample.  Pinned
  // to one vCPU this workload is CPU-bound, so a chunk's session rate and
  // latencies are scaled to nominal host speed by the sample next to it;
  // the run reports the interquartile mean over chunks.
  std::vector<double> ChunkRates;
  double WindowMs = 0;
  for (int K = 0, N = std::max(1, int(A.Seconds - 1.5)); K != N; ++K) {
    ChunkScale = RefNominalMs / Run.Ref.run();
    Chunk = size_t(K);
    uint64_t Done0 = Done;
    Clock::time_point C0 = Clock::now();
    Loop(C0 + std::chrono::seconds(1));
    double Ms = msBetween(C0, End);
    WindowMs += Ms;
    ChunkRates.push_back(double(Done - Done0) / (Ms / 1e3) / ChunkScale);
  }
  double CpuMs = Cpu.workerMsSince();
  Slices.end();
  osc::Stats::Snapshot D = Run.snap() - Before;
  Tr.close(W, &D);
  Run.Ref.run();

  std::vector<Conn> None;
  osc::Stats::Snapshot Life = Run.tearDown(None);
  Run.checkParks(Life);
  if (Life.AcceptedConnections != Life.ConnectionsClosed)
    Rep.broken("connections still open after stop: " +
               std::to_string(Life.AcceptedConnections - Life.ConnectionsClosed));
  Run.probes(Sessions);
  if (Done < RssAtSessions)
    Rep.broken("rss_mb is read at session " + std::to_string(RssAtSessions) +
               ", but only " + std::to_string(Done) + " completed");

  double RefMs = median(Run.Ref.Runs);
  Rep.e2e("setup_s", Run.SetupS);
  Rep.e2e("rps", midmean(ChunkRates));
  Rep.e2e("p50_us", LatUs.across(50));
  Rep.e2e("p99_us", LatUs.across(99));
  Rep.e2e("run_ref", Done ? CpuMs / double(Done) * 1e3 / RefMs : 0);
  std::string Mix;
  for (int V = 0; V != Request::NumVerbs; ++V)
    if (Verbs[size_t(V)])
      Mix += std::string(" ") + verbName(Request::Verb(V)) + "=" +
             std::to_string(Verbs[size_t(V)]);
  Rep.note("sessions " + std::to_string(Done) + " in " +
           std::to_string(WindowMs / 1e3) + " s (" +
           std::to_string(double(Done) / (WindowMs / 1e3)) +
           " per s unscaled):" + Mix + "; pooled p99 (scaled) " +
           std::to_string(percentile(LatUs.pooled(), 99)) + " us, p999 " +
           std::to_string(percentile(LatUs.pooled(), 99.9)) + " us (not gated)");
  Rep.note("peak rss " + std::to_string(peakRssMb()) + " MB after " +
           std::to_string(Done) + " sessions (rss_mb is read at " +
           std::to_string(RssAtSessions) + ")");
  for (int Wk = 0; Wk != Run.P->workers(); ++Wk) {
    osc::Stats::Snapshot S = Run.P->snapshot(Wk) - Run.P->baseline(Wk);
    Rep.note("shard " + std::to_string(Wk) + ": accepted " +
             std::to_string(S.AcceptedConnections) + ", requests " +
             std::to_string(S.RequestsServed) + ", words copied " +
             std::to_string(S.WordsCopied));
  }

  if (A.Trace) {
    Run.layers(Tr.agg("load.churn").Delta, Life);
    Rep.layer("bench.late_ms", 0);
    Rep.layer("bench.trace_overhead", Slices.overhead());
    Tr.printTable(stdout);
    if (!Tr.writeJson(A.TracePath))
      Rep.broken("cannot write " + A.TracePath);
  }
}

} // namespace pb
