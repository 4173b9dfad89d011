// The I/O reactor (src/io) as seen from inside the VM: ports over pipes
// and socketpairs, green threads parking on would-block reads/writes via
// one-shot continuation capture, deterministic wake ordering, the EOF
// object, channel-close! wake semantics, and the sched-stats snapshot.
//
// The headline property under test is the paper's: a steady-state
// park/resume copies zero stack words, even when the parked continuation
// spans several tiny segments.
//
// Registered under the ctest label "serve" together with test_serve.

#include "core/Config.h"
#include "io/Port.h"
#include "io/Reactor.h"
#include "vm/Interp.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace osc;

namespace {

std::string run(Interp &I, const std::string &Src) {
  return I.evalToString(Src);
}

// A reader green thread that collects every line from port `rd` until EOF
// and leaves the list (in arrival order) in `got`.
const char *ReaderDef =
    "(define got '())"
    "(define reader (spawn (lambda ()"
    "  (let loop ()"
    "    (let ((l (io-read-line rd)))"
    "      (if (eof-object? l) (reverse got)"
    "          (begin (set! got (cons l got)) (loop))))))))";

} // namespace

// --- Pipes and the park/wake round trip -------------------------------------

TEST(IoReactor, PipeParkWakeRoundTrip) {
  Interp I;
  EXPECT_EQ(run(I, "(define p (open-pipe))"
                   "(define rd (car p)) (define wr (cdr p))" +
                       std::string(ReaderDef) +
                       "(spawn (lambda ()"
                       "  (io-write wr \"alpha\n\")"
                       "  (yield)"
                       "  (io-write wr \"beta\n\")"
                       "  (io-close wr)))"
                       "(scheduler-run)"
                       "(thread-join reader)"),
            "(\"alpha\" \"beta\")");
  // The reader parked at least once (on the empty pipe) and every park
  // was matched by a wake.
  EXPECT_EQ(run(I, "(> (vm-stat 'io-parks) 0)"), "#t");
  EXPECT_EQ(run(I, "(= (vm-stat 'io-parks) (vm-stat 'io-wakes))"), "#t");
}

TEST(IoReactor, SocketpairRoundTrip) {
  Interp I;
  EXPECT_EQ(run(I, "(define p (open-socketpair))"
                   "(define rd (car p)) (define wr (cdr p))" +
                       std::string(ReaderDef) +
                       "(spawn (lambda ()"
                       "  (io-write wr \"one\n\")"
                       "  (io-write wr \"two\n\")"
                       "  (io-close wr)))"
                       "(scheduler-run)"
                       "(thread-join reader)"),
            "(\"one\" \"two\")");
}

TEST(IoReactor, EofTailWithoutNewlineIsDelivered) {
  // Bytes after the last newline still form a final line at EOF.
  Interp I;
  EXPECT_EQ(run(I, "(define p (open-pipe))"
                   "(define rd (car p)) (define wr (cdr p))" +
                       std::string(ReaderDef) +
                       "(spawn (lambda ()"
                       "  (io-write wr \"full\ntail\")"
                       "  (io-close wr)))"
                       "(scheduler-run)"
                       "(thread-join reader)"),
            "(\"full\" \"tail\")");
}

TEST(IoReactor, ReadAfterEofKeepsReturningEof) {
  Interp I;
  EXPECT_EQ(run(I, "(define p (open-pipe))"
                   "(define rd (car p)) (define wr (cdr p))"
                   "(io-close wr)"
                   "(list (eof-object? (io-read-line rd))"
                   "      (eof-object? (io-read-line rd)))"),
            "(#t #t)");
}

TEST(IoReactor, MainComputationBlocksInlineWithoutScheduler) {
  // Outside any green thread there is nothing to park: io-read-line on
  // the main computation polls inline.  Data already buffered in the
  // pipe is simply delivered.
  Interp I;
  EXPECT_EQ(run(I, "(define p (open-pipe))"
                   "(define rd (car p)) (define wr (cdr p))"
                   "(io-write wr \"main\nline\n\")"
                   "(list (io-read-line rd) (io-read-line rd))"),
            "(\"main\" \"line\")");
  EXPECT_EQ(run(I, "(vm-stat 'io-parks)"), "0");
}

TEST(IoReactor, WriterParksWhenPipeIsFull) {
  // One line far larger than a pipe's kernel buffer: the writer must
  // park mid-write and the reader must drain it across several wakes.
  Interp I;
  EXPECT_EQ(
      run(I, "(define p (open-pipe))"
             "(define rd (car p)) (define wr (cdr p))"
             "(define (grow s n) (if (zero? n) s (grow (string-append s s) (- n 1))))"
             "(define big (grow \"0123456789abcdef\" 13))" // 16 * 2^13 = 128 KiB
             "(define reader (spawn (lambda ()"
             "  (let loop ((n 0))"
             "    (let ((l (io-read-line rd)))"
             "      (if (eof-object? l) n (loop (+ n (string-length l)))))))))"
             "(spawn (lambda ()"
             "  (io-write wr (string-append big \"\n\"))"
             "  (io-close wr)))"
             "(scheduler-run)"
             "(list (thread-join reader) (= (thread-join reader) (string-length big)))"),
      "(131072 #t)");
  EXPECT_EQ(run(I, "(> (vm-stat 'io-parks) 1)"), "#t");
  EXPECT_EQ(run(I, "(> (vm-stat 'bytes-written) 131071)"), "#t");
  EXPECT_EQ(run(I, "(> (vm-stat 'bytes-read) 131071)"), "#t");
}

TEST(IoReactor, CloseWakesParkedReaderWithEof) {
  Interp I;
  EXPECT_EQ(run(I, "(define p (open-pipe))"
                   "(define rd (car p)) (define wr (cdr p))"
                   "(define t (spawn (lambda () (eof-object? (io-read-line rd)))))"
                   "(spawn (lambda () (io-close rd)))"
                   "(scheduler-run)"
                   "(thread-join t)"),
            "#t");
  EXPECT_EQ(run(I, "(= (vm-stat 'io-parks) (vm-stat 'io-wakes))"), "#t");
}

TEST(IoReactor, ClosedPortOperationsFail) {
  Interp I;
  auto R = I.eval("(define p (open-pipe))"
                  "(io-close (cdr p))"
                  "(io-write (cdr p) \"late\n\")");
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("closed"), std::string::npos) << R.Error;
  EXPECT_EQ(run(I, "(io-closed? (cdr p))"), "#t");
  EXPECT_EQ(run(I, "(io-closed? (car p))"), "#f");
}

TEST(IoReactor, PollTimeoutSurfacesAsError) {
  // A reader parked on a pipe nobody ever writes: the reactor's poll
  // deadline turns the stall into a trappable error instead of a hang.
  Config C;
  C.IoPollTimeoutMs = 50;
  Interp I(C);
  auto R = I.eval("(define p (open-pipe))"
                  "(spawn (lambda () (io-read-line (car p))))"
                  "(scheduler-run)");
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("io: poll timed out"), std::string::npos) << R.Error;
  // The VM survives the abort and is reusable.
  EXPECT_EQ(run(I, "(+ 1 2)"), "3");
}

// --- Zero-copy parks ---------------------------------------------------------

TEST(IoReactor, SteadyStateParkResumeCopiesZeroWords) {
  Interp I;
  // Warm up one full park/wake cycle, then measure a second one.
  std::string Cycle = "(define p (open-pipe))"
                      "(define rd (car p)) (define wr (cdr p))"
                      "(define t (spawn (lambda () (io-read-line rd))))"
                      "(spawn (lambda () (io-write wr \"ping\n\") (io-close wr)))"
                      "(scheduler-run)"
                      "(thread-join t)";
  EXPECT_EQ(run(I, Cycle), "\"ping\"");
  EXPECT_EQ(run(I, "(define w0 (vm-stat 'words-copied))"
                   "(define parks0 (vm-stat 'io-parks))" +
                       Cycle +
                       "(list (- (vm-stat 'words-copied) w0)"
                       "      (> (vm-stat 'io-parks) parks0))"),
            "(0 #t)");
}

TEST(IoReactor, MultiShotShimCopiesOnEveryPark) {
  // The baseline column: with SchedOneShotSwitch off, every park is a
  // multi-shot capture and every resume pays a stack copy.
  Config C;
  C.SchedOneShotSwitch = false;
  Interp I(C);
  EXPECT_EQ(run(I, "(define p (open-pipe))"
                   "(define rd (car p)) (define wr (cdr p))"
                   "(define w0 (vm-stat 'words-copied))"
                   "(define t (spawn (lambda () (io-read-line rd))))"
                   "(spawn (lambda () (io-write wr \"ping\n\") (io-close wr)))"
                   "(scheduler-run)"
                   "(list (thread-join t) (> (vm-stat 'words-copied) w0))"),
            "(\"ping\" #t)");
}

TEST(IoReactor, ParkedContinuationAcrossTinySegmentsResumesIntact) {
  // The satellite case: 32-word segments force the parked thread's
  // continuation to span several segments; the one-shot resume must
  // reinstate it byte-identically (the arithmetic proves every frame
  // survived) and still copy nothing.
  Config C;
  C.SegmentWords = 32;
  C.InitialSegmentWords = 64;
  C.CopyBoundWords = 16;
  uint64_t Copied[2];
  for (bool OneShot : {true, false}) {
    Config P = C;
    P.SchedOneShotSwitch = OneShot;
    Interp I(P);
    EXPECT_EQ(
        run(I, "(define p (open-pipe))"
               "(define rd (car p)) (define wr (cdr p))"
               "(define (deep n)"
               "  (if (zero? n)"
               "      (string-length (io-read-line rd))"
               "      (+ 1 (deep (- n 1)))))"
               "(define t (spawn (lambda () (deep 40))))"
               "(spawn (lambda () (io-write wr \"hello\n\")))"
               "(scheduler-run)"
               "(thread-join t)"),
        "45")
        << "one-shot=" << OneShot;
    EXPECT_EQ(run(I, "(> (vm-stat 'overflows) 0)"), "#t");
    Copied[OneShot ? 0 : 1] = I.stats().WordsCopied;
  }
  // Segment overflow during the deep recursion legitimately copies a few
  // bounded frames in both modes; the multi-shot shim additionally pays
  // a full stack copy per park, so it must copy strictly more.
  EXPECT_LT(Copied[0], Copied[1]);
}

// --- The write side: queued output and its flush points ----------------------

TEST(IoWriteSide, ThreadWritesWaitForTheRunQueueToDrain) {
  // Inside a thread io-write only queues: no byte reaches the fd while any
  // thread is still runnable.  Once the run queue drains, both replies go
  // out together, before scheduler-run returns.
  Interp I;
  EXPECT_EQ(run(I, "(define p (open-pipe))"
                   "(define rd (car p)) (define wr (cdr p))"
                   "(define before (vm-stat 'bytes-written))"
                   "(define seen '())"
                   "(define (note)"
                   "  (set! seen (cons (- (vm-stat 'bytes-written) before) seen)))"
                   "(spawn (lambda ()"
                   "  (io-write wr \"ab\n\") (note) (yield)"
                   "  (io-write wr \"cd\n\") (note)))"
                   "(spawn (lambda () (note) (yield) (note)))"
                   "(scheduler-run)"
                   "(note)"
                   "(list (reverse seen) (io-read-line rd) (io-read-line rd)"
                   "      (vm-stat 'io-parks))"),
            "((0 0 0 0 6) \"ab\" \"cd\" 0)");
}

TEST(IoWriteSide, PreemptiveSwitchWritesQueuedOutput) {
  // A thread that computes past its slice cannot hold back queued output:
  // the preemptive switch writes it before the next thread runs, although
  // the run queue never drains in between.
  Interp I;
  EXPECT_EQ(run(I, "(define p (open-pipe))"
                   "(define before (vm-stat 'bytes-written))"
                   "(define seen #f)"
                   "(define (spin n) (if (> n 0) (spin (- n 1)) 'done))"
                   "(spawn (lambda () (io-write (cdr p) \"reply\n\") (spin 100000)))"
                   "(spawn (lambda ()"
                   "  (set! seen (- (vm-stat 'bytes-written) before))))"
                   "(scheduler-run 50)"
                   "(list seen (> (vm-stat 'preemptive-switches) 0)"
                   "      (io-read-line (car p)))"),
            "(6 #t \"reply\")");
}

TEST(IoWriteSide, SchedulerRunReturnsAfterHeldBackOutputIsWritten) {
  // The last thread queues more than the socket takes and finishes.  The
  // main computation writes through, so scheduler-run first writes the
  // rest inline, while a host thread drains the other end.
  int Sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sp), 0);
  Interp I;
  uint32_t Id = I.vm().reactor().addAdoptedPort(Sp[0], Port::Kind::Stream);
  I.defineGlobal("conn", Value::fixnum(Id));
  size_t Got = 0;
  std::thread Drain([&] {
    char Buf[4096];
    for (ssize_t N; (N = ::read(Sp[1], Buf, sizeof Buf)) > 0;)
      Got += static_cast<size_t>(N);
  });
  EXPECT_EQ(run(I, "(define (grow s n)"
                   "  (if (zero? n) s (grow (string-append s s) (- n 1))))"
                   "(define big (grow \"0123456789abcdef\" 15))" // 512 KiB
                   "(define before (vm-stat 'bytes-written))"
                   "(spawn (lambda () (io-write conn big)))"
                   "(scheduler-run)"
                   "(define after (vm-stat 'bytes-written))"
                   "(io-close conn)"
                   "(- after before)"),
            "524288");
  Drain.join();
  ::close(Sp[1]);
  EXPECT_EQ(Got, 524288u);
}

TEST(IoWriteSide, WriteToAClosedPortInsideAThreadReturnsFalse) {
  // The connection is gone: a thread's write sees #f, exactly like a writer
  // that was parked when the port was reaped.  (The main computation still
  // gets an error; see ClosedPortOperationsFail.)
  Interp I;
  EXPECT_EQ(run(I, "(define p (open-pipe))"
                   "(io-close (cdr p))"
                   "(define t (spawn (lambda () (io-write (cdr p) \"late\n\"))))"
                   "(scheduler-run)"
                   "(thread-join t)"),
            "#f");
}

TEST(IoAccept, AcceptedSocketsHaveNoDelay) {
  // Replies are coalesced into one write per port per reactor turn, so
  // Nagle would only hold the last segment back for the peer's delayed
  // ACK: every socket the system accepts itself has TCP_NODELAY.
  auto NoDelay = [](int Fd) {
    int V = -1;
    socklen_t L = sizeof V;
    return ::getsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &V, &L) == 0 ? V : -1;
  };
  uint16_t TcpPort = 0;
  std::string E;
  int Lfd = openListener(TcpPort, 8, E);
  ASSERT_GE(Lfd, 0) << E;
  Port L(0, Lfd, Port::Kind::Listener);
  int C = connectLoopback(TcpPort, E);
  ASSERT_GE(C, 0) << E;
  ASSERT_TRUE(pollOneFd(Lfd, /*ForWrite=*/false, 5000));
  int S = L.acceptConn();
  ASSERT_GE(S, 0) << L.lastError();
  EXPECT_NE(NoDelay(S), 0);
  EXPECT_EQ(NoDelay(C), 0); // The connecting side keeps the kernel default.
  EXPECT_EQ(L.acceptConn(), -1); // Nothing else pending.
  ::close(S);
  ::close(C);
}

// --- Line framing (Port, no interpreter) -------------------------------------

namespace {

/// A socketpair whose first end is wrapped in a Port; the test writes the
/// other end.
struct PortPair {
  PortPair() {
    std::string E;
    EXPECT_TRUE(openSocketPairFds(A, B, E)) << E;
    P = std::make_unique<Port>(0, A, Port::Kind::Stream);
  }
  ~PortPair() {
    if (B >= 0)
      ::close(B);
  }
  void send(const std::string &S) {
    ASSERT_EQ(::write(B, S.data(), S.size()), static_cast<ssize_t>(S.size()));
  }
  Port::Io fill() { return P->fillInput(In); }
  int A = -1, B = -1;
  uint64_t In = 0;
  std::unique_ptr<Port> P;
};

} // namespace

TEST(PortFraming, ManyLinesInOneFill) {
  PortPair Pp;
  std::string Batch;
  for (int I = 0; I != 2000; ++I)
    Batch += "line " + std::to_string(I) + "\n";
  Pp.send(Batch);
  EXPECT_EQ(Pp.fill(), Port::Io::Progress);
  EXPECT_EQ(Pp.In, Batch.size());
  std::string L;
  for (int I = 0; I != 2000; ++I) {
    ASSERT_TRUE(Pp.P->takeLine(L)) << I;
    ASSERT_EQ(L, "line " + std::to_string(I));
  }
  EXPECT_FALSE(Pp.P->takeLine(L));
  EXPECT_EQ(Pp.P->inputBuffered(), 0u);
}

TEST(PortFraming, CrLfSplitAcrossFills) {
  PortPair Pp;
  std::string L;
  Pp.send("abc\r");
  EXPECT_EQ(Pp.fill(), Port::Io::Progress);
  EXPECT_FALSE(Pp.P->takeLine(L)); // No newline yet.
  Pp.send("\ndef\r");
  EXPECT_EQ(Pp.fill(), Port::Io::Progress);
  ASSERT_TRUE(Pp.P->takeLine(L));
  EXPECT_EQ(L, "abc");
  EXPECT_FALSE(Pp.P->takeLine(L));
  Pp.send("\n");
  EXPECT_EQ(Pp.fill(), Port::Io::Progress);
  ASSERT_TRUE(Pp.P->takeLine(L));
  EXPECT_EQ(L, "def");
  EXPECT_EQ(Pp.P->inputBuffered(), 0u);
}

TEST(PortFraming, EofTailAfterACompaction) {
  PortPair Pp;
  // Taking the two long lines moves the read cursor past half the buffer,
  // which compacts it; the short line and the tail must survive that.
  Pp.send(std::string(100, 'a') + "\n" + std::string(100, 'b') + "\nc\ntail");
  EXPECT_EQ(Pp.fill(), Port::Io::Progress);
  std::string L;
  ASSERT_TRUE(Pp.P->takeLine(L));
  EXPECT_EQ(L, std::string(100, 'a'));
  ASSERT_TRUE(Pp.P->takeLine(L));
  EXPECT_EQ(L, std::string(100, 'b'));
  EXPECT_EQ(Pp.P->inputBuffered(), 6u); // "c\ntail"
  ::close(Pp.B);
  Pp.B = -1;
  EXPECT_EQ(Pp.fill(), Port::Io::Eof);
  ASSERT_TRUE(Pp.P->takeLine(L));
  EXPECT_EQ(L, "c");
  ASSERT_TRUE(Pp.P->takeLine(L));
  EXPECT_EQ(L, "tail");
  EXPECT_FALSE(Pp.P->takeLine(L));
}

TEST(PortFraming, LineCapDiscardsTheOverlongTailOnly) {
  PortPair Pp;
  Pp.send("ok\n");
  // Feed one unterminated line in chunks the socket buffer holds, filling
  // after each: at exactly the cap it is still a line in progress.
  const std::string Chunk(16 * 1024, 'x');
  for (size_t Sent = 0; Sent != Port::MaxLineBytes; Sent += Chunk.size()) {
    Pp.send(Chunk);
    ASSERT_EQ(Pp.fill(), Port::Io::Progress) << Sent;
  }
  Pp.send("y"); // One byte past the cap.
  EXPECT_EQ(Pp.fill(), Port::Io::Overlong);
  EXPECT_NE(Pp.P->lastError().find(std::to_string(Port::MaxLineBytes)),
            std::string::npos);
  // The complete line ahead of the overlong one is still there; the
  // partial line is gone, so after the close it is not a final line.
  std::string L;
  ASSERT_TRUE(Pp.P->takeLine(L));
  EXPECT_EQ(L, "ok");
  Pp.P->closeNow();
  EXPECT_FALSE(Pp.P->takeLine(L));
}

TEST(IoWriteSide, OverlongLineReapsThePortAndTheReaderSeesEof) {
  // A green thread writes one line, then 1 MiB + 1 bytes with no newline
  // in 64 KiB chunks.  The reader's port is reaped only once it has read
  // the last byte, so the writer's output is all delivered by then and
  // nothing else is dropped.
  Interp I;
  ASSERT_EQ(Port::MaxLineBytes, size_t{1} << 20);
  EXPECT_EQ(run(I, "(define p (open-socketpair))"
                   "(define rd (car p)) (define wr (cdr p))"
                   "(define (grow s n)"
                   "  (if (zero? n) s (grow (string-append s s) (- n 1))))"
                   "(define chunk (grow \"zzzz\" 14))" // 64 KiB
                   "(define w (spawn (lambda ()" // #t: no write answered #f
                   "  (let loop ((n 16) (ok (io-write wr \"first\n\")))"
                   "    (if (zero? n) (and ok (io-write wr \"z\") #t)"
                   "        (loop (- n 1) (and ok (io-write wr chunk))))))))"
                   "(define t (spawn (lambda ()"
                   "  (let* ((a (io-read-line rd)) (b (io-read-line rd)))"
                   "    (list a (eof-object? b) (io-closed? rd))))))"
                   "(scheduler-run)"
                   "(list (thread-join w) (thread-join t)"
                   "      (vm-stat 'conns-reaped))"),
            "(#t (\"first\" #t #t) 1)");
}

// --- Determinism -------------------------------------------------------------

namespace {

// Two fresh interpreters, same program, same config: the control-event
// traces (which include IoWait/IoReady with stable port ids) must match
// byte for byte.
void expectDeterministicTrace(const Config &C, const std::string &Body) {
  std::string Src = "(trace-start!)" + Body + "(trace-stop!) (trace-dump)";
  Interp A(C), B(C);
  auto RA = A.eval(Src);
  auto RB = B.eval(Src);
  ASSERT_TRUE(RA.Ok) << RA.Error;
  ASSERT_TRUE(RB.Ok) << RB.Error;
  std::string DA = A.valueToString(RA.Val), DB = B.valueToString(RB.Val);
  EXPECT_EQ(DA, DB);
  EXPECT_NE(DA.find("io-wait"), std::string::npos) << DA;
  EXPECT_NE(DA.find("io-ready"), std::string::npos) << DA;
}

const char *TracedBody =
    "(define p (open-pipe))"
    "(define rd (car p)) (define wr (cdr p))"
    "(define t (spawn (lambda ()"
    "  (let loop ((n 0))"
    "    (let ((l (io-read-line rd)))"
    "      (if (eof-object? l) n (loop (+ n (string-length l)))))))))"
    "(spawn (lambda ()"
    "  (io-write wr \"aa\n\") (yield)"
    "  (io-write wr \"bbb\n\")"
    "  (io-close wr)))"
    "(scheduler-run)"
    "(thread-join t)";

} // namespace

TEST(IoDeterminism, TraceIdenticalRunToRun) {
  expectDeterministicTrace(Config{}, TracedBody);
}

TEST(IoDeterminism, TraceIdenticalUnderScriptedPreemption) {
  Config C;
  C.Faults.PreemptAtCalls = {5, 9, 17, 23, 31};
  expectDeterministicTrace(C, TracedBody);
}

TEST(IoDeterminism, TraceIdenticalUnderTinySegments) {
  Config C;
  C.SegmentWords = 32;
  C.InitialSegmentWords = 64;
  C.CopyBoundWords = 16;
  expectDeterministicTrace(C, TracedBody);
}

TEST(IoDeterminism, WakeOrderFollowsPortIdThenSeq) {
  // Two readers parked on two different pipes become ready in the same
  // poll; the reactor must wake them in port-id order, not fd or arrival
  // order.  Both pipes are written while the readers are parked.
  Interp I;
  EXPECT_EQ(run(I, "(define p1 (open-pipe)) (define p2 (open-pipe))"
                   "(define order '())"
                   "(define (reader tag rd)"
                   "  (lambda ()"
                   "    (io-read-line rd)"
                   "    (set! order (cons tag order))))"
                   // Spawn in reverse port order: wake order must still
                   // follow port ids.
                   "(spawn (reader 'b (car p2)))"
                   "(spawn (reader 'a (car p1)))"
                   "(spawn (lambda ()"
                   "  (io-write (cdr p2) \"x\n\")"
                   "  (io-write (cdr p1) \"y\n\")))"
                   "(scheduler-run)"
                   "(reverse order)"),
            "(a b)");
}

// --- channel-close! ----------------------------------------------------------

TEST(ChannelClose, ParkedReceiversWakeWithEofInOrder) {
  Interp I;
  EXPECT_EQ(run(I, "(define ch (make-channel 0))"
                   "(define order '())"
                   "(define (rx tag)"
                   "  (lambda ()"
                   "    (let ((v (channel-recv ch)))"
                   "      (set! order (cons (list tag (eof-object? v)) order)))))"
                   "(spawn (rx 'first))"
                   "(spawn (rx 'second))"
                   "(spawn (lambda () (channel-close! ch)))"
                   "(scheduler-run)"
                   "(reverse order)"),
            "((first #t) (second #t))");
  EXPECT_EQ(run(I, "(vm-stat 'channels-closed)"), "1");
}

TEST(ChannelClose, BufferedValuesDrainBeforeEof) {
  Interp I;
  EXPECT_EQ(run(I, "(define ch (make-channel 4))"
                   "(channel-send! ch 'a) (channel-send! ch 'b)"
                   "(channel-close! ch)"
                   "(list (channel-recv ch) (channel-recv ch)"
                   "      (eof-object? (channel-recv ch)))"),
            "(a b #t)");
}

TEST(ChannelClose, SendOnClosedChannelFails) {
  Interp I;
  auto R = I.eval("(define ch (make-channel 2))"
                  "(channel-close! ch)"
                  "(channel-send! ch 1)");
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("closed"), std::string::npos) << R.Error;
}

TEST(ChannelClose, ParkedSenderIsPoisonedAndVmSurvives) {
  Interp I;
  auto R = I.eval("(define ch (make-channel 0))"
                  "(spawn (lambda () (channel-send! ch 'stuck)))"
                  "(spawn (lambda () (channel-close! ch)))"
                  "(scheduler-run)");
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("closed while a send was parked"), std::string::npos)
      << R.Error;
  EXPECT_EQ(run(I, "(* 7 6)"), "42");
  EXPECT_EQ(run(I, "(channel-closed? ch)"), "#t");
}

TEST(ChannelClose, CloseIsIdempotent) {
  Interp I;
  EXPECT_EQ(run(I, "(define ch (make-channel 1))"
                   "(channel-close! ch)"
                   "(channel-close! ch)"
                   "(list (channel-closed? ch) (vm-stat 'channels-closed))"),
            "(#t 1)");
}

TEST(ChannelClose, ClosedPredicateOnOpenChannel) {
  Interp I;
  EXPECT_EQ(run(I, "(channel-closed? (make-channel 3))"), "#f");
}

// --- sched-stats -------------------------------------------------------------

TEST(SchedStats, AlistCarriesTheCounters) {
  Interp I;
  EXPECT_EQ(run(I, "(define p (open-pipe))"
                   "(define rd (car p)) (define wr (cdr p))"
                   "(define t (spawn (lambda () (io-read-line rd))))"
                   "(spawn (lambda () (io-write wr \"hi\n\") (io-close wr)))"
                   "(scheduler-run)"
                   "(define s (sched-stats))"
                   "(define (stat k) (cdr (assq k s)))"
                   "(list (stat 'threads-spawned)"
                   "      (> (stat 'io-parks) 0)"
                   "      (= (stat 'io-parks) (stat 'io-wakes))"
                   "      (stat 'words-copied)"
                   "      (>= (stat 'bytes-written) 3)"
                   "      (> (stat 'one-shot-invokes) 0)"
                   // The accept-path counters ride in the same alist (and
                   // vm-stat) even off the serving stack: nothing accepted
                   // here, so both are present and zero.
                   "      (stat 'accepted-connections)"
                   "      (stat 'accept-batches)"
                   "      (vm-stat 'accept-batches))"),
            "(2 #t #t 0 #t #t 0 0 0)");
}

TEST(SchedStats, MatchesVmStat) {
  Interp I;
  EXPECT_EQ(run(I, "(spawn (lambda () (yield) 'x))"
                   "(spawn (lambda () (yield) 'y))"
                   "(scheduler-run)"
                   "(= (cdr (assq 'context-switches (sched-stats)))"
                   "   (vm-stat 'context-switches))"),
            "#t");
}

// --- string->datum -----------------------------------------------------------

TEST(StringToDatum, ParsesASexpr) {
  Interp I;
  EXPECT_EQ(run(I, "(string->datum \"(+ 1 (* 2 3))\")"), "(+ 1 (* 2 3))");
  EXPECT_EQ(run(I, "(string->datum \"42\")"), "42");
}

TEST(StringToDatum, EmptyAndGarbageYieldEof) {
  Interp I;
  EXPECT_EQ(run(I, "(list (eof-object? (string->datum \"\"))"
                   "      (eof-object? (string->datum \"   \"))"
                   "      (eof-object? (string->datum \"(unclosed\")))"),
            "(#t #t #t)");
}
