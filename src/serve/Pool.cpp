#include "serve/Pool.h"

#include "io/ConnQueue.h"
#include "io/Port.h"
#include "io/Reactor.h"

#include <algorithm>
#include <cerrno>
#include <sstream>

#include <unistd.h>

using namespace osc;

// The worker program.  Pure Scheme over the io/sched primitives so the
// whole request path — accept, read, compute, write — runs on green
// threads whose every wait is a parked one-shot continuation.  makeInterp
// binds the globals it expects before the first eval.
const char *Pool::workerSource() {
  return R"scheme(
;; Backpressure: a conn-loop takes a token before handling a request and
;; returns it after, so at most *max-inflight* requests are in flight;
;; the excess park in channel-send! like any other blocked sender.
(define %tokens (make-channel *max-inflight*))

(define (starts-with? s p)
  (and (>= (string-length s) (string-length p))
       (string=? (substring s 0 (string-length p)) p)))

;; A tiny fixnum calculator: the EVAL payload is data, never code.  Any
;; shape this does not recognize — unbound names, non-fixnum leaves, a
;; zero divisor — folds to 'err.
(define (safe-eval-list l)
  (cond ((null? l) '())
        ((pair? l)
         (let ((h (safe-eval (car l))))
           (if (eq? h 'err)
               'err
               (let ((t (safe-eval-list (cdr l))))
                 (if (eq? t 'err) 'err (cons h t))))))
        (else 'err)))

(define (safe-eval e)
  (cond
    ((integer? e) e)
    ((pair? e)
     (let ((op (car e)) (args (safe-eval-list (cdr e))))
       (cond
         ((eq? args 'err) 'err)
         ((eq? op '+) (apply + args))
         ((eq? op '*) (apply * args))
         ((and (eq? op '-) (pair? args)) (apply - args))
         ((and (eq? op 'quotient) (pair? args) (pair? (cdr args))
               (null? (cdr (cdr args))) (not (= 0 (car (cdr args)))))
          (quotient (car args) (car (cdr args))))
         ((and (eq? op 'remainder) (pair? args) (pair? (cdr args))
               (null? (cdr (cdr args))) (not (= 0 (car (cdr args)))))
          (remainder (car args) (car (cdr args))))
         ((and (eq? op '<) (pair? args) (pair? (cdr args)))
          (if (apply < args) 1 0))
         ((and (eq? op '=) (pair? args) (pair? (cdr args)))
          (if (apply = args) 1 0))
         ((and (eq? op 'min) (pair? args)) (apply min args))
         ((and (eq? op 'max) (pair? args)) (apply max args))
         (else 'err))))
    (else 'err)))

;; MATCH <pattern> <text>: whole-payload regex search.  The pattern ends
;; at the first space that is neither inside a [...] class nor preceded
;; by a backslash — so a literal space in a pattern is spelled [ ] or
;; "\ "; everything after the separator, spaces included, is the text.
;; Bad patterns answer ERR via regex-try-compile — a client typo must
;; not unwind the connection thread.
(define (pattern-split s)
  (let loop ((i 0) (in-class #f) (esc #f))
    (if (>= i (string-length s))
        #f
        (let ((c (substring s i (+ i 1))))
          (cond
            (esc (loop (+ i 1) in-class #f))
            ((string=? c "\\") (loop (+ i 1) in-class #t))
            ((and in-class (string=? c "]")) (loop (+ i 1) #f #f))
            ((and (not in-class) (string=? c "[")) (loop (+ i 1) #t #f))
            ((and (not in-class) (string=? c " ")) i)
            (else (loop (+ i 1) in-class #f)))))))

(define (match-reply r)
  (if (pair? r)
      (string-append "FOUND " (number->string (car r)) " "
                     (number->string (cdr r)))
      "NOMATCH"))

(define (handle-match payload)
  (let ((sp (pattern-split payload)))
    (if (not sp)
        "ERR"
        (let ((re (regex-try-compile (substring payload 0 sp))))
          (if (not re)
              "ERR"
              (let ((r (regex-search
                        re (substring payload (+ sp 1)
                                      (string-length payload)))))
                (if r (match-reply r) "NOMATCH")))))))

(define (answer line)
  (cond
    ((string=? line "PING") "PONG")
    ((starts-with? line "EVAL ")
     (let ((d (string->datum (substring line 5 (string-length line)))))
       (if (eof-object? d)
           "ERR"
           (let ((v (safe-eval d)))
             (if (eq? v 'err) "ERR" (number->string v))))))
    ((starts-with? line "MATCH ")
     (handle-match (substring line 6 (string-length line))))
    (else "ERR")))

;; STREAM (e1 e2 ...): one PART line per expression, then DONE.  The parts
;; come out of a generator: each element's evaluation runs inside the
;; generator's reset, parks at (yield v) as a one-shot delimited capture,
;; and resumes with zero stack words copied when the writer loop asks for
;; the next part — even when the io-write in between parked the whole
;; connection thread (the suspended slice lives in the heap, not on the
;; thread's chain, so it travels across scheduler switches for free).
(define (handle-stream conn payload)
  (let ((d (string->datum payload)))
    (if (not (pair? d))
        (io-write conn "ERR\n")
        (let ((g (make-generator
                  (lambda (v)
                    (for-each (lambda (e) (yield (safe-eval e))) d)
                    'done))))
          (let loop ()
            (let ((p (generator-next g)))
              (if (eof-object? p)
                  (io-write conn "DONE\n")
                  (begin
                    (io-write conn
                              (string-append
                               "PART "
                               (if (eq? p 'err) "ERR" (number->string p))
                               "\n"))
                    (loop)))))))))

;; MATCH/STREAM <pattern>: incremental regex over chunks the client
;; sends as lines after the verb.  Lock-step: every chunk line gets a
;; reply — AGAIN while the matcher is undecided, FOUND s e / NOMATCH the
;; moment it settles (an END line forces the decision at end-of-input).
;; The matcher is driven from a generator exactly like STREAM's parts:
;; the body reads a chunk inside the generator's reset, feeds the
;; RegexStream, and parks at (yield reply) as a one-shot delimited
;; capture; the drive loop below resumes it with zero stack words copied
;; after each io-write.  The io-read-line inside the body parks the
;; whole connection thread with the suspended slice riding in the heap,
;; so a slow client is reaped by the ordinary *conn-deadline-ms* clock:
;; the parked read wakes with EOF, the generator returns, and the verb
;; unwinds exactly like an EOF'd conn-loop.
(define (handle-match-stream conn pat)
  (let ((re (regex-try-compile pat)))
    (if (not re)
        (io-write conn "ERR\n")
        (let ((g (make-generator
                  (lambda (v)
                    (let ((st (regex-stream re)))
                      (let loop ()
                        (let ((chunk (io-read-line conn)))
                          (cond
                            ((eof-object? chunk) 'eof)
                            ((string=? chunk "END")
                             (yield (match-reply (regex-stream-end! st)))
                             'done)
                            (else
                             (let ((r (regex-stream-feed! st chunk)))
                               (if r
                                   (begin (yield (match-reply r)) 'done)
                                   (begin (yield "AGAIN") (loop)))))))))))))
          (let drive ()
            (let ((reply (generator-next g)))
              (if (eof-object? reply)
                  'done
                  (begin
                    (io-write conn (string-append reply "\n"))
                    (drive)))))))))

;; One green thread per request: it writes the reply (parking if the
;; socket is full) and bumps the RequestsServed counter.  The counter is
;; bumped *before* the reply goes out: once a client has seen the reply the
;; request is guaranteed counted, even if a QUIT racing in on the same
;; connection tears the handler down right after (nursery teardown below).
(define (handle-request conn line)
  (serve-request-done!)
  (if (starts-with? line "STREAM ")
      (handle-stream conn (substring line 7 (string-length line)))
      (io-write conn (string-append (answer line) "\n"))))

;; Closing after QUIT drains the lines a client pipelined behind it: a
;; closed port's record is freed only once its buffered input has been
;; read, and reading a closed port never parks.
(define (close-conn conn)
  (io-close conn)
  (let drain ()
    (if (not (eof-object? (io-read-line conn)))
        (drain))))

;; One green thread per connection, one per request under the connection's
;; nursery.  The reader takes a token and spawns the handler detached —
;; nothing ever joins it, so its record is freed the moment it finishes
;; (requests pipeline; a serial request/reply client sees no
;; difference), and the connection owns a task tree: when the reader exits
;; — QUIT, client EOF, or the reactor reaping a slow/idle connection and
;; waking the parked read with EOF — the nursery scope closes and every
;; still-parked handler is cancelled by one-shot poisoning, in spawn
;; order, byte-identically run to run.  QUIT first waits for the requests
;; pipelined ahead of it (settle), then answers BYE and closes this
;; connection only: the worker stops when the host closes its handoff
;; queue.
(define (conn-loop conn bump settle)
  (let ((line (io-read-line conn)))
    (cond
      ((eof-object? line) (io-close conn))
      ((string=? line "QUIT")
       (settle)
       (io-write conn "BYE\n")
       (close-conn conn))
      ;; MATCH/STREAM runs inline, not spawned: the handler reads chunk
      ;; lines off this very connection, so a spawned copy would race the
      ;; pipelined reader for bytes.  The conn resumes normal dispatch
      ;; when the verb settles (or the connection is reaped mid-stream,
      ;; in which case the recursive io-read-line sees EOF and unwinds).
      ((starts-with? line "MATCH/STREAM ")
       (serve-request-done!)
       (handle-match-stream conn (substring line 13 (string-length line)))
       (conn-loop conn bump settle))
      (else
       (channel-send! %tokens 1)
       (bump 1)
       (spawn-detached (lambda ()
                         (handle-request conn line)
                         (channel-recv %tokens)
                         (bump -1)))
       (conn-loop conn bump settle)))))

;; Overload protection.  %live-conns counts connections currently owned by
;; a conn thread; admit-conn refuses new arrivals past *max-conns* with a
;; fast BUSY line (shed, not queued — the client learns immediately) and
;; arms the per-connection park deadline on the admitted ones, so a client
;; that stalls a read or write past *conn-deadline-ms* is reaped by the
;; reactor (the thread sees EOF / #f and unwinds normally, cancelling its
;; whole request tree on the way).
(define %live-conns 0)

;; A QUIT with handlers still running parks in channel-recv on a one-slot
;; channel, and the last handler to finish sends on it.  Channels are
;; never freed, so a worker keeps the ones it made for the next QUIT.
(define %quit-chans '())

(define (take-quit-chan)
  (if (pair? %quit-chans)
      (let ((ch (car %quit-chans)))
        (set! %quit-chans (cdr %quit-chans))
        ch)
      (make-channel 1)))

(define (conn-thread conn)
  (set! %live-conns (+ %live-conns 1))
  (let* ((pending 0)
         (waiter #f)
         (bump (lambda (d)
                 (set! pending (+ pending d))
                 (if waiter
                     (if (= pending 0) (channel-send! waiter #t)))))
         (settle (lambda ()
                   (if (> pending 0)
                       (let ((ch (take-quit-chan)))
                         (set! waiter ch)
                         (channel-recv ch)
                         (set! waiter #f)
                         (set! %quit-chans (cons ch %quit-chans)))))))
    (nursery (conn-loop conn bump settle))
    ;; Reclaim tokens orphaned by cancelled handlers: pending counts this
    ;; connection's un-returned tokens, and sends/recvs balance globally,
    ;; so the buffer holds at least that many — try-recv never parks.
    (let drain ((k pending))
      (if (> k 0)
          (begin (channel-try-recv %tokens) (drain (- k 1))))))
  (set! %live-conns (- %live-conns 1)))

(define (admit-conn conn)
  (if (and (> *max-conns* 0) (>= %live-conns *max-conns*))
      (begin
        (serve-shed! conn)
        (io-write conn "BUSY\n")
        (io-close conn))
      (begin
        (if (> *conn-deadline-ms* 0)
            (io-set-deadline! conn *conn-deadline-ms*))
        (spawn-detached (lambda () (conn-thread conn))))))

;; The hot path is the acceptor — the kernel load-balanced each
;; connection to this shard's own SO_REUSEPORT listener, so the accept
;; happens in-shard with no cross-thread traffic at all.  The taker is the
;; host's control path: it parks on the wakeup pipe until Pool::handoff
;; pushes a targeted connection (admitted exactly like an accepted one) or
;; Pool::stop closes the queue — the shutdown signal, answered by closing
;; the shard's listener so the parked acceptor wakes with EOF and the
;; program winds down once connections drain.
(define (acceptor)
  (let ((conn (io-accept *listener*)))
    (if (eof-object? conn)
        'closed
        (begin
          (admit-conn conn)
          (acceptor)))))

;; Shutdown drains the backlog first: connections the kernel already
;; completed on this shard's listener are admitted (and served) before
;; the listener closes; only never-established arrivals are refused.
(define (drain-backlog)
  (let ((conn (io-try-accept *listener*)))
    (if (and conn (not (eof-object? conn)))
        (begin
          (admit-conn conn)
          (drain-backlog))
        'drained)))

(define (taker)
  (let ((conn (io-take-conn)))
    (if (eof-object? conn)
        (begin
          (drain-backlog)
          (io-close *listener*))
        (begin
          (admit-conn conn)
          (taker)))))

(spawn acceptor)
(spawn taker)
(scheduler-run *preempt*)
)scheme";
}

// Out of line so Worker's members (unique_ptr over the forward-declared
// ConnQueue) only need a complete type here.
Pool::Pool(ServeOptions O) : Opt(std::move(O)) {}

Pool::Worker::~Worker() {
  if (WakeRd >= 0)
    ::close(WakeRd);
  if (WakeWr >= 0)
    ::close(WakeWr);
}

std::unique_ptr<Interp> Pool::makeInterp(Worker &W, uint16_t &TcpPort,
                                         std::string &Err) const {
  auto I = std::make_unique<Interp>(Opt.VmCfg);
  // Queue first: the wakeup port must be port 0 in every worker and
  // every restart, so per-shard traces line up across runs.
  if (!I->vm().attachConnQueue(W.Q.get(), W.WakeRd, W.WakeWr, Err))
    return nullptr;
  // SO_REUSEPORT admits every shard's listener on the one port, and a
  // restarted shard's fresh one alongside the others' live listeners.
  int LFd = openListener(TcpPort, Opt.Backlog, Err, /*ReusePort=*/true);
  if (LFd < 0) {
    Err = "io-listen: " + Err;
    return nullptr;
  }
  VM &M = I->vm();
  Handle Lid = M.reactor().addPort(LFd, Port::Kind::Listener);
  M.reactor().port(static_cast<int64_t>(Lid))->setTcpPort(TcpPort);
  I->defineGlobal("*listener*", Value::fixnum(static_cast<int64_t>(Lid)));
  I->defineGlobal("*max-inflight*", Value::fixnum(Opt.MaxInflight));
  I->defineGlobal("*preempt*", Value::fixnum(Opt.PreemptInterval));
  I->defineGlobal("*max-conns*", Value::fixnum(Opt.MaxConns));
  I->defineGlobal("*conn-deadline-ms*", Value::fixnum(Opt.ConnDeadlineMs));
  if (Opt.TraceWorkers)
    I->trace().start();
  return I;
}

bool Pool::start() {
  if (running()) {
    Err = {ErrorKind::Runtime, "pool already running"};
    return false;
  }
  Ws.clear();
  Stopping.store(false, std::memory_order_relaxed);
  Err = Error();

  if (Opt.Workers < 1) {
    Err = {ErrorKind::Runtime, "pool needs at least one worker"};
    return false;
  }

  // Worker 0's listener resolves the (possibly ephemeral) port; the rest
  // bind the resolved port, and the kernel load-balances arrivals across
  // them.
  uint16_t P = Opt.Port;
  std::string E;
  for (int N = 0; N != Opt.Workers; ++N) {
    auto W = std::make_unique<Worker>();
    W->Q = std::make_unique<ConnQueue>();
    if (openPipePair(W->WakeRd, W->WakeWr, E))
      W->I = makeInterp(*W, P, E);
    if (!W->I) {
      Err = {ErrorKind::Io, E};
      Ws.clear(); // Worker dtors close the wakeup pipes and listeners.
      return false;
    }
    W->Base = W->I->snapshot();
    Ws.push_back(std::move(W));
  }
  BoundPort = P;

  // Interps exist and queues are attached before any thread starts, so a
  // worker thread never sees a half-built pool.
  for (auto &W : Ws) {
    Worker *Wp = W.get();
    Wp->Thr = std::thread([this, Wp] { workerMain(*Wp); });
  }
  return true;
}

void Pool::workerMain(Worker &W) {
  const char *Program = Opt.Program ? Opt.Program : workerSource();
  for (;;) {
    W.R = W.I->eval(Program);
    if (W.R.Ok || Stopping.load(std::memory_order_relaxed) ||
        W.Restarts >= Opt.MaxWorkerRestarts)
      return;
    // The shard's program crashed.  Its Interp is unusable (the error may
    // have left the scheduler half-switched), but the handoff queue, the
    // wakeup pipe — and every fd queued — are host-owned and survive:
    // stand up a fresh Interp on the same queue, re-binding the shard's
    // listener (the crashed Interp's dies with its port table), and re-run
    // the program, which drains the queued connections as if they had
    // just been handed off.
    std::string E;
    uint16_t P = BoundPort;
    auto Fresh = makeInterp(W, P, E);
    if (!Fresh)
      return; // Keep the crash result; the shard is lost.
    // Keep the shard's counters continuous: bank the dead Interp's totals
    // (net of the fresh one's prelude work, so diffs against Base still
    // measure only serving), and account the connections that died with
    // it as closed so Accepted - Closed keeps meaning "live".
    Stats::Snapshot Dead = W.I->snapshot();
    Dead.ConnectionsClosed =
        std::max(Dead.ConnectionsClosed, Dead.AcceptedConnections);
    Stats::Snapshot FreshBase = Fresh->snapshot();
    Fresh->vm().stats().WorkerRestarts += 1;
    {
      std::lock_guard<std::mutex> L(Mu);
      W.Carry += Dead - FreshBase;
      // In-flight connections die with the crashed Interp: destroying it
      // closes its whole port table, so their clients see EOF.
      W.I = std::move(Fresh);
      W.Restarts += 1;
    }
    // No notify() needed: if fds are queued, the new program's first
    // io-take-conn pops one before ever parking.
  }
}

void Pool::notifyWorker(Worker &W) {
  // Same contract as Reactor::notify, but against the host-owned write
  // end, which is valid for the pool's whole life — no lock against a
  // mid-restart Interp swap.  EAGAIN (pipe full) is success: the wakeup
  // port is already readable.
  char B = 1;
  for (;;) {
    ssize_t N = ::write(W.WakeWr, &B, 1);
    if (N >= 0 || errno != EINTR)
      return;
  }
}

Error Pool::handoff(int Worker, int Fd) {
  if (Worker < 0 || Worker >= workers())
    return {ErrorKind::Runtime,
            "handoff: no such worker: " + std::to_string(Worker)};
  if (Stopping.load(std::memory_order_relaxed))
    return {ErrorKind::ServerStopped, "pool is stopping"};
  auto &W = *Ws[static_cast<size_t>(Worker)];
  if (!W.Q->push(Fd))
    return {ErrorKind::ServerStopped,
            "worker " + std::to_string(Worker) + ": handoff queue closed"};
  // The worker may be blocked in poll(2); make its wakeup port readable.
  notifyWorker(W);
  return {};
}

void Pool::stop() {
  if (Ws.empty())
    return;
  Stopping.store(true, std::memory_order_relaxed);
  // Close every handoff queue: each worker's taker drains what is left,
  // then sees EOF and closes its shard's listener, and the scheduler run
  // ends once in-flight connections finish.  The poke goes down the
  // host-owned pipe, so a shard mid-restart still gets it.
  for (auto &W : Ws) {
    W->Q->close();
    notifyWorker(*W);
  }
  for (auto &W : Ws)
    if (W->Thr.joinable())
      W->Thr.join();
  if (Err.ok()) {
    for (int N = 0; N != workers(); ++N) {
      const Interp::Result &R = Ws[static_cast<size_t>(N)]->R;
      if (!R.Ok) {
        Err = {R.Kind, "worker " + std::to_string(N) + ": " + R.Error};
        break;
      }
    }
  }
}

Pool::~Pool() { stop(); }

Stats::Snapshot Pool::snapshot() const {
  Stats::Snapshot Sum;
  std::lock_guard<std::mutex> L(Mu);
  for (auto &W : Ws) {
    Sum += W->I->snapshot();
    Sum += W->Carry;
  }
  return Sum;
}

Stats::Snapshot Pool::snapshot(int Worker) const {
  std::lock_guard<std::mutex> L(Mu);
  const auto &W = *Ws.at(static_cast<size_t>(Worker));
  Stats::Snapshot S = W.I->snapshot();
  S += W.Carry;
  return S;
}

Stats::Snapshot Pool::baseline() const {
  Stats::Snapshot Sum;
  for (auto &W : Ws)
    Sum += W->Base;
  return Sum;
}

Stats::Snapshot Pool::baseline(int Worker) const {
  return Ws.at(static_cast<size_t>(Worker))->Base;
}

const Interp::Result &Pool::result(int Worker) const {
  return Ws.at(static_cast<size_t>(Worker))->R;
}

std::string Pool::traceDump(int Worker) const {
  // Tag every line with the shard id so concatenated dumps stay
  // unambiguous; each shard numbers its own events from zero.
  std::string Raw;
  {
    std::lock_guard<std::mutex> L(Mu);
    Raw = Ws.at(static_cast<size_t>(Worker))->I->trace().toString();
  }
  std::string Tag = "w" + std::to_string(Worker) + " ";
  std::string Out;
  Out.reserve(Raw.size() + Tag.size() * 64);
  std::istringstream In(Raw);
  std::string Line;
  while (std::getline(In, Line)) {
    Out += Tag;
    Out += Line;
    Out += '\n';
  }
  return Out;
}
