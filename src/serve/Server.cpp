#include "serve/Server.h"

#include "io/Reactor.h"
#include "serve/Client.h"

using namespace osc;

// The protocol core.  Pure Scheme over the io/sched primitives so the
// whole request path — accept, read, compute, write — runs on green
// threads whose every wait is a parked one-shot continuation.  The host
// binds *max-inflight* and *preempt* before evaluating this; each
// variant (Server's acceptor, Pool's take-conn worker) appends its own
// accept loop plus an (on-quit) definition saying what a client's QUIT
// tears down beyond its own connection.
const char *Server::protocolSource() {
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
;; order, byte-identically run to run.  QUIT answers BYE, closes the
;; connection, then runs the variant hook (Server: close the listener so
;; the parked acceptor wakes with EOF; Pool: nothing — workers stop when
;; the host closes their handoff queue).
(define (conn-loop conn bump)
  (let ((line (io-read-line conn)))
    (cond
      ((eof-object? line) (io-close conn))
      ((string=? line "QUIT")
       (io-write conn "BYE\n")
       (close-conn conn)
       (on-quit))
      ;; MATCH/STREAM runs inline, not spawned: the handler reads chunk
      ;; lines off this very connection, so a spawned copy would race the
      ;; pipelined reader for bytes.  The conn resumes normal dispatch
      ;; when the verb settles (or the connection is reaped mid-stream,
      ;; in which case the recursive io-read-line sees EOF and unwinds).
      ((starts-with? line "MATCH/STREAM ")
       (serve-request-done!)
       (handle-match-stream conn (substring line 13 (string-length line)))
       (conn-loop conn bump))
      (else
       (channel-send! %tokens 1)
       (bump 1)
       (spawn-detached (lambda ()
                         (handle-request conn line)
                         (channel-recv %tokens)
                         (bump -1)))
       (conn-loop conn bump)))))

;; Overload protection.  %live-conns counts connections currently owned by
;; a conn thread; admit-conn refuses new arrivals past *max-conns* with a
;; fast BUSY line (shed, not queued — the client learns immediately) and
;; arms the per-connection park deadline on the admitted ones, so a client
;; that stalls a read or write past *conn-deadline-ms* is reaped by the
;; reactor (the thread sees EOF / #f and unwinds normally, cancelling its
;; whole request tree on the way).
(define %live-conns 0)

(define (conn-thread conn)
  (set! %live-conns (+ %live-conns 1))
  (let ((pending 0))
    (nursery
     (conn-loop conn (lambda (d) (set! pending (+ pending d)))))
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
)scheme";
}

// The stand-alone server: accept from *listener* directly; QUIT closes
// the listener, which ends the acceptor and (once connections drain) the
// whole serving program.
const char *Server::serveSource() {
  static const std::string Src = std::string(protocolSource()) + R"scheme(
(define (on-quit) (io-close *listener*))

(define (acceptor)
  (let ((conn (io-accept *listener*)))
    (if (eof-object? conn)
        'closed
        (begin
          (admit-conn conn)
          (acceptor)))))

(spawn acceptor)
(scheduler-run *preempt*)
)scheme";
  return Src.c_str();
}

bool Server::start() {
  if (Thr.joinable()) {
    Err = {ErrorKind::Runtime, "server already running"};
    return false;
  }
  I = std::make_unique<Interp>(Opt.VmCfg);

  // The listener is created host-side so the bound (possibly ephemeral)
  // port is known before the serving thread even starts; the Scheme
  // program receives it as an already-open port id.
  uint16_t P = Opt.Port;
  std::string E;
  int Fd = openListener(P, Opt.Backlog, E);
  if (Fd < 0) {
    Err = {ErrorKind::Io, "io-listen: " + E};
    I.reset();
    return false;
  }
  VM &M = I->vm();
  Handle Lid = M.reactor().addPort(Fd, Port::Kind::Listener);
  M.reactor().port(static_cast<int64_t>(Lid))->setTcpPort(P);
  BoundPort = P;

  I->defineGlobal("*listener*", Value::fixnum(static_cast<int64_t>(Lid)));
  I->defineGlobal("*max-inflight*", Value::fixnum(Opt.MaxInflight));
  I->defineGlobal("*preempt*", Value::fixnum(Opt.PreemptInterval));
  I->defineGlobal("*max-conns*", Value::fixnum(Opt.MaxConns));
  I->defineGlobal("*conn-deadline-ms*", Value::fixnum(Opt.ConnDeadlineMs));
  Err = Error();
  Base = I->snapshot();

  Thr = std::thread([this] { R = I->eval(serveSource()); });
  return true;
}

void Server::stop() {
  if (!Thr.joinable())
    return;
  // The graceful path is in-protocol: QUIT makes its connection thread
  // close the listener, the acceptor sees EOF and exits, and once every
  // connection is gone scheduler-run completes and eval returns.
  Client C;
  std::string E;
  if (C.connect(BoundPort, E)) {
    std::string Reply;
    C.request("QUIT", Reply);
    C.close();
  }
  Thr.join();
  if (!R.Ok)
    Err = R.error();
}

void Server::wait() {
  if (!Thr.joinable())
    return;
  Thr.join();
  if (!R.Ok)
    Err = R.error();
}

Server::~Server() { stop(); }
