#include "vm/VM.h"

using namespace osc;

/// The Scheme prelude, evaluated when an Interp is constructed.
///
/// Most of it is ordinary library code; the load-bearing part is the
/// dynamic-wind machinery: call/cc and call/1cc wrap the primitive captured
/// continuation in a procedure that rewinds the winders chain before
/// transferring control (the classic Scheme implementation the paper's
/// system also maintains alongside one-shot continuations).
const char *osc::preludeSource() {
  return R"PRELUDE(
;; --- cxr compositions -------------------------------------------------------
(define (caar p) (car (car p)))
(define (cadr p) (car (cdr p)))
(define (cdar p) (cdr (car p)))
(define (cddr p) (cdr (cdr p)))
(define (caddr p) (car (cddr p)))
(define (cdddr p) (cdr (cddr p)))
(define (cadddr p) (car (cdddr p)))

;; --- higher-order list utilities ---------------------------------------------
(define (map1 f l)
  (if (null? l) '() (cons (f (car l)) (map1 f (cdr l)))))
(define (map2 f a b)
  (if (or (null? a) (null? b))
      '()
      (cons (f (car a) (car b)) (map2 f (cdr a) (cdr b)))))
(define (map f l . ls)
  (if (null? ls) (map1 f l) (map2 f l (car ls))))
(define (for-each f l . ls)
  (if (null? ls)
      (let loop ((l l))
        (if (null? l) (if #f #f) (begin (f (car l)) (loop (cdr l)))))
      (let loop ((a l) (b (car ls)))
        (if (or (null? a) (null? b))
            (if #f #f)
            (begin (f (car a) (car b)) (loop (cdr a) (cdr b)))))))
(define (filter pred l)
  (cond ((null? l) '())
        ((pred (car l)) (cons (car l) (filter pred (cdr l))))
        (else (filter pred (cdr l)))))
(define (fold-left f acc l)
  (if (null? l) acc (fold-left f (f acc (car l)) (cdr l))))
(define (fold-right f acc l)
  (if (null? l) acc (f (car l) (fold-right f acc (cdr l)))))
(define (iota n)
  (let loop ((i (- n 1)) (acc '()))
    (if (< i 0) acc (loop (- i 1) (cons i acc)))))
(define (last-pair l)
  (if (pair? (cdr l)) (last-pair (cdr l)) l))

;; --- dynamic-wind and the continuation wrappers ---------------------------------
;;
;; *winders* is the stack of (before . after) pairs.  A captured
;; continuation remembers the winders in effect at capture time; invoking it
;; unwinds/rewinds to that point before transferring control.
(define *winders* '())

(define (%common-tail x y)
  (let ((lx (length x)) (ly (length y)))
    (let loop ((x (if (> lx ly) (list-tail x (- lx ly)) x))
               (y (if (> ly lx) (list-tail y (- ly lx)) y)))
      (if (eq? x y) x (loop (cdr x) (cdr y))))))

(define (%do-wind new)
  (let ((tail (%common-tail new *winders*)))
    ;; Unwind out of the current extent...
    (let f ((l *winders*))
      (unless (eq? l tail)
        (set! *winders* (cdr l))
        ((cdr (car l)))
        (%trace-wind 1)
        (f (cdr l))))
    ;; ...then rewind into the target extent.
    (let f ((l new))
      (unless (eq? l tail)
        (f (cdr l))
        ((car (car l)))
        (%trace-wind 0)
        (set! *winders* l)))))

(define (call-with-current-continuation p)
  (let ((saved *winders*))
    (%call/cc
     (lambda (k)
       (p (lambda vals
            (unless (eq? saved *winders*) (%do-wind saved))
            (apply k vals)))))))
(define call/cc call-with-current-continuation)

(define (call/1cc p)
  (let ((saved *winders*))
    (%call/1cc
     (lambda (k)
       (p (lambda vals
            (unless (eq? saved *winders*) (%do-wind saved))
            (apply k vals)))))))

(define (dynamic-wind before thunk after)
  (before)
  (%trace-wind 0)
  (set! *winders* (cons (cons before after) *winders*))
  (call-with-values
   thunk
   (lambda results
     (set! *winders* (cdr *winders*))
     (after)
     (%trace-wind 1)
     (apply values results))))

(define call-with-values %call-with-values)

;; --- engines (Dybvig & Hieb; the thread substrate the paper cites) -----------
;;
;; (make-engine thunk) -> engine; (engine ticks success expire) runs the
;; computation for at most ticks procedure calls.  On completion, calls
;; (success remaining-ticks result); on preemption, calls (expire
;; new-engine).  Every suspension is a one-shot continuation captured by
;; the VM timer; engines do not nest.

(define %do-complete #f)
(define %do-expire #f)
(define %engine-base-winders '())

;; Preemption does not run dynamic-wind thunks (an engine switch is not an
;; escape); instead the engine's winders are suspended with it and restored
;; on resume, and the scheduler gets its own winders back.
(define (%engine-timer-handler k v)
  (let ((w *winders*))
    (set! *winders* %engine-base-winders)
    (%do-expire
     (lambda (ticks success expire)
       (%run-engine (lambda () (set! *winders* w) (k v))
                    ticks success expire)))))

;; The escape continuation receives a *thunk* which is run after the
;; engine's extent has been discarded; calling (success ...) or (expire
;; ...) inside the extent would nest the client's scheduler under the
;; handler and leak one pending escape (and its pinned segment) per slice.
(define (%run-engine resume ticks success expire)
  ((call/1cc
    (lambda (escape)
      (set! %engine-base-winders *winders*)
      (set! %do-complete
            (lambda (left result)
              (escape (lambda () (success left result)))))
      (set! %do-expire
            (lambda (eng) (escape (lambda () (expire eng)))))
      ;; +2 covers the scheduler's own resume calls below, so even a
      ;; 1-tick slice makes real progress (otherwise a 1-tick engine would
      ;; expire before reaching user code and loop forever).
      (%set-timer! (+ ticks 2) %engine-timer-handler)
      (resume)))))

(define (make-engine thunk)
  (lambda (ticks success expire)
    (%run-engine
     (lambda ()
       (let ((result (thunk)))
         (let ((left (%stop-timer!)))
           (%do-complete left result))))
     ticks success expire)))

;; --- green threads (src/sched; native successor to engines) ------------------
;;
;; The native scheduler generalizes the engine timer: (spawn thunk) creates
;; a green thread, (scheduler-run ticks) runs all spawned threads round-
;; robin with a preemption slice of ticks procedure calls (0 = cooperative)
;; and returns how many threads completed.  Context switches are one-shot
;; captures performed inside the VM — no Scheme handler runs, and a steady-
;; state switch copies no stack words.  Engines keep working unchanged on
;; the raw timer; an engine running inside a thread is preempted by its own
;; timer first (engine semantics win within its slice).
;;
;; (spawn-detached thunk) is spawn for a thread nobody will join: its
;; record is freed as soon as it finishes or is cancelled, and its handle
;; then reads as done.  Thread, channel and port handles are opaque
;; fixnums; a freed record's slot is reused under a new handle, and the
;; old handle never reaches the new occupant.
;;
;; channel-try-recv returns #f on an empty channel, so a program that
;; sends #f itself should wrap payloads (e.g. in a one-element list) or
;; use the blocking channel-recv.

(define spawn %spawn)
(define spawn-detached %spawn-detached)
(define (thread-exit v) (%thread-exit v))
(define (thread-join tid) (%join tid))
(define (thread-sleep! ticks) (%sleep ticks))
(define (scheduler-run . ticks)
  (%sched-run (if (null? ticks) 0 (car ticks))))
(define (channel-send! ch v) (%chan-send ch v))
(define (channel-recv ch) (%chan-recv ch))

;; --- ports and the I/O reactor (src/io) --------------------------------------
;;
;; Port handles are fixnums like threads and channels.  Inside a green
;; thread, io-read-line / io-accept park the thread on fd readiness (a
;; one-shot capture; resuming copies no stack words); outside the
;; scheduler they block the whole program.  io-write inside a thread
;; queues its string and returns: the VM writes each port's queued output
;; in one go once the run queue drains (or at a preemptive switch), and
;; only a writer whose port is still full from an earlier flush parks.
;; io-close writes what is queued first, parking while the socket is
;; full.  io-read-line returns the EOF object at end of stream, io-accept
;; returns it when the listener is closed, and channel-recv returns it on
;; a closed, drained channel.

(define (eof-object) *eof*)
(define (eof-object? x) (eq? x *eof*))
(define (io-read-line p) (%io-read-line p))
(define (io-write p s) (%io-write p s))
(define (io-accept p) (%io-accept p))
(define (io-close p) (%io-close p))

;; Pool workers take handed-off connections instead of accepting their own:
;; io-take-conn parks until the host pushes an fd onto this worker's handoff
;; queue, returning a fresh stream port id (or EOF once the queue is closed
;; and drained).
(define (io-take-conn) (%io-take-conn))

;; --- deadlines (the VM's deadline wheel) -------------------------------------
;;
;; (with-deadline ms thunk) runs thunk; if it blocks (channel wait or I/O
;; park) past the deadline, the VM poisons the parked one-shot resume point
;; (zero words copied, no possible resurrection) and runs the escape thunk
;; registered here, which invokes the extent's one-shot k — so after-thunks
;; of any dynamic-winds entered inside thunk run on the way out, including
;; the one below that pops the deadline record (by id, so the pop survives
;; any other escape).  The timeout object is an unforgeable sentinel like
;; *eof*; CPU-bound code is never interrupted — deadlines fire only at the
;; reactor's poll points.

(define (timeout-object) *timeout*)
(define (timeout-object? x) (eq? x *timeout*))

(define (with-deadline ms thunk)
  (call/1cc
   (lambda (k)
     (let ((id #f))
       (dynamic-wind
        (lambda () (set! id (%deadline-push ms (lambda () (k *timeout*)))))
        thunk
        (lambda () (%deadline-pop id)))))))

;; --- delimited control (src/control; tagged reset/shift) ---------------------
;;
;; (reset tag body...) plants a delimiter; (shift tag k body...) cuts the
;; continuation up to the nearest live delimiter with an identical tag and
;; binds k to a *one-shot* delimited continuation (invoking it twice is an
;; error).  The cut reuses the paper's split idiom — headers are relinked,
;; no stack words are copied — and the delimiter travels with k, so a
;; resumed slice can shift again (what make-generator below relies on).
;;
;; Winder travel across the delimiter: the abort from the shift site to the
;; reset runs the after-thunks of every dynamic-wind entered inside the
;; extent; invoking k re-runs their before-thunks, rebased onto the invoke
;; site's own winder chain.  The native %shift hands the receiver the
;; winders saved at reset entry for exactly this purpose.

(define (%reset-proc tag thunk) (%reset tag thunk))

(define (%shift-proc tag f)
  (let ((w-shift *winders*))
    (%shift
     tag
     (lambda (dk w-reset)
       ;; The slice's winders are the prefix of w-shift above w-reset,
       ;; collected outermost-first for re-entry.
       (let ((prefix (let loop ((l w-shift) (acc '()))
                       (if (eq? l w-reset)
                           acc
                           (loop (cdr l) (cons (car l) acc))))))
         ;; Abort direction: unwind out of the extent's winders.
         (unless (eq? w-reset *winders*) (%do-wind w-reset))
         (f (lambda (v)
              ;; Re-entry direction: rewind the slice's winders on top of
              ;; whatever the invoke site has wound.
              (let loop ((p prefix))
                (unless (null? p)
                  ((car (car p)))
                  (%trace-wind 0)
                  (set! *winders* (cons (car p) *winders*))
                  (loop (cdr p))))
              (%delim-invoke dk v))))))))

;; --- effect handlers (src/control veneer over the prompt machinery) ----------
;;
;; (with-handler tag ((op k args...) body...)... body...) installs a handler
;; on the same PromptTable reset uses; (perform tag op args...) cuts the
;; slice up to the innermost matching handler exactly like shift — headers
;; relinked, zero stack words copied — pops the handler's record (so the
;; clause runs *outside* its own delimiter: never invoking k aborts for
;; free, and an unlisted op forwards to the next handler out) and runs the
;; matching clause with k bound to the one-shot continuation of the perform
;; site.  Deep handlers (the default) reinstall themselves when k is
;; invoked; with-shallow-handler resumes bare.  k is one-shot: a second
;; invocation fails like any delimited continuation.
;;
;; Winder travel matches reset/shift: the abort from the perform site runs
;; the after-thunks of every dynamic-wind entered inside the extent, and
;; invoking k re-runs their before-thunks rebased onto the invoke site.

(define (%with-handler-proc tag handler thunk shallow)
  (%with-handler tag handler thunk shallow))

(define (%perform-proc tag op args)
  (let ((w-perform *winders*))
    (%perform
     tag
     (lambda (handler dk w-entry)
       ;; The slice's winders are the prefix of w-perform above w-entry,
       ;; collected outermost-first for re-entry (the %shift-proc pattern).
       (let ((prefix (let loop ((l w-perform) (acc '()))
                       (if (eq? l w-entry)
                           acc
                           (loop (cdr l) (cons (car l) acc))))))
         ;; Abort direction: unwind out of the extent's winders.
         (unless (eq? w-entry *winders*) (%do-wind w-entry))
         (handler op
                  (lambda (v)
                    ;; Re-entry direction: rewind the slice's winders on top
                    ;; of whatever the invoke site has wound.
                    (let loop ((p prefix))
                      (unless (null? p)
                        ((car (car p)))
                        (%trace-wind 0)
                        (set! *winders* (cons (car p) *winders*))
                        (loop (cdr p))))
                    (%delim-invoke dk v))
                  args))))))

(define (perform tag op . args)
  (%perform-proc tag op args))

;; --- structured concurrency: nurseries (src/sched veneer) --------------------
;;
;; (nursery body...) opens a scope; (spawn thunk) inside it enrolls the
;; child, and child scopes enroll themselves in their parent.  When the
;; scope exits — normally, by escape, or because its own thread is being
;; torn down — every still-live descendant is cancelled innermost-scope
;; first, each in spawn order, by deadline-style poisoning: the child's
;; parked one-shot resume point is marked shot (never reinstated, zero
;; words copied) and its joiners wake with 'cancelled.  (nursery-fail v)
;; inside a child cancels all of its siblings immediately and exits the
;; child with (cons '%nursery-failed v).
;;
;; *nursery* is the running green thread's innermost open scope (or #f);
;; the VM swaps it at every context switch exactly like *winders*.  %spawn
;; itself does the enrollment and makes the child inherit the spawner's
;; scope (VM::spawnThread), so the tree structure follows spawning, not
;; scheduling, and spawn stays a single native call.

(define *nursery* #f)

(define (%nursery-make) (vector '() '() #t))

(define (%nursery-cancel-all! n)
  (vector-set! n 2 #f)
  ;; Sub-scopes die before this scope's own children; both lists were
  ;; consed, so reverse restores deterministic spawn order.
  (for-each %nursery-cancel-all! (reverse (vector-ref n 1)))
  (for-each (lambda (tid) (%thread-cancel! tid))
            (reverse (vector-ref n 0)))
  (vector-set! n 0 '())
  (vector-set! n 1 '()))

(define (%nursery-scope thunk)
  (let ((n (%nursery-make))
        (outer *nursery*))
    (if outer (vector-set! outer 1 (cons n (vector-ref outer 1))))
    (dynamic-wind
     (lambda () (set! *nursery* n))
     thunk
     (lambda ()
       (set! *nursery* outer)
       (%nursery-cancel-all! n)))))

(define (nursery-fail v)
  (let ((n *nursery*))
    (if n (%nursery-cancel-all! n))
    (thread-exit (cons '%nursery-failed v))))

(define (thread-cancel! tid) (%thread-cancel! tid))

;; --- generators on reset/shift ----------------------------------------------
;;
;; (make-generator proc) returns a generator g; (generator-next g [v])
;; resumes it, returning the next yielded value, or *eof* once proc
;; returns.  Inside proc, (yield v) suspends — a one-shot capture to the
;; generator's delimiter, zero stack words copied — and evaluates to the
;; value passed to the resuming generator-next.  (yield) with no argument
;; keeps its old meaning: the scheduler's cooperative yield.

(define %generator-tag '%generator-prompt)

(define (yield . v)
  (if (null? v)
      (%yield)
      (shift %generator-tag k (cons k (car v)))))

(define (make-generator proc)
  ;; step is 'fresh, then the parked one-shot continuation, then 'done.
  ;; A yield surfaces as (k . value); normal completion surfaces as #f
  ;; (the wrapper below discards proc's result), so the two cannot clash.
  (let ((step 'fresh))
    (lambda (v)
      (if (eq? step 'done)
          *eof*
          (let ((r (if (eq? step 'fresh)
                       (reset %generator-tag (begin (proc v) #f))
                       (step v))))
            (if (pair? r)
                (begin (set! step (car r)) (cdr r))
                (begin (set! step 'done) *eof*)))))))

(define (generator-next g . v)
  (g (if (null? v) (if #f #f) (car v))))

;; --- async/await on reset/shift + green threads ------------------------------
;;
;; (async body...) runs body in a fresh green thread under an %async-tag
;; delimiter and immediately returns a *future* — a one-slot channel that
;; eventually carries (list result).  Inside an async body, (await fut)
;; shifts to the delimiter: the rest of the body parks as a one-shot
;; continuation while the receiver blocks in channel-recv (the scheduler's
;; park path; for reactor-backed channels this is the same ioPark point
;; I/O uses), then splices the body back in with the settled value.
;; Futures are single-consumption: await (or future-get) each one once.
;; Only meaningful under (scheduler-run ...).

(define %async-tag '%async-prompt)

(define (%async thunk)
  (let ((done (make-channel 1)))
    (spawn (lambda ()
             (let ((r (reset %async-tag (thunk))))
               (channel-send! done (list r)))))
    done))

;; Blocking read of a future from outside any async body.
(define (future-get fut) (car (channel-recv fut)))

(define (await fut)
  (shift %async-tag k (k (car (channel-recv fut)))))

(define (positive? x) (> x 0))
(define (negative? x) (< x 0))

;; --- characters --------------------------------------------------------------------
(define (char=? a b) (eq? a b))
(define (char<? a b) (< (char->integer a) (char->integer b)))
(define (char>? a b) (> (char->integer a) (char->integer b)))
(define (char<=? a b) (<= (char->integer a) (char->integer b)))
(define (char>=? a b) (>= (char->integer a) (char->integer b)))

;; --- misc ------------------------------------------------------------------------
(define (list-copy l)
  (if (pair? l) (cons (car l) (list-copy (cdr l))) l))
(define (vector-map f v)
  (list->vector (map1 f (vector->list v))))
)PRELUDE";
}
