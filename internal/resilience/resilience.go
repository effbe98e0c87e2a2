// Package resilience is the overload-safety layer of the serving
// plane: the pieces that keep a cnpserver process alive and responsive
// under an adversarial mix of slow clients, hot crawlers and buggy
// handlers. It provides
//
//   - a composable per-endpoint middleware (Guard) that runs every
//     handler on its serving goroutine behind admission control
//     (bounded-concurrency semaphore with a short bounded wait, then
//     load-shed with 429 + Retry-After; the slot is held until the
//     response is first written) and panic isolation (recover → JSON
//     500 and a counter, never a killed process or a dropped
//     connection). Its per-request deadline bounds only the delay the
//     guard injects for drills (JSON 503 when the delay reaches it);
//     a handler that has started runs to completion;
//
//   - health-probe state (Health) behind /healthz (liveness) and
//     /readyz (readiness: serving state loaded, not draining, the
//     ingest updater not wedged) so orchestrators and load balancers
//     can roll a server without serving errors;
//
//   - hardened listener construction (ServerConfig) — ReadHeader/
//     Read/Write/Idle timeouts and MaxHeaderBytes on every http.Server
//     so a slowloris client cannot pin connection goroutines forever —
//     and DrainGroup, the graceful shutdown of all of a process's
//     listeners at once.
//
// Every refusal the package writes is the API's uniform JSON error
// shape {"error": "..."} with the right status code: 429 always
// carries Retry-After, an injected delay cut at its deadline is 503, a
// recovered panic is 500. The package has no dependencies beyond
// net/http, so the build pipeline, the API layer and the server
// command all share one vocabulary for staying up.
package resilience

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// RetryAfterSeconds is the Retry-After hint on every 429 the package
// sheds: long enough to thin a retry storm, short enough that a
// well-behaved client loses almost no time.
const RetryAfterSeconds = 1

// MaxPooledBytes bounds every buffer the serving plane recycles through
// a sync.Pool: what one huge request or response grew is left to the
// collector instead of being parked per P for the life of the process.
const MaxPooledBytes = 64 << 10

// errorResponse mirrors the API's uniform error body so every refusal
// — shed, timeout, panic — parses with the same schema as a handler
// error.
type errorResponse struct {
	Error string `json:"error"`
}

// WriteJSONError writes the uniform JSON error body with the given
// status. The encode is buffered through Marshal so the body is either
// complete or absent — never a truncated JSON fragment.
func WriteJSONError(w http.ResponseWriter, code int, msg string) {
	body, err := json.Marshal(errorResponse{Error: msg})
	if err != nil { // cannot happen for a string field; keep the contract anyway
		body = []byte(`{"error":"internal server error"}`)
	}
	h := w.Header()
	h.Set("Content-Type", "application/json; charset=utf-8")
	h.Set("Content-Length", fmt.Sprint(len(body)+1))
	w.WriteHeader(code)
	_, _ = w.Write(append(body, '\n'))
}

// Metrics counts the failure-path events the middleware absorbs. One
// instance is shared by every Guard of a server and surfaced through
// /api/stats.
type Metrics struct {
	// Panics counts handler panics converted to JSON 500s (and, on the
	// ingest plane, updater panics that wedged the ingester).
	Panics atomic.Int64
	// Timeouts counts requests answered 503 because the injected Delay
	// reached their per-request deadline. A running handler is never
	// cut off, so with no Delay this stays zero.
	Timeouts atomic.Int64
}

// Limiter is the admission controller: a semaphore of MaxInFlight
// slots with a short bounded wait. Acquire returns false — shed the
// request — when no slot frees up within the wait budget; holding
// callers must Release exactly once.
type Limiter struct {
	sem  chan struct{}
	wait time.Duration
}

// NewLimiter builds an admission controller for max concurrent
// requests; acquirers wait at most `wait` for a slot before being
// shed. max <= 0 returns nil, which every consumer treats as
// "admission disabled".
func NewLimiter(max int, wait time.Duration) *Limiter {
	if max <= 0 {
		return nil
	}
	return &Limiter{sem: make(chan struct{}, max), wait: wait}
}

// Acquire takes a slot, waiting up to the limiter's bounded wait. The
// request context aborts the wait early (a gone client should not
// consume a slot). A nil limiter admits everything.
func (l *Limiter) Acquire(ctx context.Context) bool {
	if l == nil {
		return true
	}
	select {
	case l.sem <- struct{}{}:
		return true
	default:
	}
	if l.wait <= 0 {
		return false
	}
	t := time.NewTimer(l.wait)
	defer t.Stop()
	select {
	case l.sem <- struct{}{}:
		return true
	case <-t.C:
		return false
	case <-ctx.Done():
		return false
	}
}

// Release frees a slot taken by Acquire.
func (l *Limiter) Release() {
	if l != nil {
		<-l.sem
	}
}

// InFlight reports the number of currently held slots.
func (l *Limiter) InFlight() int {
	if l == nil {
		return 0
	}
	return len(l.sem)
}

// Guard is the per-endpoint middleware stack. The zero value is a pure
// pass-through; each field arms one layer:
//
//	Limiter — admission control: no free slot within the bounded wait
//	          sheds the request with 429 + Retry-After. An admitted
//	          request holds its slot until its response is first
//	          written, or until the handler returns without writing.
//	Timeout — per-request deadline over the work the guard itself
//	          injects (Delay): a Delay that reaches it is cut to the
//	          deadline and answered with a JSON 503. A handler that has
//	          started is never preempted; every query handler is a
//	          bounded read, so none needs to be.
//	Metrics — where timeouts and recovered panics are counted.
//	Delay   — chaos knob: an artificial sleep inside the admission slot
//	          before the handler runs, used by drain drills and overload
//	          tests to make handler cost controllable. Zero in production.
//
// Panic isolation is always on: a handler that panics before writing
// yields a JSON 500 on that request and nothing else — the process,
// the connection and every other in-flight request are unharmed. A
// panic after the handler has written keeps what was written and only
// ends the request.
//
// There is one path: the handler runs on the serving goroutine, under
// admission, a deferred recover and the tracking writer, with no
// goroutine, context or response buffer of the guard's own.
type Guard struct {
	Limiter *Limiter
	Timeout time.Duration
	Metrics *Metrics
	Delay   time.Duration
}

// trackingWriter holds the request's admission slot until the response
// is first written, so a slot covers computing the answer and not the
// client reading it, and remembers whether a status line went out, so
// the panic path can tell whether a clean JSON 500 is still possible.
type trackingWriter struct {
	http.ResponseWriter
	limiter *Limiter
	wrote   bool
}

func (t *trackingWriter) WriteHeader(code int) {
	t.written()
	t.ResponseWriter.WriteHeader(code)
}

func (t *trackingWriter) Write(p []byte) (int, error) {
	t.written()
	return t.ResponseWriter.Write(p)
}

// written marks the response started and frees the slot the first time.
func (t *trackingWriter) written() {
	if !t.wrote {
		t.wrote = true
		t.limiter.Release()
	}
}

func (g *Guard) recordPanic(p any) {
	if g.Metrics != nil {
		g.Metrics.Panics.Add(1)
	}
	log.Printf("resilience: recovered handler panic: %v\n%s", p, debug.Stack())
}

// Wrap stacks the guard's armed layers around h. shed, when non-nil,
// counts requests refused by admission control (one counter per
// endpoint gives the per-endpoint shed column in /api/stats).
func (g *Guard) Wrap(h http.Handler, shed *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !g.Limiter.Acquire(r.Context()) {
			if shed != nil {
				shed.Add(1)
			}
			w.Header().Set("Retry-After", fmt.Sprint(RetryAfterSeconds))
			WriteJSONError(w, http.StatusTooManyRequests, "server is at capacity; retry later")
			return
		}
		tw := &trackingWriter{ResponseWriter: w, limiter: g.Limiter}
		defer func() {
			if p := recover(); p != nil {
				g.recordPanic(p)
				if !tw.wrote {
					WriteJSONError(tw, http.StatusInternalServerError, "internal server error")
				}
			}
			tw.written() // a handler that wrote nothing frees its slot on return
		}()
		if g.Timeout > 0 && g.Delay >= g.Timeout {
			// The injected delay would outlive the deadline: it is the
			// one piece of work the guard owns, so the guard cuts it.
			time.Sleep(g.Timeout)
			if g.Metrics != nil {
				g.Metrics.Timeouts.Add(1)
			}
			WriteJSONError(tw, http.StatusServiceUnavailable, "request deadline exceeded")
			return
		}
		if g.Delay > 0 {
			time.Sleep(g.Delay)
		}
		h.ServeHTTP(tw, r)
	})
}
