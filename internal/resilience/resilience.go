// Package resilience is the overload-safety layer of the serving
// plane: the pieces that keep a cnpserver process alive and responsive
// under an adversarial mix of slow clients, hot crawlers and buggy
// handlers. It provides
//
//   - a composable per-endpoint middleware (Guard) that stacks
//     admission control (bounded-concurrency semaphore with a short
//     bounded wait, then load-shed with 429 + Retry-After), a
//     per-request deadline (JSON 503 on expiry, the handler keeps its
//     admission slot until it actually returns so a stuck handler can
//     never multiply), and panic isolation (recover → JSON 500 and a
//     counter, never a killed process or a dropped connection);
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
// carries Retry-After, deadline expiry is 503, a recovered panic is
// 500. The package has no dependencies beyond net/http, so the build
// pipeline, the API layer and the server command all share one
// vocabulary for staying up.
package resilience

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
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
	// Timeouts counts requests answered 503 because their per-request
	// deadline expired before the handler finished.
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
//	          sheds the request with 429 + Retry-After.
//	Timeout — per-request deadline: the handler runs under a context
//	          that expires, and the client gets a JSON 503 when it
//	          does. The handler keeps running (and keeps its admission
//	          slot) until it actually returns, so a stuck handler
//	          occupies exactly one slot instead of breeding goroutines
//	          past the admission cap.
//	Metrics — where timeouts and recovered panics are counted.
//	Delay/Burn — chaos knobs: artificial sleep / CPU spin inside the
//	          stack (inside the admission slot, under the deadline),
//	          used by drain drills and the overload benchmark to make
//	          handler cost controllable. Zero in production.
//
// Panic isolation is always on: a panicking handler yields a JSON 500
// on that request and nothing else — the process, the connection and
// every other in-flight request are unharmed.
type Guard struct {
	Limiter *Limiter
	Timeout time.Duration
	Metrics *Metrics
	Delay   time.Duration
	Burn    time.Duration
}

// bufferedResponse captures a handler's full response in memory so the
// deadline path can choose atomically between the handler's output and
// a timeout error — never an interleaving of the two.
type bufferedResponse struct {
	header http.Header
	code   int
	body   []byte
}

var bufPool = sync.Pool{New: func() any { return &bufferedResponse{header: make(http.Header, 4)} }}

func getBuffered() *bufferedResponse {
	b := bufPool.Get().(*bufferedResponse)
	b.code = 0
	b.body = b.body[:0]
	for k := range b.header {
		delete(b.header, k)
	}
	return b
}

func putBuffered(b *bufferedResponse) {
	if cap(b.body) <= MaxPooledBytes {
		bufPool.Put(b)
	}
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(code int) {
	if b.code == 0 {
		b.code = code
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	b.WriteHeader(http.StatusOK)
	b.body = append(b.body, p...)
	return len(p), nil
}

// overwriteError discards whatever the handler managed to write and
// replaces the buffered response with a clean JSON error. Only
// possible because the response is fully buffered.
func (b *bufferedResponse) overwriteError(code int, msg string) {
	for k := range b.header {
		delete(b.header, k)
	}
	b.code = 0
	b.body = b.body[:0]
	b.header.Set("Content-Type", "application/json; charset=utf-8")
	b.code = code
	raw, _ := json.Marshal(errorResponse{Error: msg})
	b.body = append(b.body, raw...)
	b.body = append(b.body, '\n')
}

// copyTo replays the buffered response onto the real writer. The body
// is complete, so it goes out framed by its Content-Length: net/http
// would otherwise send any body over its 2 KiB buffer chunked.
func (b *bufferedResponse) copyTo(w http.ResponseWriter) {
	dst := w.Header()
	for k, vs := range b.header {
		dst[k] = vs
	}
	code := b.code
	if code == 0 {
		code = http.StatusOK
	}
	if code >= http.StatusOK && code != http.StatusNoContent && code != http.StatusNotModified {
		dst.Set("Content-Length", strconv.Itoa(len(b.body)))
	}
	w.WriteHeader(code)
	_, _ = w.Write(b.body)
}

// trackingWriter remembers whether a status line already went out, so
// the inline (no-deadline) panic path can tell whether a clean JSON
// 500 is still possible.
type trackingWriter struct {
	http.ResponseWriter
	wrote bool
}

func (t *trackingWriter) WriteHeader(code int) {
	t.wrote = true
	t.ResponseWriter.WriteHeader(code)
}

func (t *trackingWriter) Write(p []byte) (int, error) {
	t.wrote = true
	return t.ResponseWriter.Write(p)
}

// chaos applies the injected handler cost. The delay deliberately
// ignores the request context — it emulates a handler stuck on work
// that does not watch ctx, which is exactly what the deadline layer
// exists to convert into a clean 503.
func (g *Guard) chaos() {
	if g.Delay > 0 {
		time.Sleep(g.Delay)
	}
	if g.Burn > 0 {
		for start := time.Now(); time.Since(start) < g.Burn; {
			// spin: emulate CPU-bound handler work
		}
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
		if g.Timeout <= 0 {
			// Inline path: release on return, isolate panics in place.
			defer g.Limiter.Release()
			tw := &trackingWriter{ResponseWriter: w}
			defer func() {
				if p := recover(); p != nil {
					g.recordPanic(p)
					if !tw.wrote {
						WriteJSONError(w, http.StatusInternalServerError, "internal server error")
					}
				}
			}()
			g.chaos()
			h.ServeHTTP(tw, r)
			return
		}

		ctx, cancel := context.WithTimeout(r.Context(), g.Timeout)
		defer cancel()
		r = r.WithContext(ctx)
		bw := getBuffered()
		done := make(chan struct{})
		go func() {
			// The slot is held until the handler truly finishes: a
			// handler that outlives its deadline occupies one admission
			// slot, it does not breed unbounded goroutines.
			defer g.Limiter.Release()
			defer close(done)
			defer func() {
				if p := recover(); p != nil {
					g.recordPanic(p)
					bw.overwriteError(http.StatusInternalServerError, "internal server error")
				}
			}()
			g.chaos()
			h.ServeHTTP(bw, r)
		}()
		select {
		case <-done:
			bw.copyTo(w)
			putBuffered(bw)
		case <-ctx.Done():
			// Prefer the handler's answer if it finished in the same
			// instant the deadline fired.
			select {
			case <-done:
				bw.copyTo(w)
				putBuffered(bw)
			default:
				if g.Metrics != nil {
					g.Metrics.Timeouts.Add(1)
				}
				WriteJSONError(w, http.StatusServiceUnavailable, "request deadline exceeded")
				// bw still belongs to the running handler goroutine; it
				// is garbage-collected when the handler returns instead
				// of being recycled.
			}
		}
	})
}
