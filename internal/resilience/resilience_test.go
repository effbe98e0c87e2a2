package resilience

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// decodeError parses the uniform JSON error body every refusal uses.
func decodeError(t *testing.T, body []byte) string {
	t.Helper()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body is not the uniform JSON shape: %v (body %q)", err, body)
	}
	if e.Error == "" {
		t.Fatalf("error body has empty error field: %q", body)
	}
	return e.Error
}

func TestWriteJSONError(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSONError(rec, http.StatusTeapot, "no coffee")
	if rec.Code != http.StatusTeapot {
		t.Fatalf("code = %d, want 418", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	body := rec.Body.Bytes()
	if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(len(body)) {
		t.Fatalf("Content-Length = %s, body is %d bytes", cl, len(body))
	}
	if !strings.HasSuffix(string(body), "\n") {
		t.Fatalf("body %q does not end in newline", body)
	}
	if msg := decodeError(t, body); msg != "no coffee" {
		t.Fatalf("error = %q, want %q", msg, "no coffee")
	}
}

func TestLimiter(t *testing.T) {
	t.Run("nil admits everything", func(t *testing.T) {
		var l *Limiter
		for i := 0; i < 100; i++ {
			if !l.Acquire(context.Background()) {
				t.Fatal("nil limiter refused a request")
			}
		}
		l.Release() // must not panic
		if l.InFlight() != 0 {
			t.Fatal("nil limiter reports in-flight slots")
		}
	})
	t.Run("disabled by max<=0", func(t *testing.T) {
		if NewLimiter(0, time.Second) != nil || NewLimiter(-1, time.Second) != nil {
			t.Fatal("NewLimiter(<=0) should return nil (admission disabled)")
		}
	})
	t.Run("sheds past capacity", func(t *testing.T) {
		l := NewLimiter(2, 0)
		ctx := context.Background()
		if !l.Acquire(ctx) || !l.Acquire(ctx) {
			t.Fatal("first two acquires should succeed")
		}
		if l.InFlight() != 2 {
			t.Fatalf("InFlight = %d, want 2", l.InFlight())
		}
		if l.Acquire(ctx) {
			t.Fatal("third acquire should shed with zero wait")
		}
		l.Release()
		if !l.Acquire(ctx) {
			t.Fatal("acquire after release should succeed")
		}
	})
	t.Run("bounded wait gets freed slot", func(t *testing.T) {
		l := NewLimiter(1, 2*time.Second)
		if !l.Acquire(context.Background()) {
			t.Fatal("first acquire failed")
		}
		go func() {
			time.Sleep(20 * time.Millisecond)
			l.Release()
		}()
		start := time.Now()
		if !l.Acquire(context.Background()) {
			t.Fatal("waiting acquire should win the freed slot")
		}
		if time.Since(start) > time.Second {
			t.Fatal("acquire waited far longer than the release took")
		}
	})
	t.Run("context aborts the wait", func(t *testing.T) {
		l := NewLimiter(1, time.Minute)
		if !l.Acquire(context.Background()) {
			t.Fatal("first acquire failed")
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(10 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		if l.Acquire(ctx) {
			t.Fatal("acquire should fail when the client context dies")
		}
		if time.Since(start) > 10*time.Second {
			t.Fatal("cancelled acquire did not return promptly")
		}
	})
}

func TestGuardShed(t *testing.T) {
	var m Metrics
	g := Guard{Limiter: NewLimiter(1, 0), Metrics: &m}
	release := make(chan struct{})
	started := make(chan struct{})
	var shed atomic.Int64
	h := g.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		w.WriteHeader(http.StatusOK)
	}), &shed)

	// Occupy the single slot, then watch the next request shed.
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
	}()
	<-started

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("code = %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != fmt.Sprint(RetryAfterSeconds) {
		t.Fatalf("Retry-After = %q, want %d", ra, RetryAfterSeconds)
	}
	decodeError(t, rec.Body.Bytes())
	if shed.Load() != 1 {
		t.Fatalf("shed counter = %d, want 1", shed.Load())
	}

	close(release)
	<-firstDone

	// Slot is free again: the next request is admitted and completes.
	// Fresh channels for the handler closure — release pre-closed so the
	// handler returns immediately, started fresh so its close is legal.
	started = make(chan struct{})
	release = make(chan struct{})
	close(release)
	rec = httptest.NewRecorder()
	done := make(chan struct{})
	go func() { defer close(done); h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil)) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("admitted request did not complete after the slot freed")
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("code after release = %d, want 200", rec.Code)
	}
}

// TestGuardDeadline pins what the deadline bounds: the delay the guard
// injects. A delay past the deadline is cut at it and answered with a
// JSON 503, and the handler is never entered.
func TestGuardDeadline(t *testing.T) {
	var m Metrics
	g := Guard{Timeout: 30 * time.Millisecond, Metrics: &m, Delay: time.Hour}
	var entered atomic.Int64
	h := g.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered.Add(1)
		io.WriteString(w, "too late")
	}), nil)

	start := time.Now()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("503 took %v; the deadline should fire near 30ms", elapsed)
	}
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("code = %d, want 503", rec.Code)
	}
	if msg := decodeError(t, rec.Body.Bytes()); !strings.Contains(msg, "deadline") {
		t.Fatalf("error = %q, want a deadline message", msg)
	}
	if m.Timeouts.Load() != 1 {
		t.Fatalf("Timeouts = %d, want 1", m.Timeouts.Load())
	}
	if n := entered.Load(); n != 0 {
		t.Fatalf("handler entered %d times after its deadline", n)
	}
}

func TestGuardDeadlineFastHandler(t *testing.T) {
	// A handler well under its deadline passes through untouched —
	// status, headers and body all reach the client.
	g := Guard{Timeout: 5 * time.Second}
	h := g.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Custom", "yes")
		w.WriteHeader(http.StatusCreated)
		io.WriteString(w, "payload")
	}), nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusCreated || rec.Body.String() != "payload" || rec.Header().Get("X-Custom") != "yes" {
		t.Fatalf("response mangled: code=%d body=%q header=%q",
			rec.Code, rec.Body.String(), rec.Header().Get("X-Custom"))
	}
}

func TestGuardPanicIsolation(t *testing.T) {
	boom := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	t.Run("inline path", func(t *testing.T) {
		var m Metrics
		g := Guard{Metrics: &m}
		rec := httptest.NewRecorder()
		g.Wrap(boom, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("code = %d, want 500", rec.Code)
		}
		decodeError(t, rec.Body.Bytes())
		if m.Panics.Load() != 1 {
			t.Fatalf("Panics = %d, want 1", m.Panics.Load())
		}
	})
	t.Run("deadline path", func(t *testing.T) {
		// A deadline and a limiter armed change nothing: the panic is
		// recovered on the same path and the slot is given back.
		var m Metrics
		g := Guard{Limiter: NewLimiter(1, 0), Timeout: 5 * time.Second, Metrics: &m}
		rec := httptest.NewRecorder()
		g.Wrap(boom, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("code = %d, want 500", rec.Code)
		}
		decodeError(t, rec.Body.Bytes())
		if m.Panics.Load() != 1 {
			t.Fatalf("Panics = %d, want 1", m.Panics.Load())
		}
		if n := g.Limiter.InFlight(); n != 0 {
			t.Fatalf("a panicked request kept %d admission slots", n)
		}
	})
}

// TestGuardStuckHandlerHoldsSlot is the goroutine-bound contract: a
// handler stuck before its first write keeps its admission slot, so N
// stuck handlers occupy exactly N slots and the (N+1)th request sheds
// instead of stacking another goroutine on the wedged code path.
func TestGuardStuckHandlerHoldsSlot(t *testing.T) {
	var m Metrics
	g := Guard{Limiter: NewLimiter(2, 0), Timeout: 20 * time.Millisecond, Metrics: &m}
	release := make(chan struct{})
	entered := make(chan struct{}, 2)
	h := g.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release // deliberately stuck, past its deadline
	}), nil)

	// Two requests enter their handlers and stay stuck inside.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
		}()
	}
	<-entered
	<-entered
	// Both slots are held by the stuck handlers — the next request must
	// shed rather than start a third.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("code with all slots wedged = %d, want 429", rec.Code)
	}
	if n := len(entered); n != 0 {
		t.Fatalf("a request ran past the admission cap: %d more entered", n)
	}

	close(release)
	wg.Wait()
	// Once the stuck handlers return their slots are free again.
	if n := g.Limiter.InFlight(); n != 0 {
		t.Fatalf("slots held after the stuck handlers returned: %d", n)
	}
	// release is closed, so a fresh request returns immediately → 200.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	<-entered
	if rec.Code != http.StatusOK {
		t.Fatalf("code after recovery = %d, want 200", rec.Code)
	}
}

// TestGuardReleasesSlotAtFirstWrite pins when a slot frees: at the
// response's first write, so a slot covers computing the answer and not
// the client reading it. With one slot, a handler that has written and
// then blocks must not shed the next request.
func TestGuardReleasesSlotAtFirstWrite(t *testing.T) {
	g := Guard{Limiter: NewLimiter(1, 0), Timeout: time.Second}
	wrote := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int64
	h := g.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
		if calls.Add(1) == 1 {
			close(wrote)
			<-release
		}
	}), nil)

	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
	}()
	<-wrote
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	close(release)
	<-firstDone
	if rec.Code != http.StatusOK {
		t.Fatalf("request behind a written, blocked handler: code %d, want 200", rec.Code)
	}
	if n := g.Limiter.InFlight(); n != 0 {
		t.Fatalf("slots held after both requests returned: %d", n)
	}
}

// TestGuardAllocations is the guard's allocation budget with every
// layer armed: one request makes two allocations, the tracking writer
// and the handler's string-to-bytes write — no goroutine, context,
// timer, channel or response buffer.
func TestGuardAllocations(t *testing.T) {
	var m Metrics
	g := Guard{Limiter: NewLimiter(4, time.Millisecond), Timeout: time.Second, Metrics: &m}
	h := g.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}), nil)
	req := httptest.NewRequest("GET", "/x", nil)
	rec := httptest.NewRecorder()
	allocs := testing.AllocsPerRun(200, func() {
		rec.Body.Reset()
		h.ServeHTTP(rec, req)
	})
	if allocs > 2 {
		t.Fatalf("a guarded request made %v allocations, budget 2", allocs)
	}
}

// TestGuardOverloadGoodput floods a capacity-1 guard and checks the
// overload contract: every response is either a success or a clean
// 429, nothing hangs, and at least one request of the burst succeeds.
func TestGuardOverloadGoodput(t *testing.T) {
	g := Guard{Limiter: NewLimiter(4, time.Millisecond), Timeout: time.Second}
	h := g.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		io.WriteString(w, "ok")
	}), nil)

	const clients = 64
	codes := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
			codes[i] = rec.Code
		}(i)
	}
	wg.Wait()

	var ok, shed int
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Fatalf("client %d got unexpected code %d", i, c)
		}
	}
	if ok == 0 {
		t.Fatal("overload burst got zero goodput")
	}
	t.Logf("burst of %d: %d served, %d shed", clients, ok, shed)
}

// TestSlowloris dribbles request headers at a hardened listener and
// checks the server cuts the connection once ReadHeaderTimeout
// expires, instead of letting the client pin a goroutine forever.
func TestSlowloris(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.ReadHeaderTimeout = 100 * time.Millisecond
	srv := cfg.Server(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// Dribble one header byte at a time, far slower than the window.
	io.WriteString(conn, "GET / HTTP/1.1\r\nHost: x\r\nX-Slow: ")
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 1)
	for {
		if _, err := io.WriteString(conn, "a"); err != nil {
			break // server closed on us — exactly what we want
		}
		conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		if _, err := conn.Read(buf); err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				if time.Since(start) > 5*time.Second {
					t.Fatal("server tolerated a slowloris for >5s despite a 100ms header window")
				}
				continue
			}
			break // EOF/reset: server cut the connection
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("slowloris survived %v; want the connection cut near the 100ms window", elapsed)
	}

	// The listener still serves well-behaved clients afterwards.
	resp, err := http.Get("http://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatalf("healthy request after slowloris: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy request after slowloris: code %d", resp.StatusCode)
	}
}

// TestMidBodyDisconnect starts a POST with a large declared body, sends
// half and slams the connection; the handler sees a read error, the
// server survives, and the next request is served normally.
func TestMidBodyDisconnect(t *testing.T) {
	var handlerErr atomic.Value
	srv := DefaultServerConfig().Server(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.ReadAll(r.Body); err != nil {
			handlerErr.Store(err.Error())
			WriteJSONError(w, http.StatusBadRequest, "truncated body")
			return
		}
		io.WriteString(w, "ok")
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	io.WriteString(conn, "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 1048576\r\n\r\n")
	io.WriteString(conn, strings.Repeat("x", 1024)) // 1 KiB of the promised 1 MiB
	conn.Close()                                    // mid-body disconnect

	// The server keeps serving fresh connections.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Post("http://"+ln.Addr().String()+"/", "text/plain", strings.NewReader("whole body"))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server unhealthy after mid-body disconnect: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHealthProbes(t *testing.T) {
	var h Health

	get := func(f http.HandlerFunc) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		f(rec, httptest.NewRequest("GET", "/probe", nil))
		return rec
	}

	// Liveness is 200 from the start — the process answers HTTP.
	if rec := get(h.ServeLiveness); rec.Code != http.StatusOK {
		t.Fatalf("liveness = %d, want 200", rec.Code)
	}
	// Readiness starts 503: serving state not loaded yet.
	rec := get(h.ServeReadiness)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readiness before SetReady = %d, want 503", rec.Code)
	}
	if msg := decodeError(t, rec.Body.Bytes()); !strings.Contains(msg, "not loaded") {
		t.Fatalf("readiness reason = %q, want not-loaded", msg)
	}

	h.SetReady(true)
	if rec := get(h.ServeReadiness); rec.Code != http.StatusOK {
		t.Fatalf("readiness after SetReady = %d, want 200", rec.Code)
	}

	h.Wedge("updater panic: boom")
	rec = get(h.ServeReadiness)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readiness while wedged = %d, want 503", rec.Code)
	}
	if msg := decodeError(t, rec.Body.Bytes()); !strings.Contains(msg, "wedged") || !strings.Contains(msg, "boom") {
		t.Fatalf("wedged reason = %q, want wedged + original reason", msg)
	}
	h.Wedge("second panic") // first reason wins
	if _, why := h.Wedged(); !strings.Contains(why, "boom") {
		t.Fatalf("wedge reason overwritten: %q", why)
	}

	h.SetDraining()
	rec = get(h.ServeReadiness)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readiness while draining = %d, want 503", rec.Code)
	}
	if msg := decodeError(t, rec.Body.Bytes()); !strings.Contains(msg, "draining") {
		t.Fatalf("draining reason = %q", msg)
	}
	// Liveness never flips — the process is still alive while draining.
	if rec := get(h.ServeLiveness); rec.Code != http.StatusOK {
		t.Fatalf("liveness while draining = %d, want 200", rec.Code)
	}

	// Probes are GET/HEAD only.
	rec = httptest.NewRecorder()
	h.ServeLiveness(rec, httptest.NewRequest("POST", "/healthz", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz = %d, want 405", rec.Code)
	}
	if allow := rec.Header().Get("Allow"); !strings.Contains(allow, "GET") {
		t.Fatalf("405 without Allow header: %q", allow)
	}
	rec = httptest.NewRecorder()
	h.ServeReadiness(rec, httptest.NewRequest("HEAD", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("HEAD /readyz = %d, want 503 while draining", rec.Code)
	}
}

// TestDrainGroup registers two live servers, parks a slow request on
// one, and checks Shutdown completes only after that request finishes
// — and that both listeners refuse new connections afterwards.
func TestDrainGroup(t *testing.T) {
	inFlight := make(chan struct{})
	release := make(chan struct{})
	slow := DefaultServerConfig().Server(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(inFlight)
		<-release
		io.WriteString(w, "drained")
	}))
	fast := DefaultServerConfig().Server(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))

	lnSlow, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnFast, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go slow.Serve(lnSlow)
	go fast.Serve(lnFast)

	var g DrainGroup
	g.Add("slow", slow)
	g.Add("fast", fast)

	// Park a request on the slow server.
	type result struct {
		code int
		body string
		err  error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + lnSlow.Addr().String() + "/")
		if err != nil {
			resc <- result{err: err}
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		resc <- result{code: resp.StatusCode, body: string(b)}
	}()
	<-inFlight

	drained := make(chan []error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- g.Shutdown(ctx)
	}()

	// Shutdown must wait for the parked request.
	select {
	case <-drained:
		t.Fatal("Shutdown returned while a request was still in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case errs := <-drained:
		if len(errs) != 0 {
			t.Fatalf("drain errors: %v", errs)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown never finished after the request completed")
	}
	res := <-resc
	if res.err != nil || res.code != http.StatusOK || res.body != "drained" {
		t.Fatalf("in-flight request across drain: %+v", res)
	}

	// Both listeners are closed now.
	if _, err := http.Get("http://" + lnFast.Addr().String() + "/"); err == nil {
		t.Fatal("fast listener still accepting after drain")
	}

	// Exceeding the budget reports a named error per stuck server.
	stuck := DefaultServerConfig().Server(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	lnStuck, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go stuck.Serve(lnStuck)
	defer stuck.Close()
	hang := make(chan struct{})
	go func() {
		// Hold a connection open mid-request so Shutdown cannot finish.
		conn, err := net.Dial("tcp", lnStuck.Addr().String())
		if err == nil {
			io.WriteString(conn, "GET / HTTP/1.1\r\nHost: x\r\n\r\n")
			<-hang
			conn.Close()
		}
	}()
	defer close(hang)
	time.Sleep(50 * time.Millisecond) // let the request arrive
	var g2 DrainGroup
	g2.Add("stuck", stuck)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	errs := g2.Shutdown(ctx)
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "drain stuck") {
		t.Fatalf("over-budget drain errors = %v, want one named 'drain stuck'", errs)
	}
}

// TestGuardConcurrencyRace exercises the one path with every layer
// armed (admission, deadline, chaos delay, panic isolation, slot
// release at the first write or on return) from many goroutines so
// the race detector can see any unsynchronized state.
func TestGuardConcurrencyRace(t *testing.T) {
	var m Metrics
	g := Guard{
		Limiter: NewLimiter(8, time.Millisecond),
		Timeout: 10 * time.Millisecond,
		Metrics: &m,
		Delay:   time.Millisecond,
	}
	var shed atomic.Int64
	var n atomic.Int64
	h := g.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%7 == 0 {
			panic("every seventh request dies")
		}
		if n.Load()%5 == 0 {
			time.Sleep(20 * time.Millisecond) // past the deadline, never cut off
		}
		io.WriteString(w, "ok")
	}), &shed)

	var wg sync.WaitGroup
	for i := 0; i < 128; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
			switch rec.Code {
			case http.StatusOK, http.StatusTooManyRequests, http.StatusInternalServerError:
			default:
				t.Errorf("unexpected code %d", rec.Code)
			}
		}()
	}
	wg.Wait()
}
