package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"time"

	"cnprobase"
	"cnprobase/internal/resilience"
)

// serving is the query plane wired as cnpserver -load wires it: the
// mapped snapshot behind the default resilience stack behind the
// hardened listener.
type serving struct {
	view *cnprobase.ServingView
	srv  *cnprobase.APIServer
	ln   *listener
}

var readyProbe = newGet(kGetEntity, "/api/getEntity", "concept", "人物")

// firstOK sends one query and reports whether it was answered 200.
func firstOK(addr string) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close()
	status, _, err := c.roundTrip(readyProbe.wire, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("first query answered %d", status)
	}
	return nil
}

// openServing goes from the snapshot file to a server that has
// answered its first query, and reports how long the mapping took.
func openServing(snap string) (*serving, time.Duration, error) {
	t0 := time.Now()
	view, err := cnprobase.OpenSnapshotMapped(snap)
	if err != nil {
		return nil, 0, err
	}
	opened := time.Since(t0)
	srv := cnprobase.NewViewServerResilient(view, cnprobase.DefaultServerResilience())
	ln, err := listen(resilience.DefaultServerConfig(), srv.Handler())
	if err != nil {
		return nil, 0, err
	}
	if err := firstOK(ln.addr); err != nil {
		return nil, 0, errors.Join(err, ln.close())
	}
	return &serving{view: view, srv: srv, ln: ln}, opened, nil
}

// setupServing opens, probes and drops the system several times and
// keeps the last one: set-up time is the median of the cycles.
func setupServing(snap string, cycles int) (s *serving, setup, opened []time.Duration, err error) {
	for i := 0; i < cycles; i++ {
		if s != nil {
			if err := s.ln.close(); err != nil {
				return nil, nil, nil, err
			}
			s = nil
			// A dropped view's mapping is released by a finalizer. Collect
			// now and let the finalizer goroutine run, or the dropped
			// cycles pile up in the process's peak RSS, 15 MB apiece.
			runtime.GC()
			time.Sleep(2 * time.Millisecond)
		}
		t0 := time.Now()
		var o time.Duration
		if s, o, err = openServing(snap); err != nil {
			return nil, nil, nil, err
		}
		setup = append(setup, time.Since(t0))
		opened = append(opened, o)
	}
	return s, setup, opened, nil
}

// noOverload fails the run if the resilience stack shed, timed out or
// recovered anything: on these workloads it never should.
func noOverload(srv *cnprobase.APIServer, t *tally) (shed, timeouts, panics float64) {
	rs := srv.ResilienceReport()
	if rs == nil {
		return 0, 0, 0
	}
	for _, n := range rs.Shed {
		shed += float64(n)
	}
	t.fail("resilience stack absorbed load: shed=%v timeouts=%d panics=%d", rs.Shed, rs.Timeouts, rs.Panics)
	return shed, float64(rs.Timeouts), float64(rs.Panics)
}

// verify decodes the answers to the first n requests and compares each
// with what the view and the engines return when called directly.
func verify(addr string, v *cnprobase.ServingView, reqs []request, n int, t *tally) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close()
	var body bytes.Buffer
	for i := 0; i < n && i < len(reqs); i++ {
		r := &reqs[i]
		body.Reset()
		status, _, err := c.roundTrip(r.wire, &body)
		if err != nil {
			return err
		}
		want, err := normalize(expected(v, r))
		if err != nil {
			return err
		}
		var got any
		if err := json.Unmarshal(body.Bytes(), &got); err != nil {
			t.check(false, "%s: body is not JSON: %v", r.target, err)
			continue
		}
		t.check(status == http.StatusOK && reflect.DeepEqual(got, want),
			"%s %s: status %d, answer differs from the direct call", r.target, r.arg, status)
	}
	return nil
}

// loopResult is what a closed loop measured: per segment, every
// client's request latencies; over all segments, the process's CPU.
type loopResult struct {
	segs   [][]time.Duration
	cpu    time.Duration
	ops    int
	failed int
}

// closedLoop drives the server with `clients` keep-alive connections,
// each sending its next request when the previous answer is complete:
// the API's users are applications that wait for each reply. After the
// warm-up it measures nseg back-to-back segments.
func closedLoop(addr string, reqs []request, clients, nseg int, warm, seg time.Duration) (loopResult, error) {
	type clientResult struct {
		segs   [][]time.Duration
		failed int
		err    error
	}
	conns := make([]*conn, clients)
	for k := range conns {
		c, err := dial(addr)
		if err != nil {
			return loopResult{}, err
		}
		defer c.close()
		conns[k] = c
	}
	results := make([]clientResult, clients)
	warmEnd := time.Now().Add(warm)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			res := &results[k]
			res.segs = make([][]time.Duration, nseg)
			i := k * len(reqs) / clients
			now := time.Now()
			for s := -1; s < nseg; s++ {
				end := warmEnd.Add(time.Duration(s+1) * seg)
				if s >= 0 {
					res.segs[s] = make([]time.Duration, 0, int(seg.Seconds()*50000)+1024)
				}
				for now.Before(end) {
					status, n, err := conns[k].roundTrip(reqs[i%len(reqs)].wire, nil)
					if err != nil {
						res.err = err
						return
					}
					t1 := time.Now()
					if s >= 0 {
						res.segs[s] = append(res.segs[s], t1.Sub(now))
						if status != http.StatusOK || n == 0 {
							res.failed++
						}
					}
					now = t1
					i++
				}
			}
		}(k)
	}
	time.Sleep(time.Until(warmEnd))
	cpu0 := cpuTime()
	wg.Wait()
	out := loopResult{cpu: cpuTime() - cpu0, segs: make([][]time.Duration, nseg)}
	for _, res := range results {
		if res.err != nil {
			return out, res.err
		}
		out.failed += res.failed
		for s := range res.segs {
			out.segs[s] = append(out.segs[s], res.segs[s]...)
			out.ops += len(res.segs[s])
		}
	}
	return out, nil
}

// tableSize is how many generated requests a closed loop cycles
// through. An apps request is some twenty times a lookup request in
// bytes and in work, so its table is shorter; both are small enough
// that the harness's share of the process's memory stays modest.
var tableSize = map[string]int{"lookup": 1 << 15, "apps": 1 << 12}

// traceSample is how many requests of the sequence the traced run
// replays against each rung, per measured second.
var traceSample = map[string]int{"lookup": 2000, "apps": 500}

// runQueries is the untraced run of lookup and of apps.
func runQueries(cfg config, t *tally) error {
	s, setup, _, err := setupServing(filepath.Join(cfg.fixtures, "base.snap"), 15)
	if err != nil {
		return err
	}
	defer func() { _ = s.ln.close() }() // result already taken; the process is about to exit
	reqs, err := generate(cfg.workload, namesOf(s.view), cfg.seed, tableSize[cfg.workload])
	if err != nil {
		return err
	}
	if err := verify(s.ln.addr, s.view, reqs, 512, t); err != nil {
		return err
	}

	// The harness shares the machine with the server, so it never runs
	// more clients than there are processors.
	clients := min(2, runtime.NumCPU())
	seg := cfg.seconds / 3
	res, err := closedLoop(s.ln.addr, reqs, clients, 3, cfg.seconds/10, seg)
	if err != nil {
		return err
	}
	t.count(res.ops, res.failed, "timed requests were not a 200 with a body")
	var rate, p50 []float64
	for _, lat := range res.segs {
		rate = append(rate, float64(len(lat))/seg.Seconds())
		p50 = append(p50, median(durs(lat, time.Millisecond)))
	}
	noOverload(s.srv, t)
	t.set("setup_s", median(durs(setup, time.Second)))
	t.set("ops_per_s", median(rate))
	t.set("p50_ms", median(p50))
	t.set("cpu_us_per_op", float64(res.cpu.Microseconds())/float64(max(res.ops, 1)))
	t.set("heap_mb", liveHeapMB(s))
	t.set("rss_peak_mb", rssPeakMB())
	runtime.KeepAlive(s.view) // request strings are clones, but the server reads the mapping to the end
	return nil
}

// ---- traced run ----

// recorder is the response writer of the rungs that call a handler
// directly: it counts the body and keeps nothing.
type recorder struct {
	header http.Header
	code   int
	n      int
}

func (r *recorder) Header() http.Header { return r.header }
func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}
func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	r.n += len(p)
	return len(p), nil
}

// handlerRung serves every request by calling h directly, one span
// each. Requests are built in chunks outside the spans and outside the
// allocation count.
func handlerRung(tr *tracer, name string, h http.Handler, reqs []request, t *tally) (lat []time.Duration, allocsPerOp, bytesPerOp float64, err error) {
	const chunk = 512
	rec := &recorder{header: make(http.Header, 4)}
	built := make([]*http.Request, 0, chunk)
	var allocs uint64
	var bytesOut int
	for lo := 0; lo < len(reqs); lo += chunk {
		built = built[:0]
		for i := lo; i < min(lo+chunk, len(reqs)); i++ {
			hr, err := http.NewRequest(reqs[i].method, "http://bench"+reqs[i].target, bytes.NewReader(reqs[i].body))
			if err != nil {
				return nil, 0, 0, err
			}
			built = append(built, hr)
		}
		m0 := mallocs()
		for j, hr := range built {
			clear(rec.header)
			rec.code, rec.n = 0, 0
			lat = append(lat, tr.timed(name, 0, lo+j, func() { h.ServeHTTP(rec, hr) }))
			t.check(rec.code == http.StatusOK && rec.n > 0, "%s %s: status %d, %d bytes", name, reqs[lo+j].target, rec.code, rec.n)
			bytesOut += rec.n
		}
		allocs += mallocs() - m0
	}
	n := float64(len(reqs))
	return lat, float64(allocs) / n, float64(bytesOut) / n, nil
}

// spanMiddleware records one span around next per request, as a child
// of the client span whose request index the header carries.
func spanMiddleware(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := strconv.Atoi(r.Header.Get("X-Bench-Req"))
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		id := tr.begin("handler", tr.rootOf(req), req)
		next.ServeHTTP(w, r)
		tr.end(id)
	})
}

// diffs returns a[i]-b[i] in nanoseconds.
func diffs(a, b []time.Duration) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = float64(a[i] - b[i])
	}
	return out
}

// traceQueries is the traced run of lookup and of apps: one goroutine
// replays a fixed sample of the workload's own sequence against each
// rung of the query ladder, from the view's methods out to loopback.
func traceQueries(cfg config, t *tally) error {
	s, _, opened, err := setupServing(filepath.Join(cfg.fixtures, "base.snap"), 5)
	if err != nil {
		return err
	}
	defer func() { _ = s.ln.close() }() // result already taken; the process is about to exit
	n := int(float64(traceSample[cfg.workload]) * cfg.seconds.Seconds())
	reqs, err := generate(cfg.workload, namesOf(s.view), cfg.seed, n)
	if err != nil {
		return err
	}
	if err := verify(s.ln.addr, s.view, reqs, 512, t); err != nil {
		return err
	}
	tr := newTracer(8 * n)

	// Rung 0: the view and the engines, called directly.
	direct := directRung(tr, s.view, reqs)

	// Rung 1: the api handlers, with a server whose resilience config is
	// zero (Guard only recovers). Rung 2: the default stack, whose Guard
	// adds a goroutine, a buffered response and a deadline.
	bare := cnprobase.NewViewServerResilient(s.view, cnprobase.ServerResilience{}).Handler()
	api, apiAllocs, respBytes, err := handlerRung(tr, "api.handler", bare, reqs, t)
	if err != nil {
		return err
	}
	guarded, guardedAllocs, _, err := handlerRung(tr, "resilience.guard", s.srv.Handler(), reqs, t)
	if err != nil {
		return err
	}

	// Rung 3: one keep-alive client over loopback, untraced, then traced
	// through a second listener whose handler is wrapped in a span.
	plain, err := loopbackRung(nil, s.ln.addr, reqs, t)
	if err != nil {
		return err
	}
	tracedLn, err := listen(resilience.DefaultServerConfig(), spanMiddleware(tr, s.srv.Handler()))
	if err != nil {
		return err
	}
	traced, err := loopbackRung(tr, tracedLn.addr, reqs, t)
	if err := errors.Join(err, tracedLn.close()); err != nil {
		return err
	}

	// Every rung's first tenth warms it up: it is in the trace file and
	// in the counts, not in the times below.
	warm := n / 10
	direct, api, guarded, plain, traced = direct[warm:], api[warm:], guarded[warm:], plain[warm:], traced[warm:]
	self := tr.selfTimes()
	byKind := func(k kind) []float64 {
		var out []float64
		for i, r := range reqs[warm:] {
			if r.kind == k {
				out = append(out, float64(direct[i]))
			}
		}
		return out
	}
	t.set("snapshot.open_mapped_ms", median(durs(opened, time.Millisecond)))
	switch cfg.workload {
	case "lookup":
		t.set("serving.lookup_ns", median(byKind(kMen2Ent)))
		t.set("serving.hypernyms_ns", median(byKind(kGetConcept)))
		t.set("serving.hyponyms_ns", median(byKind(kGetEntity)))
		t.set("serving.allocs_per_op", directAllocs(s.view, reqs))
	case "apps":
		t.set("serving.findall_ns", median(self["serving.findall"]))
		t.set("conceptualize.text_ns", median(byKind(kConceptualize)))
		t.set("conceptualize.allocs_per_text", directAllocs(s.view, reqs))
		t.set("qa.understand_ns", median(byKind(kQA)))
	}
	apiSelf := median(diffs(api, direct))
	guardSelf := median(diffs(guarded, api))
	loopback := median(self["nethttp.roundtrip"][warm:])
	clientP50 := median(durs(plain, time.Nanosecond))
	t.set("api.handler_ns", apiSelf)
	t.set("api.handler_allocs_per_op", apiAllocs)
	t.set("api.resp_bytes_per_op", respBytes)
	t.set("resilience.guard_ns", guardSelf)
	t.set("resilience.guard_allocs_per_op", guardedAllocs-apiAllocs)
	t.set("nethttp.loopback_ns", loopback)
	t.set("trace.client_p50_us", clientP50/1000)
	t.set("trace.client_p99_us", quantile(durs(plain, time.Microsecond), 0.99))
	t.set("trace.overhead_pct", 100*(median(durs(traced, time.Nanosecond))-clientP50)/clientP50)
	t.set("trace.reconstructed_pct", 100*(median(durs(direct, time.Nanosecond))+apiSelf+guardSelf+loopback)/clientP50)
	shed, timeouts, panics := noOverload(s.srv, t)
	t.set("api.shed", shed)
	t.set("api.timeouts", timeouts)
	t.set("api.panics", panics)
	runtime.KeepAlive(s.view)
	return tr.write(cfg.out, cfg.workload)
}

// directRung does each request's work by calling the view (lookup) or
// the engines (apps) directly, one span per request; on apps a second
// span per text times the mention scan the engines start with.
func directRung(tr *tracer, v *cnprobase.ServingView, reqs []request) []time.Duration {
	eng := cnprobase.NewViewConceptualizer(v)
	var (
		res      cnprobase.Conceptualization
		surfaces []string
		lat      = make([]time.Duration, len(reqs))
	)
	for i := range reqs {
		r := &reqs[i]
		switch r.kind {
		case kMen2Ent:
			lat[i] = tr.timed("serving.lookup", 0, i, func() { sink = v.Lookup(r.arg) })
		case kGetConcept:
			lat[i] = tr.timed("serving.hypernyms", 0, i, func() { sink = v.Hypernyms(r.arg) })
		case kGetEntity:
			lat[i] = tr.timed("serving.hyponyms", 0, i, func() { sink = v.Hyponyms(r.arg, 50) })
		case kConceptualize:
			tr.timed("serving.findall", 0, i, func() { surfaces = v.FindAllAppend(surfaces[:0], r.arg) })
			lat[i] = tr.timed("conceptualize.text", 0, i, func() { eng.ConceptualizeInto(&res, r.arg) })
		case kBatch:
			lat[i] = tr.timed("conceptualize.batch", 0, i, func() {
				for _, text := range r.texts {
					eng.ConceptualizeInto(&res, text)
				}
			})
		case kQA:
			lat[i] = tr.timed("qa.understand", 0, i, func() { sinkCovered = cnprobase.Understand(r.arg, v).Covered })
		}
	}
	return lat
}

// Results of direct calls land here so the calls cannot be optimised away.
var (
	sink        []string
	sinkCovered bool
)

// directAllocs counts heap allocations per direct call (per text on
// apps) over the sample, with nothing else running.
func directAllocs(v *cnprobase.ServingView, reqs []request) float64 {
	eng := cnprobase.NewViewConceptualizer(v)
	var res cnprobase.Conceptualization
	calls := 0
	m0 := mallocs()
	for i := range reqs {
		r := &reqs[i]
		switch r.kind {
		case kMen2Ent:
			sink = v.Lookup(r.arg)
		case kGetConcept:
			sink = v.Hypernyms(r.arg)
		case kGetEntity:
			sink = v.Hyponyms(r.arg, 50)
		case kConceptualize:
			eng.ConceptualizeInto(&res, r.arg)
		default:
			continue
		}
		calls++
	}
	return float64(mallocs()-m0) / float64(max(calls, 1))
}

// loopbackRung sends the sample over one keep-alive connection. With a
// tracer, each round trip is a root span and the request carries its
// index in a header for the server-side span to attach to.
func loopbackRung(tr *tracer, addr string, reqs []request, t *tally) ([]time.Duration, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	lat := make([]time.Duration, len(reqs))
	for i := range reqs {
		wire := reqs[i].wire
		var id int
		if tr != nil {
			wire = reqs[i].wireWith("X-Bench-Req: " + strconv.Itoa(i))
			id = tr.beginRoot("nethttp.roundtrip", i)
		}
		t0 := time.Now()
		status, n, err := c.roundTrip(wire, nil)
		lat[i] = time.Since(t0)
		if tr != nil {
			tr.end(id)
		}
		if err != nil {
			return nil, err
		}
		t.check(status == http.StatusOK && n > 0, "loopback %s: status %d, %d bytes", reqs[i].target, status, n)
	}
	return lat, nil
}
