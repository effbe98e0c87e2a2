package api

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cnprobase/internal/core"
	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/serving"
	"cnprobase/internal/synth"
	"cnprobase/internal/taxonomy"
)

// resilientServer builds a tiny server with explicit resilience knobs
// and mounts its full Handler on a real listener.
func resilientServer(t *testing.T, rc ResilienceConfig) (*Server, *httptest.Server) {
	t.Helper()
	tax := taxonomy.New()
	tax.MarkEntity("李小龙（武术家）")
	if err := tax.AddIsA("李小龙（武术家）", "武术家", taxonomy.SourceTag); err != nil {
		t.Fatal(err)
	}
	tax.AddMention("李小龙", "李小龙（武术家）")
	srv := NewViewServerConfig(serving.Compile(tax), rc)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// get runs one GET and returns status plus body.
func get(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Header
}

func jsonError(t *testing.T, body []byte) string {
	t.Helper()
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("body %q is not the uniform JSON error shape (err %v)", body, err)
	}
	return e.Error
}

// TestQueryPlaneSheds429 saturates a 1-slot server with a slow request
// and checks the next one is shed with the full 429 contract: JSON
// body, Retry-After header, a per-endpoint counter in /api/stats —
// which itself must keep answering while the query plane sheds.
func TestQueryPlaneSheds429(t *testing.T) {
	srv, ts := resilientServer(t, ResilienceConfig{
		MaxInFlight:   1,
		AdmitWait:     0,
		LookupTimeout: 10 * time.Second,
		HandlerDelay:  300 * time.Millisecond,
	})

	// Occupy the only slot.
	slow := make(chan int, 1)
	go func() {
		code, _, _ := get(t, ts.URL+"/api/men2ent?mention=李小龙")
		slow <- code
	}()
	// Wait until the slot is actually held.
	deadline := time.Now().Add(5 * time.Second)
	for srv.limiter.InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never acquired the admission slot")
		}
		time.Sleep(time.Millisecond)
	}

	code, body, hdr := get(t, ts.URL+"/api/getConcept?entity=李小龙（武术家）")
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated request code = %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	jsonError(t, body)

	// Observability is exempt from admission: stats answers during the
	// overload and reports the shed.
	code, body, _ = get(t, ts.URL+"/api/stats")
	if code != http.StatusOK {
		t.Fatalf("/api/stats during overload = %d, want 200", code)
	}
	var stats struct {
		Resilience *ResilienceStats `json:"resilience"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if stats.Resilience == nil || stats.Resilience.Shed["getConcept"] != 1 {
		t.Fatalf("stats.resilience = %+v, want shed[getConcept]=1", stats.Resilience)
	}

	if code := <-slow; code != http.StatusOK {
		t.Fatalf("the admitted slow request code = %d, want 200", code)
	}
}

// TestQueryPlaneDeadline503 gives lookups a deadline far below the
// injected handler latency and checks the JSON 503 plus the timeout
// counter in /api/stats.
func TestQueryPlaneDeadline503(t *testing.T) {
	_, ts := resilientServer(t, ResilienceConfig{
		LookupTimeout: 20 * time.Millisecond,
		HandlerDelay:  2 * time.Second,
	})
	start := time.Now()
	code, body, _ := get(t, ts.URL+"/api/men2ent?mention=李小龙")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("code = %d, want 503", code)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("503 took %v; the deadline should fire near 20ms", elapsed)
	}
	if msg := jsonError(t, body); !strings.Contains(msg, "deadline") {
		t.Fatalf("error = %q, want a deadline message", msg)
	}

	code, body, _ = get(t, ts.URL+"/api/stats")
	if code != http.StatusOK {
		t.Fatalf("/api/stats = %d", code)
	}
	var stats struct {
		Resilience *ResilienceStats `json:"resilience"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if stats.Resilience == nil || stats.Resilience.Timeouts < 1 {
		t.Fatalf("stats.resilience = %+v, want timeouts >= 1", stats.Resilience)
	}
}

// TestStatsOmitsResilienceWhenClean pins the legacy payload shape: a
// server that has never shed, timed out or panicked reports no
// "resilience" key at all.
func TestStatsOmitsResilienceWhenClean(t *testing.T) {
	_, ts := resilientServer(t, DefaultResilience())
	code, body, _ := get(t, ts.URL+"/api/stats")
	if code != http.StatusOK {
		t.Fatalf("/api/stats = %d", code)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if _, ok := raw["resilience"]; ok {
		t.Fatalf("clean server leaks a resilience key: %s", body)
	}
}

// TestProbesThroughHandler drives /healthz and /readyz through the
// real mux, including the draining flip the shutdown path performs.
func TestProbesThroughHandler(t *testing.T) {
	srv, ts := resilientServer(t, DefaultResilience())

	for _, path := range []string{"/healthz", "/readyz"} {
		code, body, hdr := get(t, ts.URL+path)
		if code != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, code)
		}
		if !strings.HasPrefix(hdr.Get("Content-Type"), "application/json") {
			t.Fatalf("%s Content-Type = %q", path, hdr.Get("Content-Type"))
		}
		var ok struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(body, &ok); err != nil || ok.Status != "ok" {
			t.Fatalf("%s body = %q", path, body)
		}
	}

	srv.Health().SetDraining()
	code, body, _ := get(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", code)
	}
	if msg := jsonError(t, body); !strings.Contains(msg, "draining") {
		t.Fatalf("/readyz reason = %q", msg)
	}
	if code, _, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz while draining = %d, want 200", code)
	}
}

// panicUpdater is the injected fault for the wedge test: the first
// Update call panics mid-apply, as a buggy extraction stage would.
type panicUpdater struct{}

func (panicUpdater) Update(prev *core.Result, delta *encyclopedia.Corpus) (*core.Result, error) {
	panic("injected updater panic")
}

// TestIngestPanicWedgesIngester is the blast-radius contract for an
// updater panic: the batch that hit it gets a 503, the ingester wedges
// (sticky 503 for later batches, compaction refused, /readyz flips to
// 503), the panic is counted — and the query plane keeps serving the
// last good view through all of it.
func TestIngestPanicWedgesIngester(t *testing.T) {
	wcfg := synth.DefaultConfig()
	wcfg.Entities = 300
	w, err := synth.Generate(wcfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	opts := core.DefaultOptions()
	opts.EnableNeural = false
	res, err := core.New(opts).Build(w.Corpus())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	srv := NewViewServer(res.Freeze())
	ing, err := NewIngester(res, panicUpdater{}, srv)
	if err != nil {
		t.Fatalf("NewIngester: %v", err)
	}
	t.Cleanup(ing.Close)
	apiTS := httptest.NewServer(srv.Handler())
	t.Cleanup(apiTS.Close)
	ingTS := httptest.NewServer(ing.Handler())
	t.Cleanup(ingTS.Close)

	// Queries work before the fault.
	someEntity := res.Names()[res.Kept[0].Hypo]
	if code, _, _ := get(t, apiTS.URL+"/api/getConcept?entity="+someEntity); code != http.StatusOK {
		t.Fatalf("query before fault = %d", code)
	}

	// First batch trips the injected panic → 503, not a dead process.
	resp := postJSONL(t, ingTS.URL, []encyclopedia.Page{{Title: "引爆实体", Tags: []string{"概念"}}})
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("panicking batch = %d (%s), want 503", resp.StatusCode, body)
	}
	if msg := jsonError(t, body); !strings.Contains(msg, "wedged") {
		t.Fatalf("panicking batch error = %q, want a wedged message", msg)
	}
	if !ing.Wedged() {
		t.Fatal("ingester not wedged after updater panic")
	}

	// The wedge is sticky: the next batch is refused up front.
	resp = postJSONL(t, ingTS.URL, []encyclopedia.Page{{Title: "后续实体", Tags: []string{"概念"}}})
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("batch after wedge = %d (%s), want sticky 503", resp.StatusCode, body)
	}

	// Compaction must never persist half-mutated state.
	if err := ing.Compact(); err == nil {
		t.Fatal("Compact on a wedged ingester must refuse")
	}

	// Readiness flips so the replica is rotated out...
	code, body, _ := get(t, apiTS.URL+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after wedge = %d, want 503", code)
	}
	if msg := jsonError(t, body); !strings.Contains(msg, "wedged") {
		t.Fatalf("/readyz reason = %q", msg)
	}
	// ...but liveness holds and queries keep serving the old view.
	if code, _, _ := get(t, apiTS.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after wedge = %d, want 200", code)
	}
	if code, _, _ := get(t, apiTS.URL+"/api/getConcept?entity="+someEntity); code != http.StatusOK {
		t.Fatalf("query after wedge = %d, want 200 from the last good view", code)
	}

	// The panic shows up in /api/stats.
	code, body, _ = get(t, apiTS.URL+"/api/stats")
	if code != http.StatusOK {
		t.Fatalf("/api/stats after wedge = %d", code)
	}
	var stats struct {
		Resilience *ResilienceStats `json:"resilience"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if stats.Resilience == nil || stats.Resilience.Panics < 1 {
		t.Fatalf("stats.resilience = %+v, want panics >= 1", stats.Resilience)
	}
}

// TestShedDuringConcurrentSwap hammers a small-capacity server with
// queries while another goroutine swaps the serving view — the
// admission, metrics and view-swap paths all run concurrently so the
// race detector can check their synchronization. The swapper alternates
// a flat view and one with a delta over it, which the queried mention
// reads a rewritten row of, as an ingesting server publishes them.
func TestShedDuringConcurrentSwap(t *testing.T) {
	srv, ts := resilientServer(t, ResilienceConfig{
		MaxInFlight:   2,
		AdmitWait:     time.Millisecond,
		LookupTimeout: time.Second,
		HandlerDelay:  time.Millisecond,
	})
	tax := taxonomy.New()
	tax.MarkEntity("李小龙（武术家）")
	if err := tax.AddIsA("李小龙（武术家）", "武术家", taxonomy.SourceTag); err != nil {
		t.Fatal(err)
	}
	tax.AddMention("李小龙", "李小龙（武术家）")
	flat := serving.Compile(tax)
	if err := tax.AddIsA("李小龙（演员）", "演员", taxonomy.SourceTag); err != nil {
		t.Fatal(err)
	}
	tax.AddMention("李小龙", "李小龙（演员）")
	var nodes []uint32
	for _, n := range []string{"李小龙（演员）", "演员"} {
		id, _ := tax.Symbols().Lookup(n)
		nodes = append(nodes, id)
	}
	withDelta := serving.Patch(flat, tax, nodes, []string{"李小龙"})
	if withDelta == nil || !withDelta.HasDelta() {
		t.Fatal("Patch did not publish a delta")
	}

	stop := make(chan struct{})
	swapperDone := make(chan struct{})
	var wg sync.WaitGroup
	go func() { // view swapper, runs until the queriers are done
		defer close(swapperDone)
		for {
			select {
			case <-stop:
				return
			default:
				srv.SwapView(withDelta)
				srv.SwapView(flat)
			}
		}
	}()
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() { // queriers, some shed and some served
			defer wg.Done()
			for j := 0; j < 30; j++ {
				code, _, _ := get(t, ts.URL+"/api/men2ent?mention=李小龙")
				if code != http.StatusOK && code != http.StatusTooManyRequests {
					t.Errorf("unexpected code %d", code)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // stats reader alongside
		defer wg.Done()
		for j := 0; j < 30; j++ {
			if code, _, _ := get(t, ts.URL+"/api/stats"); code != http.StatusOK {
				t.Errorf("stats code %d", code)
				return
			}
		}
	}()
	// Let the queriers and stats reader finish, then stop the swapper.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("concurrent swap/shed exercise hung")
	}
	close(stop)
	<-swapperDone
}
