package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// getStatus fetches a path and returns just the status code.
func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// eventually polls cond until it holds, failing the test if it has not
// by the timeout. Every wait of the integration tests is one of these:
// on a state the server reports (a gauge or counter in /api/stats,
// /readyz, a log line, an answer), never on a guess at how long the
// server needs to reach it.
func eventually(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within %v", what, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// inFlight reads the admission gauge off /api/stats (which is exempt
// from admission and from the chaos delay).
func inFlight(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Get(base + "/api/stats")
	if err != nil {
		t.Fatalf("GET /api/stats: %v", err)
	}
	defer resp.Body.Close()
	var stats struct {
		Resilience struct {
			InFlight int `json:"in_flight"`
		} `json:"resilience"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("decode /api/stats: %v", err)
	}
	return stats.Resilience.InFlight
}

// draining reports whether the server has begun its shutdown: /readyz
// answers 503, or — the grace over — the listener is already closed.
func draining(base string) bool {
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		return true
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusServiceUnavailable
}

// TestProbes pins the orchestration endpoints on a running binary:
// /healthz and /readyz both answer 200 JSON once the server announces
// its address (serving state loaded).
func TestProbes(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: compiles and runs the binary")
	}
	snap, _ := writeSnapshot(t)
	base, stop := startServer(t, "-load", snap)
	defer stop()

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d (%s), want 200", path, resp.StatusCode, body)
		}
		var ok struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(body, &ok); err != nil || ok.Status != "ok" {
			t.Fatalf("GET %s body = %q", path, body)
		}
	}
}

// TestOverloadFlagsShed proves the admission flags reach the serving
// plane: with one slot, zero wait and a slow handler, a saturated
// request is shed with 429 + Retry-After while /api/stats (exempt)
// still answers and reports the shed. Several requests are fired at
// once: whichever wins the single slot holds it for the chaos delay,
// so every other one finds it taken — no request has to be timed
// against another.
func TestOverloadFlagsShed(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: compiles and runs the binary")
	}
	snap, _ := writeSnapshot(t)
	base, stop := startServer(t, "-load", snap,
		"-max-inflight", "1", "-admit-wait", "0", "-chaos-delay", "2s")
	defer stop()

	type outcome struct {
		err        error
		body       []byte
		retryAfter string
		code       int
	}
	const burst = 4
	done := make(chan outcome, burst)
	for i := 0; i < burst; i++ {
		go func() {
			resp, err := http.Get(base + "/api/getConcept?entity=任意")
			if err != nil {
				done <- outcome{err: err}
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			done <- outcome{code: resp.StatusCode, body: body, retryAfter: resp.Header.Get("Retry-After")}
		}()
	}

	admitted, shed := 0, 0
	for i := 0; i < burst; i++ {
		o := <-done
		switch {
		case o.err != nil:
			t.Fatalf("GET during overload: %v", o.err)
		case o.code == http.StatusOK:
			admitted++
		case o.code == http.StatusTooManyRequests:
			if o.retryAfter == "" {
				t.Fatal("429 without Retry-After")
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(o.body, &e); err != nil || e.Error == "" {
				t.Fatalf("429 body %q is not the JSON error shape", o.body)
			}
			if shed++; shed == 1 {
				// The admitted request still holds the slot for most of
				// its two seconds: the exempt endpoint answers meanwhile,
				// and has counted the shed.
				resp, err := http.Get(base + "/api/stats")
				if err != nil {
					t.Fatalf("GET /api/stats during overload: %v", err)
				}
				var stats struct {
					Resilience struct {
						Shed map[string]int64 `json:"shed"`
					} `json:"resilience"`
				}
				err = json.NewDecoder(resp.Body).Decode(&stats)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || err != nil || stats.Resilience.Shed["getConcept"] == 0 {
					t.Fatalf("/api/stats during overload = %d (%v), shed %v; want 200 reporting the shed", resp.StatusCode, err, stats.Resilience.Shed)
				}
			}
		default:
			t.Fatalf("request under overload = %d, want 200 or 429", o.code)
		}
	}
	if admitted == 0 || shed == 0 {
		t.Fatalf("%d admitted, %d shed of %d concurrent requests; want at least one of each", admitted, shed, burst)
	}
}

// TestSigtermDrainsSlowQuery is the graceful-drain contract: SIGTERM
// flips /readyz to 503 immediately (so load balancers stop routing)
// while a deliberately slow in-flight query still completes with 200,
// and the process then exits cleanly.
func TestSigtermDrainsSlowQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: compiles and runs the binary")
	}
	snap, _ := writeSnapshot(t)
	var stderr syncBuffer
	base, cmd := startServerCapture(t, &stderr, "-load", snap,
		"-chaos-delay", "3s", "-drain-grace", "1500ms", "-drain-timeout", "30s")

	// Launch the slow query; every /api request carries the 3s chaos
	// delay, so it is guaranteed to still be in flight at SIGTERM time.
	slowDone := make(chan int, 1)
	go func() {
		resp, err := http.Get(base + "/api/men2ent?mention=任意")
		if err != nil {
			slowDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		slowDone <- resp.StatusCode
	}()
	// The probe endpoints skip the chaos delay and the admission slots.
	if code := getStatus(t, base+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz before SIGTERM = %d, want 200", code)
	}
	// The slow GET is in its handler once it holds an admission slot.
	eventually(t, 10*time.Second, "the slow query holding an admission slot", func() bool { return inFlight(t, base) == 1 })

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	// During the drain grace the listener still accepts: /readyz must
	// answer 503 so the load balancer rotates this replica out.
	eventually(t, 10*time.Second, "/readyz answering 503 during the drain grace", func() bool {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatalf("/readyz during the drain grace: %v (the listener closed before readiness was seen to flip)", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})

	// The slow query drains to completion despite the shutdown.
	select {
	case code := <-slowDone:
		if code != http.StatusOK {
			t.Fatalf("in-flight query across SIGTERM = %d, want 200; stderr:\n%s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight query never completed during drain")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("server exited uncleanly: %v\nstderr:\n%s", err, stderr.String())
	}
	if out := stderr.String(); !strings.Contains(out, "shutting down") {
		t.Errorf("shutdown not logged:\n%s", out)
	}
}

// TestSigtermDrainsInflightIngest is the durability half of graceful
// shutdown: a /ingest batch whose body is still arriving when SIGTERM
// lands must complete with a 200 — and that 200 must mean fsynced, so
// a restart from the same snapshot + WAL replays the batch and serves
// its edge.
func TestSigtermDrainsInflightIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: compiles and runs the binary")
	}
	snap, res := writeSnapshot(t)
	concept := res.Names()[res.Kept[0].Hyper]
	const title = "排水期间摄取实体"
	walDir := filepath.Join(t.TempDir(), "wal")

	var stderr syncBuffer
	apiBase, ingestBase, cmd := startServerWithIngest(t, &stderr,
		"-load", snap, "-wal", walDir, "-compact-every", "0",
		"-drain-grace", "200ms", "-drain-timeout", "30s")

	page, err := json.Marshal(map[string]any{"title": title, "tags": []string{concept}})
	if err != nil {
		t.Fatal(err)
	}
	body := append(page, '\n')

	// Hand-rolled request so the body can straddle the SIGTERM: send
	// the headers with Expect: 100-continue, which the server answers
	// at the handler's first read of the body — the request is then
	// provably in its handler, inside ReadAll — send the first byte,
	// signal, and finish the body once the drain is observably underway.
	conn, err := net.Dial("tcp", strings.TrimPrefix(ingestBase, "http://"))
	if err != nil {
		t.Fatalf("dial ingest: %v", err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /ingest HTTP/1.1\r\nHost: ingest\r\nContent-Type: application/x-ndjson\r\nContent-Length: %d\r\nExpect: 100-continue\r\nConnection: close\r\n\r\n", len(body))
	reply := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	if line, err := reply.ReadString('\n'); err != nil || !strings.HasPrefix(line, "HTTP/1.1 100") {
		t.Fatalf("waiting for 100 Continue: %q, %v\nstderr:\n%s", line, err, stderr.String())
	}
	if line, err := reply.ReadString('\n'); err != nil || strings.TrimSpace(line) != "" {
		t.Fatalf("after 100 Continue: %q, %v", line, err)
	}
	if _, err := conn.Write(body[:1]); err != nil {
		t.Fatalf("write first body byte: %v", err)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	eventually(t, 10*time.Second, "the shutdown being underway", func() bool { return draining(apiBase) })
	if _, err := conn.Write(body[1:]); err != nil {
		t.Fatalf("write body remainder during drain: %v", err)
	}
	respBytes, err := io.ReadAll(reply)
	if err != nil {
		t.Fatalf("read in-flight ingest response: %v\nstderr:\n%s", err, stderr.String())
	}
	resp := string(respBytes)
	if !strings.HasPrefix(resp, "HTTP/1.1 200") {
		t.Fatalf("in-flight ingest across SIGTERM got:\n%s\nstderr:\n%s", resp, stderr.String())
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("server exited uncleanly: %v\nstderr:\n%s", err, stderr.String())
	}

	// The 200 promised durability: a restart must replay the batch.
	var restartErr syncBuffer
	restartAPI, _, _ := startServerWithIngest(t, &restartErr,
		"-load", snap, "-wal", walDir, "-compact-every", "0")
	if !strings.Contains(restartErr.String(), "replayed 1 wal batches") {
		t.Fatalf("restart did not replay the drained batch; stderr:\n%s", restartErr.String())
	}
	resp2, err := http.Get(restartAPI + "/api/getConcept?entity=" + title)
	if err != nil {
		t.Fatalf("GET after restart: %v", err)
	}
	var got struct {
		Hypernyms []string `json:"hypernyms"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp2.Body.Close()
	found := false
	for _, h := range got.Hypernyms {
		if h == concept {
			found = true
		}
	}
	if !found {
		t.Fatalf("edge from the drained batch missing after restart: getConcept(%q) = %v", title, got.Hypernyms)
	}
}

// TestConcurrentProbesAndQueriesDuringIngest hammers probes, queries
// and ingest batches at a live binary simultaneously — a smoke screen
// for the full serving plane under mixed load. Every batch after the
// first is published as a delta over the last flat view, and the
// queries read the rows those deltas rewrite: the batches' pages and
// the concept they all name.
func TestConcurrentProbesAndQueriesDuringIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: compiles and runs the binary")
	}
	snap, res := writeSnapshot(t)
	concept := res.Names()[res.Kept[0].Hyper]
	var stderr syncBuffer
	apiBase, ingestBase, _ := startServerWithIngest(t, &stderr, "-load", snap)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if code := postPage(t, ingestBase, fmt.Sprintf("混合负载实体%d·%d", i, j), concept); code != http.StatusOK && code != http.StatusTooManyRequests {
					t.Errorf("ingest under load = %d", code)
					return
				}
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				for _, q := range []string{
					"/api/men2ent?mention=任意",
					"/api/getConcept?entity=" + url.QueryEscape(fmt.Sprintf("混合负载实体%d·%d", i, j/2)),
					"/api/getEntity?concept=" + url.QueryEscape(concept),
				} {
					if code := getStatus(t, apiBase+q); code != http.StatusOK {
						t.Errorf("query %s under load = %d", q, code)
						return
					}
				}
				if code := getStatus(t, apiBase+"/readyz"); code != http.StatusOK {
					t.Errorf("/readyz under load = %d", code)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	// One batch more, its reply read: it was published over the last
	// view, not compiled.
	page, err := json.Marshal(map[string]any{"title": "混合负载实体·末", "tags": []string{concept}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ingestBase+"/ingest", "application/x-ndjson", bytes.NewReader(append(page, '\n')))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack struct {
		TouchedNodes int  `json:"touched_nodes"`
		FullCompile  bool `json:"full_compile"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil || resp.StatusCode != http.StatusOK || ack.FullCompile || ack.TouchedNodes == 0 {
		t.Fatalf("last batch: status %d, %+v, %v; want a publication over the last view", resp.StatusCode, ack, err)
	}
}
