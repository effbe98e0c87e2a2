package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. IDs start at 1; Parent 0 marks
// a root. Req groups the spans of one request (or batch). Start and
// End are nanoseconds since the tracer was made.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory until the run ends. The mutex is for
// the one rung where server goroutines record beside the client.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	roots []int // request index -> its root span, for spans begun on the server side
}

// newTracer sizes the span table up front so that recording a span
// allocates nothing and the allocs-per-op rungs stay clean.
func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(name string, parent, req int) int {
	t.mu.Lock()
	id := len(t.spans) + 1
	// Read the clock last, so a wait for the mutex is not in the span.
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))})
	t.mu.Unlock()
	return id
}

// beginRoot begins a root span that a server-side span will name as
// its parent, knowing only the request index.
func (t *tracer) beginRoot(name string, req int) int {
	t.mu.Lock()
	for len(t.roots) <= req {
		t.roots = append(t.roots, 0)
	}
	t.roots[req] = len(t.spans) + 1
	t.mu.Unlock()
	return t.begin(name, 0, req)
}

func (t *tracer) rootOf(req int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if req < 0 || req >= len(t.roots) {
		return 0
	}
	return t.roots[req]
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End = now
	d := time.Duration(now - s.Start)
	t.mu.Unlock()
	return d
}

// timed records fn as one span and returns how long it took.
func (t *tracer) timed(name string, parent, req int, fn func()) time.Duration {
	id := t.begin(name, parent, req)
	fn()
	return t.end(id)
}

// selfTimes returns, per span name, each span's duration minus the
// time its children cover.
func (t *tracer) selfTimes() map[string][]float64 {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[s.ID]))
	}
	return out
}

type traceFile struct {
	Workload string `json:"workload"`
	Unit     string `json:"unit"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(dir, workload string) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("close %s: %w", path, cerr)
		}
	}()
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(traceFile{Workload: workload, Unit: "ns", Spans: t.spans}); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
