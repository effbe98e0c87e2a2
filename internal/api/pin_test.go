package api

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"cnprobase/internal/serving"
	"cnprobase/internal/snapshot"
)

// gapWriter runs gap once, at the first Header call: jsonHeader makes it
// after the handler has read its answer out of the view (a batch
// handler: after loading the view it reads every item from) and before
// it encodes a byte of it.
type gapWriter struct {
	*httptest.ResponseRecorder
	gap func()
}

func (w *gapWriter) Header() http.Header {
	if w.gap != nil {
		gap := w.gap
		w.gap = nil
		gap()
	}
	return w.ResponseRecorder.Header()
}

// collectTwice returns once two full finalizer rounds have run: each
// round drops a sentinel and collects until its finalizer has fired.
// One goroutine runs finalizers in the order collections queue them, so
// everything unreachable before the first round has been finalized —
// a mapped view unmapped — when the second round's sentinel fires.
func collectTwice() {
	for round := 0; round < 2; round++ {
		fired := make(chan struct{})
		runtime.SetFinalizer(new([16]byte), func(*[16]byte) { close(fired) })
		for done := false; !done; {
			runtime.GC()
			debug.FreeOSMemory()
			select {
			case <-fired:
				done = true
			default:
			}
		}
	}
}

// TestHandlersPinMappedView is the use-after-unmap regression: a hot
// swap plus a collection between a handler's lookup and its encoding
// must not release the mapping the answer's strings live in. Every
// query handler serves one request from a mapped snapshot that is
// swapped away and collected inside that gap; an unpinned view is
// unmapped there and encoding its strings faults.
func TestHandlersPinMappedView(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.snap")
	if err := os.WriteFile(path, baseSnapshot(t), 0o644); err != nil {
		t.Fatal(err)
	}
	openMapped := func() *serving.View {
		v, _, err := snapshot.OpenMapped(path)
		if err != nil {
			t.Fatalf("OpenMapped: %v", err)
		}
		return v
	}
	res, _ := loadResult(t, baseSnapshot(t))
	heap := res.Freeze()
	concept := ""
	for _, n := range heap.Nodes() {
		if len(heap.Hyponyms(n, 0)) >= 5 {
			concept = n
			break
		}
	}
	entity := heap.Hyponyms(concept, 1)[0]
	requests := []struct{ path, query, body string }{
		{"/api/men2ent", "?mention=" + entity, ""},
		{"/api/men2entBatch", "", `["` + entity + `","` + concept + `"]`},
		{"/api/getConcept", "?ranked=1&entity=" + entity, ""},
		{"/api/getEntity", "?concept=" + concept, ""},
		{"/api/conceptualize", "", `{"text":"` + entity + `和` + concept + `"}`},
		{"/api/conceptualizeBatch", "", `["` + entity + `","` + concept + entity + `"]`},
		{"/api/qa", "", `{"question":"` + entity + `是哪个` + concept + `"}`},
	}
	s := NewViewServer(heap)
	for _, rq := range requests {
		request := func() *http.Request {
			if rq.body == "" {
				return httptest.NewRequest(http.MethodGet, rq.path+rq.query, nil)
			}
			return httptest.NewRequest(http.MethodPost, rq.path, strings.NewReader(rq.body))
		}
		want := httptest.NewRecorder()
		s.routes()[rq.path](want, request())
		if want.Code != http.StatusOK || want.Body.Len() < 20 {
			t.Fatalf("%s on the compiled view: %d %s", rq.path, want.Code, want.Body)
		}

		s.SwapView(openMapped()) // the server holds the only reference
		got := &gapWriter{ResponseRecorder: httptest.NewRecorder(), gap: func() {
			s.SwapView(heap)
			collectTwice()
		}}
		s.routes()[rq.path](got, request())
		if got.gap != nil {
			t.Fatalf("%s: the gap never opened", rq.path)
		}
		if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s across a swap:\n got  %d %s\n want %s", rq.path, got.Code, got.Body, want.Body)
		}
	}
}
