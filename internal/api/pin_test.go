package api

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"cnprobase/internal/serving"
	"cnprobase/internal/snapshot"
)

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
// must not release the mapping the answer's strings live in. serve
// pins the view it hands a handler, so the test runs serve over a row
// whose handler opens that gap itself — men2ent's lookup, then the swap
// and two finalizer rounds, then men2ent's encoding — on a mapped
// snapshot the server holds the only reference to. An unpinned view is
// unmapped in the gap and encoding its strings faults.
func TestHandlersPinMappedView(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.snap")
	if err := os.WriteFile(path, baseSnapshot(t), 0o644); err != nil {
		t.Fatal(err)
	}
	res, _ := loadResult(t, baseSnapshot(t))
	heap := res.Freeze()
	var mention string
	for _, n := range heap.Nodes() {
		if len(heap.Lookup(n)) > 0 {
			mention = n
			break
		}
	}
	request := func() *http.Request {
		return httptest.NewRequest(http.MethodGet, "/api/men2ent?mention="+url.QueryEscape(mention), nil)
	}
	s := NewViewServer(heap)
	want := httptest.NewRecorder()
	s.routes()["/api/men2ent"](want, request())
	if want.Code != http.StatusOK || !strings.Contains(want.Body.String(), `"entities":["`) {
		t.Fatalf("men2ent on the compiled view: %d %s", want.Code, want.Body)
	}

	mapped, _, err := snapshot.OpenMapped(path)
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	s.SwapView(mapped) // the server holds the only reference
	gapped := false
	gap := &endpoint{name: "men2ent", handle: func(v *serving.View, sc *scratch, r *http.Request) (int, error) {
		m := queryValue(r.URL.RawQuery, "mention")
		entities := mentionEntities(v, m)
		s.SwapView(heap)
		collectTwice()
		gapped = true
		sc.out = appendMen2Ent(sc.out, v, m, entities)
		return 0, nil
	}}
	got := httptest.NewRecorder()
	s.serve(gap, got, request())
	if !gapped {
		t.Fatal("the gap never opened")
	}
	if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("men2ent across a swap:\n got  %d %s\n want %s", got.Code, got.Body, want.Body)
	}
}
