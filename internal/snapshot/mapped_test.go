package snapshot

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"cnprobase/internal/api"
	"cnprobase/internal/serving"
	"cnprobase/internal/taxonomy"
)

// writeTempSnapshot drops raw snapshot bytes into a fresh temp file
// and returns its path.
func writeTempSnapshot(tb testing.TB, data []byte) string {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "snap.cnp")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		tb.Fatalf("write snapshot: %v", err)
	}
	return path
}

func openMapped(tb testing.TB, path string) *serving.View {
	tb.Helper()
	v, _, err := OpenMapped(path)
	if err != nil {
		tb.Fatalf("OpenMapped: %v", err)
	}
	return v
}

// TestOpenMappedServingEquivalence pins the acceptance criterion of
// the mapped path: the memory-mapped view answers every HTTP endpoint —
// men2ent, getConcept, getEntity, conceptualize, qa — byte-identically
// to the freshly built state.
func TestOpenMappedServingEquivalence(t *testing.T) {
	fresh := buildState(t, 400, 4)
	mapped := openMapped(t, writeTempSnapshot(t, saveBytes(t, fresh, Options{Workers: 4})))

	nodes := fresh.Taxonomy.ReadAll().Names
	if len(nodes) > 80 {
		nodes = nodes[:80]
	}
	mentions := append([]string(nil), nodes...)
	freshBody := apiResponses(t, serverOf(fresh), nodes, mentions)
	mappedBody := apiResponses(t, api.NewViewServer(mapped), nodes, mentions)
	if freshBody != mappedBody {
		t.Fatal("mapped server responses differ from freshly built server responses")
	}
}

// randomState assembles a seeded random serving state: entities with
// shared-prefix mentions (stressing the mapped path's binary-search
// longest-match), ambiguous mentions, reinforced edges and a small
// concept hierarchy.
func randomState(tb testing.TB, seed int64) *State {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	tax := taxonomy.New()
	mentions := taxonomy.NewMentionIndex()
	kinds := []string{"人物", "地点", "作品"}
	n := 30 + rng.Intn(50)
	for i := 0; i < n; i++ {
		title := fmt.Sprintf("实体%c%02d", 'A'+rune(rng.Intn(4)), i)
		id := fmt.Sprintf("%s（%s）", title, kinds[rng.Intn(len(kinds))])
		tax.MarkEntity(id)
		for c, nc := 0, 1+rng.Intn(3); c < nc; c++ {
			if err := tax.AddIsA(id, fmt.Sprintf("概念%d", rng.Intn(9)), taxonomy.SourceBracket, rng.Float64()); err != nil {
				tb.Fatalf("AddIsA: %v", err)
			}
		}
		mentions.Add(id, id)
		mentions.Add(title, id)
		if rng.Intn(2) == 0 {
			mentions.Add(title[:len(title)-1], id) // proper byte-prefix of title (ASCII tail)
		}
		if rng.Intn(4) == 0 {
			mentions.Add("实体", id) // heavily ambiguous shared prefix
		}
	}
	for i := 0; i < 9; i++ {
		if rng.Intn(3) > 0 {
			if err := tax.AddIsA(fmt.Sprintf("概念%d", i), "顶层概念", taxonomy.SourceMorph, 1); err != nil {
				tb.Fatalf("AddIsA: %v", err)
			}
		}
	}
	return &State{Taxonomy: tax, Mentions: mentions, Meta: Meta{Stats: tax.ComputeStats()}}
}

// TestOpenMappedRandomizedRoundTrip drives the save→map cycle over
// seeded random states and requires the mapped view to answer the full
// endpoint mix identically to the view compiled from the store the
// bytes were saved from.
func TestOpenMappedRandomizedRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			st := randomState(t, seed)
			mapped := openMapped(t, writeTempSnapshot(t, saveBytes(t, st, Options{Workers: 1})))
			if a, b := st.Taxonomy.ComputeStats(), mapped.Stats(); a != b {
				t.Fatalf("stats differ: store %+v, mapped %+v", a, b)
			}
			nodes := st.Taxonomy.ReadAll().Names
			mentions := append([]string(nil), nodes...)
			storeBody := apiResponses(t, serverOf(st), nodes, mentions)
			mappedBody := apiResponses(t, api.NewViewServer(mapped), nodes, mentions)
			if storeBody != mappedBody {
				t.Fatal("mapped server responses differ from the compiled store's")
			}
		})
	}
}

// TestOpenMappedDetectsCorruption runs the full corruption battery
// against the mapped opener: every single-byte flip (low and high bit)
// and every truncation of a valid file must be rejected — the
// mapped path keeps the same zero-undetected-corruption guarantee as
// the streaming decoder.
func TestOpenMappedDetectsCorruption(t *testing.T) {
	st := handState(t)
	data := saveBytes(t, st, Options{Workers: 1})
	for _, mask := range []byte{0x01, 0x80} {
		for i := range data {
			mutated := append([]byte(nil), data...)
			mutated[i] ^= mask
			if _, _, err := openMappedBytes(mutated); err == nil {
				t.Fatalf("flip of byte %d (mask %#02x) in a %d-byte snapshot was not detected", i, mask, len(data))
			}
		}
	}
	for i := 0; i < len(data); i++ {
		if _, _, err := openMappedBytes(data[:i]); err == nil {
			t.Fatalf("truncation to %d of %d bytes was not detected", i, len(data))
		}
	}
	// The same guarantees hold through the file-backed entry point.
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x40
	if _, _, err := OpenMapped(writeTempSnapshot(t, flipped)); err == nil {
		t.Fatal("OpenMapped accepted a corrupted file")
	}
	if _, _, err := OpenMapped(writeTempSnapshot(t, data[:len(data)-5])); err == nil {
		t.Fatal("OpenMapped accepted a truncated file")
	}
	if _, _, err := OpenMapped(writeTempSnapshot(t, nil)); err == nil {
		t.Fatal("OpenMapped accepted an empty file")
	}
}

// TestMappedQueryAllocations pins the mapped hot path: queries answered
// by binary search over the mapped arrays allocate nothing — except
// Hypernyms and Hyponyms, which build their name list per call and
// allocate exactly that list.
func TestMappedQueryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	st := handState(t)
	v := openMapped(t, writeTempSnapshot(t, saveBytes(t, st, Options{Workers: 1})))
	var dst []string
	text := "实体00和实体07见面了"
	for i := 0; i < 4; i++ { // warm the scratch pool and dst
		dst = v.FindAllAppend(dst[:0], text)
	}
	id, _ := v.ID("实体00（人物）", 0)
	concept, _ := v.ID("概念0", 0)
	cases := []struct {
		name   string
		allocs float64
		fn     func()
	}{
		{"Hypernyms", 1, func() { _ = v.Hypernyms("实体00（人物）") }},
		{"HypernymsMiss", 0, func() { _ = v.Hypernyms("不存在") }},
		{"Hyponyms", 1, func() { _ = v.Hyponyms("概念0", 50) }},
		{"HyponymsMiss", 0, func() { _ = v.Hyponyms("不存在", 50) }},
		{"ID", 0, func() { _, _ = v.ID("概念0", 0) }},
		{"HypernymIDsOf", 0, func() { _ = v.HypernymIDsOf(id) }},
		{"HyponymIDsOf", 0, func() { _ = v.HyponymIDsOf(concept) }},
		{"Name", 0, func() { _ = v.Name(concept) }},
		{"RankedHypernymAt", 0, func() { _, _ = v.RankedHypernymAt(id, 0) }},
		{"Lookup", 0, func() { _ = v.Lookup("实体00") }},
		{"LookupMiss", 0, func() { _ = v.Lookup("不存在") }},
		{"Kind", 0, func() { _ = v.Kind("概念0") }},
		{"EdgeOf", 0, func() { _, _ = v.EdgeOf("实体00（人物）", "概念0") }},
		{"EvidenceTotalOf", 0, func() { _ = v.EvidenceTotalOf(id) }},
		{"FindAllAppend", 0, func() { dst = v.FindAllAppend(dst[:0], text) }},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(100, c.fn); allocs != c.allocs {
			t.Errorf("%s allocates %.1f objects per op on the mapped view, want %.0f", c.name, allocs, c.allocs)
		}
	}
}

// TestMappedConcurrentSwap hot-swaps mapped views under live query
// load with forced garbage collection between swaps: every query route,
// GET and POST, must keep answering 200 with a JSON body while
// finalizer-driven unmapping retires old mappings — the exact lifecycle
// of a SIGHUP reload in cnpserver, and the pin api's one request path
// holds on the view it serves from. Run under -race in CI.
func TestMappedConcurrentSwap(t *testing.T) {
	st := handState(t)
	data := saveBytes(t, st, Options{Workers: 1})
	paths := []string{writeTempSnapshot(t, data), writeTempSnapshot(t, data)}

	srv := api.NewViewServer(openMapped(t, paths[0]))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	requests := []struct{ path, body string }{
		{"/api/men2ent?mention=实体00", ""},
		{"/api/getConcept?ranked=1&entity=实体03（人物）", ""},
		{"/api/getEntity?concept=概念0&limit=5", ""},
		{"/api/men2entBatch", `["实体00","实体03（人物）","未知提及"]`},
		{"/api/conceptualize", `{"text":"实体00和实体13有什么关系？"}`},
		{"/api/conceptualizeBatch", `["实体00的资料","实体01实体01","概念0"]`},
		{"/api/qa", `{"question":"实体07（人物）是哪个概念0？"}`},
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rq := requests[i%len(requests)]
				var resp *http.Response
				var err error
				if rq.body == "" {
					resp, err = http.Get(ts.URL + rq.path)
				} else {
					resp, err = http.Post(ts.URL+rq.path, "application/json", strings.NewReader(rq.body))
				}
				if err != nil {
					t.Errorf("%s during swap: %v", rq.path, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !json.Valid(body) {
					t.Errorf("%s during swap: status %d, read error %v, body %q", rq.path, resp.StatusCode, err, body)
				}
			}
		}()
	}
	// At least 12 swaps, and on until every route has served requests.
	for i := 0; i < 12 || len(srv.LatencyReport()) < len(requests); i++ {
		srv.SwapView(openMapped(t, paths[i%len(paths)]))
		runtime.GC() // drive the finalizer that unmaps retired views
	}
	close(stop)
	wg.Wait()
}
