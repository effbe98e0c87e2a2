package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
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

	nodes := nodeNames(fresh.Taxonomy)
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
	kinds := []string{"人物", "地点", "作品"}
	n := 30 + rng.Intn(50)
	for i := 0; i < n; i++ {
		title := fmt.Sprintf("实体%c%02d", 'A'+rune(rng.Intn(4)), i)
		id := fmt.Sprintf("%s（%s）", title, kinds[rng.Intn(len(kinds))])
		tax.MarkEntity(id)
		for c, nc := 0, 1+rng.Intn(3); c < nc; c++ {
			if err := tax.AddIsA(id, fmt.Sprintf("概念%d", rng.Intn(9)), taxonomy.SourceBracket); err != nil {
				tb.Fatalf("AddIsA: %v", err)
			}
		}
		tax.AddMention(id, id)
		tax.AddMention(title, id)
		if rng.Intn(2) == 0 {
			tax.AddMention(title[:len(title)-1], id) // proper byte-prefix of title (ASCII tail)
		}
		if rng.Intn(4) == 0 {
			tax.AddMention("实体", id) // heavily ambiguous shared prefix
		}
	}
	for i := 0; i < 9; i++ {
		if rng.Intn(3) > 0 {
			if err := tax.AddIsA(fmt.Sprintf("概念%d", i), "顶层概念", taxonomy.SourceMorph); err != nil {
				tb.Fatalf("AddIsA: %v", err)
			}
		}
	}
	return &State{Taxonomy: tax, Meta: Meta{Stats: tax.ComputeStats()}}
}

// TestOpenMappedRandomizedRoundTrip drives the save→map cycle over
// seeded random states and requires the mapped view to answer the full
// endpoint mix identically to the view compiled from the taxonomy the
// bytes were saved from.
func TestOpenMappedRandomizedRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			st := randomState(t, seed)
			mapped := openMapped(t, writeTempSnapshot(t, saveBytes(t, st, Options{Workers: 1})))
			if a, b := st.Taxonomy.ComputeStats(), mapped.Stats(); a != b {
				t.Fatalf("stats differ: store %+v, mapped %+v", a, b)
			}
			nodes := nodeNames(st.Taxonomy)
			mentions := append([]string(nil), nodes...)
			storeBody := apiResponses(t, serverOf(st), nodes, mentions)
			mappedBody := apiResponses(t, api.NewViewServer(mapped), nodes, mentions)
			if storeBody != mappedBody {
				t.Fatal("mapped server responses differ from the compiled taxonomy's")
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

// withMentionEntities returns a copy of a snapshot whose image's
// mention-entity block (docs/SNAPSHOT.md, block 6) edit has changed in
// place — edit gets the block's IDs, its per-mention offsets and the
// node count — with the image's checksum recomputed: a file that frames
// correctly whatever the block says.
func withMentionEntities(tb testing.TB, data []byte, edit func(ents, off []uint32, nodes uint32)) []byte {
	tb.Helper()
	out := bytes.Clone(data)
	imgAt := 16 + 13 + int(binary.LittleEndian.Uint64(out[16+5:])) + 4
	if out[imgAt] != sectionView {
		tb.Fatalf("section at %d is kind %d, not the image", imgAt, out[imgAt])
	}
	base := imgAt + 13
	img := out[base : base+int(binary.LittleEndian.Uint64(out[imgAt+5:]))]
	var hdr [6]uint64
	for i := range hdr {
		hdr[i] = binary.LittleEndian.Uint64(img[8*i:])
	}
	n, e, m, me := hdr[0], hdr[1], hdr[2], hdr[3]
	pos := uint64(48)
	var blocks [6][2]uint64 // the u32 blocks, up to the mention entities
	for i, count := range [6]uint64{n + 1, n + 1, e, m + 1, m + 1, me} {
		pos += (8 - (uint64(base)+pos)%8) % 8
		blocks[i] = [2]uint64{pos, pos + 4*count}
		pos += 4 * count
	}
	u32s := func(b [2]uint64) []uint32 {
		xs := make([]uint32, (b[1]-b[0])/4)
		for i := range xs {
			xs[i] = binary.LittleEndian.Uint32(img[b[0]+4*uint64(i):])
		}
		return xs
	}
	ents := u32s(blocks[5])
	edit(ents, u32s(blocks[4]), uint32(n))
	for i, x := range ents {
		binary.LittleEndian.PutUint32(img[blocks[5][0]+4*uint64(i):], x)
	}
	binary.LittleEndian.PutUint32(out[base+len(img):], crc32.ChecksumIEEE(img))
	return out
}

// badMentionEntities are the two ways an image's mention-entity block
// can name what no compile writes: an ID at the node count, and a
// mention whose IDs do not ascend (the first mention with two swaps
// them).
func badMentionEntities(tb testing.TB, data []byte) map[string][]byte {
	tb.Helper()
	return map[string][]byte{
		"out of range": withMentionEntities(tb, data, func(ents, _ []uint32, nodes uint32) { ents[len(ents)/2] = nodes }),
		"not strictly ascending": withMentionEntities(tb, data, func(ents, off []uint32, _ uint32) {
			for i := 0; i+1 < len(off); i++ {
				if off[i+1]-off[i] >= 2 {
					ents[off[i]], ents[off[i]+1] = ents[off[i]+1], ents[off[i]]
					return
				}
			}
			tb.Fatal("no mention has two entities")
		}),
	}
}

// TestMentionEntitiesValidated holds the opener's checks of the
// mention-entity block: an entity ID at or past the node count, and a
// mention whose entity IDs do not ascend, are refused by Load and by
// the mapped opener alike, with the same error.
func TestMentionEntitiesValidated(t *testing.T) {
	data := saveBytes(t, handState(t), Options{Workers: 1})
	if _, _, err := openMappedBytes(withMentionEntities(t, data, func([]uint32, []uint32, uint32) {})); err != nil {
		t.Fatalf("the unedited block is refused: %v", err)
	}
	for want, bad := range badMentionEntities(t, data) {
		_, loadErr := Load(bytes.NewReader(bad))
		_, _, mapErr := openMappedBytes(bad)
		if loadErr == nil || mapErr == nil || loadErr.Error() != mapErr.Error() {
			t.Fatalf("%s: Load says %v, the mapped opener %v; want one refusal", want, loadErr, mapErr)
		}
		if !strings.Contains(mapErr.Error(), "entity ID") || !strings.Contains(mapErr.Error(), want) {
			t.Errorf("%s: refused with %q", want, mapErr)
		}
	}
}

// TestMappedQueryAllocations pins the mapped hot path: queries answered
// by binary search over the mapped arrays allocate nothing — except
// Hypernyms, Hyponyms and Lookup, which build their name list per call
// and allocate exactly that list.
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
		{"Lookup", 1, func() { _ = v.Lookup("实体00") }},
		{"LookupMiss", 0, func() { _ = v.Lookup("不存在") }},
		{"MentionRow", 0, func() { _, _ = v.MentionRow("实体00", 0) }},
		{"MentionEntities", 0, func() { _ = v.MentionEntities(0) }},
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
