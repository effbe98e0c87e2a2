package snapshot

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cnprobase/internal/api"
	"cnprobase/internal/core"
	"cnprobase/internal/serving"
	"cnprobase/internal/synth"
	"cnprobase/internal/taxonomy"
)

// handState assembles a small deterministic serving state without the
// pipeline: entities, concepts, a subconcept edge, multi-source
// provenance (evidence count 2), and an ambiguous mention.
func handState(tb testing.TB) *State {
	tb.Helper()
	tax := taxonomy.New()
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("实体%02d（人物）", i)
		concept := fmt.Sprintf("概念%d", i%7)
		tax.MarkEntity(id)
		if err := tax.AddIsA(id, concept, taxonomy.SourceBracket); err != nil {
			tb.Fatalf("AddIsA: %v", err)
		}
		if i%3 == 0 { // reinforce: add a source bit, so evidence count 2
			if err := tax.AddIsA(id, concept, taxonomy.SourceTag); err != nil {
				tb.Fatalf("AddIsA: %v", err)
			}
		}
		tax.AddMention(fmt.Sprintf("实体%02d", i), id)
		tax.AddMention(id, id)
	}
	tax.AddMention("实体00", "实体07（人物）") // ambiguous mention
	for i := 0; i < 7; i++ {
		if err := tax.AddIsA(fmt.Sprintf("概念%d", i), "顶层概念", taxonomy.SourceMorph); err != nil {
			tb.Fatalf("AddIsA: %v", err)
		}
	}
	return &State{
		Taxonomy: tax,
		Meta:     Meta{Pages: 40, Stats: tax.ComputeStats()},
	}
}

// buildState runs the real pipeline (neural stage off for speed) over
// the deterministic synthetic world at the given concurrency settings.
func buildState(tb testing.TB, entities, workers int) *State {
	tb.Helper()
	cfg := synth.DefaultConfig()
	cfg.Entities = entities
	w, err := synth.Generate(cfg)
	if err != nil {
		tb.Fatalf("synth.Generate: %v", err)
	}
	opts := core.DefaultOptions()
	opts.EnableNeural = false
	opts.Workers = workers
	res, err := core.New(opts).Build(w.Corpus())
	if err != nil {
		tb.Fatalf("Build: %v", err)
	}
	return &State{
		Taxonomy: res.Taxonomy,
		Meta:     Meta{Pages: res.Report.Pages, Stats: res.Report.Stats},
	}
}

func saveBytes(tb testing.TB, st *State, opts Options) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, st, opts); err != nil {
		tb.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

// requireEqualState checks that two states are query-identical across
// everything the serving APIs read: edges with full provenance, node
// kinds, stats, adjacency (from which the view derives typicality) and
// mention resolution.
func requireEqualState(tb testing.TB, want, got *State) {
	tb.Helper()
	wantEdges, gotEdges := want.Taxonomy.Edges(), got.Taxonomy.Edges()
	if len(wantEdges) != len(gotEdges) {
		tb.Fatalf("edge count = %d, want %d", len(gotEdges), len(wantEdges))
	}
	for i := range wantEdges {
		if wantEdges[i] != gotEdges[i] {
			tb.Fatalf("edge[%d] = %+v, want %+v", i, gotEdges[i], wantEdges[i])
		}
	}
	// The nodes and their kinds, and the mention pairs, by name: each
	// taxonomy numbers its names its own way.
	if w, g := namedContent(want.Taxonomy), namedContent(got.Taxonomy); !reflect.DeepEqual(w, g) {
		tb.Fatalf("nodes, kinds or mention pairs differ:\n got %v\nwant %v", g, w)
	}
	if ws, gs := want.Taxonomy.ComputeStats(), got.Taxonomy.ComputeStats(); ws != gs {
		tb.Fatalf("stats = %+v, want %+v", gs, ws)
	}
}

// nodeNames lists a taxonomy's nodes by name, ascending.
func nodeNames(tax *taxonomy.Taxonomy) []string {
	var out []string
	for _, id := range tax.Nodes() {
		out = append(out, tax.Symbols().Names()[id])
	}
	return out
}

// namedContent lists a taxonomy's nodes with their kinds, in name
// order, then its mention pairs with their entities named.
func namedContent(tax *taxonomy.Taxonomy) []string {
	names := tax.Symbols().Names()
	var out []string
	for _, id := range tax.Nodes() {
		out = append(out, fmt.Sprint(names[id], tax.KindOf(id)))
	}
	var mentions []string
	for _, m := range tax.Mentions {
		mentions = append(mentions, m.Text+"→"+names[m.Entity])
	}
	slices.Sort(mentions) // each taxonomy orders a mention's entities by its own IDs
	return append(out, mentions...)
}

// TestRoundTripHandAssembled is the core property: Load(Save(x)) is
// query-identical to x, whatever worker setting saved it.
func TestRoundTripHandAssembled(t *testing.T) {
	st := handState(t)
	for _, saveWorkers := range []int{1, 4} {
		data := saveBytes(t, st, Options{Workers: saveWorkers})
		got, err := Load(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("Load(save=%d): %v", saveWorkers, err)
		}
		if got.Meta.Pages != st.Meta.Pages || got.Meta.Stats != st.Meta.Stats {
			t.Fatalf("meta = %+v, want %+v", got.Meta, st.Meta)
		}
		requireEqualState(t, st, got)
	}
	// From a file, whose size Load asks for up front.
	f, err := os.Open(writeTempSnapshot(t, saveBytes(t, st, Options{})))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := Load(f)
	if err != nil {
		t.Fatalf("Load(file): %v", err)
	}
	requireEqualState(t, st, got)
}

// TestRoundTripBuiltWorld runs the property over a real pipeline
// output, including provenance-heavy multi-source edges and the full
// mention table.
func TestRoundTripBuiltWorld(t *testing.T) {
	st := buildState(t, 500, 4)
	data := saveBytes(t, st, Options{Workers: 4})
	got, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	requireEqualState(t, st, got)
}

// TestByteStabilityAcrossConfigs is the golden guarantee: the same
// synthetic world produces byte-identical snapshots no matter which
// Workers setting built the taxonomy and no matter which
// worker count saved it — the PR-1 determinism contract extended to
// the on-disk format. A repeated save is also byte-identical (no
// timestamps, no map-order leakage).
func TestByteStabilityAcrossConfigs(t *testing.T) {
	ref := buildState(t, 400, 1)
	refBytes := saveBytes(t, ref, Options{Workers: 1})

	if again := saveBytes(t, ref, Options{Workers: 1}); !bytes.Equal(refBytes, again) {
		t.Fatal("re-saving the same state changed the bytes")
	}
	if par := saveBytes(t, ref, Options{Workers: 8}); !bytes.Equal(refBytes, par) {
		t.Fatal("Workers=8 save differs from Workers=1 save of the same state")
	}
	other := buildState(t, 400, 8)
	if otherBytes := saveBytes(t, other, Options{Workers: 3}); !bytes.Equal(refBytes, otherBytes) {
		t.Fatalf("snapshot of workers=8 build differs from workers=1 build: %d vs %d bytes",
			len(otherBytes), len(refBytes))
	}
}

// serverOf serves the view compiled from a state's store.
func serverOf(st *State) *api.Server {
	return api.NewViewServer(serving.Compile(st.Taxonomy))
}

// apiResponses issues a fixed query mix — men2ent, getConcept (plain
// and ranked), getEntity (unlimited and limited), plus the Section V
// layer (conceptualize, qa) over texts built from the mentions —
// against a server and returns the concatenated raw response bodies.
func apiResponses(tb testing.TB, srv *api.Server, nodes, mentions []string) string {
	tb.Helper()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var out bytes.Buffer
	record := func(path string, resp *http.Response, err error) {
		if err != nil {
			tb.Fatalf("%s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			tb.Fatalf("read %s: %v", path, err)
		}
		fmt.Fprintf(&out, "%s %d %s", path, resp.StatusCode, body)
	}
	get := func(path string) {
		resp, err := ts.Client().Get(ts.URL + path)
		record(path, resp, err)
	}
	post := func(path string, req any) {
		b, err := json.Marshal(req)
		if err != nil {
			tb.Fatalf("encode %s request: %v", path, err)
		}
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(b))
		record(path, resp, err)
	}
	for _, m := range mentions {
		get("/api/men2ent?mention=" + m)
		post("/api/conceptualize", api.ConceptualizeRequest{Text: m + "的资料"})
		post("/api/qa", api.QARequest{Question: m + "是什么？"})
	}
	for _, n := range nodes {
		get("/api/getConcept?entity=" + n)
		get("/api/getConcept?ranked=1&entity=" + n)
		get("/api/getEntity?concept=" + n)
		get("/api/getEntity?limit=3&concept=" + n)
	}
	return out.String()
}

// TestServingEquivalence pins the acceptance criterion: a taxonomy
// saved from any Workers build configuration loads into a
// server whose men2ent/getConcept/getEntity responses are identical to
// serving the freshly built taxonomy.
func TestServingEquivalence(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			fresh := buildState(t, 400, workers)
			data := saveBytes(t, fresh, Options{Workers: workers})
			loaded, err := Load(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			nodes := nodeNames(fresh.Taxonomy)
			if len(nodes) > 80 {
				nodes = nodes[:80]
			}
			mentions := append([]string(nil), nodes...) // IDs and titles are both mentions
			freshBody := apiResponses(t, serverOf(fresh), nodes, mentions)
			loadedBody := apiResponses(t, serverOf(loaded), nodes, mentions)
			if freshBody != loadedBody {
				t.Fatal("loaded server responses differ from freshly built server responses")
			}
		})
	}
}

// TestEveryBitFlipDetected corrupts the snapshot one byte at a time
// (two flip patterns per position, covering low and high bits) and
// requires Load to fail every single time: the CRC-32 sections and the
// framing checks leave no undetected single-byte corruption.
func TestEveryBitFlipDetected(t *testing.T) {
	st := handState(t)
	data := saveBytes(t, st, Options{Workers: 1})
	for _, mask := range []byte{0x01, 0x80} {
		for i := range data {
			mutated := append([]byte(nil), data...)
			mutated[i] ^= mask
			if _, err := Load(bytes.NewReader(mutated)); err == nil {
				t.Fatalf("flip of byte %d (mask %#02x) in a %d-byte snapshot was not detected", i, mask, len(data))
			}
		}
	}
}

// TestEveryTruncationErrors cuts the snapshot at every possible length
// and requires a clean error (never a panic, never silent success).
func TestEveryTruncationErrors(t *testing.T) {
	st := handState(t)
	data := saveBytes(t, st, Options{Workers: 1})
	for n := 0; n < len(data); n++ {
		if _, err := Load(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("truncation to %d of %d bytes was not detected", n, len(data))
		}
	}
}

// TestHeaderValidation exercises the version/magic/stripe guards.
func TestHeaderValidation(t *testing.T) {
	st := handState(t)
	data := saveBytes(t, st, Options{})

	bad := append([]byte(nil), data...)
	copy(bad, "NOTASNAP")
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}

	bad = append([]byte(nil), data...)
	bad[8] = 99 // version
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Error("unknown version accepted")
	}

	bad = append([]byte(nil), data...)
	bad[12], bad[13], bad[14], bad[15] = 0, 0, 0, 0 // stripe count 0
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Error("zero stripe count accepted")
	}
}

// legacyInputs are the older files the loaders refuse, by version: a
// hand-made version-1 header, a real version-2 file — handState as the
// striped writer wrote it, at the last commit that had one — and a
// current file with its header patched to 3, 4 and 5 (version 3
// differed in the evidence section, version 4 in the image's evidence
// count block, version 5 in its named mention entities and edge
// scores, and the version is read first).
func legacyInputs(tb testing.TB) map[uint32][]byte {
	tb.Helper()
	v2, err := os.ReadFile("testdata/legacy-v2.snap")
	if err != nil {
		tb.Fatal(err)
	}
	v1 := append([]byte(Magic), 1, 0, 0, 0, Stripes, 0, 0, 0)
	v3 := saveBytes(tb, handState(tb), Options{Workers: 1})
	v3[8] = 3
	v4 := bytes.Clone(v3)
	v4[8] = 4
	v5 := bytes.Clone(v3)
	v5[8] = 5
	return map[uint32][]byte{1: v1, 2: v2, 3: v3, 4: v4, 5: v5}
}

// TestLegacyVersionsRefused: a version-1, -2, -3, -4 or -5 file is answered
// by both entry points with one error that names the version found and
// the command that rebuilds the snapshot — not decoded, not a generic
// "unsupported".
func TestLegacyVersionsRefused(t *testing.T) {
	for version, data := range legacyInputs(t) {
		_, loadErr := Load(bytes.NewReader(data))
		_, _, mapErr := OpenMapped(writeTempSnapshot(t, data))
		for entry, err := range map[string]error{"Load": loadErr, "OpenMapped": mapErr} {
			if err == nil {
				t.Fatalf("%s accepted a version-%d file", entry, version)
			}
			for _, want := range []string{fmt.Sprintf("format version %d is no longer read", version), "cnprobase build -save"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s(v%d) = %q, want it to say %q", entry, version, err, want)
				}
			}
		}
	}
}

// TestLoadAndMappedRejectAlike holds the shared framing parser from
// the outside: every truncation and a low and a high bit flip of every
// byte of a valid file is refused by Load and by the mapped opener
// with the same error text — one parser, so one wording and one order
// of checks.
func TestLoadAndMappedRejectAlike(t *testing.T) {
	data := saveBytes(t, handState(t), Options{Workers: 1})
	alike := func(what string, in []byte) {
		t.Helper()
		_, loadErr := Load(bytes.NewReader(in))
		_, _, mapErr := openMappedBytes(in)
		if loadErr == nil || mapErr == nil {
			t.Fatalf("%s: accepted (Load: %v, mapped: %v)", what, loadErr, mapErr)
		}
		if loadErr.Error() != mapErr.Error() {
			t.Fatalf("%s: Load says %q, the mapped opener %q", what, loadErr, mapErr)
		}
	}
	for n := 0; n < len(data); n++ {
		alike(fmt.Sprintf("truncation to %d of %d bytes", n, len(data)), data[:n])
	}
	for _, mask := range []byte{0x01, 0x80} {
		for i := range data {
			mutated := append([]byte(nil), data...)
			mutated[i] ^= mask
			alike(fmt.Sprintf("flip of byte %d (mask %#02x)", i, mask), mutated)
		}
	}
	// Evidence that checksums but names what the image does not have.
	for what, c := range outOfRangeEvidence(t, data) {
		mutated := withEvidence(t, data, c.payload)
		alike(what, mutated)
		if _, err := Load(bytes.NewReader(mutated)); !strings.Contains(err.Error(), c.reason) {
			t.Fatalf("%s: refused with %q, want it to say %q", what, err, c.reason)
		}
	}
}

// TestSaveNilState rejects unusable inputs instead of writing a
// half-formed file.
func TestSaveNilState(t *testing.T) {
	if err := Save(io.Discard, nil, Options{}); err == nil {
		t.Error("Save(nil) succeeded")
	}
	if err := Save(io.Discard, &State{}, Options{}); err == nil {
		t.Error("Save of state without taxonomy succeeded")
	}
}

// TestSaveWithoutMentions treats a taxonomy without mention pairs as
// any other: a hand-assembled taxonomy is still snapshottable.
func TestSaveWithoutMentions(t *testing.T) {
	st := handState(t)
	st.Taxonomy.Mentions = nil
	data := saveBytes(t, st, Options{})
	got, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(got.Taxonomy.Mentions) != 0 {
		t.Fatalf("loaded mentions = %v, want none", got.Taxonomy.Mentions)
	}
}
