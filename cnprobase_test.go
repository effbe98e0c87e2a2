package cnprobase

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

func smallOptions() Options {
	o := DefaultOptions()
	o.NeuralEpochs = 1
	o.NeuralMaxSamples = 200
	o.Neural.Vocab = 300
	return o
}

func buildSmall(t testing.TB, entities int) (*World, *Result) {
	t.Helper()
	wcfg := DefaultWorldConfig()
	wcfg.Entities = entities
	w, err := GenerateWorld(wcfg)
	if err != nil {
		t.Fatalf("GenerateWorld: %v", err)
	}
	res, err := Build(w.Corpus(), smallOptions())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return w, res
}

func TestFacadeEndToEnd(t *testing.T) {
	w, res := buildSmall(t, 800)
	st := res.Report.Stats
	if st.Entities == 0 || st.Concepts == 0 || st.IsARelations == 0 {
		t.Fatalf("empty taxonomy: %+v", st)
	}
	// Query path: an entity's hypernyms are judged correct.
	oracle, view := w.Oracle(), res.Freeze()
	checked := 0
	for _, e := range w.Entities {
		hs := view.Hypernyms(e.ID)
		if len(hs) == 0 {
			continue
		}
		checked++
		ok := false
		for _, h := range hs {
			if oracle.Judge(e.ID, h) {
				ok = true
			}
		}
		if !ok {
			t.Errorf("entity %q: no correct hypernym among %v", e.ID, hs)
		}
		if checked > 20 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no entity had hypernyms")
	}
	if p := SamplePrecision(res.Taxonomy, oracle, 2000, 1); p < 0.85 {
		t.Errorf("precision = %.3f, want ≥0.85", p)
	}
}

func TestFacadeQACoverage(t *testing.T) {
	w, res := buildSmall(t, 800)
	cov, avg := QACoverageView(w, res.Freeze(), 2000)
	if cov < 0.8 {
		t.Errorf("coverage = %.3f, want ≥0.8", cov)
	}
	if avg < 1 {
		t.Errorf("avg concepts per entity = %.2f, want ≥1", avg)
	}
}

// TestFacadeViewApplications pins the application layer on the serving
// view: the conceptualizer, Understand and the QA evaluation answer
// exactly alike on the view Freeze publishes and on the same build's
// snapshot, mapped.
func TestFacadeViewApplications(t *testing.T) {
	w, res := buildSmall(t, 800)
	view := res.Freeze()
	var buf bytes.Buffer
	if err := SaveSnapshot(&buf, res); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	path := filepath.Join(t.TempDir(), "taxonomy.snap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenSnapshotMapped(path)
	if err != nil {
		t.Fatalf("OpenSnapshotMapped: %v", err)
	}

	onView, onMapped := NewViewConceptualizer(view), NewViewConceptualizer(mapped)
	texts := []string{""}
	for _, e := range w.Entities[:20] {
		mention := e.ID
		if i := bytes.IndexRune([]byte(mention), '（'); i >= 0 {
			mention = mention[:i]
		}
		texts = append(texts, mention, mention+"是什么？")
	}
	covered := 0
	for _, text := range texts {
		a, b := onView.Conceptualize(text), onMapped.Conceptualize(text)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("conceptualize(%q): frozen %+v != mapped %+v", text, a, b)
		}
		u := Understand(text, view)
		if um := Understand(text, mapped); !reflect.DeepEqual(u, um) {
			t.Fatalf("Understand(%q): frozen %+v != mapped %+v", text, u, um)
		}
		if u.Covered {
			covered++
			if len(u.Mentions) == 0 && len(u.Concepts) == 0 {
				t.Errorf("Understand(%q) covered but empty: %+v", text, u)
			}
		}
	}
	if covered == 0 {
		t.Fatal("no probe text was covered by the taxonomy")
	}

	cov, avg := QACoverageView(w, view, 1000)
	covM, avgM := QACoverageView(w, mapped, 1000)
	if cov != covM || avg != avgM {
		t.Errorf("QACoverageView frozen (%v, %v) != mapped (%v, %v)", cov, avg, covM, avgM)
	}
}

func TestFacadeCorpusRoundTrip(t *testing.T) {
	w, _ := buildSmall(t, 300)
	var buf bytes.Buffer
	if err := w.Corpus().WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	c, err := ReadCorpus(&buf)
	if err != nil {
		t.Fatalf("ReadCorpus: %v", err)
	}
	if c.Len() != w.Corpus().Len() {
		t.Errorf("round trip pages = %d, want %d", c.Len(), w.Corpus().Len())
	}
}

// TestFacadeSnapshotRoundTrip exercises SaveSnapshot/LoadSnapshot end
// to end: the loaded Result serves identical queries and carries the
// build report back (with stats recomputed from the loaded graph).
func TestFacadeSnapshotRoundTrip(t *testing.T) {
	_, res := buildSmall(t, 300)
	var buf bytes.Buffer
	if err := SaveSnapshot(&buf, res); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	loaded, err := LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if got, want := loaded.Taxonomy.ComputeStats().IsARelations, res.Taxonomy.ComputeStats().IsARelations; got != want {
		t.Errorf("edges = %d, want %d", got, want)
	}
	if loaded.Report == nil {
		t.Fatal("loaded Result has no report")
	}
	if loaded.Report.Stats != res.Report.Stats {
		t.Errorf("report stats = %+v, want %+v", loaded.Report.Stats, res.Report.Stats)
	}
	if loaded.Report.Pages != res.Report.Pages {
		t.Errorf("report pages = %d, want %d", loaded.Report.Pages, res.Report.Pages)
	}
	if loaded.Report.Verification.Kept != res.Report.Verification.Kept {
		t.Errorf("verification report not restored: %+v", loaded.Report.Verification)
	}
	view, loadedView := res.Freeze(), loaded.Freeze()
	for _, n := range view.Nodes() {
		if a, b := view.Hypernyms(n), loadedView.Hypernyms(n); len(a) != len(b) {
			t.Fatalf("Hypernyms(%q) = %v, want %v", n, b, a)
		}
		if a, b := view.Lookup(n), loadedView.Lookup(n); len(a) != len(b) {
			t.Fatalf("Lookup(%q) = %v, want %v", n, b, a)
		}
	}
	// The evidence section came back too: the loaded Result is
	// Update-capable.
	if loaded.Evidence == nil || loaded.Stats == nil || len(loaded.Kept) == 0 {
		t.Error("snapshot did not restore the update substrate (evidence/stats/kept)")
	}
}

// TestFacadeUpdateAfterSnapshotLoad is the round-trip the evidence
// section exists for: save a build, load it, and feed the loaded
// Result the next crawl batch — the updated taxonomy must match what
// updating the original in-memory Result produces.
func TestFacadeUpdateAfterSnapshotLoad(t *testing.T) {
	wcfg := DefaultWorldConfig()
	wcfg.Entities = 1500
	w, err := GenerateWorld(wcfg)
	if err != nil {
		t.Fatalf("GenerateWorld: %v", err)
	}
	corpus := w.Corpus()
	half := corpus.Len() / 2
	first := &Corpus{Pages: corpus.Pages[:half]}
	delta := &Corpus{Pages: corpus.Pages[half:]}
	opts := smallOptions()
	opts.EnableNeural = false
	res, err := Build(first, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var buf bytes.Buffer
	if err := SaveSnapshot(&buf, res); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	loaded, err := LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}

	// A Result without evidence (e.g. assembled by hand)
	// must still refuse cleanly.
	bare := &Result{Taxonomy: loaded.Taxonomy, Report: loaded.Report}
	if _, err := Update(bare, delta, opts); err == nil {
		t.Error("Update on an evidence-less Result should fail")
	}

	updLoaded, err := Update(loaded, delta, opts)
	if err != nil {
		t.Fatalf("Update after snapshot load: %v", err)
	}
	updOrig, err := Update(res, delta, opts)
	if err != nil {
		t.Fatalf("Update on original: %v", err)
	}
	if a, b := updOrig.Taxonomy.Edges(), updLoaded.Taxonomy.Edges(); !reflect.DeepEqual(a, b) {
		t.Fatalf("loaded-then-updated taxonomy diverged from original-then-updated: %d vs %d edges", len(a), len(b))
	}
	if a, b := keptNames(updOrig), keptNames(updLoaded); !reflect.DeepEqual(a, b) {
		t.Fatalf("kept sets diverged: %d vs %d", len(a), len(b))
	}
	// The loaded evidence was re-interned from the file in another
	// order and verified cold; what it decides, and what a second save
	// writes, must not show that.
	if a, b := updOrig.Report.Verification, updLoaded.Report.Verification; a.Input != b.Input || a.Kept != b.Kept || a.IncompatiblePairs != b.IncompatiblePairs {
		t.Fatalf("verification reports diverged: %+v vs %+v", a, b)
	}
	if !reflect.DeepEqual(updOrig.Report.PerSource, updLoaded.Report.PerSource) || updOrig.Report.Stats != updLoaded.Report.Stats {
		t.Fatalf("reports diverged: %+v vs %+v", updOrig.Report, updLoaded.Report)
	}
	// (Reverified is the one honest difference: the loaded evidence
	// was cold and re-decided every pair.)
	updLoaded.Report.Verification.Reverified = updOrig.Report.Verification.Reverified
	var savedOrig, savedLoaded bytes.Buffer
	if err := SaveSnapshot(&savedOrig, updOrig); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	if err := SaveSnapshot(&savedLoaded, updLoaded); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	if !bytes.Equal(savedOrig.Bytes(), savedLoaded.Bytes()) {
		t.Fatalf("snapshots after the update differ: %d vs %d bytes", savedOrig.Len(), savedLoaded.Len())
	}
	newPage := &delta.Pages[0]
	if len(updLoaded.Freeze().Lookup(newPage.Title)) == 0 {
		t.Errorf("mention %q not indexed after post-load update", newPage.Title)
	}
}

// TestFacadeSnapshotBytesIgnoreConcurrency pins the golden guarantee
// at the facade level: builds of the same world with different
// Workers settings save byte-identical snapshots, because the
// report's concurrency knobs are normalized out of the metadata.
func TestFacadeSnapshotBytesIgnoreConcurrency(t *testing.T) {
	wcfg := DefaultWorldConfig()
	wcfg.Entities = 300
	w, err := GenerateWorld(wcfg)
	if err != nil {
		t.Fatalf("GenerateWorld: %v", err)
	}
	save := func(workers int) []byte {
		opts := smallOptions()
		opts.EnableNeural = false
		opts.Workers = workers
		res, err := Build(w.Corpus(), opts)
		if err != nil {
			t.Fatalf("Build(workers=%d): %v", workers, err)
		}
		var buf bytes.Buffer
		if err := SaveSnapshot(&buf, res); err != nil {
			t.Fatalf("SaveSnapshot: %v", err)
		}
		return buf.Bytes()
	}
	ref := save(1)
	if got := save(8); !bytes.Equal(ref, got) {
		t.Errorf("snapshot bytes differ across build concurrency: %d vs %d bytes", len(ref), len(got))
	}
}

// TestFacadeFreezeAndMappedView covers the serving-view surface of the
// facade: Result.Freeze holds what the lists hold, a snapshot saved
// from the published view is the one the saver compiles itself,
// OpenSnapshotMapped serves that file as an equivalent view, and
// NewViewServer serves the view it is given.
func TestFacadeFreezeAndMappedView(t *testing.T) {
	_, res := buildSmall(t, 300)
	var compiled bytes.Buffer // saved before any Freeze: the saver compiles the taxonomy itself
	if err := SaveSnapshot(&compiled, res); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	view := res.Freeze()
	if view.Stats() != res.Taxonomy.ComputeStats() {
		t.Fatalf("frozen stats = %+v, want %+v", view.Stats(), res.Taxonomy.ComputeStats())
	}
	hypers := map[string][]string{}
	for _, e := range res.Taxonomy.Edges() {
		hypers[e.Hypo] = append(hypers[e.Hypo], e.Hyper)
	}
	names := res.Names()
	for _, id := range res.Taxonomy.Nodes() {
		n := names[id]
		if b := view.Hypernyms(n); fmt.Sprint(hypers[n]) != fmt.Sprint(b) {
			t.Fatalf("Hypernyms(%q): view %v, lists %v", n, b, hypers[n])
		}
		var ents []string
		for _, m := range res.MentionsOf(n) {
			ents = append(ents, names[m.Entity])
		}
		sort.Strings(ents)
		if a, b := ents, view.Lookup(n); fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("Lookup(%q): view %v, lists %v", n, b, a)
		}
	}

	var buf bytes.Buffer
	if err := SaveSnapshot(&buf, res); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), compiled.Bytes()) {
		t.Fatal("a snapshot saved from the published view differs from one that compiled the taxonomy")
	}
	path := filepath.Join(t.TempDir(), "taxonomy.snap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenSnapshotMapped(path)
	if err != nil {
		t.Fatalf("OpenSnapshotMapped: %v", err)
	}
	if mapped.EdgeCount() != view.EdgeCount() || mapped.Stats() != view.Stats() {
		t.Fatalf("mapped view (%d edges, %+v) != frozen view (%d edges, %+v)",
			mapped.EdgeCount(), mapped.Stats(), view.EdgeCount(), view.Stats())
	}
	for _, n := range view.Nodes() {
		if a, b := view.Hypernyms(n), mapped.Hypernyms(n); fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("Hypernyms(%q): mapped view %v, frozen view %v", n, b, a)
		}
	}
	if srv := NewViewServer(view); srv.View() != view {
		t.Fatal("NewViewServer does not serve the given view")
	}
}

// TestFacadeInvalidUTF8Title builds a corpus in which one page title
// carries a byte that is not valid UTF-8. The taxonomy stores the
// mention in its U+FFFD spelling, so the Result saves, loads and opens
// mapped, and the fresh, loaded and mapped views answer that spelling
// alike.
func TestFacadeInvalidUTF8Title(t *testing.T) {
	wcfg := DefaultWorldConfig()
	wcfg.Entities = 300
	w, err := GenerateWorld(wcfg)
	if err != nil {
		t.Fatalf("GenerateWorld: %v", err)
	}
	corpus := w.Corpus()
	corpus.Pages[0].Title = "坏\xff" + corpus.Pages[0].Title
	spelling := string([]rune(corpus.Pages[0].Title))
	opts := smallOptions()
	opts.EnableNeural = false
	res, err := Build(corpus, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	want := res.Freeze().Lookup(spelling)
	if len(want) == 0 {
		t.Fatalf("Lookup(%q) on the fresh view found nothing", spelling)
	}

	var buf bytes.Buffer
	if err := SaveSnapshot(&buf, res); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	loaded, err := LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	path := filepath.Join(t.TempDir(), "taxonomy.snap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenSnapshotMapped(path)
	if err != nil {
		t.Fatalf("OpenSnapshotMapped: %v", err)
	}
	for name, v := range map[string]*ServingView{"loaded": loaded.Freeze(), "mapped": mapped} {
		if got := v.Lookup(spelling); !reflect.DeepEqual(got, want) {
			t.Errorf("%s view: Lookup(%q) = %q, fresh view %q", name, spelling, got, want)
		}
	}
}

// TestFacadeBlankTitlePage: a crawled page with a blank title and no
// bracket names no entity. ReadCorpus accepts it and Update drops its
// candidates; Build drops them through the same filter instead of
// failing, after all its work, on an isA("", …) edge. What it builds
// equals the build in which the page proposes nothing.
func TestFacadeBlankTitlePage(t *testing.T) {
	wcfg := DefaultWorldConfig()
	wcfg.Entities = 300
	w, err := GenerateWorld(wcfg)
	if err != nil {
		t.Fatalf("GenerateWorld: %v", err)
	}
	blank := w.Corpus()
	blank.Pages[0].Title, blank.Pages[0].Bracket = "", ""
	if len(blank.Pages[0].Tags) == 0 {
		t.Fatal("page 0 has no tags: it would propose nothing")
	}
	var jsonl bytes.Buffer
	if err := blank.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	read, err := ReadCorpus(&jsonl)
	if err != nil {
		t.Fatalf("ReadCorpus: %v", err)
	}
	opts := smallOptions()
	opts.EnableNeural = false
	res, err := Build(read, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}

	quiet := &Corpus{Pages: append([]Page(nil), blank.Pages...)}
	quiet.Pages[0].Tags, quiet.Pages[0].Infobox = nil, nil
	want, err := Build(quiet, opts)
	if err != nil {
		t.Fatalf("Build without the page's candidates: %v", err)
	}
	if !reflect.DeepEqual(res.Report.SelectedPredicates, want.Report.SelectedPredicates) {
		t.Fatalf("the infobox triples moved predicate discovery: %v vs %v", res.Report.SelectedPredicates, want.Report.SelectedPredicates)
	}
	if a, b := res.Taxonomy.Edges(), want.Taxonomy.Edges(); !reflect.DeepEqual(a, b) {
		t.Fatalf("edges differ from the build without the page's candidates: %d vs %d", len(a), len(b))
	}
	if a, b := keptNames(res), keptNames(want); !reflect.DeepEqual(a, b) {
		t.Fatalf("kept lists differ: %d vs %d", len(a), len(b))
	}
	if a, b := res.Report.Verification, want.Report.Verification; a.Input != b.Input || a.Kept != b.Kept ||
		!reflect.DeepEqual(res.Report.PerSource, want.Report.PerSource) {
		t.Fatalf("reports differ: %+v vs %+v", a, b)
	}
}

func TestFacadeBaselines(t *testing.T) {
	w, res := buildSmall(t, 800)
	oracle := w.Oracle()
	wiki := BuildWikiTaxonomy(w.Corpus(), DefaultWikiTaxonomyConfig())
	tran, _ := BuildProbaseTran(w, DefaultProbaseTranConfig())
	pCN := SamplePrecision(res.Taxonomy, oracle, 1000, 1)
	pTran := SamplePrecision(tran, oracle, 1000, 1)
	if pTran >= pCN {
		t.Errorf("Probase-Tran %.3f should be below CN-Probase %.3f", pTran, pCN)
	}
	if a, b := wiki.ComputeStats().IsARelations, res.Taxonomy.ComputeStats().IsARelations; a >= b {
		t.Errorf("WikiTaxonomy %d edges should be below CN-Probase %d", a, b)
	}
}

// goldenSnapshotSHA256 is the digest of the version-6 snapshot of the
// seed-7, 2 000-entity synthetic world built with the default options
// minus the neural extractor; any change to it is a change of format,
// of canonical order or of what a build decides, and needs a reason.
// It was re-recorded when version 4 wrote the evidence section in the
// image's numbering, and when version 5 dropped the image's evidence
// count block and the build report its always-zero Shards field
// (572 397 → 519 461 bytes; image 410 323 → 357 398 bytes), and when
// version 6 named mention entities by node ID and dropped the per-edge
// score (519 461 → 368 845 bytes; image 357 398 → 206 782 bytes).
const (
	goldenSnapshotSHA256 = "06fd53c6e0a87809908e0636748426a94a70218f3d7d922cbfb50eee61048539"
	goldenImageSHA256    = "47b70a42388154c9634763626dfa0fff56a97a42c19d8453e182642f59568c5b"
)

// TestFacadeSnapshotGolden holds "snapshot bytes unchanged" as a test:
// the same world saves to the recorded digests — of the file and of
// its view-image section's payload — whether built sequentially or on
// eight workers.
func TestFacadeSnapshotGolden(t *testing.T) {
	wcfg := DefaultWorldConfig()
	wcfg.Seed, wcfg.Entities = 7, 2000
	w, err := GenerateWorld(wcfg)
	if err != nil {
		t.Fatalf("GenerateWorld: %v", err)
	}
	for _, workers := range []int{1, 8} {
		opts := DefaultOptions()
		opts.EnableNeural = false
		opts.Workers = workers
		res, err := Build(w.Corpus(), opts)
		if err != nil {
			t.Fatalf("Build(workers=%d): %v", workers, err)
		}
		var buf bytes.Buffer
		if err := SaveSnapshot(&buf, res); err != nil {
			t.Fatalf("SaveSnapshot: %v", err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != goldenSnapshotSHA256 {
			t.Errorf("workers=%d: snapshot sha256 = %s, want %s (%d bytes)", workers, got, goldenSnapshotSHA256, buf.Len())
		}
		// The image is the second section, after the 16-byte header and
		// the meta section's 13-byte frame, payload and 4-byte checksum.
		b := buf.Bytes()
		at := 16 + 13 + int(binary.LittleEndian.Uint64(b[16+5:])) + 4
		image := b[at+13 : at+13+int(binary.LittleEndian.Uint64(b[at+5:]))]
		if got := fmt.Sprintf("%x", sha256.Sum256(image)); got != goldenImageSHA256 {
			t.Errorf("workers=%d: image section sha256 = %s, want %s (%d bytes)", workers, got, goldenImageSHA256, len(image))
		}
	}
}

// keptNames lists a Result's kept candidates by name, sorted: the form
// in which kept lists of two symbol tables compare.
func keptNames(res *Result) []string {
	names := res.Names()
	out := make([]string, len(res.Kept))
	for i, c := range res.Kept {
		out[i] = fmt.Sprintf("%s isA %s %v", names[c.Hypo], names[c.Hyper], c.Source)
	}
	sort.Strings(out)
	return out
}
