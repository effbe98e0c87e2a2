package snapshot

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cnprobase/internal/core"
	"cnprobase/internal/corpus"
	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/extract"
	"cnprobase/internal/serving"
	"cnprobase/internal/synth"
	"cnprobase/internal/taxonomy"
)

// buildResult runs the pipeline so the state carries the full update
// substrate (evidence, kept candidates, statistics).
func buildResult(tb testing.TB, entities int) *core.Result {
	tb.Helper()
	cfg := synth.DefaultConfig()
	cfg.Entities = entities
	w, err := synth.Generate(cfg)
	if err != nil {
		tb.Fatalf("synth.Generate: %v", err)
	}
	opts := core.DefaultOptions()
	opts.EnableNeural = false
	res, err := core.New(opts).Build(w.Corpus())
	if err != nil {
		tb.Fatalf("Build: %v", err)
	}
	return res
}

// namedPair is a kept candidate with its names resolved.
type namedPair struct {
	Hypo, Hyper string
	Source      taxonomy.Source
}

// keptByName resolves kept pairs through the taxonomy's symbol table —
// the one the evidence shares — and returns them in name order: the
// form in which kept lists from two ID spaces compare.
func keptByName(tax *taxonomy.Taxonomy, kept []extract.Candidate) []namedPair {
	names := tax.Symbols().Names()
	out := make([]namedPair, len(kept))
	for i, c := range kept {
		out[i] = namedPair{names[c.Hypo], names[c.Hyper], c.Source}
	}
	slices.SortFunc(out, func(a, b namedPair) int {
		return cmp.Or(strings.Compare(a.Hypo, b.Hypo), strings.Compare(a.Hyper, b.Hyper))
	})
	return out
}

// TestEvidenceRoundTrip pins the evidence section: a state
// saved with evidence loads with the kept candidate set, support
// counts and corpus statistics intact.
func TestEvidenceRoundTrip(t *testing.T) {
	res := buildResult(t, 300)
	st := &State{
		Taxonomy: res.Taxonomy,
		Meta:     Meta{Pages: res.Report.Pages, Stats: res.Report.Stats},
		Evidence: res.Evidence,
		Stats:    res.Stats,
	}
	loaded, err := Load(bytes.NewReader(saveBytes(t, st, Options{Workers: 1})))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.Evidence == nil || loaded.Stats == nil {
		t.Fatal("evidence section did not round-trip")
	}
	if len(loaded.Taxonomy.Kept) != len(res.Kept) {
		t.Fatalf("kept = %d candidates, want %d", len(loaded.Taxonomy.Kept), len(res.Kept))
	}
	want := keptByName(res.Taxonomy, res.Kept)
	for i, c := range keptByName(loaded.Taxonomy, loaded.Taxonomy.Kept) {
		if c != want[i] {
			t.Fatalf("kept[%d] = %+v, want %+v", i, c, want[i])
		}
	}
	// Loaded IDs are image IDs, so the list, sorted by ID, is in name
	// order too.
	names := loaded.Taxonomy.Symbols().Names()
	for i, c := range loaded.Taxonomy.Kept {
		if i > 0 && loaded.Taxonomy.Kept[i-1].Key() >= c.Key() || names[c.Hypo] != want[i].Hypo || names[c.Hyper] != want[i].Hyper {
			t.Fatalf("kept[%d] = %+v: the loaded list is not sorted by ID and by name alike", i, c)
		}
	}
	// Support and statistics fold back exactly.
	for _, e := range res.Evidence.Support.Entries() {
		if got := loaded.Evidence.Support.S1(e.Word); got != res.Evidence.Support.S1(e.Word) {
			t.Fatalf("S1(%q) = %v after load, want %v", e.Word, got, res.Evidence.Support.S1(e.Word))
		}
	}
	if got, want := loaded.Stats.Tokens(), res.Stats.Tokens(); got != want {
		t.Fatalf("stats tokens = %d, want %d", got, want)
	}
	if got, want := loaded.Stats.VocabSize(), res.Stats.VocabSize(); got != want {
		t.Fatalf("stats vocab = %d, want %d", got, want)
	}
}

// TestSaveWithoutEvidence: states without the update substrate (e.g.
// hand-assembled) save with an
// absent-evidence flag and load back with nil evidence.
func TestSaveWithoutEvidence(t *testing.T) {
	st := handState(t)
	loaded, err := Load(bytes.NewReader(saveBytes(t, st, Options{Workers: 1})))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.Evidence != nil || loaded.Taxonomy.Kept != nil || loaded.Stats != nil {
		t.Fatal("evidence materialized from an evidence-less snapshot")
	}
	requireEqualState(t, st, loaded)
}

// withEvidence returns a copy of a snapshot whose evidence section
// carries payload, with its length and checksum recomputed: a file
// that frames correctly whatever the payload says.
func withEvidence(tb testing.TB, data, payload []byte) []byte {
	tb.Helper()
	off := 16
	for i := 0; i < 2; i++ { // past the meta and image sections
		off += 13 + int(binary.LittleEndian.Uint64(data[off+5:off+13])) + 4
	}
	if data[off] != sectionEvidence {
		tb.Fatalf("section at %d is kind %d, not the evidence", off, data[off])
	}
	out := append([]byte(nil), data[:off+5]...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, EndMagic...)
}

// evidenceSpec is an evidence payload written by hand over handState's
// image, field by field as docs/SNAPSHOT.md lays the section out: a
// kept bitset, no exceptions, a one-predicate table, one page on a
// node with one attribute, no page off the image, no NE support, and
// the given corpus statistics.
type evidenceSpec struct {
	words                    []uint64
	pageNode, titleRow, pred uint64
	stats                    []byte
}

func (s evidenceSpec) payload() []byte {
	uv := binary.AppendUvarint
	b := uv([]byte{1}, uint64(len(s.words)))
	for _, w := range s.words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	b = uv(b, 0)                                 // kept exceptions
	b = appendString(uv(b, 1), "职业")             // predicate table
	b = uv(uv(uv(b, 1), s.pageNode), s.titleRow) // one page on a node
	b = uv(uv(b, 1), s.pred)                     // one attribute
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(1))
	b = uv(uv(b, 0), 0) // no page off the image, no NE support
	return append(uv(b, uint64(len(s.stats))), s.stats...)
}

// validSpec keeps edge 0 (实体00（人物） isA 概念0) and gives node 0 its
// page, titled by mention row 0 (实体00).
func validSpec() evidenceSpec {
	st := corpus.NewStats()
	st.AddSentence([]string{"a", "b"})
	return evidenceSpec{words: []uint64{1}, stats: st.AppendBinary(nil)}
}

// outOfRangeEvidence returns evidence payloads that checksum but name
// what the image of data (handState's) does not hold, each with the
// words its refusal must contain.
func outOfRangeEvidence(tb testing.TB, data []byte) map[string]struct {
	payload []byte
	reason  string
} {
	tb.Helper()
	view, _, err := openMappedBytes(data)
	if err != nil {
		tb.Fatal(err)
	}
	uv := binary.AppendUvarint
	word := func(b []byte, w string, count uint64) []byte { return uv(appendString(b, w), count) }
	cases := map[string]struct {
		mutate func(*evidenceSpec)
		reason string
	}{
		"page ID at the node count":         {func(s *evidenceSpec) { s.pageNode = uint64(view.NodeCount()) }, "page node"},
		"title row past the mention count":  {func(s *evidenceSpec) { s.titleRow = uint64(view.MentionCount()) + 1 }, "page title row"},
		"predicate index at the table size": {func(s *evidenceSpec) { s.pred = 1 }, "attribute predicate"},
		"no bitset word":                    {func(s *evidenceSpec) { s.words = nil }, "kept bitset has 0 words"},
		"one bitset word too many":          {func(s *evidenceSpec) { s.words = []uint64{1, 0} }, "kept bitset has 2 words"},
		"a bit past the last edge":          {func(s *evidenceSpec) { s.words = []uint64{1 << 63} }, "kept bitset marks edges past"},
		"bigram rank out of range":          {func(s *evidenceSpec) { s.stats = uv(uv(uv(uv(word(uv(nil, 1), "a", 1), 1), 0), 1), 1) }, "outside the 1-word table"},
		"statistics count above MaxInt32":   {func(s *evidenceSpec) { s.stats = uv(word(uv(nil, 1), "a", math.MaxInt32+1), 0) }, "statistics count 2147483648"},
	}
	out := map[string]struct {
		payload []byte
		reason  string
	}{}
	for what, c := range cases {
		s := validSpec()
		c.mutate(&s)
		out[what] = struct {
			payload []byte
			reason  string
		}{s.payload(), c.reason}
	}
	return out
}

// TestEvidenceLayout holds the documented layout to Save: the payload
// validSpec writes by hand loads into the kept pair and page it
// describes, and saving the loaded state writes the same file back.
func TestEvidenceLayout(t *testing.T) {
	data := withEvidence(t, saveBytes(t, handState(t), Options{Workers: 1}), validSpec().payload())
	st, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if _, _, err := openMappedBytes(data); err != nil {
		t.Fatalf("mapped: %v", err)
	}
	want := []namedPair{{Hypo: "实体00（人物）", Hyper: "概念0", Source: taxonomy.SourceBracket | taxonomy.SourceTag}}
	if got := keptByName(st.Taxonomy, st.Taxonomy.Kept); !reflect.DeepEqual(got, want) {
		t.Fatalf("kept = %+v, want %+v", got, want)
	}
	if st.Stats.Tokens() != 2 || st.Evidence.S2("实体00") != 1 {
		t.Fatalf("tokens %d, S2(实体00) = %v: the page and statistics did not load", st.Stats.Tokens(), st.Evidence.S2("实体00"))
	}
	if again := saveBytes(t, st, Options{Workers: 1}); !bytes.Equal(again, data) {
		t.Fatalf("re-saving the hand-written file gives %d other bytes", len(again))
	}
}

// TestEvidenceOffTheImage saves the evidence the image's numbering
// cannot name, which a build can hold: a kept pair whose edge a
// subconcept rule also derived (so the edge's sources are not the
// candidate's), and a page whose title is no mention (whitespace
// the taxonomy trims) and whose entity is no node. Each goes
// through its fallback and loads back as it was, and a kept pair the
// saved view has no edge for is refused by name.
func TestEvidenceOffTheImage(t *testing.T) {
	res := buildResult(t, 300)
	c := res.Kept[len(res.Kept)/2]
	res.Taxonomy.Add(taxonomy.Pair{Hypo: c.Hypo, Hyper: c.Hyper, Source: taxonomy.SourceMorph})
	names := res.Names()
	if e, _ := res.Taxonomy.EdgeOf(names[c.Hypo], names[c.Hyper]); e.Sources == c.Source {
		t.Fatalf("edge %+v still has the kept pair's sources", e)
	}
	lone := []encyclopedia.Page{{Title: " 孤立页面 ", Infobox: []encyclopedia.Triple{{Predicate: "职业", Object: "演员"}}}}
	id := res.Taxonomy.Symbols().Intern(lone[0].Title)
	res.Evidence.AddPages(lone, []uint32{id, id})
	st := &State{Taxonomy: res.Taxonomy, Evidence: res.Evidence, Stats: res.Stats}
	data := saveBytes(t, st, Options{Workers: 1})
	loaded, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	mapped, _, err := openMappedBytes(data)
	if err != nil {
		t.Fatalf("mapped: %v", err)
	}
	if !reflect.DeepEqual(keptByName(loaded.Taxonomy, loaded.Taxonomy.Kept), keptByName(res.Taxonomy, res.Kept)) {
		t.Fatal("the kept list did not round-trip")
	}
	pages := loaded.Evidence.PagesAlong(mapped.NodeCount(), mapped.Name)
	if pages.Len() != pages.OnTable()+1 || pages.Entity(pages.Len()-1) != " 孤立页面 " || pages.Title(pages.Len()-1) != " 孤立页面 " {
		t.Fatalf("the page off the image did not round-trip: %d pages, %d on nodes", pages.Len(), pages.OnTable())
	}
	if again := saveBytes(t, loaded, Options{Workers: 1}); !bytes.Equal(again, data) {
		t.Fatal("re-saving the loaded state changed the bytes")
	}

	syms := res.Taxonomy.Symbols()
	st.View = serving.Compile(st.Taxonomy) // the view saved is of the list before the insert below
	st.Taxonomy.Kept = slices.Insert(slices.Clone(res.Kept), 0, extract.Candidate{Hypo: syms.Intern("无此节点"), Hyper: syms.Intern("概念")})
	if err := Save(&bytes.Buffer{}, st, Options{Workers: 1}); err == nil || !strings.Contains(err.Error(), "is not an edge") {
		t.Fatalf("Save of a kept pair the view has no edge for = %v", err)
	}
}

// TestValidateEvidenceAllocatesNothing pins the mapped opener's walk
// over the evidence section: it checks a built world's section without
// one allocation.
func TestValidateEvidenceAllocatesNothing(t *testing.T) {
	res := buildResult(t, 300)
	data := saveBytes(t, &State{Taxonomy: res.Taxonomy, Evidence: res.Evidence, Stats: res.Stats}, Options{Workers: 1})
	f, err := parse(data)
	if err != nil {
		t.Fatal(err)
	}
	view, err := serving.OpenImage(f.image, f.imageBase)
	if err != nil {
		t.Fatal(err)
	}
	shape := viewShape(view)
	if n := testing.AllocsPerRun(20, func() {
		if _, err := validateEvidence(f.evidence, shape); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("validateEvidence allocates %v times per call, want 0", n)
	}
}
