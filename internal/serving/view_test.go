package serving

import (
	"fmt"
	"math/rand"
	"testing"

	"cnprobase/internal/taxonomy"
)

// fixture assembles a store + mention index with the shapes queries
// must survive: multi-source reinforced edges, subconcept chains, a
// diamond, an ambiguous mention, disconnected nodes, island marks.
func fixture(tb testing.TB) (*taxonomy.Taxonomy, *taxonomy.MentionIndex) {
	tb.Helper()
	tax := taxonomy.New()
	mentions := taxonomy.NewMentionIndex()
	add := func(hypo, hyper string, src taxonomy.Source, score float64) {
		tb.Helper()
		if err := tax.AddIsA(hypo, hyper, src, score); err != nil {
			tb.Fatalf("AddIsA(%q, %q): %v", hypo, hyper, err)
		}
	}
	for i := 0; i < 30; i++ {
		id := fmt.Sprintf("实体%02d（人物）", i)
		tax.MarkEntity(id)
		add(id, fmt.Sprintf("概念%d", i%5), taxonomy.SourceBracket, 0.5+float64(i)/100)
		if i%3 == 0 { // reinforce: bump count, extend source bits
			add(id, fmt.Sprintf("概念%d", i%5), taxonomy.SourceTag, 0.9)
		}
		if i%4 == 0 {
			add(id, fmt.Sprintf("概念%d", (i+1)%5), taxonomy.SourceAbstract, 0.7)
		}
		mentions.Add(fmt.Sprintf("实体%02d", i), id)
		mentions.Add(id, id)
	}
	mentions.Add("实体00", "实体07（人物）") // ambiguous mention
	for i := 0; i < 5; i++ {
		add(fmt.Sprintf("概念%d", i), "顶层概念", taxonomy.SourceMorph, 1)
	}
	// Diamond: 实体00 → 概念0/概念1 → 顶层概念.
	// Disconnected marked nodes with no edges at all.
	tax.MarkEntity("孤岛实体（测试）")
	tax.MarkConcept("孤岛概念")
	tax.Finalize()
	return tax, mentions
}

// requireViewMatchesStore pins every View query against its Taxonomy /
// MentionIndex counterpart on a finalized store.
func requireViewMatchesStore(tb testing.TB, v *View, tax *taxonomy.Taxonomy, mentions *taxonomy.MentionIndex) {
	tb.Helper()
	nodes := tax.Nodes()
	if got := v.Nodes(); fmt.Sprint(got) != fmt.Sprint(nodes) {
		tb.Fatalf("Nodes() = %v, want %v", got, nodes)
	}
	if v.EdgeCount() != tax.EdgeCount() {
		tb.Fatalf("EdgeCount() = %d, want %d", v.EdgeCount(), tax.EdgeCount())
	}
	if v.Stats() != tax.ComputeStats() {
		tb.Fatalf("Stats() = %+v, want %+v", v.Stats(), tax.ComputeStats())
	}
	probe := append([]string{"不存在的节点", ""}, nodes...)
	for _, n := range probe {
		if got, want := v.Kind(n), tax.Kind(n); got != want {
			tb.Fatalf("Kind(%q) = %d, want %d", n, got, want)
		}
		if got, want := v.Hypernyms(n), tax.Hypernyms(n); fmt.Sprint(got) != fmt.Sprint(want) {
			tb.Fatalf("Hypernyms(%q) = %v, want %v", n, got, want)
		}
		for _, limit := range []int{0, 1, 2, 1000} {
			if got, want := v.Hyponyms(n, limit), tax.Hyponyms(n, limit); fmt.Sprint(got) != fmt.Sprint(want) {
				tb.Fatalf("Hyponyms(%q, %d) = %v, want %v", n, limit, got, want)
			}
			if got, want := v.RankedHypernyms(n, limit), tax.RankedHypernyms(n, limit); fmt.Sprint(got) != fmt.Sprint(want) {
				tb.Fatalf("RankedHypernyms(%q, %d) = %v, want %v", n, limit, got, want)
			}
			if got, want := v.RankedHyponyms(n, limit), tax.RankedHyponyms(n, limit); fmt.Sprint(got) != fmt.Sprint(want) {
				tb.Fatalf("RankedHyponyms(%q, %d) = %v, want %v", n, limit, got, want)
			}
		}
		if got, want := v.HyponymCount(n), tax.HyponymCount(n); got != want {
			tb.Fatalf("HyponymCount(%q) = %d, want %d", n, got, want)
		}
		requireIDSurfaceMatchesStore(tb, v, tax, n)
		if got, want := v.Ancestors(n), tax.Ancestors(n); fmt.Sprint(got) != fmt.Sprint(want) {
			tb.Fatalf("Ancestors(%q) = %v, want %v", n, got, want)
		}
		if got, want := v.Lookup(n), mentions.Lookup(n); fmt.Sprint(got) != fmt.Sprint(want) {
			tb.Fatalf("Lookup(%q) = %v, want %v", n, got, want)
		}
	}
	// Pairwise queries over a bounded sample (full cross product would
	// be quadratic in graph size).
	sample := nodes
	if len(sample) > 25 {
		sample = sample[:25]
	}
	pairs := append([][2]string{{"不存在", "也不存在"}, {"顶层概念", "顶层概念"}}, cross(sample)...)
	for _, p := range pairs {
		a, b := p[0], p[1]
		if got, want := v.HasIsA(a, b), tax.HasIsA(a, b); got != want {
			tb.Fatalf("HasIsA(%q, %q) = %v, want %v", a, b, got, want)
		}
		gotE, gotOK := v.EdgeOf(a, b)
		wantE, wantOK := tax.EdgeOf(a, b)
		if gotOK != wantOK || gotE != wantE {
			tb.Fatalf("EdgeOf(%q, %q) = %+v/%v, want %+v/%v", a, b, gotE, gotOK, wantE, wantOK)
		}
		if got, want := v.TypicalityOfConcept(a, b), tax.TypicalityOfConcept(a, b); got != want {
			tb.Fatalf("TypicalityOfConcept(%q, %q) = %v, want %v", a, b, got, want)
		}
		if got, want := v.TypicalityOfInstance(a, b), tax.TypicalityOfInstance(a, b); got != want {
			tb.Fatalf("TypicalityOfInstance(%q, %q) = %v, want %v", a, b, got, want)
		}
		if got, want := v.IsAncestor(a, b), tax.IsAncestor(a, b); got != want {
			tb.Fatalf("IsAncestor(%q, %q) = %v, want %v", a, b, got, want)
		}
		if got, want := v.PathToAncestor(a, b), tax.PathToAncestor(a, b); fmt.Sprint(got) != fmt.Sprint(want) {
			tb.Fatalf("PathToAncestor(%q, %q) = %v, want %v", a, b, got, want)
		}
		if got, want := v.CommonAncestors(a, b), tax.CommonAncestors(a, b); fmt.Sprint(got) != fmt.Sprint(want) {
			tb.Fatalf("CommonAncestors(%q, %q) = %v, want %v", a, b, got, want)
		}
	}
	// Mention table: every known mention resolves identically (probe
	// includes surface forms that are not node names).
	for i := 0; i < 30; i++ {
		m := fmt.Sprintf("实体%02d", i)
		if got, want := v.Lookup(m), mentions.Lookup(m); fmt.Sprint(got) != fmt.Sprint(want) {
			tb.Fatalf("Lookup(%q) = %v, want %v", m, got, want)
		}
		if got, want := v.Lookup("  "+m+" "), mentions.Lookup("  "+m+" "); fmt.Sprint(got) != fmt.Sprint(want) {
			tb.Fatalf("Lookup(padded %q) = %v, want %v", m, got, want)
		}
	}
}

// requireIDSurfaceMatchesStore pins the ID-native read surface for one
// name: ID agrees with the node set, and everything read by ID is what
// the store answers by name.
func requireIDSurfaceMatchesStore(tb testing.TB, v *View, tax *taxonomy.Taxonomy, n string) {
	tb.Helper()
	id, ok := v.ID(n, 0)
	if known := tax.Kind(n) != taxonomy.KindUnknown || len(tax.Hypernyms(n)) > 0; ok != known {
		tb.Fatalf("ID(%q) ok = %v, store knows it: %v", n, ok, known)
	}
	if !ok {
		return
	}
	for _, from := range []uint32{id, id / 2, id - min(id, 3)} { // resumed searches gallop to the same answer
		if got, ok := v.ID(n, from); !ok || got != id {
			tb.Fatalf("ID(%q, %d) = %d/%v, want %d", n, from, got, ok, id)
		}
	}
	if got := v.Name(id); got != n {
		tb.Fatalf("Name(ID(%q)) = %q", n, got)
	}
	if got, want := v.KindOf(id), tax.Kind(n); got != want {
		tb.Fatalf("KindOf(%q) = %d, want %d", n, got, want)
	}
	var hypers []string
	total := int64(0)
	for i, h := range v.HypernymIDsOf(id) {
		if i > 0 && h <= v.HypernymIDsOf(id)[i-1] {
			tb.Fatalf("HypernymIDsOf(%q) not ascending: %v", n, v.HypernymIDsOf(id))
		}
		hypers = append(hypers, v.Name(h))
		e, _ := tax.EdgeOf(n, v.Name(h))
		total += int64(e.Count)
	}
	if want := tax.Hypernyms(n); fmt.Sprint(hypers) != fmt.Sprint(want) {
		tb.Fatalf("HypernymIDsOf(%q) names %v, want %v", n, hypers, want)
	}
	if got := v.EvidenceTotalOf(id); got != total {
		tb.Fatalf("EvidenceTotalOf(%q) = %d, the store's edge counts sum to %d", n, got, total)
	}
	for _, limit := range []int{-1, 0, 1, 2, 1000} {
		if got, want := v.RankedHypernymsOf(id, limit), tax.RankedHypernyms(n, limit); fmt.Sprint(got) != fmt.Sprint(want) {
			tb.Fatalf("RankedHypernymsOf(%q, %d) = %v, want %v", n, limit, got, want)
		}
	}
}

func cross(nodes []string) [][2]string {
	var out [][2]string
	for _, a := range nodes {
		for _, b := range nodes {
			out = append(out, [2]string{a, b})
		}
	}
	return out
}

func TestCompileMatchesStore(t *testing.T) {
	tax, mentions := fixture(t)
	requireViewMatchesStore(t, Compile(tax, mentions), tax, mentions)
}

// TestCompileMatchesStoreRandomized fuzzes the equivalence over random
// graphs: random edges (including reinforcements), random kind marks,
// random mentions — every query must agree with the finalized store.
func TestCompileMatchesStoreRandomized(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tax := taxonomy.New()
		mentions := taxonomy.NewMentionIndex()
		nNodes := 20 + rng.Intn(40)
		name := func(i int) string { return fmt.Sprintf("节点%02d", i) }
		for i := 0; i < nNodes; i++ {
			switch rng.Intn(3) {
			case 0:
				tax.MarkEntity(name(i))
			case 1:
				tax.MarkConcept(name(i))
			}
		}
		for tries := 0; tries < nNodes*3; tries++ {
			a, b := rng.Intn(nNodes), rng.Intn(nNodes)
			if a == b {
				continue
			}
			src := taxonomy.Source(1 << rng.Intn(6))
			_ = tax.AddIsA(name(a), name(b), src, rng.Float64())
		}
		for tries := 0; tries < nNodes; tries++ {
			mentions.Add(fmt.Sprintf("提及%d", rng.Intn(nNodes/2+1)), name(rng.Intn(nNodes)))
		}
		tax.Finalize()
		v := Compile(tax, mentions)
		requireViewMatchesStore(t, v, tax, mentions)
	}
}

// TestBuilderMatchesCompile pins the direct path: feeding a Builder
// the store's exported content produces a View indistinguishable from
// Compile.
func TestBuilderMatchesCompile(t *testing.T) {
	tax, mentions := fixture(t)
	b := NewBuilder()
	for _, n := range tax.Nodes() {
		b.ImportKind(n, tax.Kind(n)) // includes KindUnknown no-ops
	}
	for _, e := range tax.Edges() {
		if err := b.InsertEdge(e); err != nil {
			t.Fatalf("InsertEdge: %v", err)
		}
	}
	for _, me := range mentions.Sorted() {
		b.AddMentionEntry(me)
	}
	requireViewMatchesStore(t, b.Build(), tax, mentions)
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder()
	if err := b.InsertEdge(taxonomy.Edge{Hypo: "", Hyper: "x"}); err == nil {
		t.Error("empty hyponym accepted")
	}
	if err := b.InsertEdge(taxonomy.Edge{Hypo: "x", Hyper: "x"}); err == nil {
		t.Error("self-loop accepted")
	}
	// Overwrite semantics: a duplicate edge replaces the provenance.
	if err := b.InsertEdge(taxonomy.Edge{Hypo: "a", Hyper: "b", Sources: taxonomy.SourceTag, Score: 0.5, Count: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.InsertEdge(taxonomy.Edge{Hypo: "a", Hyper: "b", Sources: taxonomy.SourceBracket, Score: 0.9, Count: 7}); err != nil {
		t.Fatal(err)
	}
	v := b.Build()
	e, ok := v.EdgeOf("a", "b")
	if !ok || e.Count != 7 || e.Sources != taxonomy.SourceBracket {
		t.Fatalf("EdgeOf after overwrite = %+v/%v", e, ok)
	}
	// Blank mentions and empty IDs are dropped like MentionIndex.Add.
	b.AddMention("   ", "id")
	b.AddMention("m", "")
	if got := b.Build().MentionCount(); got != 0 {
		t.Fatalf("MentionCount = %d, want 0", got)
	}
}

// TestQueryAllocations pins the hot-path guarantee the View exists
// for: the three public API lookups allocate nothing.
func TestQueryAllocations(t *testing.T) {
	tax, mentions := fixture(t)
	v := Compile(tax, mentions)
	cases := []struct {
		name string
		fn   func()
	}{
		{"Hypernyms", func() { _ = v.Hypernyms("实体00（人物）") }},
		{"Hyponyms", func() { _ = v.Hyponyms("概念0", 50) }},
		{"RankedHypernyms", func() { _ = v.RankedHypernyms("实体00（人物）", 0) }},
		{"RankedHyponyms", func() { _ = v.RankedHyponyms("概念0", 0) }},
		{"Lookup", func() { _ = v.Lookup("实体00") }},
		{"LookupMiss", func() { _ = v.Lookup("不存在") }},
		{"Kind", func() { _ = v.Kind("概念0") }},
		{"HasIsA", func() { _ = v.HasIsA("实体00（人物）", "概念0") }},
		{"TypicalityOfConcept", func() { _ = v.TypicalityOfConcept("实体00（人物）", "概念0") }},
		{"HyponymCount", func() { _ = v.HyponymCount("概念0") }},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(100, c.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per op, want 0", c.name, allocs)
		}
	}
}

// TestViewNilMentions covers serving a taxonomy with no mention index
// (the cnpserver -tax path builds one, but Compile must not require it).
func TestViewNilMentions(t *testing.T) {
	tax, _ := fixture(t)
	v := Compile(tax, nil)
	if v.MentionCount() != 0 {
		t.Fatalf("MentionCount = %d, want 0", v.MentionCount())
	}
	if got := v.Lookup("实体00"); got != nil {
		t.Fatalf("Lookup on empty table = %v, want nil", got)
	}
	if fmt.Sprint(v.Hypernyms("实体00（人物）")) != fmt.Sprint(tax.Hypernyms("实体00（人物）")) {
		t.Fatal("graph queries must be unaffected by a nil mention index")
	}
}

func BenchmarkViewCompile(b *testing.B) {
	tax, mentions := fixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Compile(tax, mentions)
	}
}
