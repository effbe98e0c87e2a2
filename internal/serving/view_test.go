package serving

import (
	"fmt"
	"math/rand"
	"slices"
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
		if err := tax.AddIsA(hypo, hyper, src); err != nil {
			tb.Fatalf("AddIsA(%q, %q): %v", hypo, hyper, err)
		}
	}
	for i := 0; i < 30; i++ {
		id := fmt.Sprintf("实体%02d（人物）", i)
		tax.MarkEntity(id)
		add(id, fmt.Sprintf("概念%d", i%5), taxonomy.SourceBracket, 0.5+float64(i)/100)
		if i%3 == 0 { // reinforce: extend source bits, so evidence count 2
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
	return tax, mentions
}

// requireStoreReads holds a view to what its store reads back itself:
// the canonical node list and kinds, every edge with its provenance in
// canonical order, the counters, hyponym counts, reachability between
// the first nodes, and the mention table. Every other query is held to
// the string-keyed oracle by internal/taxonomy's TestTaxonomyModel.
func requireStoreReads(tb testing.TB, v *View, tax *taxonomy.Taxonomy, mentions *taxonomy.MentionIndex) {
	tb.Helper()
	set := tax.ReadAll()
	if fmt.Sprint(v.Nodes()) != fmt.Sprint(set.Names) || v.Stats() != tax.ComputeStats() {
		tb.Fatalf("Nodes/Stats = %v %+v, store %v %+v", v.Nodes(), v.Stats(), set.Names, tax.ComputeStats())
	}
	for i, n := range set.Names {
		if hypos := len(v.HyponymIDsOf(uint32(i))); v.Kind(n) != set.Kinds[i] || hypos != tax.HyponymCount(n) {
			tb.Fatalf("%s: kind %d, %d hyponyms; store %d, %d", n, v.Kind(n), hypos, set.Kinds[i], tax.HyponymCount(n))
		}
		var hypers []string
		for _, e := range set.Edges[set.EdgeOff[i]:set.EdgeOff[i+1]] {
			hypers = append(hypers, e.Hyper)
			got, _ := v.EdgeOf(n, e.Hyper)
			if want, _ := tax.EdgeOf(n, e.Hyper); got != want {
				tb.Fatalf("EdgeOf(%q, %q) = %+v, store %+v", n, e.Hyper, got, want)
			}
		}
		if got := v.Hypernyms(n); fmt.Sprint(got) != fmt.Sprint(hypers) {
			tb.Fatalf("Hypernyms(%q) = %v, store edges %v", n, got, hypers)
		}
	}
	sample := set.Names[:min(len(set.Names), 25)]
	for _, a := range sample {
		ancestors := v.Ancestors(a)
		for _, b := range sample {
			if got := slices.Contains(ancestors, b); got != tax.IsAncestor(a, b) {
				tb.Fatalf("%q in Ancestors(%q) = %v, store IsAncestor %v", b, a, got, tax.IsAncestor(a, b))
			}
		}
	}
	if mentions != nil {
		for _, e := range mentions.Sorted() {
			if got := v.Lookup(" " + e.Mention); fmt.Sprint(got) != fmt.Sprint(e.IDs) {
				tb.Fatalf("Lookup(%q) = %v, want %v", e.Mention, got, e.IDs)
			}
		}
	}
}

func TestCompileMatchesStore(t *testing.T) {
	tax, mentions := fixture(t)
	requireStoreReads(t, Compile(tax, mentions), tax, mentions)
}

// TestCompileMatchesStoreRandomized runs the same check over random
// graphs: random edges (including reinforcements), random kind marks,
// random mentions.
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
			_ = tax.AddIsA(name(a), name(b), src)
		}
		for tries := 0; tries < nNodes; tries++ {
			mentions.Add(fmt.Sprintf("提及%d", rng.Intn(nNodes/2+1)), name(rng.Intn(nNodes)))
		}
		requireStoreReads(t, Compile(tax, mentions), tax, mentions)
	}
}

// TestQueryAllocations pins the hot-path guarantee the View exists
// for: the lookups the API handlers answer from — by ID, and the
// name-keyed ones — allocate nothing. Hypernyms, Hyponyms and Lookup,
// which build their name list per call, allocate exactly that list.
func TestQueryAllocations(t *testing.T) {
	tax, mentions := fixture(t)
	v := Compile(tax, mentions)
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
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(100, c.fn); allocs != c.allocs {
			t.Errorf("%s allocates %.1f objects per op, want %.0f", c.name, allocs, c.allocs)
		}
	}
}

// TestCompileAllocations pins the one view layout: Compile fills flat
// arrays sized up front and builds no index beside them, so what it
// allocates is a small constant, the same at two world sizes.
func TestCompileAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	for _, n := range []int{300, 3000} {
		tax := taxonomy.New()
		mentions := taxonomy.NewMentionIndex()
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("实体%05d（人物）", i)
			if err := tax.AddIsA(id, fmt.Sprintf("概念%d", i%(n/10)), taxonomy.SourceTag); err != nil {
				t.Fatal(err)
			}
			mentions.Add(fmt.Sprintf("实体%05d", i), id)
			mentions.Add(id, id)
		}
		if allocs := testing.AllocsPerRun(3, func() { _ = Compile(tax, mentions) }); allocs > 64 {
			t.Errorf("%d entities: Compile allocates %.0f objects, want at most 64", n, allocs)
		}
	}
}

// TestViewNilMentions covers serving a taxonomy with no mention index
// (every server has one, but Compile must not require it).
func TestViewNilMentions(t *testing.T) {
	tax, _ := fixture(t)
	v := Compile(tax, nil)
	if v.MentionCount() != 0 {
		t.Fatalf("MentionCount = %d, want 0", v.MentionCount())
	}
	if got := v.Lookup("实体00"); got != nil {
		t.Fatalf("Lookup on empty table = %v, want nil", got)
	}
	if fmt.Sprint(v.Hypernyms("实体00（人物）")) != fmt.Sprint(Compile(tax, taxonomy.NewMentionIndex()).Hypernyms("实体00（人物）")) {
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
