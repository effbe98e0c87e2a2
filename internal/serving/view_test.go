package serving

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cnprobase/internal/taxonomy"
)

// fixture assembles a taxonomy with the shapes queries must survive:
// multi-source reinforced edges, subconcept chains, a diamond, an
// ambiguous mention, disconnected nodes, island marks.
func fixture(tb testing.TB) *taxonomy.Taxonomy {
	tb.Helper()
	tax := taxonomy.New()
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
		tax.AddMention(fmt.Sprintf("实体%02d", i), id)
		tax.AddMention(id, id)
	}
	tax.AddMention("实体00", "实体07（人物）") // ambiguous mention
	for i := 0; i < 5; i++ {
		add(fmt.Sprintf("概念%d", i), "顶层概念", taxonomy.SourceMorph, 1)
	}
	// Diamond: 实体00 → 概念0/概念1 → 顶层概念.
	// Disconnected marked nodes with no edges at all.
	tax.MarkEntity("孤岛实体（测试）")
	tax.MarkConcept("孤岛概念")
	return tax
}

// requireStoreReads holds a view to what its taxonomy's lists read
// back: the node list and kinds, every edge with its provenance in
// canonical order, the counters, hyponym counts, reachability between
// the first nodes, and the mention pairs. Every other query is held to
// the string-keyed oracle by internal/taxonomy's TestTaxonomyModel.
func requireStoreReads(tb testing.TB, v *View, tax *taxonomy.Taxonomy) {
	tb.Helper()
	names := tax.Symbols().Names()
	var nodes []string
	for _, id := range tax.Nodes() {
		nodes = append(nodes, names[id])
	}
	if fmt.Sprint(v.Nodes()) != fmt.Sprint(nodes) || v.Stats() != tax.ComputeStats() {
		tb.Fatalf("Nodes/Stats = %v %+v, lists %v %+v", v.Nodes(), v.Stats(), nodes, tax.ComputeStats())
	}
	hypers, hypos := map[string][]string{}, map[string]int{}
	for _, e := range tax.Edges() {
		hypers[e.Hypo] = append(hypers[e.Hypo], e.Hyper)
		hypos[e.Hyper]++
		if got, _ := v.EdgeOf(e.Hypo, e.Hyper); got != e {
			tb.Fatalf("EdgeOf(%q, %q) = %+v, lists %+v", e.Hypo, e.Hyper, got, e)
		}
	}
	for _, n := range nodes {
		id, _ := v.ID(n, 0)
		if got := len(v.HyponymIDsOf(id)); v.Kind(n) != tax.Kind(n) || got != hypos[n] {
			tb.Fatalf("%s: kind %d, %d hyponyms; lists %d, %d", n, v.Kind(n), got, tax.Kind(n), hypos[n])
		}
		if got := v.Hypernyms(n); fmt.Sprint(got) != fmt.Sprint(hypers[n]) {
			tb.Fatalf("Hypernyms(%q) = %v, lists %v", n, got, hypers[n])
		}
	}
	sample := nodes[:min(len(nodes), 25)]
	for _, a := range sample {
		ancestors := v.Ancestors(a)
		ida, _ := tax.Symbols().Lookup(a)
		for _, b := range sample {
			idb, _ := tax.Symbols().Lookup(b)
			if got := slices.Contains(ancestors, b); got != tax.IsAncestor(ida, idb) {
				tb.Fatalf("%q in Ancestors(%q) = %v, lists IsAncestor %v", b, a, got, tax.IsAncestor(ida, idb))
			}
		}
	}
	for i := 0; i < len(tax.Mentions); {
		text := tax.Mentions[i].Text
		var ents []string
		for ; i < len(tax.Mentions) && tax.Mentions[i].Text == text; i++ {
			ents = append(ents, names[tax.Mentions[i].Entity])
		}
		slices.Sort(ents)
		if got := v.Lookup(" " + text); fmt.Sprint(got) != fmt.Sprint(ents) {
			tb.Fatalf("Lookup(%q) = %v, want %v", text, got, ents)
		}
	}
}

func TestCompileMatchesStore(t *testing.T) {
	tax := fixture(t)
	requireStoreReads(t, Compile(tax), tax)
}

// TestCompileMatchesStoreRandomized runs the same check over random
// graphs: random edges (including reinforcements), random kind marks,
// random mentions.
func TestCompileMatchesStoreRandomized(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tax := taxonomy.New()
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
			tax.AddMention(fmt.Sprintf("提及%d", rng.Intn(nNodes/2+1)), name(rng.Intn(nNodes)))
		}
		requireStoreReads(t, Compile(tax), tax)
	}
}

// TestQueryAllocations pins the hot-path guarantee the View exists
// for: the lookups the API handlers answer from — by ID, and the
// name-keyed ones — allocate nothing. Hypernyms, Hyponyms and Lookup,
// which build their name list per call, allocate exactly that list.
// It holds on a flat view and on one with a delta, whose new node and
// rewritten rows the queries read.
func TestQueryAllocations(t *testing.T) {
	tax := fixture(t)
	flat := Compile(tax)
	if err := tax.AddIsA("新实体（人物）", "概念0", taxonomy.SourceTag); err != nil {
		t.Fatal(err)
	}
	tax.AddMention("实体00", "新实体（人物）")
	var nodes []uint32
	for _, n := range []string{"新实体（人物）", "概念0"} {
		id, _ := tax.Symbols().Lookup(n)
		nodes = append(nodes, id)
	}
	withDelta := Patch(flat, tax, nodes, []string{"实体00"})
	if withDelta == nil || !withDelta.HasDelta() {
		t.Fatal("Patch did not publish a delta")
	}
	for name, v := range map[string]*View{"flat": flat, "delta": withDelta} {
		id, _ := v.ID("实体00（人物）", 0)
		concept, _ := v.ID("概念0", 0)
		row, _ := v.MentionRow("实体00", 0)
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
			{"IDOfNewNode", 0, func() { _, _ = v.ID("新实体（人物）", 0) }},
			{"HypernymIDsOf", 0, func() { _ = v.HypernymIDsOf(id) }},
			{"HyponymIDsOf", 0, func() { _ = v.HyponymIDsOf(concept) }},
			{"Name", 0, func() { _ = v.Name(concept) }},
			{"RankedHypernymAt", 0, func() { _, _ = v.RankedHypernymAt(id, 0) }},
			{"Lookup", 1, func() { _ = v.Lookup("实体00") }},
			{"LookupMiss", 0, func() { _ = v.Lookup("不存在") }},
			{"MentionRow", 0, func() { _, _ = v.MentionRow("实体00", 0) }},
			{"MentionEntities", 0, func() { _ = v.MentionEntities(int32(row)) }},
			{"Kind", 0, func() { _ = v.Kind("概念0") }},
			{"EdgeOf", 0, func() { _, _ = v.EdgeOf("实体00（人物）", "概念0") }},
			{"EvidenceTotalOf", 0, func() { _ = v.EvidenceTotalOf(id) }},
			{"CompareIDs", 0, func() { _ = v.CompareIDs(id, concept) }},
		}
		for _, c := range cases {
			if allocs := testing.AllocsPerRun(100, c.fn); allocs != c.allocs {
				t.Errorf("%s view: %s allocates %.1f objects per op, want %.0f", name, c.name, allocs, c.allocs)
			}
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
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("实体%05d（人物）", i)
			if err := tax.AddIsA(id, fmt.Sprintf("概念%d", i%(n/10)), taxonomy.SourceTag); err != nil {
				t.Fatal(err)
			}
			tax.AddMention(fmt.Sprintf("实体%05d", i), id)
			tax.AddMention(id, id)
		}
		if allocs := testing.AllocsPerRun(3, func() { _ = Compile(tax) }); allocs > 64 {
			t.Errorf("%d entities: Compile allocates %.0f objects, want at most 64", n, allocs)
		}
	}
}

// TestViewNilMentions covers serving a taxonomy with no mention pairs
// (every server has some, but Compile must not require them).
func TestViewNilMentions(t *testing.T) {
	tax := fixture(t)
	bare := *tax
	bare.Mentions = nil
	v := Compile(&bare)
	if v.MentionCount() != 0 {
		t.Fatalf("MentionCount = %d, want 0", v.MentionCount())
	}
	if got := v.Lookup("实体00"); got != nil {
		t.Fatalf("Lookup on empty table = %v, want nil", got)
	}
	if fmt.Sprint(v.Hypernyms("实体00（人物）")) != fmt.Sprint(Compile(tax).Hypernyms("实体00（人物）")) {
		t.Fatal("graph queries must be unaffected by missing mention pairs")
	}
}

func BenchmarkViewCompile(b *testing.B) {
	tax := fixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Compile(tax)
	}
}

// BenchmarkViewFold folds a delta of a few percent of a 1 541-node view
// (patchBudgetStore): 30 new entities, each under two concepts and
// named by a mention of its own, and the concepts they name.
func BenchmarkViewFold(b *testing.B) {
	tax := patchBudgetStore(b)
	prev := Compile(tax)
	var names, mentions []string
	for i := 0; i < 30; i++ {
		id := fmt.Sprintf("新实体%02d", i)
		tax.MarkEntity(id)
		names = append(names, id)
		for k := 0; k < 2; k++ {
			concept := fmt.Sprintf("概念%02d", (i+13*k)%40)
			if err := tax.AddIsA(id, concept, taxonomy.SourceTag); err != nil {
				b.Fatal(err)
			}
			names = append(names, concept)
		}
		mention := fmt.Sprintf("新%02d", i)
		tax.AddMention(mention, id)
		mentions = append(mentions, mention)
	}
	var nodes []uint32
	for _, n := range names {
		id, _ := tax.Symbols().Lookup(n)
		nodes = append(nodes, id)
	}
	d := Patch(prev, tax, nodes, mentions)
	if d == nil || !d.HasDelta() {
		b.Fatal("Patch did not publish the new entities as a delta")
	}
	rows, _ := d.DeltaRows()
	b.ReportMetric(float64(rows), "delta_nodes")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		foldSink = d.Fold()
	}
}

// foldSink keeps BenchmarkViewFold's result live, so the fold is not
// optimized away.
var foldSink *View
