package taxonomy

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestAddIsAAndLookups(t *testing.T) {
	tx := New()
	tx.MarkEntity("刘德华")
	mustAdd(t, tx, "刘德华", "演员", SourceBracket)
	mustAdd(t, tx, "刘德华", "歌手", SourceTag)
	mustAdd(t, tx, "男演员", "演员", SourceMorph)

	if _, ok := tx.EdgeOf("刘德华", "演员"); !ok {
		t.Error("EdgeOf found no edge")
	}
	if hs := tx.ReadNodes([]string{"刘德华"}).Edges; len(hs) != 2 {
		t.Fatalf("hypernyms = %v", hs)
	}
	if tx.HyponymCount("演员") != 2 {
		t.Errorf("HyponymCount = %d", tx.HyponymCount("演员"))
	}
	if got := tx.ComputeStats().IsARelations; got != 3 {
		t.Errorf("IsARelations = %d", got)
	}
}

func TestAddIsARejectsDegenerate(t *testing.T) {
	tx := New()
	if err := tx.AddIsA("a", "a", SourceTag); err == nil {
		t.Error("self-loop accepted")
	}
	if err := tx.AddIsA("", "b", SourceTag); err == nil {
		t.Error("empty hyponym accepted")
	}
	if err := tx.AddIsA("a", "", SourceTag); err == nil {
		t.Error("empty hypernym accepted")
	}
}

func TestDuplicateEdgeMergesProvenance(t *testing.T) {
	tx := New()
	mustAdd(t, tx, "a", "b", SourceTag)
	mustAdd(t, tx, "a", "b", SourceBracket)
	e, ok := tx.EdgeOf("a", "b")
	if !ok {
		t.Fatal("edge missing")
	}
	if e.Sources.Evidence() != 2 {
		t.Errorf("Sources.Evidence() = %d, want 2", e.Sources.Evidence())
	}
	if e.Sources&SourceTag == 0 || e.Sources&SourceBracket == 0 {
		t.Errorf("Sources = %v", e.Sources)
	}
	if got := tx.ComputeStats().IsARelations; got != 1 {
		t.Errorf("IsARelations = %d, want 1", got)
	}
}

// removeIsA removes isA(hypo, hyper) by name.
func removeIsA(tx *Taxonomy, hypo, hyper string) bool {
	a, ok := tx.syms.Lookup(hypo)
	b, ok2 := tx.syms.Lookup(hyper)
	return ok && ok2 && tx.RemoveIsAID(a, b)
}

func TestRemoveIsA(t *testing.T) {
	tx := New()
	mustAdd(t, tx, "a", "b", SourceTag)
	if !removeIsA(tx, "a", "b") {
		t.Error("RemoveIsA returned false")
	}
	if removeIsA(tx, "a", "b") {
		t.Error("second RemoveIsA returned true")
	}
	if _, ok := tx.EdgeOf("a", "b"); ok || len(tx.Edges()) != 0 || tx.HyponymCount("b") != 0 {
		t.Error("edge not fully removed from indexes")
	}
}

// TestRemoveIsADemotesOrphanedConcepts pins the concept-count drift
// bug: retracting a concept's last edge must drop its implicit concept
// marking, so Stats.Concepts does not creep upward across update
// batches. Entities and concepts that still participate in edges
// survive.
func TestRemoveIsADemotesOrphanedConcepts(t *testing.T) {
	tx := New()
	tx.MarkEntity("实体甲")
	mustAdd(t, tx, "实体甲", "概念", SourceTag)
	if got := tx.ComputeStats().Concepts; got != 1 {
		t.Fatalf("Concepts = %d, want 1", got)
	}
	if !removeIsA(tx, "实体甲", "概念") {
		t.Fatal("RemoveIsA returned false")
	}
	if got := tx.Kind("概念"); got != KindUnknown {
		t.Errorf("orphaned concept kind = %v, want demoted to unknown", got)
	}
	if got := tx.ComputeStats().Concepts; got != 0 {
		t.Errorf("Concepts after retraction = %d, want 0", got)
	}
	// The entity endpoint survives retraction.
	if got := tx.Kind("实体甲"); got != KindEntity {
		t.Errorf("entity kind after retraction = %v, want entity", got)
	}
	if got := tx.ComputeStats().Entities; got != 1 {
		t.Errorf("Entities = %d, want 1", got)
	}

	// A concept that still appears as a hyponym elsewhere (subconcept
	// edge) is not demoted when it loses its last hyponym.
	mustAdd(t, tx, "男演员", "演员", SourceMorph)
	mustAdd(t, tx, "实体甲", "男演员", SourceTag)
	if !removeIsA(tx, "实体甲", "男演员") {
		t.Fatal("RemoveIsA returned false")
	}
	if got := tx.Kind("男演员"); got != KindConcept {
		t.Errorf("男演员 kind = %v, want concept (still a hyponym of 演员)", got)
	}
}

// TestStatsStableAcrossRetractionBatches simulates the update loop:
// edges added and retracted over several batches must leave the
// concept count describing only concepts that still have edges.
func TestStatsStableAcrossRetractionBatches(t *testing.T) {
	tx := New()
	tx.MarkEntity("常驻实体")
	mustAdd(t, tx, "常驻实体", "常驻概念", SourceTag)
	base := tx.ComputeStats()
	for batch := 0; batch < 5; batch++ {
		hypo := fmt.Sprintf("临时实体%d", batch)
		hyper := fmt.Sprintf("临时概念%d", batch)
		tx.MarkEntity(hypo)
		mustAdd(t, tx, hypo, hyper, SourceTag)
		if got := tx.ComputeStats().Concepts; got != base.Concepts+1 {
			t.Fatalf("batch %d: Concepts = %d, want %d", batch, got, base.Concepts+1)
		}
		// Union-wide re-verification retracts the batch's edge again.
		if !removeIsA(tx, hypo, hyper) {
			t.Fatalf("batch %d: RemoveIsA returned false", batch)
		}
		if got := tx.ComputeStats().Concepts; got != base.Concepts {
			t.Fatalf("batch %d: Concepts drifted to %d, want %d", batch, got, base.Concepts)
		}
	}
}

func TestKinds(t *testing.T) {
	tx := New()
	tx.MarkEntity("刘德华")
	mustAdd(t, tx, "刘德华", "演员", SourceTag)
	if tx.Kind("刘德华") != KindEntity {
		t.Error("entity kind lost")
	}
	if tx.Kind("演员") != KindConcept {
		t.Error("hypernym not auto-marked concept")
	}
	if tx.Kind("无名") != KindUnknown {
		t.Error("unknown node has a kind")
	}
	// MarkConcept must not overwrite entity.
	tx.MarkConcept("刘德华")
	if tx.Kind("刘德华") != KindEntity {
		t.Error("MarkConcept overwrote entity kind")
	}
}

func TestComputeStats(t *testing.T) {
	tx := New()
	tx.MarkEntity("刘德华")
	mustAdd(t, tx, "刘德华", "演员", SourceBracket)
	mustAdd(t, tx, "男演员", "演员", SourceMorph)
	tx.MarkConcept("男演员")
	st := tx.ComputeStats()
	if st.Entities != 1 {
		t.Errorf("Entities = %d", st.Entities)
	}
	if st.Concepts != 2 { // 演员, 男演员
		t.Errorf("Concepts = %d", st.Concepts)
	}
	if st.IsARelations != 2 || st.EntityConceptIsA != 1 || st.SubConceptIsA != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEdgesSortedDeterministic(t *testing.T) {
	tx := New()
	mustAdd(t, tx, "b", "x", SourceTag)
	mustAdd(t, tx, "a", "y", SourceTag)
	mustAdd(t, tx, "a", "x", SourceTag)
	es := tx.Edges()
	for i := 1; i < len(es); i++ {
		prev, cur := es[i-1], es[i]
		if prev.Hypo > cur.Hypo || (prev.Hypo == cur.Hypo && prev.Hyper > cur.Hyper) {
			t.Fatalf("Edges not sorted: %+v", es)
		}
	}
}

func TestConcurrentReadsAndWrites(t *testing.T) {
	tx := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				name := string(rune('a' + g))
				_ = tx.AddIsA(name+"实体", "概念", SourceTag)
				_, _ = tx.EdgeOf(name+"实体", "概念")
				_ = tx.HyponymCount("概念")
				_ = tx.ComputeStats()
			}
		}(g)
	}
	wg.Wait()
}

func TestSourceString(t *testing.T) {
	if got := (SourceBracket | SourceTag).String(); got != "bracket+tag" {
		t.Errorf("String = %q", got)
	}
	if got := Source(0).String(); got != "none" {
		t.Errorf("zero Source = %q", got)
	}
}

// Property: after any sequence of valid adds, every hypernym list entry
// has a matching reverse index entry.
func TestQuickIndexesConsistent(t *testing.T) {
	names := []string{"甲", "乙", "丙", "丁", "戊"}
	f := func(pairs [][2]uint8) bool {
		tx := New()
		for _, p := range pairs {
			hypo := names[int(p[0])%len(names)]
			hyper := names[int(p[1])%len(names)]
			if hypo == hyper {
				continue
			}
			if err := tx.AddIsA(hypo, hyper, SourceTag); err != nil {
				return false
			}
		}
		return reverseIndexConsistent(tx) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// reverseIndexConsistent returns the first node whose hyponym count
// disagrees with the edges pointing at it, or "" when none does.
func reverseIndexConsistent(tx *Taxonomy) string {
	in := map[string]int{}
	for _, e := range tx.Edges() {
		in[e.Hyper]++
	}
	for _, n := range tx.ReadAll().Names {
		if tx.HyponymCount(n) != in[n] {
			return n
		}
	}
	return ""
}

func mustAdd(t *testing.T, tx *Taxonomy, hypo, hyper string, src Source) {
	t.Helper()
	if err := tx.AddIsA(hypo, hyper, src); err != nil {
		t.Fatalf("AddIsA(%q,%q): %v", hypo, hyper, err)
	}
}

// TestShardedConcurrentAddAndQuery hammers one store with concurrent
// writers and readers; run under -race this is the data-race
// certification of the store's locking (the name dates from the
// lock-per-shard store it was written against).
func TestShardedConcurrentAddAndQuery(t *testing.T) {
	tx := New()
	const (
		writers = 8
		readers = 8
		perG    = 300
	)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				hypo := fmt.Sprintf("实体%d_%d", g, i)
				hyper := fmt.Sprintf("概念%d", i%13)
				if err := tx.AddIsA(hypo, hyper, SourceTag); err != nil {
					t.Errorf("AddIsA: %v", err)
					return
				}
				tx.MarkEntity(hypo)
				if i%7 == 0 {
					// Second edge: hypernym of a hypernym.
					_ = tx.AddIsA(hyper, fmt.Sprintf("上位%d", i%3), SourceSubsume)
				}
				if i%11 == 0 {
					removeIsA(tx, hypo, hyper)
				}
			}
		}(g)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				_, _ = tx.EdgeOf(fmt.Sprintf("实体%d_%d", g, i), fmt.Sprintf("概念%d", i%13))
				_ = tx.HyponymCount(fmt.Sprintf("概念%d", i%13))
				_ = tx.IsAncestor(fmt.Sprintf("实体%d_%d", g%writers, i), fmt.Sprintf("上位%d", i%3))
				_ = tx.Kind(fmt.Sprintf("实体%d_%d", g, i))
				if i%29 == 0 {
					_ = tx.ComputeStats()
					_ = tx.Concepts()
				}
				if i%53 == 0 {
					_ = tx.Edges()
					_ = tx.ReadAll()
				}
			}
		}(g)
	}
	wg.Wait()

	// Index invariant after the storm: every edge has its reverse
	// hyponym entry.
	if n := reverseIndexConsistent(tx); n != "" {
		t.Fatalf("reverse index of %q disagrees with its edges", n)
	}
}

// TestFinalizeCanonicalizesAndCaches checks that the store reads its
// content back in canonical order with no finalizing step in between,
// and that a subsequent write is visible at once. (The name dates from
// the Finalize call earlier stores needed.)
func TestFinalizeCanonicalizesAndCaches(t *testing.T) {
	tx := New()
	// Insert out of lexicographic order.
	mustAdd(t, tx, "甲", "丙概念", SourceTag)
	mustAdd(t, tx, "甲", "乙概念", SourceTag)
	mustAdd(t, tx, "戊", "乙概念", SourceTag)
	mustAdd(t, tx, "丁", "乙概念", SourceTag)
	set := tx.ReadAll()
	if got := fmt.Sprint(set.Names); got != "[丁 丙概念 乙概念 戊 甲]" {
		t.Fatalf("names not canonical: %s", got)
	}
	hs := set.Edges[set.EdgeOff[4]:set.EdgeOff[5]]
	if len(hs) != 2 || hs[0].Hyper != "丙概念" || hs[1].Hyper != "乙概念" { // 丙 U+4E19 < 乙 U+4E59
		t.Fatalf("hypernyms not canonical: %v", hs)
	}
	if hs[0].At != 1 || hs[1].At != 2 {
		t.Fatalf("hypernyms resolved to %d, %d, want 1, 2", hs[0].At, hs[1].At)
	}
	// Reads see a later write immediately.
	mustAdd(t, tx, "己", "乙概念", SourceTag)
	if got := tx.ComputeStats().IsARelations; got != 5 {
		t.Fatalf("stats after a write = %d, want 5", got)
	}
	if got := len(tx.ReadAll().Names); got != 6 {
		t.Fatalf("nodes after a write = %d, want 6", got)
	}
}

// TestRemoveLastEdgeCleansIndexes pins the regression where removing a
// node's only hypernym left an empty adjacency entry behind, inflating
// Stats.NodesWithHypernym.
func TestRemoveLastEdgeCleansIndexes(t *testing.T) {
	tx := New()
	mustAdd(t, tx, "甲", "概念", SourceTag)
	mustAdd(t, tx, "乙", "概念", SourceTag)
	if got := tx.ComputeStats().NodesWithHypernym; got != 2 {
		t.Fatalf("NodesWithHypernym = %d, want 2", got)
	}
	if !removeIsA(tx, "甲", "概念") {
		t.Fatal("RemoveIsA returned false")
	}
	if got := tx.ComputeStats().NodesWithHypernym; got != 1 {
		t.Errorf("NodesWithHypernym after remove = %d, want 1", got)
	}
	if got := tx.HyponymCount("概念"); got != 1 {
		t.Errorf("HyponymCount = %d, want 1", got)
	}
	// Removing the final edge of the concept clears its hyponym entry
	// too.
	if !removeIsA(tx, "乙", "概念") {
		t.Fatal("second RemoveIsA returned false")
	}
	if got := tx.ComputeStats().NodesWithHypernym; got != 0 {
		t.Errorf("NodesWithHypernym after removing all = %d, want 0", got)
	}
}
