package taxonomy

import (
	"cmp"
	"fmt"
	"slices"
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
	id, _ := tx.syms.Lookup("刘德华")
	if hs := tx.AppendEdges(nil, id); len(hs) != 2 {
		t.Fatalf("hypernyms = %v", hs)
	}
	if n := hyponymCount(tx, "演员"); n != 2 {
		t.Errorf("hyponyms = %d", n)
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

// removeIsA retracts isA(hypo, hyper) by name, as Update retracts a
// rejected pair: out of Kept, then Retracted, which takes the edge
// whole. A concept's kept hyponyms are counted off Kept (the pipeline
// reads them off the verification evidence).
func removeIsA(tx *Taxonomy, hypo, hyper string) bool {
	a, ok := tx.syms.Lookup(hypo)
	b, ok2 := tx.syms.Lookup(hyper)
	if !ok || !ok2 {
		return false
	}
	if _, ok := tx.SourcesOf(a, b); !ok {
		return false
	}
	if i, kept := Find(tx.Kept, a, b); kept {
		tx.Kept = slices.Delete(tx.Kept, i, i+1)
	}
	tx.Retracted([]Pair{{Hypo: a, Hyper: b}}, func(id uint32) bool {
		return slices.ContainsFunc(tx.Kept, func(p Pair) bool { return p.Hyper == id })
	})
	return true
}

// hyponymCount counts the named node's hyponyms off the edges.
func hyponymCount(tx *Taxonomy, name string) int {
	n := 0
	for _, e := range tx.Edges() {
		if e.Hyper == name {
			n++
		}
	}
	return n
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
	if _, ok := tx.EdgeOf("a", "b"); ok || len(tx.Edges()) != 0 || len(tx.Kept)+len(tx.Derived) != 0 {
		t.Error("edge not fully removed from the lists")
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

func TestSourceString(t *testing.T) {
	if got := (SourceBracket | SourceTag).String(); got != "bracket+tag" {
		t.Errorf("String = %q", got)
	}
	if got := Source(0).String(); got != "none" {
		t.Errorf("zero Source = %q", got)
	}
}

// Property: after any sequence of valid adds, both pair lists are
// sorted and distinct, every hypernym is a concept and the counters
// match the edges.
func TestQuickIndexesConsistent(t *testing.T) {
	names := []string{"甲", "乙", "丙", "丁", "戊"}
	f := func(pairs [][3]uint8) bool {
		tx := New()
		for _, p := range pairs {
			hypo := names[int(p[0])%len(names)]
			hyper := names[int(p[1])%len(names)]
			if hypo == hyper {
				continue
			}
			if err := tx.AddIsA(hypo, hyper, Source(1<<(p[2]%6))); err != nil {
				return false
			}
		}
		return listsConsistent(tx) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// listsConsistent returns what is wrong with the lists' invariants, or
// "" when nothing is.
func listsConsistent(tx *Taxonomy) string {
	for name, list := range map[string][]Pair{"Kept": tx.Kept, "Derived": tx.Derived} {
		if !slices.IsSortedFunc(list, func(a, b Pair) int { return cmp.Compare(a.Key(), b.Key()) }) {
			return name + " is not sorted"
		}
		for i := 1; i < len(list); i++ {
			if list[i-1].Key() == list[i].Key() {
				return name + " holds a pair twice"
			}
		}
		for _, p := range list {
			if tx.KindOf(p.Hyper) == KindUnknown {
				return tx.syms.Names()[p.Hyper] + " is an unmarked hypernym"
			}
		}
	}
	if got, want := tx.ComputeStats(), recountStats(tx); got != want {
		return fmt.Sprintf("stats %+v, recount %+v", got, want)
	}
	return ""
}

func mustAdd(t *testing.T, tx *Taxonomy, hypo, hyper string, src Source) {
	t.Helper()
	if err := tx.AddIsA(hypo, hyper, src); err != nil {
		t.Fatalf("AddIsA(%q,%q): %v", hypo, hyper, err)
	}
}

// TestFinalizeCanonicalizesAndCaches checks that the taxonomy reads its
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
	var names []string
	for _, id := range tx.Nodes() {
		names = append(names, tx.syms.Names()[id])
	}
	if got := fmt.Sprint(names); got != "[丁 丙概念 乙概念 戊 甲]" {
		t.Fatalf("names not canonical: %s", got)
	}
	es := tx.Edges()
	if len(es) != 4 || es[2].Hypo != "甲" || es[2].Hyper != "丙概念" || es[3].Hyper != "乙概念" { // 丙 U+4E19 < 乙 U+4E59
		t.Fatalf("edges not canonical: %v", es)
	}
	// Reads see a later write immediately.
	mustAdd(t, tx, "己", "乙概念", SourceTag)
	if got := tx.ComputeStats().IsARelations; got != 5 {
		t.Fatalf("stats after a write = %d, want 5", got)
	}
	if got := len(tx.Nodes()); got != 6 {
		t.Fatalf("nodes after a write = %d, want 6", got)
	}
}

// TestRemoveLastEdgeCleansIndexes pins the regression where removing a
// node's only hypernym left it counted in Stats.NodesWithHypernym.
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
	if got := hyponymCount(tx, "概念"); got != 1 {
		t.Errorf("hyponyms = %d, want 1", got)
	}
	// Removing the final edge of the concept leaves no node with a
	// hypernym.
	if !removeIsA(tx, "乙", "概念") {
		t.Fatal("second RemoveIsA returned false")
	}
	if got := tx.ComputeStats().NodesWithHypernym; got != 0 {
		t.Errorf("NodesWithHypernym after removing all = %d, want 0", got)
	}
}
