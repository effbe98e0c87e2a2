package taxonomy

import (
	"bytes"
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

	if !tx.HasIsA("刘德华", "演员") {
		t.Error("HasIsA = false")
	}
	hs := tx.Hypernyms("刘德华")
	if len(hs) != 2 {
		t.Fatalf("Hypernyms = %v", hs)
	}
	hypos := tx.Hyponyms("演员", 0)
	if len(hypos) != 2 {
		t.Fatalf("Hyponyms = %v", hypos)
	}
	if got := tx.Hyponyms("演员", 1); len(got) != 1 {
		t.Errorf("Hyponyms with limit = %v", got)
	}
	if tx.HyponymCount("演员") != 2 {
		t.Errorf("HyponymCount = %d", tx.HyponymCount("演员"))
	}
	if tx.EdgeCount() != 3 {
		t.Errorf("EdgeCount = %d", tx.EdgeCount())
	}
}

func TestAddIsARejectsDegenerate(t *testing.T) {
	tx := New()
	if err := tx.AddIsA("a", "a", SourceTag, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := tx.AddIsA("", "b", SourceTag, 1); err == nil {
		t.Error("empty hyponym accepted")
	}
	if err := tx.AddIsA("a", "", SourceTag, 1); err == nil {
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
	if e.Count != 2 {
		t.Errorf("Count = %d, want 2", e.Count)
	}
	if e.Sources&SourceTag == 0 || e.Sources&SourceBracket == 0 {
		t.Errorf("Sources = %v", e.Sources)
	}
	if tx.EdgeCount() != 1 {
		t.Errorf("EdgeCount = %d, want 1", tx.EdgeCount())
	}
}

func TestRemoveIsA(t *testing.T) {
	tx := New()
	mustAdd(t, tx, "a", "b", SourceTag)
	if !tx.RemoveIsA("a", "b") {
		t.Error("RemoveIsA returned false")
	}
	if tx.RemoveIsA("a", "b") {
		t.Error("second RemoveIsA returned true")
	}
	if tx.HasIsA("a", "b") || len(tx.Hypernyms("a")) != 0 || len(tx.Hyponyms("b", 0)) != 0 {
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
	if !tx.RemoveIsA("实体甲", "概念") {
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
	if !tx.RemoveIsA("实体甲", "男演员") {
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
		if !tx.RemoveIsA(hypo, hyper) {
			t.Fatalf("batch %d: RemoveIsA returned false", batch)
		}
		if got := tx.ComputeStats().Concepts; got != base.Concepts {
			t.Fatalf("batch %d: Concepts drifted to %d, want %d", batch, got, base.Concepts)
		}
	}
}

func TestAncestorsBFS(t *testing.T) {
	tx := New()
	mustAdd(t, tx, "男演员", "演员", SourceMorph)
	mustAdd(t, tx, "演员", "人物", SourceTag)
	mustAdd(t, tx, "刘德华", "男演员", SourceBracket)
	anc := tx.Ancestors("刘德华")
	want := map[string]bool{"男演员": true, "演员": true, "人物": true}
	if len(anc) != len(want) {
		t.Fatalf("Ancestors = %v", anc)
	}
	for _, a := range anc {
		if !want[a] {
			t.Fatalf("unexpected ancestor %q", a)
		}
	}
	if !tx.IsAncestor("刘德华", "人物") {
		t.Error("IsAncestor transitive = false")
	}
	if tx.IsAncestor("人物", "刘德华") {
		t.Error("IsAncestor inverted = true")
	}
}

func TestAncestorsToleratesCycle(t *testing.T) {
	tx := New()
	mustAdd(t, tx, "a", "b", SourceTag)
	mustAdd(t, tx, "b", "a", SourceTag)
	anc := tx.Ancestors("a")
	if len(anc) != 2 { // b then a-again excluded? a is start: seen
		// b and a reachable; a excluded as start.
		if len(anc) != 1 {
			t.Fatalf("Ancestors with cycle = %v", anc)
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

func TestJSONRoundTrip(t *testing.T) {
	tx := New()
	tx.MarkEntity("刘德华")
	mustAdd(t, tx, "刘德华", "演员", SourceBracket)
	mustAdd(t, tx, "刘德华", "演员", SourceTag) // count 2
	mustAdd(t, tx, "男演员", "演员", SourceMorph)
	var buf bytes.Buffer
	if err := tx.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if got.EdgeCount() != tx.EdgeCount() {
		t.Fatalf("edges = %d, want %d", got.EdgeCount(), tx.EdgeCount())
	}
	e, _ := got.EdgeOf("刘德华", "演员")
	if e.Count != 2 || e.Sources != SourceBracket|SourceTag {
		t.Errorf("edge lost detail: %+v", e)
	}
	if got.Kind("刘德华") != KindEntity {
		t.Error("kind lost in round trip")
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString("nope")); err == nil {
		t.Fatal("ReadJSON accepted garbage")
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
				_ = tx.AddIsA(name+"实体", "概念", SourceTag, 1)
				_ = tx.Hypernyms(name + "实体")
				_ = tx.Hyponyms("概念", 10)
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
			if err := tx.AddIsA(hypo, hyper, SourceTag, 1); err != nil {
				return false
			}
		}
		for _, n := range tx.Nodes() {
			for _, h := range tx.Hypernyms(n) {
				found := false
				for _, back := range tx.Hyponyms(h, 0) {
					if back == n {
						found = true
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func mustAdd(t *testing.T, tx *Taxonomy, hypo, hyper string, src Source) {
	t.Helper()
	if err := tx.AddIsA(hypo, hyper, src, 1); err != nil {
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
				if err := tx.AddIsA(hypo, hyper, SourceTag, 1); err != nil {
					t.Errorf("AddIsA: %v", err)
					return
				}
				tx.MarkEntity(hypo)
				if i%7 == 0 {
					// Second edge: hypernym of a hypernym.
					_ = tx.AddIsA(hyper, fmt.Sprintf("上位%d", i%3), SourceSubsume, 0.5)
				}
				if i%11 == 0 {
					tx.RemoveIsA(hypo, hyper)
				}
			}
		}(g)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				_ = tx.Hypernyms(fmt.Sprintf("实体%d_%d", g, i))
				_ = tx.Hyponyms(fmt.Sprintf("概念%d", i%13), 10)
				_ = tx.Ancestors(fmt.Sprintf("实体%d_%d", g%writers, i))
				_ = tx.RankedHypernyms(fmt.Sprintf("实体%d_%d", g, i), 3)
				if i%29 == 0 {
					_ = tx.ComputeStats()
					_ = tx.EdgeCount()
				}
				if i%53 == 0 {
					_ = tx.Edges()
					_ = tx.Nodes()
				}
			}
		}(g)
	}
	wg.Wait()

	// Index invariant after the storm: every hypernym entry has its
	// reverse hyponym entry.
	for _, n := range tx.Nodes() {
		for _, h := range tx.Hypernyms(n) {
			found := false
			for _, back := range tx.Hyponyms(h, 0) {
				if back == n {
					found = true
				}
			}
			if !found {
				t.Fatalf("missing reverse index: %q isA %q", n, h)
			}
		}
	}
}

// TestFinalizeCanonicalizesAndCaches checks that adjacency is read in
// canonical order — before Finalize as much as after it: the store no
// longer caches a merged index for Finalize to build — and that a
// subsequent write is visible at once.
func TestFinalizeCanonicalizesAndCaches(t *testing.T) {
	tx := New()
	// Insert out of lexicographic order.
	mustAdd(t, tx, "甲", "丙概念", SourceTag)
	mustAdd(t, tx, "甲", "乙概念", SourceTag)
	mustAdd(t, tx, "戊", "乙概念", SourceTag)
	mustAdd(t, tx, "丁", "乙概念", SourceTag)
	if hs := tx.Hypernyms("甲"); len(hs) != 2 || hs[0] != "丙概念" {
		t.Fatalf("hypernyms not canonical before Finalize: %v", hs)
	}
	tx.Finalize()
	hs := tx.Hypernyms("甲")
	if len(hs) != 2 || hs[0] != "丙概念" || hs[1] != "乙概念" { // 丙 U+4E19 < 乙 U+4E59
		t.Fatalf("hypernyms not canonical: %v", hs)
	}
	hypos := tx.Hyponyms("乙概念", 0)
	if len(hypos) != 3 || hypos[0] != "丁" || hypos[1] != "戊" || hypos[2] != "甲" {
		t.Fatalf("hyponyms not canonical: %v", hypos)
	}
	stats := tx.ComputeStats()
	if stats.IsARelations != 4 {
		t.Fatalf("stats = %+v", stats)
	}
	// Queries see a later write immediately.
	mustAdd(t, tx, "己", "乙概念", SourceTag)
	if got := tx.ComputeStats().IsARelations; got != 5 {
		t.Fatalf("stats after a write = %d, want 5", got)
	}
	if got := len(tx.Nodes()); got != 6 {
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
	if !tx.RemoveIsA("甲", "概念") {
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
	if !tx.RemoveIsA("乙", "概念") {
		t.Fatal("second RemoveIsA returned false")
	}
	if got := tx.ComputeStats().NodesWithHypernym; got != 0 {
		t.Errorf("NodesWithHypernym after removing all = %d, want 0", got)
	}
}
