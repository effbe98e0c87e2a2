package taxonomy_test

import (
	"math"
	"testing"

	"cnprobase/internal/serving"
	"cnprobase/internal/serving/servingtest"
	"cnprobase/internal/taxonomy"
)

// buildTypicality compiles: 刘德华 isA 演员 (count 3: three sources,
// one of them twice), 刘德华 isA 歌手 (count 1); 张学友 isA 歌手 (count 1).
func buildTypicality(t *testing.T) *serving.View {
	t.Helper()
	tx := taxonomy.New()
	tx.MarkEntity("刘德华")
	tx.MarkEntity("张学友")
	for _, e := range []struct {
		hypo, hyper string
		src         taxonomy.Source
	}{
		{"刘德华", "演员", taxonomy.SourceTag}, {"刘德华", "演员", taxonomy.SourceBracket},
		{"刘德华", "演员", taxonomy.SourceTag}, {"刘德华", "演员", taxonomy.SourceInfobox},
		{"刘德华", "歌手", taxonomy.SourceTag}, {"张学友", "歌手", taxonomy.SourceTag},
	} {
		if err := tx.AddIsA(e.hypo, e.hyper, e.src); err != nil {
			t.Fatal(err)
		}
	}
	return serving.Compile(tx)
}

// TestTypicalityOfConcept reads P(concept | entity) — an edge's
// evidence count (its number of sources) over the entity's total — by
// rank, as
// getConcept?ranked=1 and conceptualization do.
func TestTypicalityOfConcept(t *testing.T) {
	v := buildTypicality(t)
	id, _ := v.ID("刘德华", 0)
	for r, want := range []taxonomy.Scored{{Node: "演员", Score: 0.75}, {Node: "歌手", Score: 0.25}} {
		h, got := v.RankedHypernymAt(id, r)
		if v.Name(h) != want.Node || math.Abs(got-want.Score) > 1e-12 {
			t.Errorf("rank %d: P(%s|刘德华) = %v, want P(%s|刘德华) = %v", r, v.Name(h), got, want.Node, want.Score)
		}
	}
	if got := v.EvidenceTotalOf(id); got != 4 {
		t.Errorf("evidence total of 刘德华 = %d, want 4", got)
	}
}

func TestRankedHypernyms(t *testing.T) {
	v := buildTypicality(t)
	ranked := servingtest.RankedHypernyms(v, "刘德华", 0)
	if len(ranked) != 2 || ranked[0].Node != "演员" || ranked[1].Node != "歌手" {
		t.Fatalf("ranked = %v, want 演员 then 歌手", ranked)
	}
	// Equal counts break ties by name, which is ID order.
	tied := viewOf(t, [][2]string{{"张学友", "歌手"}, {"张学友", "演员"}})
	if got := servingtest.RankedHypernyms(tied, "张学友", 0); len(got) != 2 || got[0].Node != "歌手" || got[1].Node != "演员" {
		t.Errorf("tied ranking = %v, want 歌手 (U+6B4C) before 演员 (U+6F14)", got)
	}
}

func TestProbabilitiesSumToOne(t *testing.T) {
	v := buildTypicality(t)
	for _, n := range []string{"刘德华", "张学友"} {
		sum := 0.0
		for _, s := range servingtest.RankedHypernyms(v, n, 0) {
			sum += s.Score
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("P(c|%s) sums to %v, want 1", n, sum)
		}
	}
}
