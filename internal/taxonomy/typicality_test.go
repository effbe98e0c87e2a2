package taxonomy_test

import (
	"math"
	"testing"

	"cnprobase/internal/serving"
)

// buildTypicality compiles: 刘德华 isA 演员 (count 3: three generation
// events), 刘德华 isA 歌手 (count 1); 张学友 isA 歌手 (count 1).
func buildTypicality(t *testing.T) *serving.View {
	t.Helper()
	return viewOf(t, [][2]string{
		{"刘德华", "演员"}, {"刘德华", "演员"}, {"刘德华", "演员"},
		{"刘德华", "歌手"}, {"张学友", "歌手"},
	}, "刘德华", "张学友")
}

func TestTypicalityOfConcept(t *testing.T) {
	v := buildTypicality(t)
	if got := v.TypicalityOfConcept("刘德华", "演员"); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("P(演员|刘德华) = %v, want 0.75", got)
	}
	if got := v.TypicalityOfConcept("刘德华", "歌手"); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("P(歌手|刘德华) = %v, want 0.25", got)
	}
	if got := v.TypicalityOfConcept("刘德华", "导演"); got != 0 {
		t.Errorf("absent edge typicality = %v, want 0", got)
	}
}

func TestTypicalityOfInstance(t *testing.T) {
	v := buildTypicality(t)
	// 歌手 has two instances with count 1 each.
	if got := v.TypicalityOfInstance("歌手", "刘德华"); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("P(刘德华|歌手) = %v, want 0.5", got)
	}
	if got := v.TypicalityOfInstance("演员", "刘德华"); got != 1 {
		t.Errorf("P(刘德华|演员) = %v, want 1", got)
	}
}

func TestRankedHypernyms(t *testing.T) {
	v := buildTypicality(t)
	ranked := v.RankedHypernymsAppend(nil, "刘德华", 0)
	if len(ranked) != 2 || ranked[0].Node != "演员" || ranked[1].Node != "歌手" {
		t.Fatalf("ranked = %v, want 演员 then 歌手", ranked)
	}
	if got := v.RankedHypernymsAppend(nil, "刘德华", 1); len(got) != 1 {
		t.Errorf("limit ignored: %v", got)
	}
	if got := v.RankedHypernymsAppend(nil, "无人", 0); len(got) != 0 {
		t.Errorf("unknown node ranked = %v", got)
	}
}

func TestRankedHyponyms(t *testing.T) {
	ranked := buildTypicality(t).RankedHyponymsAppend(nil, "歌手", 0)
	// Equal scores break ties lexicographically.
	if len(ranked) != 2 || ranked[0].Node > ranked[1].Node {
		t.Errorf("ranked = %v, want the tie broken by name", ranked)
	}
}

func TestProbabilitiesSumToOne(t *testing.T) {
	v := buildTypicality(t)
	sum := 0.0
	for _, s := range v.RankedHypernymsAppend(nil, "刘德华", 0) {
		sum += s.Score
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("P(c|e) sums to %v, want 1", sum)
	}
	sum = 0
	for _, s := range v.RankedHyponymsAppend(nil, "歌手", 0) {
		sum += s.Score
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("P(e|c) sums to %v, want 1", sum)
	}
}
