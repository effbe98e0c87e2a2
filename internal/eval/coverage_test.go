package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"cnprobase/internal/serving"
	"cnprobase/internal/taxonomy"
)

type truthMap map[string][]string

func (m truthMap) TruthHypernyms(id string) []string { return m[id] }

func TestCoverage(t *testing.T) {
	tx := taxonomy.New()
	add := func(a, b string) {
		if err := tx.AddIsA(a, b, taxonomy.SourceTag); err != nil {
			t.Fatal(err)
		}
	}
	add("甲", "演员")
	add("演员", "人物") // gives 甲 → 人物 transitively
	add("乙", "错误概念")

	truth := truthMap{
		"甲": {"演员", "人物"},
		"乙": {"歌手"},
		"丙": {"城市"},
	}
	res := CoverageOf(serving.Compile(tx), truth, []string{"甲", "乙", "丙"})
	if res.Entities != 3 {
		t.Fatalf("Entities = %d", res.Entities)
	}
	if res.EntitiesCovered != 1 {
		t.Errorf("EntitiesCovered = %d, want 1 (only 甲)", res.EntitiesCovered)
	}
	if res.TruthPairs != 4 {
		t.Errorf("TruthPairs = %d, want 4", res.TruthPairs)
	}
	// 甲→演员 direct, 甲→人物 via ancestors.
	if res.PairsRecovered != 2 {
		t.Errorf("PairsRecovered = %d, want 2", res.PairsRecovered)
	}
	if res.EntityCoverage() < 0.33 || res.EntityCoverage() > 0.34 {
		t.Errorf("EntityCoverage = %v", res.EntityCoverage())
	}
	if res.PairRecall() != 0.5 {
		t.Errorf("PairRecall = %v, want 0.5", res.PairRecall())
	}
}

// TestCoverageOfViewMatchesStore holds the view-based measure to the
// taxonomy's own reachability test on a random graph: a truth pair
// counts exactly when the taxonomy says the hypernym is reachable.
func TestCoverageOfViewMatchesStore(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tx := taxonomy.New()
	truth := truthMap{}
	var ids []string
	for i := 0; i < 200; i++ {
		a, b := fmt.Sprintf("节点%02d", rng.Intn(40)), fmt.Sprintf("节点%02d", rng.Intn(40))
		_ = tx.AddIsA(a, b, taxonomy.SourceTag)
		truth[a] = append(truth[a], fmt.Sprintf("节点%02d", rng.Intn(40)))
	}
	var want CoverageResult
	for id, hypers := range truth {
		ids = append(ids, id)
		want.Entities++
		covered := false
		for _, h := range hypers {
			want.TruthPairs++
			a, ok := tx.Symbols().Lookup(id)
			b, ok2 := tx.Symbols().Lookup(h)
			if ok && ok2 && tx.IsAncestor(a, b) {
				want.PairsRecovered++
				covered = true
			}
		}
		if covered {
			want.EntitiesCovered++
		}
	}
	if got := CoverageOf(serving.Compile(tx), truth, ids); got != want || want.PairsRecovered == 0 {
		t.Errorf("view coverage = %+v, store reachability gives %+v", got, want)
	}
}

func TestCoverageEmpty(t *testing.T) {
	res := CoverageOf(serving.Compile(taxonomy.New()), truthMap{}, nil)
	if res.EntityCoverage() != 0 || res.PairRecall() != 0 {
		t.Errorf("empty coverage: %+v", res)
	}
}
