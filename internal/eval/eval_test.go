package eval

import (
	"strings"
	"testing"

	"cnprobase/internal/taxonomy"
)

// mapJudge judges pairs from a fixed set.
type mapJudge map[string]bool

func (m mapJudge) Judge(hypo, hyper string) bool { return m[hypo+"|"+hyper] }

func TestSamplePrecisionWholePopulation(t *testing.T) {
	judge := mapJudge{"a|x": true, "b|x": true}
	pairs := []Pair{{"a", "x"}, {"b", "x"}, {"c", "x"}, {"d", "x"}}
	res := SamplePrecision(pairs, judge, 0, 1)
	if res.Sampled != 4 || res.Correct != 2 {
		t.Fatalf("res = %+v", res)
	}
	if res.Precision() != 0.5 {
		t.Errorf("Precision = %v, want 0.5", res.Precision())
	}
}

func TestSamplePrecisionSampling(t *testing.T) {
	judge := mapJudge{}
	var pairs []Pair
	for i := 0; i < 100; i++ {
		pairs = append(pairs, Pair{Hypo: "h", Hyper: "x"})
	}
	res := SamplePrecision(pairs, judge, 10, 1)
	if res.Sampled != 10 {
		t.Errorf("Sampled = %d, want 10", res.Sampled)
	}
	if res.Population != 100 {
		t.Errorf("Population = %d, want 100", res.Population)
	}
	// Deterministic under the same seed.
	res2 := SamplePrecision(pairs, judge, 10, 1)
	if res2.Sampled != res.Sampled || res2.Correct != res.Correct {
		t.Error("sampling not deterministic under fixed seed")
	}
}

func TestSamplePrecisionEmpty(t *testing.T) {
	res := SamplePrecision(nil, mapJudge{}, 100, 1)
	if res.Sampled != 0 || res.Precision() != 1 {
		t.Errorf("empty population: %+v precision %v", res, res.Precision())
	}
}

func TestEdgePairsSourceFilter(t *testing.T) {
	tx := taxonomy.New()
	if err := tx.AddIsA("a", "b", taxonomy.SourceBracket); err != nil {
		t.Fatal(err)
	}
	if err := tx.AddIsA("a", "c", taxonomy.SourceTag); err != nil {
		t.Fatal(err)
	}
	all := EdgePairs(tx.Edges(), 0)
	if len(all) != 2 {
		t.Fatalf("EdgePairs all = %v", all)
	}
	brackets := EdgePairs(tx.Edges(), taxonomy.SourceBracket)
	if len(brackets) != 1 || brackets[0].Hyper != "b" {
		t.Fatalf("EdgePairs bracket = %v", brackets)
	}
}

func TestRowForAndFormat(t *testing.T) {
	tx := taxonomy.New()
	tx.MarkEntity("e")
	if err := tx.AddIsA("e", "c", taxonomy.SourceTag); err != nil {
		t.Fatal(err)
	}
	row := RowFor("测试", tx, mapJudge{"e|c": true}, 0, 1)
	if row.Entities != 1 || row.Concepts != 1 || row.IsA != 1 || row.Precision != 1 {
		t.Fatalf("row = %+v", row)
	}
	out := FormatTable1([]TableRow{row})
	if !strings.Contains(out, "测试") || !strings.Contains(out, "100.0%") {
		t.Errorf("FormatTable1 output:\n%s", out)
	}
	if !strings.Contains(out, "# isA relations") {
		t.Errorf("header missing:\n%s", out)
	}
}
