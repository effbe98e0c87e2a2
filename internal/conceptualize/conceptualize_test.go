package conceptualize

import (
	"testing"

	"cnprobase/internal/taxonomy"
)

// fixture: ambiguous 刘德华 (actor sense with strong evidence, writer
// sense) plus an unambiguous song. An edge's evidence is the number of
// sources that generated it.
func fixture(t *testing.T) *taxonomy.Taxonomy {
	t.Helper()
	tx := taxonomy.New()
	add := func(hypo, hyper string, n int) {
		for _, src := range []taxonomy.Source{taxonomy.SourceTag, taxonomy.SourceBracket, taxonomy.SourceInfobox}[:n] {
			if err := tx.AddIsA(hypo, hyper, src); err != nil {
				t.Fatal(err)
			}
		}
	}
	tx.MarkEntity("刘德华（演员）")
	tx.MarkEntity("刘德华（作家）")
	tx.MarkEntity("忘情水")
	add("刘德华（演员）", "演员", 3)
	add("刘德华（演员）", "歌手", 2)
	add("刘德华（作家）", "作家", 1)
	add("忘情水", "歌曲", 2)
	add("忘情水", "作品", 1)

	tx.AddMention("刘德华", "刘德华（演员）")
	tx.AddMention("刘德华", "刘德华（作家）")
	tx.AddMention("忘情水", "忘情水")
	return tx
}

func TestConceptualizeBasic(t *testing.T) {
	tx := fixture(t)
	e := NewView(viewOf(t, tx))
	res := e.Conceptualize("刘德华演唱了忘情水。")
	if !res.Covered() {
		t.Fatal("text not covered")
	}
	if len(res.Mentions) != 2 {
		t.Fatalf("mentions = %+v", res.Mentions)
	}
	if len(res.Concepts) == 0 {
		t.Fatal("no aggregated concepts")
	}
	// Concept scores normalize to 1.
	sum := 0.0
	for _, c := range res.Concepts {
		sum += c.Score
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("concept vector sums to %v", sum)
	}
}

func TestDisambiguationPrefersStrongerSense(t *testing.T) {
	tx := fixture(t)
	e := NewView(viewOf(t, tx))
	res := e.Conceptualize("刘德华")
	if len(res.Mentions) != 1 {
		t.Fatalf("mentions = %+v", res.Mentions)
	}
	got := res.Mentions[0]
	if got.Candidates != 2 {
		t.Errorf("candidates = %d, want 2", got.Candidates)
	}
	if got.Entity != "刘德华（演员）" {
		t.Errorf("resolved to %q, want the higher-evidence actor sense", got.Entity)
	}
}

func TestUncoveredText(t *testing.T) {
	tx := fixture(t)
	e := NewView(viewOf(t, tx))
	res := e.Conceptualize("今天天气怎么样？")
	if res.Covered() || len(res.Concepts) != 0 {
		t.Errorf("distractor conceptualized: %+v", res)
	}
}

func TestMaxConceptsPerEntity(t *testing.T) {
	tx := fixture(t)
	e := NewView(viewOf(t, tx))
	e.MaxConceptsPerEntity = 1
	res := e.Conceptualize("刘德华")
	if len(res.Mentions[0].Concepts) != 1 {
		t.Errorf("concepts = %v, want 1", res.Mentions[0].Concepts)
	}
	if res.Mentions[0].Concepts[0].Node != "演员" {
		t.Errorf("top concept = %q, want most typical 演员", res.Mentions[0].Concepts[0].Node)
	}
}
