package qa

import (
	"strings"
	"testing"

	"cnprobase/internal/serving"
	"cnprobase/internal/synth"
	"cnprobase/internal/taxonomy"
)

func testWorld(t testing.TB) *synth.World {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Entities = 600
	w, err := synth.Generate(cfg)
	if err != nil {
		t.Fatalf("synth.Generate: %v", err)
	}
	return w
}

func TestGenerateCountAndMix(t *testing.T) {
	w := testWorld(t)
	cfg := GeneratorConfig{N: 500, DistractorRate: 0.1, Seed: 1}
	qs := Generate(w, cfg)
	if len(qs) != 500 {
		t.Fatalf("len = %d, want 500", len(qs))
	}
	distractors := 0
	for _, q := range qs {
		if q.Text == "" {
			t.Fatal("empty question")
		}
		if q.AboutEntity == "" && !strings.ContainsAny(q.Text, "？?。") {
			t.Errorf("odd question %q", q.Text)
		}
		if q.AboutEntity == "" {
			distractors++
		}
	}
	// Distractors + concept questions are both entity-less; rate must
	// be at least the configured distractor share.
	if distractors < 25 {
		t.Errorf("only %d entity-less questions", distractors)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	w := testWorld(t)
	a := Generate(w, GeneratorConfig{N: 50, DistractorRate: 0.1, Seed: 7})
	b := Generate(w, GeneratorConfig{N: 50, DistractorRate: 0.1, Seed: 7})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("question %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestEvaluateCoverage(t *testing.T) {
	// Handmade taxonomy: one entity known, plus the concept 演员.
	tax := taxonomy.New()
	tax.MarkEntity("刘德华（演员）")
	if err := tax.AddIsA("刘德华（演员）", "演员", taxonomy.SourceTag); err != nil {
		t.Fatal(err)
	}
	tax.MarkConcept("演员")
	tax.AddMention("刘德华", "刘德华（演员）")

	qs := []Question{
		{Text: "刘德华的出生地是哪里？", AboutEntity: "刘德华（演员）"}, // covered via mention
		{Text: "有哪些著名的演员？"},                           // covered via concept
		{Text: "今天天气怎么样？"},                            // uncovered
	}
	res := EvaluateSource(qs, serving.Compile(tax))
	if res.Questions != 3 || res.Covered != 2 {
		t.Fatalf("res = %+v, want 2/3 covered", res)
	}
	if res.Coverage() < 0.66 || res.Coverage() > 0.67 {
		t.Errorf("Coverage = %v", res.Coverage())
	}
	if res.AvgConceptsPerEntity != 1 {
		t.Errorf("AvgConceptsPerEntity = %v, want 1", res.AvgConceptsPerEntity)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	res := EvaluateSource(nil, serving.Compile(taxonomy.New()))
	if res.Coverage() != 0 {
		t.Errorf("empty coverage = %v", res.Coverage())
	}
}

func TestDistractorsNeverCovered(t *testing.T) {
	tax := taxonomy.New()
	var qs []Question
	for _, d := range distractors {
		qs = append(qs, Question{Text: d})
	}
	res := EvaluateSource(qs, serving.Compile(tax))
	if res.Covered != 0 {
		t.Errorf("distractors covered: %+v", res)
	}
}
