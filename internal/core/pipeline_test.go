package core

import (
	"testing"

	"cnprobase/internal/eval"
	"cnprobase/internal/extract"
	"cnprobase/internal/synth"
	"cnprobase/internal/taxonomy"
)

// buildSmallWorld generates a compact world for pipeline tests.
func buildSmallWorld(t testing.TB, entities int) *synth.World {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Entities = entities
	w, err := synth.Generate(cfg)
	if err != nil {
		t.Fatalf("synth.Generate: %v", err)
	}
	return w
}

func testOptions() Options {
	o := DefaultOptions()
	o.NeuralEpochs = 1
	o.NeuralMaxSamples = 300
	o.Neural.Vocab = 400
	return o
}

func TestPipelineEndToEnd(t *testing.T) {
	w := buildSmallWorld(t, 1200)
	res, err := New(testOptions()).Build(w.Corpus())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	st := res.Report.Stats
	if st.Entities == 0 || st.Concepts == 0 || st.IsARelations == 0 {
		t.Fatalf("empty taxonomy: %+v", st)
	}
	oracle := w.Oracle()
	pr := eval.SamplePrecision(eval.EdgePairs(res.Taxonomy.Edges(), 0), oracle, 2000, 1)
	t.Logf("stats=%+v precision=%.3f (sampled %d)", st, pr.Precision(), pr.Sampled)
	t.Logf("verification=%+v", res.Report.Verification)
	t.Logf("selected predicates=%v", res.Report.SelectedPredicates)
	for src, sr := range res.Report.PerSource {
		prSrc := eval.SamplePrecision(candPairs(res.Names(), res.Kept, src), oracle, 0, 1)
		t.Logf("source %v: generated=%d kept=%d precision=%.3f", src, sr.Generated, sr.Kept, prSrc.Precision())
	}
	if pr.Precision() < 0.85 {
		t.Errorf("taxonomy precision %.3f below 0.85 band", pr.Precision())
	}
}

func candPairs(names []string, cands []extract.Candidate, src taxonomy.Source) []eval.Pair {
	var out []eval.Pair
	for _, c := range cands {
		if src == 0 || c.Source&src != 0 {
			out = append(out, eval.Pair{Hypo: names[c.Hypo], Hyper: names[c.Hyper]})
		}
	}
	return out
}
