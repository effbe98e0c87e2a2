package baselines

import (
	"testing"

	"cnprobase/internal/eval"
	"cnprobase/internal/serving"
	"cnprobase/internal/synth"
	"cnprobase/internal/taxonomy"
)

func testWorld(t testing.TB) *synth.World {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Entities = 1500
	w, err := synth.Generate(cfg)
	if err != nil {
		t.Fatalf("synth.Generate: %v", err)
	}
	return w
}

func precisionOf(tx *taxonomy.Taxonomy, o *synth.Oracle) float64 {
	return eval.SamplePrecision(eval.EdgePairs(tx.Edges(), 0), o, 2000, 1).Precision()
}

func TestWikiTaxonomyHighPrecisionLowCoverage(t *testing.T) {
	w := testWorld(t)
	o := w.Oracle()
	wiki := BuildWikiTaxonomy(w.Corpus(), DefaultWikiTaxonomyConfig())
	big := BuildBigcilin(w.Corpus(), DefaultBigcilinConfig())

	pw, pb := precisionOf(wiki, o), precisionOf(big, o)
	if pw < 0.93 {
		t.Errorf("WikiTaxonomy precision = %.3f, want ≥0.93", pw)
	}
	if pw <= pb {
		t.Errorf("WikiTaxonomy precision %.3f should exceed Bigcilin %.3f", pw, pb)
	}
	if wiki.ComputeStats().IsARelations*3 > big.ComputeStats().IsARelations {
		t.Errorf("WikiTaxonomy isA=%d should be far below Bigcilin=%d", wiki.ComputeStats().IsARelations, big.ComputeStats().IsARelations)
	}
}

func TestWikiTaxonomySubsampleScaling(t *testing.T) {
	w := testWorld(t)
	small := BuildWikiTaxonomy(w.Corpus(), WikiTaxonomyConfig{SubsampleRate: 0.05, MinTagCount: 2, Seed: 1})
	large := BuildWikiTaxonomy(w.Corpus(), WikiTaxonomyConfig{SubsampleRate: 0.5, MinTagCount: 2, Seed: 1})
	if small.ComputeStats().IsARelations >= large.ComputeStats().IsARelations {
		t.Errorf("subsample 0.05 (%d edges) should be smaller than 0.5 (%d)",
			small.ComputeStats().IsARelations, large.ComputeStats().IsARelations)
	}
}

func TestBigcilinBand(t *testing.T) {
	w := testWorld(t)
	o := w.Oracle()
	big := BuildBigcilin(w.Corpus(), DefaultBigcilinConfig())
	p := precisionOf(big, o)
	// The paper's band: around 90%, clearly below CN-Probase's 95%.
	if p < 0.82 || p > 0.97 {
		t.Errorf("Bigcilin precision = %.3f, want within (0.82, 0.97)", p)
	}
	st := big.ComputeStats()
	if st.Entities == 0 || st.Concepts == 0 {
		t.Errorf("Bigcilin empty: %+v", st)
	}
}

func TestProbaseTranWorstPrecision(t *testing.T) {
	w := testWorld(t)
	o := w.Oracle()
	tran, rep := BuildProbaseTran(w, DefaultProbaseTranConfig())
	if rep.EnglishPairs == 0 || rep.Translated == 0 {
		t.Fatalf("translation pipeline empty: %+v", rep)
	}
	p := precisionOf(tran, o)
	if p > 0.75 {
		t.Errorf("Probase-Tran precision = %.3f; translation should be clearly lossy", p)
	}
	wiki := BuildWikiTaxonomy(w.Corpus(), DefaultWikiTaxonomyConfig())
	if pw := precisionOf(wiki, o); p >= pw {
		t.Errorf("Probase-Tran %.3f should be far below WikiTaxonomy %.3f", p, pw)
	}
}

func TestProbaseTranFiltersImprovePrecision(t *testing.T) {
	w := testWorld(t)
	o := w.Oracle()
	on := DefaultProbaseTranConfig()
	off := on
	off.FilterMeaning = false
	off.FilterTransitivity = false
	off.FilterPOS = false
	withFilters, _ := BuildProbaseTran(w, on)
	withoutFilters, _ := BuildProbaseTran(w, off)
	pOn, pOff := precisionOf(withFilters, o), precisionOf(withoutFilters, o)
	if pOn < pOff-0.02 {
		t.Errorf("filters should not hurt precision: on=%.3f off=%.3f", pOn, pOff)
	}
	if withoutFilters.ComputeStats().IsARelations < withFilters.ComputeStats().IsARelations {
		t.Errorf("filters should remove edges: on=%d off=%d",
			withFilters.ComputeStats().IsARelations, withoutFilters.ComputeStats().IsARelations)
	}
}

func TestTransliterate(t *testing.T) {
	// Canonical names round-trip; non-canonical characters produce a
	// different (wrong) name — the designed ambiguity.
	if got := transliterate("Wang Wei"); got != "王伟" {
		t.Errorf("transliterate(Wang Wei) = %q, want 王伟", got)
	}
	if got := transliterate("Zhang Ming"); got != "张明" {
		t.Errorf("transliterate(Zhang Ming) = %q, want 张明", got)
	}
	if got := transliterate("Xyzzy Foo"); got != "" {
		t.Errorf("transliterate(garbage) = %q, want empty", got)
	}
}

func TestSplitSyllables(t *testing.T) {
	got := splitSyllables("minghua")
	if len(got) != 2 || got[0] != "ming" || got[1] != "hua" {
		t.Errorf("splitSyllables(minghua) = %v", got)
	}
	if got := splitSyllables("zzz"); got != nil {
		t.Errorf("splitSyllables(zzz) = %v, want nil", got)
	}
}

func TestSuffixHypernymHelper(t *testing.T) {
	w := testWorld(t)
	big := BuildBigcilin(w.Corpus(), DefaultBigcilinConfig())
	// The naive heuristic keeps only tail words; composed hypernyms
	// like 首席战略官 should be rare or absent compared to 战略官.
	v := serving.Compile(big)
	if n, m := len(v.Hyponyms("首席战略官", 0)), len(v.Hyponyms("战略官", 0)); n > m {
		t.Errorf("suffix heuristic should favor bare heads: 首席战略官=%d 战略官=%d", n, m)
	}
}
