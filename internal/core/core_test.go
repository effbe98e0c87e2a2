package core

import (
	"strings"
	"testing"

	"cnprobase/internal/taxonomy"
)

func TestBuildRejectsEmptyCorpus(t *testing.T) {
	if _, err := New(DefaultOptions()).Build(nil); err == nil {
		t.Fatal("nil corpus accepted")
	}
}

func fastOptions() Options {
	o := DefaultOptions()
	o.EnableNeural = false // the slow stage; covered separately
	return o
}

func TestSourceToggles(t *testing.T) {
	w := buildSmallWorld(t, 600)
	run := func(mutate func(*Options)) *Result {
		o := fastOptions()
		mutate(&o)
		res, err := New(o).Build(w.Corpus())
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return res
	}
	full := run(func(*Options) {})
	noTags := run(func(o *Options) { o.EnableTags = false })
	noBracket := run(func(o *Options) { o.EnableBracket = false })

	if full.Report.PerSource[taxonomy.SourceTag] == nil {
		t.Fatal("full run missing tag source report")
	}
	if noTags.Report.PerSource[taxonomy.SourceTag] != nil {
		t.Error("tags disabled but tag candidates produced")
	}
	if noTags.Taxonomy.ComputeStats().IsARelations >= full.Taxonomy.ComputeStats().IsARelations {
		t.Error("disabling tags should shrink the taxonomy")
	}
	if noBracket.Report.PerSource[taxonomy.SourceBracket] != nil {
		t.Error("bracket disabled but bracket candidates produced")
	}
	// Without the bracket prior, predicate discovery has nothing to
	// align and selects nothing.
	if len(noBracket.Report.SelectedPredicates) != 0 {
		t.Errorf("predicates selected without prior: %v", noBracket.Report.SelectedPredicates)
	}
}

func TestSubconceptDerivation(t *testing.T) {
	w := buildSmallWorld(t, 1200)
	o := fastOptions()
	res, err := New(o).Build(w.Corpus())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if res.Report.DerivedSubconcepts == 0 {
		t.Fatal("no subconcept edges derived")
	}
	st := res.Report.Stats
	if st.SubConceptIsA == 0 {
		t.Fatalf("stats show no subconcept edges: %+v", st)
	}
	// The morphological rule must produce 男演员 → 演员 whenever both
	// concepts were extracted.
	if v := res.Freeze(); len(v.Hyponyms("男演员", 0)) > 0 && len(v.Hyponyms("演员", 0)) > 0 {
		if _, ok := res.Taxonomy.EdgeOf("男演员", "演员"); !ok {
			t.Error("missing derived edge 男演员 → 演员")
		}
	}
	// Derived edges judged by the oracle should be mostly correct.
	oracle := w.Oracle()
	correct, total := 0, 0
	for _, e := range res.Taxonomy.Edges() {
		if e.Sources&(taxonomy.SourceMorph|taxonomy.SourceSubsume) != 0 {
			total++
			if oracle.Judge(e.Hypo, e.Hyper) {
				correct++
			}
		}
	}
	if total == 0 {
		t.Fatal("no derived edges found")
	}
	if p := float64(correct) / float64(total); p < 0.7 {
		t.Errorf("derived subconcept precision = %.3f (%d/%d), want ≥0.7", p, correct, total)
	}

	off := fastOptions()
	off.DeriveSubconcepts = false
	res2, err := New(off).Build(w.Corpus())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if res2.Report.DerivedSubconcepts != 0 || res2.Report.Stats.SubConceptIsA != 0 {
		t.Errorf("derivation disabled but edges present: %+v", res2.Report.Stats)
	}
}

func TestVerificationImprovesPrecision(t *testing.T) {
	w := buildSmallWorld(t, 1200)
	oracle := w.Oracle()

	on := fastOptions()
	off := fastOptions()
	off.Verify.EnableIncompatible = false
	off.Verify.EnableNE = false
	off.Verify.EnableSyntax = false

	resOn, err := New(on).Build(w.Corpus())
	if err != nil {
		t.Fatal(err)
	}
	resOff, err := New(off).Build(w.Corpus())
	if err != nil {
		t.Fatal(err)
	}
	pOn := sampledPrecision(resOn.Taxonomy, oracle)
	pOff := sampledPrecision(resOff.Taxonomy, oracle)
	if pOn <= pOff {
		t.Errorf("verification should improve precision: on=%.3f off=%.3f", pOn, pOff)
	}
	if pOn-pOff < 0.05 {
		t.Errorf("verification gain %.3f too small; filters inert?", pOn-pOff)
	}
	if resOff.Taxonomy.ComputeStats().IsARelations <= resOn.Taxonomy.ComputeStats().IsARelations {
		t.Error("verification should remove edges")
	}
}

func sampledPrecision(tx *taxonomy.Taxonomy, judge interface{ Judge(a, b string) bool }) float64 {
	edges := tx.Edges()
	correct, n := 0, 0
	for i, e := range edges {
		if i%3 != 0 { // stride sample for speed
			continue
		}
		n++
		if judge.Judge(e.Hypo, e.Hyper) {
			correct++
		}
	}
	if n == 0 {
		return 1
	}
	return float64(correct) / float64(n)
}

func TestMentionIndexBuilt(t *testing.T) {
	w := buildSmallWorld(t, 800)
	res, err := New(fastOptions()).Build(w.Corpus())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mentions) == 0 {
		t.Fatal("no mention pairs")
	}
	// Every page title must resolve to its entity.
	p := w.Corpus().Pages[0]
	v := res.Freeze()
	ids := v.Lookup(p.Title)
	found := false
	for _, id := range ids {
		if id == p.ID() {
			found = true
		}
	}
	if !found {
		t.Errorf("Lookup(%q) = %v, missing %q", p.Title, ids, p.ID())
	}
	// Aliases from 别名 triples resolve too.
	for _, page := range w.Corpus().Pages {
		for _, tr := range page.Infobox {
			if tr.Predicate == "别名" {
				if len(v.Lookup(tr.Object)) == 0 {
					t.Errorf("alias %q not indexed", tr.Object)
				}
				return
			}
		}
	}
}

func TestReportAccounting(t *testing.T) {
	w := buildSmallWorld(t, 600)
	res, err := New(fastOptions()).Build(w.Corpus())
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.Pages != w.Corpus().Len() {
		t.Errorf("Pages = %d, want %d", rep.Pages, w.Corpus().Len())
	}
	if rep.Verification.Input != len(res.Candidates) {
		t.Errorf("verification input %d != candidates %d", rep.Verification.Input, len(res.Candidates))
	}
	if rep.Verification.Kept != len(res.Kept) {
		t.Errorf("verification kept %d != kept %d", rep.Verification.Kept, len(res.Kept))
	}
	for src, sr := range rep.PerSource {
		if sr.Kept > sr.Generated {
			t.Errorf("source %v kept %d > generated %d", src, sr.Kept, sr.Generated)
		}
	}
	for _, p := range rep.SelectedPredicates {
		if strings.TrimSpace(p) == "" {
			t.Error("empty selected predicate")
		}
	}
}

func TestTaxonomyMarksKinds(t *testing.T) {
	w := buildSmallWorld(t, 500)
	res, err := New(fastOptions()).Build(w.Corpus())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range w.Corpus().Pages[:10] {
		if res.Taxonomy.Kind(p.ID()) != taxonomy.KindEntity {
			t.Errorf("page %q not marked entity", p.ID())
		}
	}
}
