package core

import (
	"reflect"
	"testing"

	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/synth"
	"cnprobase/internal/taxonomy"
)

func TestUpdateExtendsTaxonomy(t *testing.T) {
	// Build over the first half of a world, then update with the rest.
	cfg := synth.DefaultConfig()
	cfg.Entities = 900
	w, err := synth.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	corpus := w.Corpus()
	half := corpus.Len() / 2
	first := &encyclopedia.Corpus{}
	first.Pages = append(first.Pages, corpus.Pages[:half]...)
	delta := &encyclopedia.Corpus{}
	delta.Pages = append(delta.Pages, corpus.Pages[half:]...)

	p := New(fastOptions())
	res, err := p.Build(first)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	before := res.Taxonomy.ComputeStats().IsARelations
	beforeEntities := res.Report.Stats.Entities

	updated, err := p.Update(res, delta)
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if updated.Taxonomy.ComputeStats().IsARelations <= before {
		t.Errorf("edges %d → %d; update did not grow the taxonomy", before, updated.Taxonomy.ComputeStats().IsARelations)
	}
	if updated.Report.Stats.Entities <= beforeEntities {
		t.Errorf("entities %d → %d", beforeEntities, updated.Report.Stats.Entities)
	}
	if updated.Report.Pages != corpus.Len() {
		t.Errorf("pages = %d, want %d", updated.Report.Pages, corpus.Len())
	}
	// New pages must be queryable.
	newPage := delta.Pages[0]
	if len(updated.Mentions.Lookup(newPage.Title)) == 0 {
		t.Errorf("mention %q not indexed after update", newPage.Title)
	}

	// Precision stays in band after the incremental pass.
	oracle := w.Oracle()
	if p := sampledPrecision(updated.Taxonomy, oracle); p < 0.85 {
		t.Errorf("post-update precision = %.3f, want ≥0.85", p)
	}
}

func TestUpdateIncrementalEqualsRebuildApproximately(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.Entities = 600
	w, err := synth.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	corpus := w.Corpus()
	half := corpus.Len() / 2
	first := &encyclopedia.Corpus{}
	first.Pages = append(first.Pages, corpus.Pages[:half]...)
	delta := &encyclopedia.Corpus{}
	delta.Pages = append(delta.Pages, corpus.Pages[half:]...)

	p := New(fastOptions())
	res, err := p.Build(first)
	if err != nil {
		t.Fatal(err)
	}
	updated, err := p.Update(res, delta)
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(fastOptions()).Build(corpus)
	if err != nil {
		t.Fatal(err)
	}
	// The incremental result should be within ~15% of a full rebuild
	// (statistics differ slightly: PMI accumulates in a different
	// order, predicate curation is frozen).
	ratio := float64(updated.Taxonomy.ComputeStats().IsARelations) / float64(full.Taxonomy.ComputeStats().IsARelations)
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("incremental/full edge ratio = %.3f (inc=%d full=%d)",
			ratio, updated.Taxonomy.ComputeStats().IsARelations, full.Taxonomy.ComputeStats().IsARelations)
	}
}

// TestUpdateIncrementalMatchesFullReverify pins the O(delta) update
// path against the O(total) reference: folding K batches through the
// incremental evidence (cached decisions, affected-subset
// re-verification) must produce exactly the taxonomy, mention index,
// kept set and report that full re-verification over the union
// produces at every batch.
func TestUpdateIncrementalMatchesFullReverify(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.Entities = 900
	w, err := synth.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	corpus := w.Corpus()
	slice := func(lo, hi int) *encyclopedia.Corpus {
		c := &encyclopedia.Corpus{}
		c.Pages = append(c.Pages, corpus.Pages[lo:hi]...)
		return c
	}
	const batches = 4
	chunk := corpus.Len() / (batches + 1)

	fullOpts := fastOptions()
	fullOpts.ForceFullReverify = true
	inc := New(fastOptions())
	full := New(fullOpts)
	resInc, err := inc.Build(slice(0, chunk))
	if err != nil {
		t.Fatal(err)
	}
	resFull, err := full.Build(slice(0, chunk))
	if err != nil {
		t.Fatal(err)
	}
	for b := 1; b <= batches; b++ {
		lo, hi := b*chunk, (b+1)*chunk
		if b == batches {
			hi = corpus.Len()
		}
		if _, err := inc.Update(resInc, slice(lo, hi)); err != nil {
			t.Fatalf("batch %d incremental: %v", b, err)
		}
		if _, err := full.Update(resFull, slice(lo, hi)); err != nil {
			t.Fatalf("batch %d full: %v", b, err)
		}
		if !reflect.DeepEqual(resInc.Kept, resFull.Kept) {
			t.Fatalf("batch %d: kept sets diverged (%d vs %d)", b, len(resInc.Kept), len(resFull.Kept))
		}
		if !reflect.DeepEqual(resInc.Taxonomy.Edges(), resFull.Taxonomy.Edges()) {
			t.Fatalf("batch %d: taxonomies diverged", b)
		}
		if resInc.Report.Stats != resFull.Report.Stats {
			t.Fatalf("batch %d: stats diverged: %+v vs %+v", b, resInc.Report.Stats, resFull.Report.Stats)
		}
		if !reflect.DeepEqual(resInc.Report.PerSource, resFull.Report.PerSource) {
			t.Fatalf("batch %d: per-source reports diverged", b)
		}
		ri, rf := resInc.Report.Verification, resFull.Report.Verification
		if ri.Input != rf.Input || ri.Kept != rf.Kept || ri.IncompatiblePairs != rf.IncompatiblePairs ||
			!reflect.DeepEqual(ri.Rejected, rf.Rejected) {
			t.Fatalf("batch %d: verification reports diverged: %+v vs %+v", b, ri, rf)
		}
		// The incremental pass must actually be incremental: later
		// batches re-verify a strict subset of the candidate union.
		if b == batches && ri.Reverified >= ri.Input {
			t.Errorf("batch %d reverified %d of %d candidates; expected a strict subset", b, ri.Reverified, ri.Input)
		}
	}
	// Mention indexes agree on every node of the final taxonomy.
	for _, n := range resInc.Taxonomy.ReadAll().Names {
		if a, b := resInc.Mentions.Lookup(n), resFull.Mentions.Lookup(n); !reflect.DeepEqual(a, b) {
			t.Fatalf("mention divergence on %q: %v vs %v", n, a, b)
		}
	}
}

func TestUpdateNilAndEmpty(t *testing.T) {
	p := New(fastOptions())
	if _, err := p.Update(nil, &encyclopedia.Corpus{}); err == nil {
		t.Error("Update(nil, …) accepted")
	}
	w := buildSmallWorld(t, 300)
	res, err := p.Build(w.Corpus())
	if err != nil {
		t.Fatal(err)
	}
	same, err := p.Update(res, &encyclopedia.Corpus{})
	if err != nil || same != res {
		t.Errorf("empty delta should be a no-op: %v", err)
	}
}

// TestUpdateDerivedEdgeEvidenceMatchesBuild pins that a derived
// subconcept edge is derivation evidence once: however many batches a
// crawl arrives in, an edge only the head or subsumption rule produced
// carries the sources — so the evidence count — a from-scratch Build
// of the same pages gives it. (Re-running the head rule over every
// concept each batch used to reinforce every such edge each batch, so
// typicality drifted with the number of batches ingested.)
func TestUpdateDerivedEdgeEvidenceMatchesBuild(t *testing.T) {
	w := buildSmallWorld(t, 900)
	corpus := w.Corpus()
	const batches = 5
	chunk := corpus.Len() / (batches + 1)
	p := New(fastOptions())
	res, err := p.Build(&encyclopedia.Corpus{Pages: corpus.Pages[:chunk]})
	if err != nil {
		t.Fatal(err)
	}
	for b := 1; b <= batches; b++ {
		hi := (b + 1) * chunk
		if b == batches {
			hi = corpus.Len()
		}
		if _, err := p.Update(res, &encyclopedia.Corpus{Pages: corpus.Pages[b*chunk : hi]}); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	scratch, err := New(fastOptions()).Build(corpus)
	if err != nil {
		t.Fatal(err)
	}

	const derived = taxonomy.SourceMorph | taxonomy.SourceSubsume
	compared := 0
	for _, e := range res.Taxonomy.Edges() {
		want, ok := scratch.Taxonomy.EdgeOf(e.Hypo, e.Hyper)
		if e.Sources&^derived != 0 || !ok {
			continue // generated edges
		}
		compared++
		if e.Sources != want.Sources {
			t.Errorf("%s isA %s: sources %s after %d updates, %s from scratch", e.Hypo, e.Hyper, e.Sources, batches, want.Sources)
		}
	}
	if compared < 10 {
		t.Fatalf("only %d derived-only edges in common; the world is too small to pin anything", compared)
	}
}

// TestUpdateRecrawlKeepsTypicality pins that typicality does not
// depend on how often a page arrived: after Update re-sends pages
// already built, unchanged, every node whose hypernyms and their
// sources match a from-scratch Build of the same page stream ranks
// them with the same scores over the same evidence total (the prior
// conceptualization weighs an entity's senses by). While each edge
// stored a count that every reinforcement raised, a re-sent page
// doubled the evidence of its edges.
func TestUpdateRecrawlKeepsTypicality(t *testing.T) {
	w := buildSmallWorld(t, 2000)
	pages := w.Corpus().Pages
	var resent []encyclopedia.Page
	for i := 0; i < len(pages); i += 40 {
		resent = append(resent, pages[i])
	}
	p := New(fastOptions())
	res, err := p.Build(w.Corpus())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Update(res, &encyclopedia.Corpus{Pages: resent}); err != nil {
		t.Fatal(err)
	}
	scratch, err := New(fastOptions()).Build(&encyclopedia.Corpus{Pages: append(pages[:len(pages):len(pages)], resent...)})
	if err != nil {
		t.Fatal(err)
	}
	got, want := res.Freeze(), scratch.Freeze()
	compared := 0
nodes:
	for id := uint32(0); int(id) < got.NodeCount(); id++ {
		n := got.Name(id)
		wid, ok := want.ID(n, 0)
		hypers := got.Hypernyms(n)
		if !ok || len(hypers) == 0 || !reflect.DeepEqual(hypers, want.Hypernyms(n)) {
			continue
		}
		for _, h := range hypers {
			ge, _ := got.EdgeOf(n, h)
			we, _ := want.EdgeOf(n, h)
			if ge.Sources != we.Sources {
				continue nodes
			}
		}
		compared++
		if gt, wt := got.EvidenceTotalOf(id), want.EvidenceTotalOf(wid); gt != wt {
			t.Errorf("%s: evidence total %d after the re-crawl, %d from scratch", n, gt, wt)
		}
		for r := range hypers {
			gh, gs := got.RankedHypernymAt(id, r)
			wh, ws := want.RankedHypernymAt(wid, r)
			if got.Name(gh) != want.Name(wh) || gs != ws {
				t.Errorf("%s: rank %d is %s at %v after the re-crawl, %s at %v from scratch", n, r, got.Name(gh), gs, want.Name(wh), ws)
				break
			}
		}
	}
	t.Logf("%d nodes with the same hypernyms and sources as the scratch build", compared)
	if compared < 1000 {
		t.Fatalf("only %d nodes with the same hypernyms and sources as the scratch build; too few to pin anything", compared)
	}
}
