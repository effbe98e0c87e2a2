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
	if len(updated.Freeze().Lookup(newPage.Title)) == 0 {
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
// re-verification) must produce exactly the taxonomy, mention pairs,
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
	// The mention pairs agree.
	if !reflect.DeepEqual(resInc.Mentions, resFull.Mentions) {
		t.Fatalf("mention pairs diverged: %d vs %d", len(resInc.Mentions), len(resFull.Mentions))
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

// TestUpdateRetractsKeptHalfOfDerivedEdge pins retraction of an edge
// that is both generated and derived. A concept c with a head-rule
// edge c isA h becomes a page tagged h, so a kept pair lands on the
// derived edge; a later page titled h raises h's NE support until the
// kept pair is rejected. The edge c isA h, and the kinds of c and h,
// must then read as a fresh Build of the same pages reads them.
func TestUpdateRetractsKeptHalfOfDerivedEdge(t *testing.T) {
	base := buildSmallWorld(t, 900).Corpus().Pages
	p := New(fastOptions())
	res, err := p.Build(&encyclopedia.Corpus{Pages: base})
	if err != nil {
		t.Fatal(err)
	}
	// The head-rule edge whose head has the fewest hyponyms, so one
	// page titled with the head outweighs them.
	v := res.Freeze()
	c, h, fewest := "", "", 0
	for id := uint32(0); int(id) < v.NodeCount(); id++ {
		if v.KindOf(id) != taxonomy.KindConcept {
			continue
		}
		for _, hyper := range v.HypernymIDsOf(id) {
			e, _ := v.EdgeOf(v.Name(id), v.Name(hyper))
			if n := len(v.HyponymIDsOf(hyper)); e.Sources == taxonomy.SourceMorph && (h == "" || n < fewest) {
				c, h, fewest = v.Name(id), v.Name(hyper), n
			}
		}
	}
	if h == "" {
		t.Fatal("the world derived no head-rule edge")
	}
	lands := encyclopedia.Page{Title: c, Abstract: c + "是一个条目。", Tags: []string{h}}
	tags := make([]string, 24)
	for i := range tags {
		tags[i] = "标签" + string(rune('甲'+i))
	}
	retracts := encyclopedia.Page{Title: h, Abstract: h + "是一部作品。", Tags: tags}

	if _, err := p.Update(res, &encyclopedia.Corpus{Pages: []encyclopedia.Page{lands}}); err != nil {
		t.Fatal(err)
	}
	if e, ok := res.Freeze().EdgeOf(c, h); !ok || e.Sources != taxonomy.SourceTag|taxonomy.SourceMorph {
		t.Fatalf("%s isA %s after the page tagged %s: %v %v, want tag+morph", c, h, h, e.Sources, ok)
	}
	if _, err := p.Update(res, &encyclopedia.Corpus{Pages: []encyclopedia.Page{retracts}}); err != nil {
		t.Fatal(err)
	}
	hypo, _ := res.Taxonomy.Symbols().Lookup(c)
	hyper, _ := res.Taxonomy.Symbols().Lookup(h)
	if _, kept := taxonomy.Find(res.Kept, hypo, hyper); kept {
		t.Fatalf("%s isA %s is still kept after the page titled %s", c, h, h)
	}

	all := append(append(base[:len(base):len(base)], lands), retracts)
	fresh, err := New(fastOptions()).Build(&encyclopedia.Corpus{Pages: all})
	if err != nil {
		t.Fatal(err)
	}
	got, want := res.Freeze(), fresh.Freeze()
	ge, gok := got.EdgeOf(c, h)
	we, wok := want.EdgeOf(c, h)
	if gok != wok || ge.Sources != we.Sources {
		t.Errorf("%s isA %s after the updates: %v %v; a fresh build: %v %v", c, h, ge.Sources, gok, we.Sources, wok)
	}
	for _, n := range []string{c, h} {
		if g, w := got.Kind(n), want.Kind(n); g != w {
			t.Errorf("%s: kind %v after the updates, %v from a fresh build", n, g, w)
		}
	}
}

// TestUpdateStatsMatchTheView pins the counters an update keeps by the
// batch: after every batch of the crawl — brand-new pages with several
// kept pairs each, a re-crawled page, a late page whose title retracts
// kept pairs — Report.Stats must equal the stats the published view
// counts from scratch.
func TestUpdateStatsMatchTheView(t *testing.T) {
	c := newCrawl(t)
	p := New(fastOptions())
	res, err := p.Build(&encyclopedia.Corpus{Pages: c.pages[:c.base]})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 4; b++ {
		var extra []encyclopedia.Page
		switch b {
		case 1:
			extra = append(extra, c.recrawled())
		case 2:
			late, _ := latePage(t, res.Taxonomy)
			extra = append(extra, late)
		}
		if _, err := p.Update(res, c.batch(extra...)); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if got, want := res.Report.Stats, res.Freeze().Stats(); got != want {
			t.Fatalf("batch %d: Report.Stats %+v, the view counts %+v", b, got, want)
		}
	}
}
