package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/extract"
	"cnprobase/internal/serving"
	"cnprobase/internal/synth"
	"cnprobase/internal/taxonomy"
	"cnprobase/internal/verify"
)

// The formulations Update and deriveSubsumption ran on before they
// stopped allocating in proportion to the kept list and the dirty
// frontier, kept as the oracles of what replaced them.

// spliceCandidates returns base without the elements at the ascending
// indexes drop and with the candidates of add (sorted, none of whose
// pairs base holds) slotted in — a fresh slice assembled from block
// copies of the stretches between changes. Verbatim what Update called
// twice per batch.
func spliceCandidates(base []extract.Candidate, drop []int, add []extract.Candidate) []extract.Candidate {
	out := make([]extract.Candidate, 0, len(base)+len(add)-len(drop))
	from := 0
	for len(drop)+len(add) > 0 {
		at := len(base)
		if len(add) > 0 {
			at, _ = taxonomy.Find(base, add[0].Hypo, add[0].Hyper)
		}
		if len(drop) > 0 && drop[0] < at {
			out = append(out, base[from:drop[0]]...)
			from, drop = drop[0]+1, drop[1:]
			continue
		}
		out = append(out, base[from:at]...)
		out = append(out, add[0])
		from, add = at, add[1:]
	}
	return append(out, base[from:]...)
}

// naiveSubsumption is deriveSubsumption as it ran before the extent
// tests moved in front of the pair set: every dirty-concept × partner
// pair goes into a map in both orders and is sorted, and only then do
// the integer tests discard nearly all of them.
func naiveSubsumption(tax *taxonomy.Taxonomy, ev *verify.Evidence, opts Options) int {
	minRatio, minSize := opts.SubsumeMinRatio, opts.SubsumeMinSize
	if minRatio <= 0 {
		minRatio = 0.75
	}
	if minSize <= 0 {
		minSize = 8
	}
	cand := make(map[[2]string]verify.ExtentPair)
	for _, p := range ev.TakeExtentPairs(func(int, int) bool { return true }) {
		cand[[2]string{p.Sub, p.Super}] = p
	}
	added := 0
	keys := make([][2]string, 0, len(cand))
	for k := range cand {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		c1, c2 := k[0], k[1]
		n1, n2 := cand[k].SubExtent, cand[[2]string{c2, c1}].SubExtent
		if n1 < minSize || n2 < minSize {
			continue
		}
		if n2 < 2*n1 {
			continue
		}
		overlap := cand[k].Overlap
		if float64(overlap)/float64(n1) < minRatio {
			continue
		}
		if morphRelated(c1, c2) {
			continue
		}
		sub, _ := tax.Symbols().Lookup(c1)
		super, _ := tax.Symbols().Lookup(c2)
		if _, dup := tax.EdgeOf(c1, c2); dup || tax.IsAncestor(super, sub) {
			continue
		}
		tax.Add(taxonomy.Pair{Hypo: sub, Hyper: super, Source: taxonomy.SourceSubsume})
		tax.MarkConceptID(sub)
		added++
	}
	return added
}

// TestEditCandidatesMatchesSplice drives the in-place edit and the
// two-copy splice through the same random drops and adds, over inputs
// shaped like the ones Update meets: cap == len (what Build and a
// snapshot load produce), spare capacity (after an earlier edit),
// nothing to do, everything dropped, adds before the first and after
// the last element.
func TestEditCandidatesMatchesSplice(t *testing.T) {
	pair := func(i int) extract.Candidate {
		return extract.Candidate{Hypo: uint32(i / 3), Hyper: 1<<20 + uint32(i%3), Source: taxonomy.SourceTag}
	}
	rng := rand.New(rand.NewSource(20))
	for round := 0; round < 400; round++ {
		// Even slots may be in the list, odd slots may be added: adds
		// fall between, before and after the elements.
		n := rng.Intn(40)
		var base []extract.Candidate
		for i := 0; i < n; i++ {
			base = append(base, pair(2*i+2))
		}
		base = slices.Clip(base)
		if round%3 == 1 {
			base = slices.Grow(base, rng.Intn(8))
		}
		var drop []int
		var add []extract.Candidate
		switch round % 8 {
		case 0: // nothing at all
		case 1: // everything dropped, adds at both ends
			for i := range base {
				drop = append(drop, i)
			}
			add = []extract.Candidate{pair(1), pair(2*n + 3)}
		default:
			for i := range base {
				if rng.Intn(4) == 0 {
					drop = append(drop, i)
				}
			}
			for i := 0; i <= n; i++ {
				if rng.Intn(4) == 0 {
					add = append(add, pair(2*i+1))
				}
			}
		}
		want := spliceCandidates(slices.Clone(base), drop, add)
		room := cap(base) - len(base)
		got := editCandidates(base, drop, add)
		if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: %d elements, drop %v, add %d:\n edit   %v\n splice %v", round, n, drop, len(add), got, want)
		}
		if !slices.IsSortedFunc(got, func(a, b extract.Candidate) int { return cmp.Compare(a.Key(), b.Key()) }) {
			t.Fatalf("round %d: edited list is not sorted", round)
		}
		if len(add)-len(drop) <= room && len(got) > 0 && len(base) > 0 && &got[0] != &base[:1][0] {
			t.Fatalf("round %d: the edit fit the capacity (%d spare, %+d) but moved the list", round, room, len(add)-len(drop))
		}
	}
}

// crawl is the seeded world the two oracle tests below replay: a base
// build and batches that between them bring new pages, crawl a page
// again and turn a rare concept into a page title — which retracts the
// edges an earlier batch kept under it.
type crawl struct {
	pages      []encyclopedia.Page
	base, step int
	next       int
}

func newCrawl(t *testing.T) *crawl {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Entities = 1500
	cfg.Seed = 7
	w, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &crawl{pages: w.Corpus().Pages, base: 900, step: 60, next: 900}
}

func (c *crawl) batch(extra ...encyclopedia.Page) *encyclopedia.Corpus {
	delta := &encyclopedia.Corpus{Pages: append(slices.Clone(c.pages[c.next:c.next+c.step]), extra...)}
	c.next += c.step
	return delta
}

// recrawled returns an already-built page with a changed tag set and
// infobox, so its pairs are regenerated.
func (c *crawl) recrawled() encyclopedia.Page {
	p := c.pages[3]
	p.Tags = append([]string{"再版标签"}, p.Tags[:len(p.Tags)/2]...)
	p.Infobox = append(p.Infobox[:len(p.Infobox)/2:len(p.Infobox)/2],
		encyclopedia.Triple{Subject: p.Title, Predicate: "别名", Object: "再版别名"})
	return p
}

// latePage returns a page titled with a concept that has a single
// hyponym and no hypernym: once the concept is a title its NE support
// jumps and the kept edge under it is rejected.
func latePage(t *testing.T, tax *taxonomy.Taxonomy) (page encyclopedia.Page, victim string) {
	t.Helper()
	v := serving.Compile(tax)
	for i, n := range v.Nodes() {
		if v.Kind(n) == taxonomy.KindConcept && len(v.HyponymIDsOf(uint32(i))) == 1 && len(v.Hypernyms(n)) == 0 {
			return encyclopedia.Page{Title: n, Abstract: n + "是一部作品。", Tags: []string{"人物", "作品", "机构", "地点"}}, v.Hyponyms(n, 1)[0]
		}
	}
	t.Fatal("no single-hyponym concept to turn into a page title")
	return page, ""
}

// TestUpdateRefreshesPerSource is the regression test for the stale
// per-source counters, re-based on the formulation Update used to run:
// after a batch with brand-new, regenerated, rejected-new and
// rejected-previously-kept pairs, the kept list must be the one two
// splices of the old list produce, and the Generated/Kept columns and
// the verification totals must equal a from-scratch tally over that
// union and that kept list — though Update now builds neither.
func TestUpdateRefreshesPerSource(t *testing.T) {
	c := newCrawl(t)
	p := New(fastOptions())
	res, err := p.Build(&encyclopedia.Corpus{Pages: c.pages[:c.base]})
	if err != nil {
		t.Fatal(err)
	}
	before := res.Report.PerSource[taxonomy.SourceTag].Generated
	var seen struct{ brandNew, regenerated, rejectedNew, rejectedKept int }
	for b := 0; b < 3; b++ {
		var extra []encyclopedia.Page
		victim, rare := "", ""
		switch b {
		case 1:
			extra = append(extra, c.recrawled())
		case 2:
			late, v := latePage(t, res.Taxonomy)
			extra, victim, rare = append(extra, late), v, late.Title
		}
		prevKept := slices.Clone(res.Kept)
		if _, err := p.Update(res, c.batch(extra...)); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if _, kept := res.Taxonomy.EdgeOf(victim, rare); victim != "" && kept {
			t.Fatalf("batch %d: %s isA %s was not retracted", b, victim, rare)
		}

		// The two-splice formulation, decisions read off the outcome.
		fresh := res.Candidates
		var brandNew []extract.Candidate
		union := slices.Clone(prevKept)
		for _, f := range fresh {
			if i, ok := taxonomy.Find(union, f.Hypo, f.Hyper); ok {
				union[i].Source |= f.Source
				seen.regenerated++
			} else {
				brandNew = append(brandNew, f)
			}
		}
		seen.brandNew += len(brandNew)
		union = spliceCandidates(union, nil, brandNew)
		var drop []int
		for i, u := range union {
			if _, ok := taxonomy.Find(res.Kept, u.Hypo, u.Hyper); ok {
				continue
			}
			drop = append(drop, i)
			if _, ok := taxonomy.Find(prevKept, u.Hypo, u.Hyper); ok {
				seen.rejectedKept++
			} else {
				seen.rejectedNew++
			}
		}
		kept := spliceCandidates(union, drop, nil)
		if !reflect.DeepEqual(res.Kept, kept) {
			t.Fatalf("batch %d: kept list (%d) differs from the two-splice one (%d)", b, len(res.Kept), len(kept))
		}
		if want := perSourceReport(tallySources(union), tallySources(kept)); !reflect.DeepEqual(res.Report.PerSource, want) {
			t.Errorf("batch %d: PerSource = %v, want recomputed %v", b, sourceRows(res.Report.PerSource), sourceRows(want))
		}
		if v := res.Report.Verification; v.Input != len(union) || v.Kept != len(kept) {
			t.Errorf("batch %d: verification counts %d → %d, the union holds %d and keeps %d", b, v.Input, v.Kept, len(union), len(kept))
		}
	}
	if seen.brandNew == 0 || seen.regenerated == 0 || seen.rejectedNew == 0 || seen.rejectedKept == 0 {
		t.Fatalf("the crawl did not exercise every kind of pair: %+v", seen)
	}
	if after := res.Report.PerSource[taxonomy.SourceTag].Generated; after <= before {
		t.Fatalf("tag Generated %d → %d; updates did not fold the deltas' per-source counts in", before, after)
	}
}

func sourceRows(m map[taxonomy.Source]*SourceReport) string {
	s := ""
	for _, src := range generators {
		if r := m[src]; r != nil {
			s += fmt.Sprintf(" %s:%d/%d", src, r.Generated, r.Kept)
		}
	}
	return s
}

// TestSubsumptionPrefilterMatchesNaive replays the crawl on two
// identical Results, deriving subsumption edges on one with the
// pre-filtered rule and on the other with the map-and-sort loop it
// replaced: from the cold pass over everything, through plain batches,
// to the batch whose NE retraction shrinks extents, both must add the
// same edges, in a taxonomy that stays equal edge for edge.
func TestSubsumptionPrefilterMatchesNaive(t *testing.T) {
	c := newCrawl(t)
	opts := fastOptions()
	opts.DeriveSubconcepts = false // derivation is run by hand below
	opts.SubsumeMinSize = 3        // the 1 500-entity world has few extents of 8
	p := New(opts)
	build := func() *Result {
		res, err := p.Build(&encyclopedia.Corpus{Pages: c.pages[:c.base]})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	pre, naive := build(), build()
	total := 0
	derive := func(step string) {
		t.Helper()
		got := deriveSubsumption(pre.Taxonomy, pre.Evidence, opts, nil)
		want := naiveSubsumption(naive.Taxonomy, naive.Evidence, opts)
		pre.Report.DerivedSubconcepts += got
		naive.Report.DerivedSubconcepts += want
		if got != want || pre.Report.DerivedSubconcepts != naive.Report.DerivedSubconcepts {
			t.Fatalf("%s: derived %d edges, the naive loop %d", step, got, want)
		}
		if !reflect.DeepEqual(pre.Taxonomy.Edges(), naive.Taxonomy.Edges()) {
			t.Fatalf("%s: the taxonomies diverged", step)
		}
		total += got
	}
	derive("cold pass")
	if total == 0 {
		t.Fatal("the cold pass derived no subsumption edge; the test pins nothing")
	}
	cold := total
	for b := 0; b < 5; b++ {
		var extra []encyclopedia.Page
		if b == 3 {
			late, _ := latePage(t, pre.Taxonomy)
			extra = append(extra, late, c.recrawled())
		}
		delta := c.batch(extra...)
		for _, res := range []*Result{pre, naive} {
			if _, err := p.Update(res, &encyclopedia.Corpus{Pages: slices.Clone(delta.Pages)}); err != nil {
				t.Fatalf("batch %d: %v", b, err)
			}
		}
		derive(fmt.Sprintf("batch %d", b))
	}
	if total == cold {
		t.Fatal("no batch derived a subsumption edge; the incremental frontier went untested")
	}
}
