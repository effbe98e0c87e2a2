package extract

import (
	"slices"
	"sort"

	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/taxonomy"
)

// PredicateStat summarizes one predicate's alignment with the
// high-precision prior isA relations: how often its object is a known
// hypernym of its subject. The paper reports 341 candidates of which 12
// were curated (Section II, predicate discovery).
type PredicateStat struct {
	Predicate string
	// Total is the number of triples with this predicate.
	Total int
	// Aligned is the number of triples (s, p, o) with isA(s, o) in the
	// prior.
	Aligned int
}

// Score is the alignment rate Aligned/Total.
func (p PredicateStat) Score() float64 {
	if p.Total == 0 {
		return 0
	}
	return float64(p.Aligned) / float64(p.Total)
}

// PredicateDiscovery configures the infobox extractor.
type PredicateDiscovery struct {
	// MinAligned is the minimum number of prior alignments for a
	// predicate to become a candidate (paper: any alignment counts;
	// default 1).
	MinAligned int
	// MinScore is the alignment-rate threshold that substitutes for the
	// paper's manual curation of the 12 isA predicates.
	MinScore float64
	// MaxSelected bounds the curated predicate list (paper: 12).
	MaxSelected int
	// Whitelist, when non-empty, bypasses automatic curation: the
	// caller "manually" supplies the predicate list, as the authors
	// did.
	Whitelist []string
}

// DefaultPredicateDiscovery mirrors the paper's setup with automatic
// curation standing in for manual selection.
func DefaultPredicateDiscovery() PredicateDiscovery {
	return PredicateDiscovery{MinAligned: 1, MinScore: 0.30, MaxSelected: 12}
}

// Prior is the set of high-precision isA pairs (from the bracket
// source) used as distant supervision: per hyponym ID, its hypernyms.
type Prior map[uint32][]string

// NewPrior builds a Prior from the bracket generator's batches.
func NewPrior(batches []Batch) Prior {
	p := make(Prior)
	for i := range batches {
		b := &batches[i]
		for _, c := range b.Cands {
			p[c.Hypo] = append(p[c.Hypo], b.Names[c.Hyper])
		}
	}
	return p
}

// Has reports whether isA(hypo, hyper) is in the prior.
func (p Prior) Has(hypo uint32, hyper string) bool { return slices.Contains(p[hypo], hyper) }

// Discover aligns every infobox triple against the prior and returns
// all candidate predicates (aligned at least MinAligned times) sorted
// by score, plus the curated selection. hypos[i] is page i's entity ID.
func (pd PredicateDiscovery) Discover(c *encyclopedia.Corpus, hypos []uint32, prior Prior) (candidates []PredicateStat, selected []string) {
	totals := make(map[string]int)
	aligned := make(map[string]int)
	for i := range c.Pages {
		for _, t := range c.Pages[i].Infobox {
			totals[t.Predicate]++
			if prior.Has(hypos[i], t.Object) {
				aligned[t.Predicate]++
			}
		}
	}
	for p, a := range aligned {
		if a >= pd.MinAligned {
			candidates = append(candidates, PredicateStat{Predicate: p, Total: totals[p], Aligned: a})
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		si, sj := candidates[i].Score(), candidates[j].Score()
		if si != sj {
			return si > sj
		}
		return candidates[i].Predicate < candidates[j].Predicate
	})
	if len(pd.Whitelist) > 0 {
		return candidates, append([]string(nil), pd.Whitelist...)
	}
	for _, cand := range candidates {
		if cand.Score() >= pd.MinScore && len(selected) < pd.MaxSelected {
			selected = append(selected, cand.Predicate)
		}
	}
	return candidates, selected
}

// ExtractInfobox harvests isA candidates from all triples whose
// predicate is in the curated list; hypos[i] is pages[i]'s entity ID.
func ExtractInfobox(pages []encyclopedia.Page, hypos []uint32, predicates []string, b *Batch) {
	if len(predicates) == 0 {
		return
	}
	sel := make(map[string]bool, len(predicates))
	for _, p := range predicates {
		sel[p] = true
	}
	for i := range pages {
		page := &pages[i]
		for _, t := range page.Infobox {
			if !sel[t.Predicate] || !validHypernym(t.Object) || t.Object == page.Title {
				continue
			}
			b.Add(hypos[i], t.Object, taxonomy.SourceInfobox)
		}
	}
}
