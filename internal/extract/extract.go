// Package extract implements the generation module (paper Section II):
// four algorithms that produce candidate isA relations from the four
// sources of a Chinese encyclopedia page — bracket (separation
// algorithm), abstract (neural generation), infobox (predicate
// discovery) and tag (direct extraction).
package extract

import (
	"slices"
	"strings"

	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/runes"
	"cnprobase/internal/taxonomy"
)

// Candidate is one candidate isA relation with provenance.
type Candidate struct {
	// Hypo is the hyponym: a disambiguated entity ID or a concept.
	Hypo string
	// Hyper is the hypernym concept string.
	Hyper string
	// Source records the generating algorithm.
	Source taxonomy.Source
	// Score is a source-specific confidence in [0, 1].
	Score float64
}

// validHypernym applies the shared sanity conditions every generator
// enforces before emitting a candidate: hypernyms are multi-rune Han
// content words.
func validHypernym(h string) bool {
	return runes.AllHan(h) && runes.Len(h) >= 2
}

// Tags implements direct extraction from tags: "a majority of tags are
// the hypernyms of the entities" — every tag becomes a candidate, and
// the verification module is responsible for the rest.
func Tags(page *encyclopedia.Page) []Candidate {
	id := page.ID()
	var out []Candidate
	for _, tag := range page.Tags {
		if !validHypernym(tag) || tag == page.Title {
			continue
		}
		out = append(out, Candidate{Hypo: id, Hyper: tag, Source: taxonomy.SourceTag, Score: 1})
	}
	return out
}

// ComparePair orders candidates by (hypo, hyper), the order Dedupe
// returns them in.
func ComparePair(a, b *Candidate) int {
	if c := strings.Compare(a.Hypo, b.Hypo); c != 0 {
		return c
	}
	return strings.Compare(a.Hyper, b.Hyper)
}

// absorb folds a duplicate of c's pair into c.
func (c *Candidate) absorb(dup *Candidate) {
	c.Source |= dup.Source
	if dup.Score > c.Score {
		c.Score = dup.Score
	}
}

// Dedupe merges duplicate (hypo, hyper) candidates, OR-ing sources and
// keeping the maximum score, and returns them sorted by (hypo, hyper)
// in a slice of exactly their number. cands is left untouched.
func Dedupe(cands []Candidate) []Candidate {
	if len(cands) == 0 {
		return nil
	}
	// Sorting puts each pair's duplicates side by side; one pass then
	// folds every run into its head. The fold is commutative and the
	// duplicates of a pair differ in nothing else, so which of them
	// leads its run does not show and the sort need not be stable.
	sorted := slices.Clone(cands)
	slices.SortFunc(sorted, func(a, b Candidate) int { return ComparePair(&a, &b) })
	n := 1
	for i := 1; i < len(sorted); i++ {
		if ComparePair(&sorted[i], &sorted[i-1]) != 0 {
			n++
		}
	}
	out := make([]Candidate, 0, n)
	for i := range sorted {
		if last := len(out) - 1; last >= 0 && ComparePair(&out[last], &sorted[i]) == 0 {
			out[last].absorb(&sorted[i])
			continue
		}
		out = append(out, sorted[i])
	}
	return out
}

// Union returns Dedupe of the concatenation of a and b, two lists
// Dedupe returned, by one merge; with one of them empty it is the
// other. Neither list is changed.
func Union(a, b []Candidate) []Candidate {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	n, i, j := 0, 0, 0
	for ; i < len(a) && j < len(b); n++ {
		c := ComparePair(&a[i], &b[j])
		if c <= 0 {
			i++
		}
		if c >= 0 {
			j++
		}
	}
	out := make([]Candidate, 0, n+len(a)-i+len(b)-j)
	i, j = 0, 0
	for i < len(a) && j < len(b) {
		c := ComparePair(&a[i], &b[j])
		if c > 0 {
			out = append(out, b[j])
			j++
			continue
		}
		out = append(out, a[i])
		i++
		if c == 0 {
			out[len(out)-1].absorb(&b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
