package core

import (
	"slices"

	"cnprobase/internal/extract"
)

// The candidate lists the pipeline manipulates (previously kept,
// freshly generated, newly kept) are all deduplicated and sorted by
// (Hypo, Hyper) — extract.Dedupe's canonical order, preserved by
// verification (survivors keep candidate order) and by the edit
// below. An update batch therefore finds its few pairs in the kept
// list by binary search and edits the list where it stands; no
// per-batch step compares, hashes or copies its way through the whole
// list.

// findPair locates the pair in a sorted deduplicated list.
func findPair(cands []extract.Candidate, hypo, hyper string) (int, bool) {
	return slices.BinarySearchFunc(cands, extract.Candidate{Hypo: hypo, Hyper: hyper},
		func(c, target extract.Candidate) int { return extract.ComparePair(&c, &target) })
}

// editCandidates removes the elements at the ascending indexes drop
// from base and slots in the candidates of add (sorted, none of whose
// pairs base holds), in place: the stretches between drops slide
// forward over them, then the stretches between insertion points
// slide backward into capacity grown (amortised) for the adds. What
// moves is the part of the list behind the first change; nothing the
// size of the list is allocated unless its capacity is exhausted. The
// caller gives up base.
func editCandidates(base []extract.Candidate, drop []int, add []extract.Candidate) []extract.Candidate {
	if len(drop) > 0 {
		w := drop[0]
		for i, d := range drop {
			next := len(base)
			if i+1 < len(drop) {
				next = drop[i+1]
			}
			w += copy(base[w:], base[d+1:next])
		}
		clear(base[w:]) // the vacated tail must not pin dropped strings
		base = base[:w]
	}
	if len(add) == 0 {
		return base
	}
	end := len(base)
	base = slices.Grow(base, len(add))[:end+len(add)]
	for j := len(add) - 1; j >= 0; j-- {
		at, _ := findPair(base[:end], add[j].Hypo, add[j].Hyper)
		copy(base[at+j+1:], base[at:end])
		base[at+j] = add[j]
		end = at
	}
	return base
}

// diffCandidates returns the candidates of a whose pair does not
// appear in b (both sorted).
func diffCandidates(a, b []extract.Candidate) []extract.Candidate {
	var out []extract.Candidate
	j := 0
	for i := range a {
		for j < len(b) && extract.ComparePair(&b[j], &a[i]) < 0 {
			j++
		}
		if j < len(b) && extract.ComparePair(&b[j], &a[i]) == 0 {
			continue
		}
		out = append(out, a[i])
	}
	return out
}

// dropInvalid filters candidates the taxonomy would reject — empty
// nodes and self-loops — in place. Generators only emit these from
// malformed input (e.g. an ingested page with a blank title), and
// filtering here keeps such input from failing an update midway.
func dropInvalid(cands []extract.Candidate) []extract.Candidate {
	out := cands[:0]
	for _, c := range cands {
		if c.Hypo == "" || c.Hyper == "" || c.Hypo == c.Hyper {
			continue
		}
		out = append(out, c)
	}
	return out
}
