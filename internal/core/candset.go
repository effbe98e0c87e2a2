package core

import (
	"slices"

	"cnprobase/internal/extract"
)

// The candidate lists the pipeline manipulates (previously kept,
// freshly generated, newly kept) are all deduplicated and sorted by
// (Hypo, Hyper) — extract.Dedupe's canonical order, preserved by
// verification (survivors keep candidate order) and by the splices
// below. An update batch therefore finds its few pairs in the kept
// list by binary search and rebuilds the list with block copies; no
// per-batch step compares or hashes its way through the whole list.

// findPair locates the pair in a sorted deduplicated list.
func findPair(cands []extract.Candidate, hypo, hyper string) (int, bool) {
	return slices.BinarySearchFunc(cands, extract.Candidate{Hypo: hypo, Hyper: hyper},
		func(c, target extract.Candidate) int { return extract.ComparePair(&c, &target) })
}

// spliceCandidates returns base without the elements at the ascending
// indexes drop and with the candidates of add (sorted, none of whose
// pairs base holds) slotted in — a fresh slice assembled from block
// copies of the stretches between changes.
func spliceCandidates(base []extract.Candidate, drop []int, add []extract.Candidate) []extract.Candidate {
	out := make([]extract.Candidate, 0, len(base)+len(add)-len(drop))
	from := 0
	for len(drop)+len(add) > 0 {
		at := len(base)
		if len(add) > 0 {
			at, _ = findPair(base, add[0].Hypo, add[0].Hyper)
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
