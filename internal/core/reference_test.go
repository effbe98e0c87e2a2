package core

// The candidate-set operations as they ran while candidates were named
// by strings, kept as the reference of the ID-keyed ones
// (FuzzCandidateSet): extract.Dedupe and extract.Union, findPair,
// editCandidates and diffCandidates, each ordering pairs by name.

import (
	"cmp"
	"slices"
	"strings"

	"cnprobase/internal/taxonomy"
)

// named is a candidate named by strings.
type named struct {
	Hypo, Hyper string
	Source      taxonomy.Source
}

func compareNamed(a, b named) int {
	return cmp.Or(strings.Compare(a.Hypo, b.Hypo), strings.Compare(a.Hyper, b.Hyper))
}

func (c *named) absorb(dup *named) { c.Source |= dup.Source }

func dedupeNamed(cands []named) []named {
	if len(cands) == 0 {
		return nil
	}
	sorted := slices.Clone(cands)
	slices.SortFunc(sorted, compareNamed)
	var out []named
	for i := range sorted {
		if last := len(out) - 1; last >= 0 && compareNamed(out[last], sorted[i]) == 0 {
			out[last].absorb(&sorted[i])
			continue
		}
		out = append(out, sorted[i])
	}
	return out
}

func unionNamed(a, b []named) []named {
	var out []named
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		c := compareNamed(a[i], b[j])
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

func findNamed(cands []named, hypo, hyper string) (int, bool) {
	return slices.BinarySearchFunc(cands, named{Hypo: hypo, Hyper: hyper}, compareNamed)
}

func editNamed(base []named, drop []int, add []named) []named {
	if len(drop) > 0 {
		w := drop[0]
		for i, d := range drop {
			next := len(base)
			if i+1 < len(drop) {
				next = drop[i+1]
			}
			w += copy(base[w:], base[d+1:next])
		}
		base = base[:w]
	}
	end := len(base)
	base = slices.Grow(base, len(add))[:end+len(add)]
	for j := len(add) - 1; j >= 0; j-- {
		at, _ := findNamed(base[:end], add[j].Hypo, add[j].Hyper)
		copy(base[at+j+1:], base[at:end])
		base[at+j] = add[j]
		end = at
	}
	return base
}

func diffNamed(a, b []named) []named {
	var out []named
	j := 0
	for i := range a {
		for j < len(b) && compareNamed(b[j], a[i]) < 0 {
			j++
		}
		if j < len(b) && compareNamed(b[j], a[i]) == 0 {
			continue
		}
		out = append(out, a[i])
	}
	return out
}
