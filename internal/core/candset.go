package core

import (
	"math"
	"slices"

	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/extract"
	"cnprobase/internal/symtab"
	"cnprobase/internal/taxonomy"
)

// The candidate lists the pipeline manipulates (previously kept,
// freshly generated, newly kept) are all deduplicated and sorted by
// key — (Hypo, Hyper) ID, extract.Dedupe's order, preserved by
// verification (survivors keep candidate order) and by the edit
// below. An update batch therefore finds its few pairs in the kept
// list by binary search and edits the list where it stands; no
// per-batch step compares, hashes or copies its way through the whole
// list.

// noHypo is the hyponym ID of a page whose entity ID is blank: it names
// nothing, and dropInvalid removes what a generator emits for it.
const noHypo = math.MaxUint32

// internPages interns every page's entity ID and title, in page order.
// names holds them interleaved (what Evidence.AddPages takes); hypos
// holds the hyponym ID each page's candidates carry: its entity ID, or
// noHypo for a blank one.
func internPages(syms *symtab.Table, pages []encyclopedia.Page) (names, hypos []uint32) {
	strs := make([]string, 0, 2*len(pages))
	for i := range pages {
		strs = append(strs, pages[i].ID(), pages[i].Title)
	}
	names, hypos = make([]uint32, len(strs)), make([]uint32, len(pages))
	syms.InternAll(strs, names)
	for i := range pages {
		hypos[i] = names[2*i]
		if pages[i].Title == "" && pages[i].Bracket == "" {
			hypos[i] = noHypo
		}
	}
	return names, hypos
}

// merger unions generator sets in the order of generators, whatever
// order they arrive in: a set that arrives early waits until every set
// before it is merged. Merging a set interns its hypernyms, so that
// order, and not the scheduler, fixes the IDs.
type merger struct {
	syms   *symtab.Table
	clock  *stageClock
	sets   [len(generators)]*candidateSet
	next   int
	merged []extract.Candidate
}

// add takes one generator's set and merges every set it unblocks.
func (m *merger) add(set candidateSet) {
	m.sets[slices.Index(generators[:], set.source)] = &set
	for ; m.next < len(generators) && m.sets[m.next] != nil; m.next++ {
		m.clock.run("merge "+generators[m.next].String(), func() {
			cands := dropInvalid(extract.Resolve(m.syms, m.sets[m.next].batches))
			m.merged = extract.Union(m.merged, extract.Dedupe(cands))
		})
		m.sets[m.next] = nil
	}
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
		base = base[:w]
	}
	if len(add) == 0 {
		return base
	}
	end := len(base)
	base = slices.Grow(base, len(add))[:end+len(add)]
	for j := len(add) - 1; j >= 0; j-- {
		at, _ := taxonomy.Find(base[:end], add[j].Hypo, add[j].Hyper)
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
		k := a[i].Key()
		for j < len(b) && b[j].Key() < k {
			j++
		}
		if j < len(b) && b[j].Key() == k {
			continue
		}
		out = append(out, a[i])
	}
	return out
}

// dropInvalid filters, in place, the candidates the taxonomy would
// reject: those of a page with a blank entity ID (a crawled page with a
// blank title and no bracket) and self-loops. Build and Update both
// filter each generator set here, so malformed input neither fails a
// build after all its work nor leaves an update half-applied.
func dropInvalid(cands []extract.Candidate) []extract.Candidate {
	out := cands[:0]
	for _, c := range cands {
		if c.Hypo == noHypo || c.Hypo == c.Hyper {
			continue
		}
		out = append(out, c)
	}
	return out
}
