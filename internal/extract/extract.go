// Package extract implements the generation module (paper Section II):
// four algorithms that produce candidate isA relations from the four
// sources of a Chinese encyclopedia page — bracket (separation
// algorithm), abstract (neural generation), infobox (predicate
// discovery) and tag (direct extraction).
//
// Candidates are named by the IDs of the build's symbol table
// (internal/symtab). A hyponym is always a page's entity, interned
// before generation starts, so a generator is handed its ID. A
// hypernym is a string the generator finds; it writes it into a Batch
// under a batch-local index, and Resolve interns the batches' names
// afterwards, in an order the caller fixes. Generators therefore touch
// no shared state, and the IDs do not depend on how they were
// scheduled.
package extract

import (
	"cmp"
	"slices"

	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/runes"
	"cnprobase/internal/symtab"
	"cnprobase/internal/taxonomy"
)

// Candidate is one candidate isA relation with provenance, on symbol
// IDs: a taxonomy pair, so the kept candidates are the taxonomy's kept
// list as they stand. Its Key orders candidates by (Hypo, Hyper), the
// order Dedupe returns them in.
type Candidate = taxonomy.Pair

func compareKeys(a, b Candidate) int { return cmp.Compare(a.Key(), b.Key()) }

// Batch collects what one generator emitted over a run of pages. Until
// Resolve, a candidate's Hyper is the index of its hypernym in Names,
// the batch's own list of hypernyms in first-seen order.
type Batch struct {
	Cands []Candidate
	Names []string
	index map[string]uint32
}

// Add emits isA(hypo, hyper).
func (b *Batch) Add(hypo uint32, hyper string, src taxonomy.Source) {
	i, ok := b.index[hyper]
	if !ok {
		if b.index == nil {
			b.index = make(map[string]uint32)
		}
		i = uint32(len(b.Names))
		b.index[hyper] = i
		b.Names = append(b.Names, hyper)
	}
	b.Cands = append(b.Cands, Candidate{Hypo: hypo, Hyper: i, Source: src})
}

// Resolve interns the batches' hypernyms into syms — batch by batch,
// each in first-seen order, so a name gets the ID of its first
// appearance in the concatenated stream however it was cut into
// batches — and returns all their candidates on those IDs, in batch
// order. The batches are not changed.
func Resolve(syms *symtab.Table, batches []Batch) []Candidate {
	n := 0
	for i := range batches {
		n += len(batches[i].Cands)
	}
	out := make([]Candidate, 0, n)
	for i := range batches {
		b := &batches[i]
		ids := make([]uint32, len(b.Names))
		syms.InternAll(b.Names, ids)
		for _, c := range b.Cands {
			c.Hyper = ids[c.Hyper]
			out = append(out, c)
		}
	}
	return out
}

// validHypernym applies the shared sanity conditions every generator
// enforces before emitting a candidate: hypernyms are multi-rune Han
// content words.
func validHypernym(h string) bool {
	return runes.AllHan(h) && runes.Len(h) >= 2
}

// Tags implements direct extraction from tags: "a majority of tags are
// the hypernyms of the entities" — every tag becomes a candidate of the
// page's entity hypo, and the verification module is responsible for
// the rest.
func Tags(page *encyclopedia.Page, hypo uint32, b *Batch) {
	for _, tag := range page.Tags {
		if !validHypernym(tag) || tag == page.Title {
			continue
		}
		b.Add(hypo, tag, taxonomy.SourceTag)
	}
}

// Dedupe merges duplicate (hypo, hyper) candidates, OR-ing sources,
// and returns them sorted by key, the
// slice's capacity clipped to their number. cands is left untouched.
func Dedupe(cands []Candidate) []Candidate {
	if len(cands) == 0 {
		return nil
	}
	// Sorting puts each pair's duplicates side by side; one pass then
	// folds every run into its head. The fold is commutative and the
	// duplicates of a pair differ in nothing else, so which of them
	// leads its run does not show and the sort need not be stable.
	out := slices.Clone(cands)
	slices.SortFunc(out, compareKeys)
	n := 0
	for i := 1; i < len(out); i++ {
		if out[i].Key() == out[n].Key() {
			out[n].Source |= out[i].Source
			continue
		}
		n++
		out[n] = out[i]
	}
	return slices.Clip(out[:n+1])
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
		c := compareKeys(a[i], b[j])
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
		c := compareKeys(a[i], b[j])
		if c > 0 {
			out = append(out, b[j])
			j++
			continue
		}
		out = append(out, a[i])
		i++
		if c == 0 {
			out[len(out)-1].Source |= b[j].Source
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
