package core

import (
	"slices"
	"strings"

	"cnprobase/internal/runes"
	"cnprobase/internal/taxonomy"
	"cnprobase/internal/verify"
)

// deriveSubconcepts adds subconcept-concept isA edges (the paper's
// 527k subconcept relations) through two data-driven rules:
//
//   - morphological head: a compound concept whose suffix is itself a
//     well-supported concept specializes it (男演员 isA 演员,
//     首席战略官 isA 战略官);
//   - subsumption: concept c1 whose hyponym set is (nearly) contained
//     in a much larger concept c2's set is its subconcept.
//
// It returns the number of derived edges added and the nodes it wrote:
// the ends of every edge whose sources grew. Both rules are evaluated
// incrementally when inc carries their memory: the head rule re-tests
// only the concepts written since it last ran and the concepts whose
// candidate suffix gained or lost its support since then, and the
// subsumption rule reads its entity extents and its frontier from the
// persistent evidence indexes. A derived edge is derivation evidence
// once — re-deriving it in a later batch adds nothing, so an edge's
// count does not depend on how many batches the crawl arrived in.
// Build passes a nil inc: everything is evaluated, nothing retained.
//
// The rules read the taxonomy's lists by ID — kinds, edges, the
// derived pairs — and a concept's kept hyponyms off the evidence,
// which describes exactly the kept list whenever derivation runs.
func deriveSubconcepts(tax *taxonomy.Taxonomy, ev *verify.Evidence, opts Options, inc *incremental) (int, []uint32) {
	// A concept's hyponyms are its kept ones, which the evidence counts,
	// and the derived ones no kept pair holds, counted as the pass starts.
	derived := map[uint32]int{}
	for _, p := range tax.Derived {
		if !ev.Holds(p.Hypo, p.Hyper) {
			derived[p.Hyper]++
		}
	}
	names := tax.Symbols().Names()
	head := func(id uint32) bool { return ev.Hyponyms(id)+derived[id] >= 2 }
	// supported maps every concept the head rule ranges over to whether
	// it has the hyponyms (≥ 2) to serve as a head, as of the state the
	// rule is about to run on.
	var eval []string
	var supported map[string]bool
	if inc == nil || inc.morph == nil {
		eval = conceptNodes(tax)
		supported = make(map[string]bool, len(eval))
		for _, c := range eval {
			supported[c] = head(symbol(tax, c))
		}
		if inc != nil {
			inc.morph = supported
		}
	} else {
		supported = inc.morph
		slices.Sort(inc.derive)
		var flipped []string
		for _, id := range slices.Compact(inc.derive) {
			n := names[id]
			was, now := supported[n], false
			if tax.KindOf(id) == taxonomy.KindConcept && runes.AllHan(n) {
				now = head(id)
				supported[n] = now
				eval = append(eval, n)
			} else {
				delete(supported, n)
			}
			if was != now {
				flipped = append(flipped, n)
			}
		}
		// A head that gained or lost its support changes the outcome for
		// every concept that ends in it.
		for _, head := range flipped {
			for c := range supported {
				if morphRelated(c, head) {
					eval = append(eval, c)
				}
			}
		}
		slices.Sort(eval)
		eval = slices.Compact(eval)
	}
	if inc != nil {
		inc.derive = nil
	}
	var wrote []uint32
	added := deriveHeads(tax, eval, supported, &wrote)
	return added + deriveSubsumption(tax, ev, opts, &wrote), wrote
}

// symbol resolves a name the rules got from the taxonomy or the
// evidence, which share the symbol table.
func symbol(tax *taxonomy.Taxonomy, name string) uint32 {
	id, _ := tax.Symbols().Lookup(name)
	return id
}

// derive links hypo isA hyper from a derivation rule and appends the
// ends to wrote when the edge's sources grew.
func derive(tax *taxonomy.Taxonomy, hypo, hyper uint32, src taxonomy.Source, wrote *[]uint32) {
	if tax.Add(taxonomy.Pair{Hypo: hypo, Hyper: hyper, Source: src}) && wrote != nil {
		*wrote = append(*wrote, hypo, hyper)
	}
}

// deriveHeads links each concept of eval to its longest proper suffix
// that is a supported concept. The links are chosen against supported
// before any is added, so an edge added here never feeds the rule
// within the same pass.
func deriveHeads(tax *taxonomy.Taxonomy, eval []string, supported map[string]bool, wrote *[]uint32) int {
	type link struct{ concept, head uint32 }
	var links []link
	for _, c := range eval {
		rs := []rune(c)
		for cut := 1; cut <= len(rs)-2; cut++ {
			if sfx := string(rs[cut:]); supported[sfx] {
				links = append(links, link{symbol(tax, c), symbol(tax, sfx)})
				break
			}
		}
	}
	added := 0
	for _, l := range links {
		if src, _ := tax.SourcesOf(l.concept, l.head); src&taxonomy.SourceMorph != 0 {
			continue // derived before
		}
		derive(tax, l.concept, l.head, taxonomy.SourceMorph, wrote)
		added++
	}
	return added
}

// deriveSubsumption adds c1 isA c2 whenever hyponyms(c1) are almost all
// inside hyponyms(c2) and c2 is substantially larger. The evaluation
// is incremental: candidate pairs come from the evidence's entity
// co-occurrence index, restricted to pairs with a side whose entity
// extent changed since the last derivation pass — a pair with both
// sides untouched has the same overlap, sizes and ratio it had last
// time, so re-testing it cannot change the outcome (derived edges only
// accumulate). The first pass after a build or a snapshot load sees
// every concept dirty and therefore evaluates everything. The two
// extent tests, which discard nearly every pair, run inside the
// evidence on its counters; only the survivors are named, put in
// deterministic order and tested against the taxonomy.
func deriveSubsumption(tax *taxonomy.Taxonomy, ev *verify.Evidence, opts Options, wrote *[]uint32) int {
	minRatio := opts.SubsumeMinRatio
	if minRatio <= 0 {
		minRatio = 0.75
	}
	minSize := opts.SubsumeMinSize
	if minSize <= 0 {
		minSize = 8
	}
	pairs := ev.TakeExtentPairs(func(n1, n2 int) bool {
		// Both sides need real extents, and a clear size gap between
		// them: generalization, not synonymy.
		return n1 >= minSize && n2 >= minSize && n2 >= 2*n1
	})
	slices.SortFunc(pairs, func(a, b verify.ExtentPair) int {
		if c := strings.Compare(a.Sub, b.Sub); c != 0 {
			return c
		}
		return strings.Compare(a.Super, b.Super)
	})
	pairs = slices.Compact(pairs) // a pair dirty on both sides came twice
	added := 0
	for _, p := range pairs {
		ratio := float64(p.Overlap) / float64(p.SubExtent)
		if ratio < minRatio {
			continue
		}
		if morphRelated(p.Sub, p.Super) {
			continue // already added by the head rule
		}
		sub, super := symbol(tax, p.Sub), symbol(tax, p.Super)
		if _, dup := tax.SourcesOf(sub, super); dup || tax.IsAncestor(super, sub) {
			continue // avoid duplicates and 2-cycles
		}
		derive(tax, sub, super, taxonomy.SourceSubsume, wrote) // and sub, a new edge's end, is written
		tax.MarkConceptID(sub)
		added++
	}
	return added
}

// morphRelated reports whether c2 is a suffix of c1 (the head rule's
// territory).
func morphRelated(c1, c2 string) bool { return strings.HasSuffix(c1, c2) && c1 != c2 }

// conceptNodes lists hypernym-position nodes that look like concepts —
// the head rule's whole range, scanned when it has no memory to start
// from.
func conceptNodes(tax *taxonomy.Taxonomy) []string {
	var out []string
	for _, n := range tax.Concepts() {
		if runes.AllHan(n) {
			out = append(out, n)
		}
	}
	return out
}
