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
// Returns the number of derived edges added. Both rules are evaluated
// incrementally when inc carries their memory: the head rule re-tests
// only the concepts written since it last ran and the concepts whose
// candidate suffix gained or lost its support since then, and the
// subsumption rule reads its entity extents and its frontier from the
// persistent evidence indexes. A derived edge is derivation evidence
// once — re-deriving it in a later batch adds nothing, so an edge's
// count does not depend on how many batches the crawl arrived in.
// Build passes a nil inc: everything is evaluated, nothing retained.
func deriveSubconcepts(tax *taxonomy.Taxonomy, ev *verify.Evidence, opts Options, inc *incremental) int {
	// supported maps every concept the head rule ranges over to whether
	// it has the hyponyms (≥ 2) to serve as a head, as of the state the
	// rule is about to run on.
	var eval []string
	var supported map[string]bool
	if inc == nil || inc.morph == nil {
		eval = conceptNodes(tax)
		supported = make(map[string]bool, len(eval))
		for _, c := range eval {
			supported[c] = tax.HyponymCount(c) >= 2
		}
		if inc != nil {
			inc.morph = supported
		}
	} else {
		supported = inc.morph
		var flipped []string
		for _, n := range inc.derive {
			was, now := supported[n], false
			if tax.Kind(n) == taxonomy.KindConcept && runes.AllHan(n) {
				now = tax.HyponymCount(n) >= 2
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
	return deriveHeads(tax, eval, supported) + deriveSubsumption(tax, ev, opts)
}

// deriveHeads links each concept of eval to its longest proper suffix
// that is a supported concept. The links are chosen against supported
// before any is added, so an edge added here never feeds the rule
// within the same pass.
func deriveHeads(tax *taxonomy.Taxonomy, eval []string, supported map[string]bool) int {
	type link struct{ concept, head string }
	var links []link
	for _, c := range eval {
		rs := []rune(c)
		for cut := 1; cut <= len(rs)-2; cut++ {
			if sfx := string(rs[cut:]); supported[sfx] {
				links = append(links, link{c, sfx})
				break
			}
		}
	}
	added := 0
	for _, l := range links {
		if e, ok := tax.EdgeOf(l.concept, l.head); ok && e.Sources&taxonomy.SourceMorph != 0 {
			continue // derived before
		}
		if err := tax.AddIsA(l.concept, l.head, taxonomy.SourceMorph); err == nil {
			added++
		}
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
// deterministic order and tested against the store.
func deriveSubsumption(tax *taxonomy.Taxonomy, ev *verify.Evidence, opts Options) int {
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
		if _, dup := tax.EdgeOf(p.Sub, p.Super); dup || tax.IsAncestor(p.Super, p.Sub) {
			continue // avoid duplicates and 2-cycles
		}
		if err := tax.AddIsA(p.Sub, p.Super, taxonomy.SourceSubsume); err == nil {
			tax.MarkConcept(p.Sub)
			added++
		}
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
