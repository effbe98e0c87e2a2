package verify

import (
	"sort"
	"strings"

	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/extract"
	"cnprobase/internal/lexicon"
	"cnprobase/internal/par"
	"cnprobase/internal/runes"
	"cnprobase/internal/segment"
)

// Reason identifies which strategy rejected a candidate.
type Reason string

// Rejection reasons.
const (
	ReasonIncompatible Reason = "incompatible-concept"
	ReasonNE           Reason = "named-entity-hypernym"
	ReasonThematic     Reason = "thematic-word"
	ReasonHeadPosition Reason = "head-in-nonhead-position"
)

// Report summarizes a verification run.
type Report struct {
	Input    int
	Kept     int
	Rejected map[Reason]int
	// IncompatiblePairs is the number of incompatible concept pairs
	// detected in step one of strategy III-A.
	IncompatiblePairs int
	// Reverified is how many candidate decisions this pass actually
	// recomputed (equal to Input on a full pass; on an incremental
	// pass it is the fresh + affected subset).
	Reverified int
}

// Verify applies the enabled strategies to the full candidate set and
// returns the surviving candidates plus a report — the one-shot path
// the build pipeline uses. It invalidates the evidence caches first,
// so every decision is recomputed from the current evidence; the
// survivor order matches the candidate order exactly.
func Verify(cands []extract.Candidate, ev *Evidence, seg *segment.Segmenter, opts Options) ([]extract.Candidate, Report) {
	ev.MarkAllDirty()
	return VerifyDelta(cands, ev, seg, opts)
}

// VerifyDelta brings the decisions up to date (see Reverify) and then
// walks the whole candidate set to assemble the survivors and the
// report — the shape the one-shot build path and the evidence oracle
// tests need. cands must be the deduplicated candidate set the evidence
// was built over (the pairs previously added minus those removed); the
// kept slice comes back in cands order, exactly as a full Verify would
// produce it. The update pipeline does not call this: it splices the
// few re-decided pairs into its sorted kept list instead of walking
// the union.
func VerifyDelta(cands []extract.Candidate, ev *Evidence, seg *segment.Segmenter, opts Options) ([]extract.Candidate, Report) {
	_, rep := ev.Reverify(seg, opts)
	rep.Input, rep.Rejected = len(cands), make(map[Reason]int)
	var kept []extract.Candidate
	for _, c := range cands {
		r, ok := ev.decisions[edgeKey{c.Hypo, c.Hyper}]
		if !ok {
			// A pair the evidence never saw (caller passed candidates
			// outside the evidence set): decide it on the spot.
			r = ev.decide(c.Hypo, c.Hyper, seg, opts)
			ev.decisions[edgeKey{c.Hypo, c.Hyper}] = r
		}
		if r == "" {
			kept = append(kept, c)
		} else {
			rep.Rejected[r]++
		}
	}
	rep.Kept = len(kept)
	return kept, rep
}

// Decision is the outcome Reverify reached for one candidate pair; an
// empty Reason means the pair is kept.
type Decision struct {
	Hypo, Hyper string
	Reason      Reason
}

// Reverify applies the enabled strategies to the candidates whose
// evidence changed since the last pass — fresh pairs, pairs whose
// hypernym's NE verdict or lexical head moved, and pairs touched by
// incompatibility changes (dirty concepts, dirty entities) — and
// returns exactly those decisions, in no particular order. Every other
// pair of the evidence keeps its cached decision, which for a pair
// still in the evidence is always "kept" (callers retract rejected
// pairs with RemoveCandidates). On cold caches (fresh or snapshot-
// loaded evidence, MarkAllDirty, changed thresholds) every pair is
// re-decided. The report carries Reverified, IncompatiblePairs and the
// rejections among the returned decisions; Input and Kept describe a
// candidate set only the caller knows.
func (ev *Evidence) Reverify(seg *segment.Segmenter, opts Options) ([]Decision, Report) {
	rep := Report{Rejected: make(map[Reason]int)}

	// Threshold changes invalidate every cached status.
	norm := opts
	norm.Workers = 0
	if !ev.haveOpts || ev.lastOpts != norm {
		ev.allDirty = true
		ev.lastOpts, ev.haveOpts = norm, true
	}

	// Re-derive hypernym lexical heads: segmentation costs move as
	// corpus statistics accumulate, so heads are recomputed for every
	// distinct hypernym (cheap: the hypernym vocabulary is tiny next
	// to the corpus) and pairs under a changed head are re-verified.
	dirtyHead := make(map[string]bool)
	if opts.EnableSyntax {
		heads := make(map[string]string, len(ev.Hyponyms))
		for hyper := range ev.Hyponyms {
			head := lexicalHead(hyper, seg)
			heads[hyper] = head
			if old, ok := ev.heads[hyper]; !ok || old != head {
				dirtyHead[hyper] = true
			}
		}
		ev.heads = heads
	}

	// Strategy III-A: recompute pair statuses and kill entries for the
	// dirty subset (everything, on a cold cache). killSet is the set
	// of entities whose kill entries were re-resolved — their
	// candidates must be re-decided.
	killSet := ev.dirtyEntities
	if opts.EnableIncompatible {
		killSet = ev.recomputeIncompatible(opts)
	} else {
		ev.incompatible = make(map[pairKey]bool)
		ev.killed = make(map[edgeKey]bool)
	}
	rep.IncompatiblePairs = len(ev.incompatible)

	// Strategy III-B: refresh the per-hypernym NE verdicts for words
	// whose support inputs moved; only a flipped verdict makes the
	// hypernym's candidates affected (s1 drifts on nearly every common
	// word every batch, but it rarely crosses the threshold).
	neChanged := ev.refreshNEVerdicts(opts)

	// Collect the affected pairs and recompute their decisions.
	affected := ev.affectedPairs(dirtyHead, neChanged, killSet)
	rep.Reverified = len(affected)
	decided := par.Concat(par.MapBatches(par.NewPool(opts.Workers), len(affected), func(lo, hi int) []Decision {
		out := make([]Decision, 0, hi-lo)
		for _, pair := range affected[lo:hi] {
			out = append(out, Decision{Hypo: pair.hypo, Hyper: pair.hyper, Reason: ev.decide(pair.hypo, pair.hyper, seg, opts)})
		}
		return out
	}))
	for _, d := range decided {
		ev.decisions[edgeKey{d.Hypo, d.Hyper}] = d.Reason
		if d.Reason != "" {
			rep.Rejected[d.Reason]++
		}
	}

	// Dirt consumed; the caches now describe the current evidence.
	ev.dirtyConcepts = make(map[string]bool)
	ev.dirtyEntities = make(map[string]bool)
	ev.dirtyNE = make(map[string]bool)
	ev.allDirty = false
	return decided, rep
}

// decide classifies one candidate pair against the current evidence; a
// candidate is rejected as soon as any enabled strategy rejects it.
// The hypernym's lexical head comes from the cache filled by the head
// scan; hypernyms outside the evidence set are segmented on the spot.
func (ev *Evidence) decide(hypo, hyper string, seg *segment.Segmenter, opts Options) Reason {
	if opts.EnableSyntax {
		if lexicon.IsThematic(hyper) {
			return ReasonThematic
		}
		head, cached := ev.heads[hyper]
		if !cached {
			head = lexicalHead(hyper, seg)
		}
		if headInNonHeadPosition(hypo, head) {
			return ReasonHeadPosition
		}
	}
	if opts.EnableNE {
		if v, cached := ev.neVerdict[hyper]; cached {
			if v {
				return ReasonNE
			}
		} else if ev.NESupport(hyper) > opts.NEThreshold {
			return ReasonNE
		}
	}
	if opts.EnableIncompatible && ev.killed[edgeKey{hypo, hyper}] {
		return ReasonIncompatible
	}
	return ""
}

// affectedPairs enumerates the candidate pairs whose decision inputs
// changed: every pair when the caches are cold, otherwise pairs under
// hypernyms whose NE verdict or lexical head flipped, plus all pairs
// of entities whose kill entries were re-resolved (which covers fresh
// pairs — adding a pair dirties both its endpoints).
func (ev *Evidence) affectedPairs(dirtyHead, neChanged, killSet map[string]bool) []edgeKey {
	if ev.allDirty {
		var out []edgeKey
		for hypo, hypers := range ev.byHypo {
			for hyper := range hypers {
				out = append(out, edgeKey{hypo, hyper})
			}
		}
		return out
	}
	seen := make(map[edgeKey]bool)
	var out []edgeKey
	add := func(k edgeKey) {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	for hyper := range neChanged {
		for hypo := range ev.Hyponyms[hyper] {
			add(edgeKey{hypo, hyper})
		}
	}
	for hyper := range dirtyHead {
		for hypo := range ev.Hyponyms[hyper] {
			add(edgeKey{hypo, hyper})
		}
	}
	for e := range killSet {
		for hyper := range ev.byHypo[e] {
			add(edgeKey{e, hyper})
		}
	}
	return out
}

// refreshNEVerdicts recomputes the cached per-hypernym NE rejection
// verdict for every NE-dirty word, returning the hypernyms whose
// verdict flipped. On a cold cache it fills the whole table (affected
// enumeration covers everything then anyway).
func (ev *Evidence) refreshNEVerdicts(opts Options) map[string]bool {
	if !opts.EnableNE {
		ev.neVerdict = make(map[string]bool)
		return nil
	}
	if ev.allDirty {
		ev.neVerdict = make(map[string]bool, len(ev.Hyponyms))
		for h := range ev.Hyponyms {
			ev.neVerdict[h] = ev.NESupport(h) > opts.NEThreshold
		}
		return nil
	}
	changed := make(map[string]bool)
	for w := range ev.dirtyNE {
		if _, isHyper := ev.Hyponyms[w]; !isHyper {
			delete(ev.neVerdict, w)
			continue
		}
		v := ev.NESupport(w) > opts.NEThreshold
		if old, cached := ev.neVerdict[w]; !cached || old != v {
			changed[w] = true
		}
		ev.neVerdict[w] = v
	}
	return changed
}

type pairKey struct{ a, b string } // a < b
type edgeKey struct{ hypo, hyper string }

func orderedPair(a, b string) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

// recomputeIncompatible maintains strategy III-A incrementally and
// returns the set of entities whose kill entries were re-resolved.
//
// Step one: pair statuses involving a dirty concept are dropped and
// re-derived from hyponym-set Jaccard and attribute cosine (a pair can
// only appear, disappear, or change status when one of its sides is
// dirty — co-occurrence and eligibility both move only through dirty
// concepts). Step two: kill entries are re-resolved by KL divergence
// for the entities whose conflict inputs moved — entities with changed
// claims or attributes, plus entities co-claimed under a pair whose
// status flipped or whose KL inputs (a dirty side's aggregated
// attributes) changed. On a cold cache both steps run over everything,
// reproducing the from-scratch computation.
func (ev *Evidence) recomputeIncompatible(opts Options) map[string]bool {
	dirty := ev.dirtyConcepts
	statusChanged := make(map[pairKey]bool)
	if ev.allDirty {
		ev.incompatible = make(map[pairKey]bool)
		dirty = make(map[string]bool, len(ev.Hyponyms))
		for c := range ev.Hyponyms {
			dirty[c] = true
		}
	} else {
		for pk := range ev.incompatible {
			if dirty[pk.a] || dirty[pk.b] {
				delete(ev.incompatible, pk)
				statusChanged[pk] = true // provisionally: flipped off
			}
		}
	}
	eligible := func(c string) bool { return len(ev.Hyponyms[c]) >= opts.MinConceptSupport }
	done := make(map[pairKey]bool)
	for a := range dirty {
		if !eligible(a) {
			continue
		}
		// Only co-claiming pairs can conflict; the partner index
		// enumerates them directly and the maintained intersection
		// count makes the Jaccard test O(1) — no hyponym-set scans.
		for b := range ev.coocPartners[a] {
			if !eligible(b) {
				continue
			}
			pk := orderedPair(a, b)
			if done[pk] {
				continue
			}
			done[pk] = true
			inter := ev.cooc[pk]
			union := len(ev.Hyponyms[pk.a]) + len(ev.Hyponyms[pk.b]) - inter
			if float64(inter)/float64(union) >= opts.JaccardMax {
				continue
			}
			if cosine(ev.conceptAttrSum(pk.a), ev.conceptAttrSum(pk.b)) >= opts.CosineMax {
				continue
			}
			ev.incompatible[pk] = true
			if statusChanged[pk] {
				delete(statusChanged, pk) // was on, still on
			} else {
				statusChanged[pk] = true // flipped on
			}
		}
	}

	// Step two: re-resolve conflicts for every affected entity.
	var kill map[string]bool
	if ev.allDirty {
		ev.killed = make(map[edgeKey]bool)
		kill = make(map[string]bool, len(ev.byHypo))
		for e := range ev.byHypo {
			kill[e] = true
		}
	} else {
		// Pairs whose kill influence moved: flipped statuses, plus
		// still-incompatible pairs with a dirty side (their KL inputs
		// shifted with the concept's aggregated attributes).
		relevant := statusChanged
		for pk := range ev.incompatible {
			if dirty[pk.a] || dirty[pk.b] {
				relevant[pk] = true
			}
		}
		kill = make(map[string]bool, len(ev.dirtyEntities))
		for e := range ev.dirtyEntities {
			kill[e] = true
		}
		for pk := range relevant {
			small, large := ev.Hyponyms[pk.a], ev.Hyponyms[pk.b]
			if len(small) > len(large) {
				small, large = large, small
			}
			for e := range small {
				if large[e] {
					kill[e] = true
				}
			}
		}
	}
	for e := range kill {
		for c := range ev.byHypo[e] {
			delete(ev.killed, edgeKey{e, c})
		}
		attr, ok := ev.EntityAttrs[e]
		if !ok {
			continue
		}
		concepts := make([]string, 0, len(ev.byHypo[e]))
		for c := range ev.byHypo[e] {
			concepts = append(concepts, c)
		}
		sort.Strings(concepts)
		for i := 0; i < len(concepts); i++ {
			for j := i + 1; j < len(concepts); j++ {
				c1, c2 := concepts[i], concepts[j]
				if !ev.incompatible[orderedPair(c1, c2)] {
					continue
				}
				k1 := klToSum(attr, ev.conceptAttrSum(c1))
				k2 := klToSum(attr, ev.conceptAttrSum(c2))
				if k1 > k2 {
					ev.killed[edgeKey{e, c1}] = true
				} else {
					ev.killed[edgeKey{e, c2}] = true
				}
			}
		}
	}
	return kill
}

// headInNonHeadPosition implements syntax rule (2): the stem of the
// hypernym's lexical head must not occur in a non-head position of the
// hyponym. isA(教育机构, 教育) dies here: the hypernym (教育) appears as
// a prefix — not the head — of the hyponym.
func headInNonHeadPosition(hypo, head string) bool {
	hypoSurface, _ := encyclopedia.ParseEntityID(hypo)
	if hypoSurface == "" {
		hypoSurface = hypo
	}
	if head == "" || !runes.AllHan(hypoSurface) {
		return false
	}
	idx := strings.Index(hypoSurface, head)
	if idx < 0 {
		return false
	}
	// Occurrence at the end (head position) is the legitimate
	// modifier-head pattern (男演员 isA 演员); anywhere else is the
	// smell the rule rejects.
	return !strings.HasSuffix(hypoSurface, head)
}

// lexicalHead returns the rightmost segmented word of a compound (the
// head of a Chinese noun compound).
func lexicalHead(w string, seg *segment.Segmenter) string {
	if seg == nil {
		return w
	}
	toks := seg.Cut(w)
	for i := len(toks) - 1; i >= 0; i-- {
		if segment.IsContentToken(toks[i]) {
			return toks[i]
		}
	}
	return ""
}
