package verify

import (
	"slices"
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

// reasonCode is a Reason as a claim stores it; zero means kept.
type reasonCode uint8

const (
	codeKept reasonCode = iota
	codeIncompatible
	codeNE
	codeThematic
	codeHeadPosition
)

var reasons = [...]Reason{codeKept: "", codeIncompatible: ReasonIncompatible, codeNE: ReasonNE,
	codeThematic: ReasonThematic, codeHeadPosition: ReasonHeadPosition}

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
// survivor order matches the candidate order exactly. workers bounds
// the per-candidate fan-out (<= 1 decides sequentially); decisions are
// independent, so any count keeps the same survivors in the same order.
func Verify(cands []extract.Candidate, ev *Evidence, seg *segment.Segmenter, opts Options, workers int) ([]extract.Candidate, Report) {
	ev.MarkAllDirty()
	return VerifyDelta(cands, ev, seg, opts, workers)
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
func VerifyDelta(cands []extract.Candidate, ev *Evidence, seg *segment.Segmenter, opts Options, workers int) ([]extract.Candidate, Report) {
	_, rep := ev.Reverify(seg, opts, workers)
	rep.Input, rep.Rejected = len(cands), make(map[Reason]int)
	codes := make([]reasonCode, len(cands))
	names := ev.syms.Names()
	for i := range cands {
		codes[i] = ev.decisionOf(cands[i].Hypo, cands[i].Hyper, names, seg, opts)
		if codes[i] == codeKept {
			rep.Kept++
		} else {
			rep.Rejected[reasons[codes[i]]]++
		}
	}
	var kept []extract.Candidate
	if rep.Kept > 0 {
		kept = make([]extract.Candidate, 0, rep.Kept)
	}
	for i, code := range codes {
		if code == codeKept {
			kept = append(kept, cands[i])
		}
	}
	return kept, rep
}

// decisionOf reads the pair's cached decision; a pair the evidence
// never saw (the caller passed candidates outside the evidence set) is
// decided on the spot.
func (ev *Evidence) decisionOf(hypo, hyper uint32, names []string, seg *segment.Segmenter, opts Options) reasonCode {
	var con *concept
	if int(hyper) < len(ev.nodes) {
		if int(hypo) < len(ev.nodes) {
			if at := ev.findClaim(hypo, hyper); at >= 0 {
				return ev.nodes[hypo].claims[at].reason
			}
		}
		con = ev.nodes[hyper].con
	}
	return ev.decide(names[hypo], names[hyper], con, false, seg, opts)
}

// Decision is the outcome Reverify reached for one candidate pair,
// named by IDs of the evidence's symbol table; an empty Reason means
// the pair is kept.
type Decision struct {
	Hypo, Hyper uint32
	Reason      Reason
}

// claimRef addresses one claim; claims do not move during a pass.
type claimRef struct{ hypo, at uint32 }

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
// candidate set only the caller knows. workers bounds the fan-out, as
// in Verify.
func (ev *Evidence) Reverify(seg *segment.Segmenter, opts Options, workers int) ([]Decision, Report) {
	rep := Report{Rejected: make(map[Reason]int)}

	// Threshold changes invalidate every cached status.
	if !ev.haveOpts || ev.lastOpts != opts {
		ev.allDirty = true
		ev.lastOpts, ev.haveOpts = opts, true
	}

	// Re-derive hypernym lexical heads: segmentation costs move as
	// corpus statistics accumulate, so heads are recomputed for every
	// distinct hypernym (cheap: the hypernym vocabulary is tiny next
	// to the corpus) and pairs under a changed head are re-verified.
	names := ev.syms.Names()
	var flipped []*concept
	if opts.EnableSyntax {
		var toks []string // lexicalHead's cut, recycled over the pass
		for _, c := range ev.concepts {
			var head string
			head, toks = lexicalHead(names[c.id], seg, toks)
			if !c.headKnown || c.head != head {
				flipped = append(flipped, c)
			}
			c.head, c.headKnown = head, true
		}
	}

	// Strategy III-A: recompute pair statuses and kill entries for the
	// dirty subset (everything, on a cold cache). kill lists the
	// entities whose kill entries were re-resolved — their candidates
	// must be re-decided.
	kill := ev.dirtyEntities
	if opts.EnableIncompatible {
		kill = ev.recomputeIncompatible(opts)
	} else if ev.allDirty {
		// Off since the last cold pass otherwise: nothing to clear.
		clear(ev.incompatible)
		for i := range ev.nodes {
			for j := range ev.nodes[i].claims {
				ev.nodes[i].claims[j].killed = false
			}
		}
	}
	rep.IncompatiblePairs = len(ev.incompatible)

	// Strategy III-B: refresh the per-hypernym NE verdicts for words
	// whose support inputs moved; only a flipped verdict makes the
	// hypernym's candidates affected (s1 drifts on nearly every common
	// word every batch, but it rarely crosses the threshold).
	flipped = append(flipped, ev.refreshNEVerdicts(opts)...)

	// Collect the affected pairs and recompute their decisions.
	affected := ev.affectedPairs(flipped, kill)
	rep.Reverified = len(affected)
	codes := par.Concat(par.MapBatches(par.NewPool(workers), len(affected), func(lo, hi int) []reasonCode {
		out := make([]reasonCode, 0, hi-lo)
		for _, ref := range affected[lo:hi] {
			cl := &ev.nodes[ref.hypo].claims[ref.at]
			out = append(out, ev.decide(names[ref.hypo], names[cl.hyper], ev.nodes[cl.hyper].con, cl.killed, seg, opts))
		}
		return out
	}))
	decided := make([]Decision, len(affected))
	for i, ref := range affected {
		cl := &ev.nodes[ref.hypo].claims[ref.at]
		cl.reason, cl.queued = codes[i], false
		decided[i] = Decision{Hypo: ref.hypo, Hyper: cl.hyper, Reason: reasons[codes[i]]}
		if codes[i] != codeKept {
			rep.Rejected[reasons[codes[i]]]++
		}
	}

	// Dirt consumed; the caches now describe the current evidence.
	ev.unmark(flagDirtyConcept, &ev.dirtyConcepts)
	ev.unmark(flagDirtyEntity, &ev.dirtyEntities)
	ev.unmark(flagDirtyNE, &ev.dirtyNE)
	ev.allDirty = false
	return decided, rep
}

// decide classifies one candidate pair against the current evidence; a
// candidate is rejected as soon as any enabled strategy rejects it.
// The hypernym's lexical head and NE verdict come from its concept
// record when the verification pass filled them; hypernyms outside the
// evidence (con nil) are segmented and scored on the spot.
func (ev *Evidence) decide(hypo, hyper string, con *concept, killed bool, seg *segment.Segmenter, opts Options) reasonCode {
	if opts.EnableSyntax {
		if lexicon.IsThematic(hyper) {
			return codeThematic
		}
		var head string
		if con != nil && con.headKnown {
			head = con.head
		} else {
			head, _ = lexicalHead(hyper, seg, nil)
		}
		if headInNonHeadPosition(hypo, head) {
			return codeHeadPosition
		}
	}
	if opts.EnableNE {
		if con != nil && con.neKnown {
			if con.ne {
				return codeNE
			}
		} else if ev.NESupport(hyper) > opts.NEThreshold {
			return codeNE
		}
	}
	if opts.EnableIncompatible && killed {
		return codeIncompatible
	}
	return codeKept
}

// affectedPairs enumerates the candidate pairs whose decision inputs
// changed: every pair when the caches are cold, otherwise pairs under
// the hypernyms whose lexical head or NE verdict flipped, plus all
// pairs of entities whose kill entries were re-resolved (which covers
// fresh pairs — adding a pair dirties both its endpoints).
func (ev *Evidence) affectedPairs(flipped []*concept, kill []uint32) []claimRef {
	var out []claimRef
	add := func(hypo uint32, at int) {
		if cl := &ev.nodes[hypo].claims[at]; !cl.queued {
			cl.queued = true
			out = append(out, claimRef{hypo, uint32(at)})
		}
	}
	if ev.allDirty {
		for id := range ev.nodes {
			for at := range ev.nodes[id].claims {
				add(uint32(id), at)
			}
		}
		return out
	}
	for _, c := range flipped {
		for _, hypo := range c.hypos {
			add(hypo, ev.findClaim(hypo, c.id))
		}
	}
	for _, e := range kill {
		for at := range ev.nodes[e].claims {
			add(e, at)
		}
	}
	return out
}

// refreshNEVerdicts recomputes the cached per-hypernym NE rejection
// verdict for every NE-dirty word, returning the hypernyms whose
// verdict flipped. On a cold cache it fills every record (affected
// enumeration covers everything then anyway).
func (ev *Evidence) refreshNEVerdicts(opts Options) []*concept {
	if !opts.EnableNE {
		return nil // a change of options is a cold pass: decide ignores the stale verdicts until then
	}
	names := ev.syms.Names()
	verdict := func(c *concept) bool { return ev.NESupport(names[c.id]) > opts.NEThreshold }
	if ev.allDirty {
		for _, c := range ev.concepts {
			c.ne, c.neKnown = verdict(c), true
		}
		return nil
	}
	var changed []*concept
	for _, w := range ev.dirtyNE {
		c := ev.nodes[w].con
		if c == nil {
			continue // not a hypernym (any longer): its record went with its verdict
		}
		v := verdict(c)
		if !c.neKnown || c.ne != v {
			changed = append(changed, c)
		}
		c.ne, c.neKnown = v, true
	}
	return changed
}

// recomputeIncompatible maintains strategy III-A incrementally and
// returns the entities whose kill entries were re-resolved.
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
func (ev *Evidence) recomputeIncompatible(opts Options) []uint32 {
	isDirty := func(c uint32) bool { return ev.allDirty || ev.nodes[c].flags&flagDirtyConcept != 0 }
	// moved collects the pairs whose kill influence moved: flipped
	// statuses (true while the flip stands), plus still-incompatible
	// pairs with a dirty side (their KL inputs shifted with the
	// concept's aggregated attributes).
	moved := make(map[uint64]bool)
	dirty := ev.dirtyConcepts
	if ev.allDirty {
		clear(ev.incompatible)
		dirty = make([]uint32, len(ev.concepts))
		for i, c := range ev.concepts {
			dirty[i] = c.id
		}
	} else {
		for key := range ev.incompatible {
			if isDirty(uint32(key>>32)) || isDirty(uint32(key)) {
				delete(ev.incompatible, key)
				moved[key] = true // provisionally: flipped off
			}
		}
	}
	eligible := func(c *concept) bool { return c != nil && len(c.hypos) >= opts.MinConceptSupport }
	for _, a := range dirty {
		ca := ev.nodes[a].con
		if !eligible(ca) {
			continue
		}
		// Only co-claiming pairs can conflict; the partner list
		// enumerates them directly and the maintained intersection
		// count makes the Jaccard test O(1) — no hyponym-set scans.
		for _, b := range ca.partners {
			cb := ev.nodes[b].con
			if !eligible(cb) || (isDirty(b) && b < a) {
				continue // a pair of two dirty concepts is tested from its lower ID
			}
			key, _ := packPair(a, b)
			inter := int(ev.cooc[key].shared)
			union := len(ca.hypos) + len(cb.hypos) - inter
			if float64(inter)/float64(union) >= opts.JaccardMax {
				continue
			}
			if cos := cosine(ca.sum, cb.sum); cos >= opts.CosineMax || nearlyEqual(cos, opts.CosineMax) {
				continue
			}
			ev.incompatible[key] = struct{}{}
			if moved[key] {
				delete(moved, key) // was on, still on
			} else {
				moved[key] = true // flipped on
			}
		}
	}

	// Step two: re-resolve conflicts for every affected entity.
	var kill []uint32
	if ev.allDirty {
		for id := range ev.nodes {
			if len(ev.nodes[id].claims) > 0 {
				kill = append(kill, uint32(id))
			}
		}
	} else {
		for _, e := range ev.dirtyEntities {
			ev.mark(e, flagKill, &kill)
		}
		for key := range ev.incompatible {
			if isDirty(uint32(key>>32)) || isDirty(uint32(key)) {
				moved[key] = true
			}
		}
		for key := range moved {
			// The hyponyms the pair shares: walk the smaller extent and
			// test membership on each hyponym's own few claims.
			small, large := ev.nodes[uint32(key>>32)].con, ev.nodes[uint32(key)].con
			if small == nil || large == nil {
				continue // a side lost its last hyponym: nothing is shared
			}
			if len(small.hypos) > len(large.hypos) {
				small, large = large, small
			}
			for _, e := range small.hypos {
				if ev.findClaim(e, large.id) >= 0 {
					ev.mark(e, flagKill, &kill)
				}
			}
		}
		for _, e := range kill {
			ev.nodes[e].flags &^= flagKill
		}
	}
	names := ev.syms.Names()
	var order []int // the entity's claims, by hypernym name
	for _, e := range kill {
		n := &ev.nodes[e]
		for i := range n.claims {
			n.claims[i].killed = false
		}
		if n.attrs == nil {
			continue
		}
		order = order[:0]
		for i := range n.claims {
			order = append(order, i)
		}
		// Name order makes a KL tie fall on the same side whatever order
		// the claims arrived in — and a tie is judged with a tolerance,
		// because a concept's aggregate is a running sum whose last bits
		// depend on the order its hyponyms were folded in.
		slices.SortFunc(order, func(i, j int) int {
			return strings.Compare(names[n.claims[i].hyper], names[n.claims[j].hyper])
		})
		for i, x := range order {
			for _, y := range order[i+1:] {
				c1, c2 := &n.claims[x], &n.claims[y]
				key, _ := packPair(c1.hyper, c2.hyper)
				if _, bad := ev.incompatible[key]; !bad {
					continue
				}
				k1 := klToSum(n.attrs, ev.nodes[c1.hyper].con.sum)
				k2 := klToSum(n.attrs, ev.nodes[c2.hyper].con.sum)
				if k1 > k2 && !nearlyEqual(k1, k2) {
					c1.killed = true
				} else {
					c2.killed = true
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
// head of a Chinese noun compound). It cuts w into buf[:0] and returns
// the cut for the next call to recycle; the head is a substring of w,
// not of buf.
func lexicalHead(w string, seg *segment.Segmenter, buf []string) (string, []string) {
	if seg == nil {
		return w, buf
	}
	toks := seg.CutAppend(buf[:0], w)
	for i := len(toks) - 1; i >= 0; i-- {
		if segment.IsContentToken(toks[i]) {
			return toks[i], toks
		}
	}
	return "", toks
}
