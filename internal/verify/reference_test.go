package verify

// The map-based Evidence this package shipped before its tables moved
// to dense IDs, kept verbatim as the naive reference: string-keyed maps
// all the way down, every set a map[string]bool. The tests drive it and
// the dense Evidence through the same operations and compare what the
// two hold (TestEvidenceModel, TestEvidenceMatchesOracle).

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"

	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/extract"
	"cnprobase/internal/lexicon"
	"cnprobase/internal/ner"
	"cnprobase/internal/segment"
	"cnprobase/internal/symtab"
	"cnprobase/internal/taxonomy"
)

// named is a candidate named by strings: the form the reference
// evidence works on and the test fixtures are written in. The dense
// Evidence takes candidates on IDs; onIDs and byName cross over.
type named struct {
	Hypo, Hyper string
	Source      taxonomy.Source
}

// namedDecision is a Decision named by strings.
type namedDecision struct {
	Hypo, Hyper string
	Reason      Reason
}

// onIDs interns the candidates' names in syms.
func onIDs(syms *symtab.Table, cs []named) []extract.Candidate {
	out := make([]extract.Candidate, len(cs))
	for i, c := range cs {
		out[i] = extract.Candidate{Hypo: syms.Intern(c.Hypo), Hyper: syms.Intern(c.Hyper), Source: c.Source}
	}
	return out
}

// pageIDs interns the pages' entity IDs and titles in syms, in the
// interleaved form Evidence.AddPages takes.
func pageIDs(syms *symtab.Table, pages []encyclopedia.Page) []uint32 {
	var ids []uint32
	for i := range pages {
		ids = append(ids, syms.Intern(pages[i].ID()), syms.Intern(pages[i].Title))
	}
	return ids
}

// byName resolves candidates on IDs of syms to names.
func byName(syms *symtab.Table, cs []extract.Candidate) []named {
	names := syms.Names()
	var out []named
	for _, c := range cs {
		out = append(out, named{names[c.Hypo], names[c.Hyper], c.Source})
	}
	return out
}

// decisionsByName resolves decisions on IDs of syms to names.
func decisionsByName(syms *symtab.Table, ds []Decision) []namedDecision {
	names := syms.Names()
	out := make([]namedDecision, len(ds))
	for i, d := range ds {
		out[i] = namedDecision{names[d.Hypo], names[d.Hyper], d.Reason}
	}
	return out
}

// dedupeNamed is extract.Dedupe on names: duplicates folded (sources
// OR-ed), sorted by (Hypo, Hyper) name.
func dedupeNamed(cs []named) []named {
	at := make(map[edgeKey]int)
	var out []named
	for _, c := range cs {
		if i, ok := at[edgeKey{c.Hypo, c.Hyper}]; ok {
			out[i].Source |= c.Source
			continue
		}
		at[edgeKey{c.Hypo, c.Hyper}] = len(out)
		out = append(out, c)
	}
	slices.SortFunc(out, func(a, b named) int {
		return cmp.Or(strings.Compare(a.Hypo, b.Hypo), strings.Compare(a.Hyper, b.Hyper))
	})
	return out
}

// verifyNamed is Verify on named candidates; the evidence interns
// their names.
func verifyNamed(cs []named, ev *Evidence, seg *segment.Segmenter, opts Options) ([]named, Report) {
	ev.MarkAllDirty()
	return verifyDeltaNamed(cs, ev, seg, opts)
}

// verifyDeltaNamed is VerifyDelta on named candidates.
func verifyDeltaNamed(cs []named, ev *Evidence, seg *segment.Segmenter, opts Options) ([]named, Report) {
	kept, rep := VerifyDelta(onIDs(ev.syms, cs), ev, seg, opts, 1)
	return byName(ev.syms, kept), rep
}

// mapEvidence is the reference evidence.
type mapEvidence struct {
	// EntityAttrs maps entity ID → normalized infobox-predicate
	// distribution v_att(e).
	EntityAttrs map[string]map[string]float64
	// conceptAttrs maps concept → v_att(c), the attribute distribution
	// aggregated over its candidate hyponyms, as a running sum that
	// every candidate and page mutation adjusts by the one entity it
	// concerns (see mapAttrSum).
	conceptAttrs map[string]*mapAttrSum
	// Hyponyms maps concept → candidate hyponym set.
	Hyponyms map[string]map[string]bool
	// Support provides the corpus NE statistic s1. It is an
	// accumulator: updates fold delta observations in via FoldSupport.
	Support *ner.Support
	// Recognizer classifies isolated words.
	Recognizer *ner.Recognizer
	// EntityTitles is the set of page titles (taxonomy NE evidence s2).
	EntityTitles map[string]bool

	// titleEdges / hyperEdges count taxonomy occurrences of a word as
	// an entity title vs as a hypernym, for s2.
	titleEdges map[string]int
	hyperEdges map[string]int
	// titleByID maps page ID → page title, so candidates arriving
	// before or after their hyponym's page still count toward
	// titleEdges exactly as a from-scratch assembly would count them.
	titleByID map[string]string
	// byHypo maps hypo → set of hypers: the current candidate set,
	// inverted. It mirrors Hyponyms and exists so per-entity work
	// (incompatibility resolution, dirty propagation) is O(degree).
	byHypo map[string]map[string]bool
	// entityHypos maps concept → the subset of its hyponyms that are
	// known pages, maintained incrementally for consumers that need
	// entity-only extents (subsumption derivation) without rebuilding
	// filtered sets from the store every batch.
	entityHypos map[string]map[string]bool
	// cooc counts, per canonical concept pair, how many hyponyms the
	// two concepts share — exactly the intersection strategy III-A's
	// Jaccard needs, maintained on candidate add/remove so pair
	// statistics cost O(1) instead of a set scan. coocPartners indexes
	// it by concept for enumeration. entityCooc / entityCoocPartners
	// are the page-only counterparts subsumption derivation reads.
	cooc               map[pairKey]int
	coocPartners       map[string]map[string]bool
	entityCooc         map[pairKey]int
	entityCoocPartners map[string]map[string]bool
	// entityDirty accumulates the concepts whose entity extent changed
	// since the last TakeEntityDirtyConcepts — the re-derivation
	// frontier for subsumption.
	entityDirty map[string]bool

	// ---- verification caches, maintained by Reverify ----

	// heads caches the hypernym's lexical head as of the last
	// verification (segmentation costs drift as statistics accumulate,
	// so heads are re-derived each pass and compared).
	heads map[string]string
	// neVerdict caches the strategy-III-B rejection verdict per
	// hypernym (NESupport > threshold); only a flipped verdict makes a
	// hypernym's candidates affected.
	neVerdict map[string]bool
	// incompatible holds the current strategy-III-A pair statuses.
	incompatible map[pairKey]bool
	// killed holds the current strategy-III-A kill set.
	killed map[edgeKey]bool
	// decisions caches the last verification decision per candidate
	// pair ("" = kept); unaffected candidates reuse it.
	decisions map[edgeKey]Reason
	// lastOpts remembers the thresholds the caches were computed
	// under; a change invalidates everything.
	lastOpts Options
	haveOpts bool

	// ---- dirt accumulated since the last Reverify ----

	// dirtyConcepts: concepts whose hyponym set or aggregated
	// attribute distribution changed (pair statuses and kill sets
	// involving them must be recomputed).
	dirtyConcepts map[string]bool
	// dirtyEntities: entities whose claimed-concept set or attribute
	// distribution changed (their kill entries must be recomputed).
	dirtyEntities map[string]bool
	// dirtyNE: words whose NESupport inputs (s1 counts, title/hyper
	// edge counts, entity-title membership) changed.
	dirtyNE map[string]bool
	// allDirty forces a full recompute on the next pass (cold caches:
	// freshly constructed, snapshot-loaded, or option change).
	allDirty bool
}

// newMapEvidence returns an empty mapEvidence over the given support
// accumulator and recognizer, with cold caches (the first verification
// pass recomputes everything).
func newMapEvidence(support *ner.Support, rec *ner.Recognizer) *mapEvidence {
	return &mapEvidence{
		EntityAttrs:        make(map[string]map[string]float64),
		conceptAttrs:       make(map[string]*mapAttrSum),
		Hyponyms:           make(map[string]map[string]bool),
		Support:            support,
		Recognizer:         rec,
		EntityTitles:       make(map[string]bool),
		titleEdges:         make(map[string]int),
		hyperEdges:         make(map[string]int),
		titleByID:          make(map[string]string),
		byHypo:             make(map[string]map[string]bool),
		entityHypos:        make(map[string]map[string]bool),
		cooc:               make(map[pairKey]int),
		coocPartners:       make(map[string]map[string]bool),
		entityCooc:         make(map[pairKey]int),
		entityCoocPartners: make(map[string]map[string]bool),
		entityDirty:        make(map[string]bool),
		heads:              make(map[string]string),
		neVerdict:          make(map[string]bool),
		incompatible:       make(map[pairKey]bool),
		killed:             make(map[edgeKey]bool),
		decisions:          make(map[edgeKey]Reason),
		dirtyConcepts:      make(map[string]bool),
		dirtyEntities:      make(map[string]bool),
		dirtyNE:            make(map[string]bool),
		allDirty:           true,
	}
}

// newMapContext assembles verification evidence from the corpus and the
// merged candidate set in one shot — the from-scratch path the
// incremental operations are equivalence-tested against.
func newMapContext(c *encyclopedia.Corpus, cands []named, support *ner.Support, rec *ner.Recognizer) *mapEvidence {
	ev := newMapEvidence(support, rec)
	ev.AddPages(c.Pages)
	ev.AddCandidates(cands)
	return ev
}

// MarkAllDirty invalidates every verification cache: the next
// Reverify recomputes heads, pair statuses, kill sets and all
// candidate decisions from the current evidence.
func (ev *mapEvidence) MarkAllDirty() { ev.allDirty = true }

// AddPages folds newly crawled pages into the page-derived evidence:
// entity titles, the ID→title mapping, and the per-entity attribute
// distributions. Re-crawled IDs keep their title mapping and overwrite
// their attribute distribution, exactly like a from-scratch pass over
// the concatenated corpus.
func (ev *mapEvidence) AddPages(pages []encyclopedia.Page) {
	for i := range pages {
		p := &pages[i]
		id := p.ID()
		if _, seen := ev.titleByID[id]; !seen {
			ev.titleByID[id] = p.Title
			// Candidates that referenced this hyponym before its page
			// arrived now count as title occurrences, and the hyponym
			// joins its concepts' entity extents.
			if n := len(ev.byHypo[id]); n > 0 {
				ev.titleEdges[p.Title] += n
				ev.dirtyNE[p.Title] = true
				// The late-arriving page joins every claiming
				// concept's entity extent, pairwise.
				var cs []string
				for hyper := range ev.byHypo[id] {
					ev.addEntityHypo(hyper, id)
					cs = append(cs, hyper)
				}
				for i := 0; i < len(cs); i++ {
					for j := i + 1; j < len(cs); j++ {
						ev.bumpEntityCooc(cs[i], cs[j], 1)
					}
				}
			}
		}
		if !ev.EntityTitles[p.Title] {
			ev.EntityTitles[p.Title] = true
			ev.dirtyNE[p.Title] = true
		}
		if len(p.Infobox) == 0 {
			continue
		}
		dist := make(map[string]float64, len(p.Infobox))
		for _, t := range p.Infobox {
			dist[t.Predicate]++
		}
		normalize(dist)
		old := ev.EntityAttrs[id]
		ev.EntityAttrs[id] = dist
		ev.dirtyEntities[id] = true
		for hyper := range ev.byHypo[id] {
			ev.adjustConceptAttrs(hyper, old, -1)
			ev.adjustConceptAttrs(hyper, dist, +1)
			ev.dirtyConcepts[hyper] = true
		}
	}
}

// FoldSupport merges delta NE-support observations into the persistent
// accumulator and marks every touched word NE-dirty, so candidates
// whose hypernym's s1 moved are re-verified.
func (ev *mapEvidence) FoldSupport(delta *ner.Support) {
	if delta == nil {
		return
	}
	ev.Support.Merge(delta)
	for _, w := range delta.Words() {
		ev.dirtyNE[w] = true
	}
}

// AddCandidates folds candidate pairs into the edge-derived evidence;
// pairs already present are ignored (the evidence is per distinct
// (hypo, hyper) pair, matching the deduplicated set a from-scratch
// assembly consumes). Returns how many pairs were new.
func (ev *mapEvidence) AddCandidates(cands []named) int {
	added := 0
	for _, c := range cands {
		hypers := ev.byHypo[c.Hypo]
		if hypers == nil {
			hypers = make(map[string]bool)
			ev.byHypo[c.Hypo] = hypers
		}
		if hypers[c.Hyper] {
			continue
		}
		_, isPage := ev.titleByID[c.Hypo]
		for d := range hypers {
			ev.bumpCooc(c.Hyper, d, 1)
			if isPage {
				ev.bumpEntityCooc(c.Hyper, d, 1)
			}
		}
		hypers[c.Hyper] = true
		hs := ev.Hyponyms[c.Hyper]
		if hs == nil {
			hs = make(map[string]bool)
			ev.Hyponyms[c.Hyper] = hs
		}
		hs[c.Hypo] = true
		ev.adjustConceptAttrs(c.Hyper, ev.EntityAttrs[c.Hypo], +1)
		ev.hyperEdges[c.Hyper]++
		ev.dirtyNE[c.Hyper] = true
		ev.dirtyConcepts[c.Hyper] = true
		ev.dirtyEntities[c.Hypo] = true
		if t, ok := ev.titleByID[c.Hypo]; ok {
			ev.titleEdges[t]++
			ev.dirtyNE[t] = true
			ev.addEntityHypo(c.Hyper, c.Hypo)
		}
		added++
	}
	return added
}

// bumpCooc adjusts the shared-hyponym count of a concept pair,
// maintaining the partner index and dropping entries that reach zero.
func (ev *mapEvidence) bumpCooc(a, b string, delta int) {
	pk := orderedPair(a, b)
	n := ev.cooc[pk] + delta
	if n <= 0 {
		delete(ev.cooc, pk)
		ev.dropPartner(a, b)
		ev.dropPartner(b, a)
		return
	}
	ev.cooc[pk] = n
	ev.addPartner(a, b)
	ev.addPartner(b, a)
}

func (ev *mapEvidence) addPartner(a, b string) {
	m := ev.coocPartners[a]
	if m == nil {
		m = make(map[string]bool)
		ev.coocPartners[a] = m
	}
	m[b] = true
}

func (ev *mapEvidence) dropPartner(a, b string) {
	if m := ev.coocPartners[a]; m != nil {
		delete(m, b)
		if len(m) == 0 {
			delete(ev.coocPartners, a)
		}
	}
}

// bumpEntityCooc adjusts the page-only shared-hyponym count of a
// concept pair — the overlap subsumption derivation reads.
func (ev *mapEvidence) bumpEntityCooc(a, b string, delta int) {
	pk := orderedPair(a, b)
	n := ev.entityCooc[pk] + delta
	if n <= 0 {
		delete(ev.entityCooc, pk)
		ev.dropEntityPartner(a, b)
		ev.dropEntityPartner(b, a)
		return
	}
	ev.entityCooc[pk] = n
	ev.addEntityPartner(a, b)
	ev.addEntityPartner(b, a)
}

func (ev *mapEvidence) addEntityPartner(a, b string) {
	m := ev.entityCoocPartners[a]
	if m == nil {
		m = make(map[string]bool)
		ev.entityCoocPartners[a] = m
	}
	m[b] = true
}

func (ev *mapEvidence) dropEntityPartner(a, b string) {
	if m := ev.entityCoocPartners[a]; m != nil {
		delete(m, b)
		if len(m) == 0 {
			delete(ev.entityCoocPartners, a)
		}
	}
}

// EntityOverlap returns how many known pages the two concepts share.
func (ev *mapEvidence) EntityOverlap(a, b string) int { return ev.entityCooc[orderedPair(a, b)] }

// EntityPartners returns the concepts sharing at least one page with
// c (the evidence's own index — read-only).
func (ev *mapEvidence) EntityPartners(c string) map[string]bool { return ev.entityCoocPartners[c] }

// TakeEntityDirtyConcepts returns and clears the set of concepts whose
// entity extent changed since the last call — the re-derivation
// frontier for subsumption. After construction or a snapshot load the
// set covers every concept with entity hyponyms, so the first
// derivation pass evaluates everything.
func (ev *mapEvidence) TakeEntityDirtyConcepts() map[string]bool {
	out := ev.entityDirty
	ev.entityDirty = make(map[string]bool)
	return out
}

// addEntityHypo records that the known page hypo sits under hyper.
func (ev *mapEvidence) addEntityHypo(hyper, hypo string) {
	hs := ev.entityHypos[hyper]
	if hs == nil {
		hs = make(map[string]bool)
		ev.entityHypos[hyper] = hs
	}
	hs[hypo] = true
	ev.entityDirty[hyper] = true
}

// EntityHyponyms returns the subset of a concept's hyponyms that are
// known pages. The returned map is the evidence's own index — callers
// must treat it as read-only.
func (ev *mapEvidence) EntityHyponyms(concept string) map[string]bool {
	return ev.entityHypos[concept]
}

// RemoveCandidates retracts candidate pairs from the edge-derived
// evidence — the counterpart of AddCandidates, applied after a
// verification pass rejects previously kept pairs. Unknown pairs are
// ignored.
func (ev *mapEvidence) RemoveCandidates(cands []named) {
	for _, c := range cands {
		hypers := ev.byHypo[c.Hypo]
		if hypers == nil || !hypers[c.Hyper] {
			continue
		}
		delete(hypers, c.Hyper)
		_, isPage := ev.titleByID[c.Hypo]
		for d := range hypers {
			ev.bumpCooc(c.Hyper, d, -1)
			if isPage {
				ev.bumpEntityCooc(c.Hyper, d, -1)
			}
		}
		if len(hypers) == 0 {
			delete(ev.byHypo, c.Hypo)
		}
		if hs := ev.Hyponyms[c.Hyper]; hs != nil {
			delete(hs, c.Hypo)
			if len(hs) == 0 {
				delete(ev.Hyponyms, c.Hyper)
			}
		}
		ev.adjustConceptAttrs(c.Hyper, ev.EntityAttrs[c.Hypo], -1)
		if ev.hyperEdges[c.Hyper]--; ev.hyperEdges[c.Hyper] <= 0 {
			delete(ev.hyperEdges, c.Hyper)
		}
		ev.dirtyNE[c.Hyper] = true
		ev.dirtyConcepts[c.Hyper] = true
		ev.dirtyEntities[c.Hypo] = true
		if t, ok := ev.titleByID[c.Hypo]; ok {
			if ev.titleEdges[t]--; ev.titleEdges[t] <= 0 {
				delete(ev.titleEdges, t)
			}
			ev.dirtyNE[t] = true
			if hs := ev.entityHypos[c.Hyper]; hs != nil {
				delete(hs, c.Hypo)
				if len(hs) == 0 {
					delete(ev.entityHypos, c.Hyper)
				}
				ev.entityDirty[c.Hyper] = true
			}
		}
		k := edgeKey{c.Hypo, c.Hyper}
		delete(ev.decisions, k)
		delete(ev.killed, k)
	}
}

// mapAttrSum is one concept's aggregated attribute evidence: the sum of
// the attribute distributions of its n attribute-bearing candidate
// hyponyms. v_att(c) is the sum normalized; it is never materialized —
// cosine is scale-free and klToSum divides on read — so folding one
// entity in or out costs that entity's handful of predicates, however
// many hyponyms the concept has.
type mapAttrSum struct {
	sum map[string]float64
	n   int
}

// adjustConceptAttrs folds one entity's attribute distribution into
// (sign +1) or out of (sign -1) the concept's aggregate. Entities
// without attributes contribute nothing, exactly as a from-scratch
// aggregation skips them; a concept whose last contributor leaves
// loses its entry.
func (ev *mapEvidence) adjustConceptAttrs(concept string, dist map[string]float64, sign int) {
	if len(dist) == 0 {
		return
	}
	a := ev.conceptAttrs[concept]
	if a == nil {
		a = &mapAttrSum{sum: make(map[string]float64, len(dist))}
		ev.conceptAttrs[concept] = a
	}
	if a.n += sign; a.n <= 0 {
		delete(ev.conceptAttrs, concept)
		return
	}
	for k, v := range dist {
		if s := a.sum[k] + float64(sign)*v; s > attrResidue {
			a.sum[k] = s
		} else {
			delete(a.sum, k)
		}
	}
}

// conceptAttrSum returns the concept's aggregated (unnormalized)
// attribute mass; nil when no hyponym carries attributes.
func (ev *mapEvidence) conceptAttrSum(concept string) map[string]float64 {
	if a := ev.conceptAttrs[concept]; a != nil {
		return a.sum
	}
	return nil
}

// S2 is the taxonomy NE support of the paper: the fraction of a word's
// taxonomy occurrences in which it behaves as an entity (a page title
// appearing as a hyponym) rather than as a concept (a hypernym).
func (ev *mapEvidence) S2(w string) float64 {
	te, he := ev.titleEdges[w], ev.hyperEdges[w]
	if !ev.EntityTitles[w] || te+he == 0 {
		return 0
	}
	return float64(te) / float64(te+he)
}

// NESupport combines corpus and taxonomy support with the paper's
// noisy-or (Equation 2): s(H) = 1 − (1−s1)(1−s2).
func (ev *mapEvidence) NESupport(h string) float64 {
	s1 := ev.Support.S1(h)
	s2 := ev.S2(h)
	return 1 - (1-s1)*(1-s2)
}

// mapVerifyDelta brings the decisions up to date (see Reverify) and then
// walks the whole candidate set to assemble the survivors and the
// report — the shape the one-shot build path and the evidence oracle
// tests need. cands must be the deduplicated candidate set the evidence
// was built over (the pairs previously added minus those removed); the
// kept slice comes back in cands order, exactly as a full Verify would
// produce it. The update pipeline does not call this: it splices the
// few re-decided pairs into its sorted kept list instead of walking
// the union.
func mapVerifyDelta(cands []named, ev *mapEvidence, seg *segment.Segmenter, opts Options) ([]named, Report) {
	_, rep := ev.Reverify(seg, opts)
	rep.Input, rep.Rejected = len(cands), make(map[Reason]int)
	var kept []named
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
func (ev *mapEvidence) Reverify(seg *segment.Segmenter, opts Options) ([]namedDecision, Report) {
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
	dirtyHead := make(map[string]bool)
	if opts.EnableSyntax {
		heads := make(map[string]string, len(ev.Hyponyms))
		for hyper := range ev.Hyponyms {
			head, _ := lexicalHead(hyper, seg, nil)
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
	decided := make([]namedDecision, 0, len(affected))
	for _, pair := range affected {
		decided = append(decided, namedDecision{Hypo: pair.hypo, Hyper: pair.hyper, Reason: ev.decide(pair.hypo, pair.hyper, seg, opts)})
	}
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
func (ev *mapEvidence) decide(hypo, hyper string, seg *segment.Segmenter, opts Options) Reason {
	if opts.EnableSyntax {
		if lexicon.IsThematic(hyper) {
			return ReasonThematic
		}
		head, cached := ev.heads[hyper]
		if !cached {
			head, _ = lexicalHead(hyper, seg, nil)
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
func (ev *mapEvidence) affectedPairs(dirtyHead, neChanged, killSet map[string]bool) []edgeKey {
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
func (ev *mapEvidence) refreshNEVerdicts(opts Options) map[string]bool {
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
func (ev *mapEvidence) recomputeIncompatible(opts Options) map[string]bool {
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
			if cos := mapCosine(ev.conceptAttrSum(pk.a), ev.conceptAttrSum(pk.b)); cos >= opts.CosineMax || nearlyEqual(cos, opts.CosineMax) {
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
				k1 := mapKLToSum(attr, ev.conceptAttrSum(c1))
				k2 := mapKLToSum(attr, ev.conceptAttrSum(c2))
				if k1 > k2 && !nearlyEqual(k1, k2) {
					ev.killed[edgeKey{e, c1}] = true
				} else {
					ev.killed[edgeKey{e, c2}] = true
				}
			}
		}
	}
	return kill
}

func normalize(d map[string]float64) {
	sum := 0.0
	for _, v := range d {
		sum += v
	}
	if sum == 0 {
		return
	}
	for k := range d {
		d[k] /= sum
	}
}

// sortedKeys fixes the order the oracle sums floats in: map iteration
// order would make its last bits differ from run to run.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// mapCosine returns the cosine similarity of two sparse distributions.
func mapCosine(a, b map[string]float64) float64 {
	var dot, na, nb float64
	for _, k := range sortedKeys(a) {
		v := a[k]
		na += v * v
		if w, ok := b[k]; ok {
			dot += v * w
		}
	}
	for _, k := range sortedKeys(b) {
		nb += b[k] * b[k]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// jaccard returns |a∩b| / |a∪b|.
func jaccard(a, b map[string]bool) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	small, large := a, b
	if len(small) > len(large) {
		small, large = large, small
	}
	inter := 0
	for k := range small {
		if large[k] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// mapKLToSum is KL against the distribution an unnormalized mass sum
// describes: D_KL(p ‖ sum/Σsum).
func mapKLToSum(p, sum map[string]float64) float64 {
	total := 0.0
	for _, k := range sortedKeys(sum) {
		total += sum[k]
	}
	if total == 0 {
		total = 1
	}
	return klScaled(p, sum, total)
}

// klScaled computes D_KL(p ‖ q/scale).
func klScaled(p, q map[string]float64, scale float64) float64 {
	const eps = 1e-6
	sum := 0.0
	for _, k := range sortedKeys(p) {
		pv := p[k]
		if pv <= 0 {
			continue
		}
		qv := q[k] / scale
		if qv <= 0 {
			qv = eps
		}
		sum += pv * math.Log(pv/qv)
	}
	return sum
}

// entityEvidence is one page's persistent evidence, materialized.
type entityEvidence struct {
	ID    string
	Title string
	// Attrs is the normalized infobox-predicate distribution sorted by
	// predicate; empty for pages without an infobox.
	Attrs []oracleAttr
}

// oracleAttr is one component of a materialized attribute distribution.
type oracleAttr struct {
	Predicate string
	Weight    float64
}

// exportEntitiesOracle is the name-sorted export PagesAlong replaced:
// every page materialized, predicates by name, then the whole list
// sorted by entity ID.
func exportEntitiesOracle(ev *Evidence) []entityEvidence {
	pages, total := 0, 0
	for i := range ev.nodes {
		if n := &ev.nodes[i]; n.title != 0 {
			pages++
			total += len(n.attrs)
		}
	}
	out := make([]entityEvidence, 0, pages)
	flat := make([]oracleAttr, 0, total) // one backing array for every page's vector
	for id := range ev.nodes {
		n := &ev.nodes[id]
		if n.title == 0 {
			continue
		}
		from := len(flat)
		for _, a := range n.attrs {
			flat = append(flat, oracleAttr{ev.preds.Names()[a.pred], a.w})
		}
		attrs := flat[from:len(flat):len(flat)]
		slices.SortFunc(attrs, func(a, b oracleAttr) int { return strings.Compare(a.Predicate, b.Predicate) })
		out = append(out, entityEvidence{ID: ev.syms.Names()[id], Title: ev.syms.Names()[n.title-1], Attrs: attrs})
	}
	slices.SortFunc(out, func(a, b entityEvidence) int { return strings.Compare(a.ID, b.ID) })
	return out
}
