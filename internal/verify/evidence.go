package verify

import (
	"sort"

	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/extract"
	"cnprobase/internal/ner"
)

// Evidence carries the evidence the verification strategies consult.
// Unlike the one-shot context it evolved from, an Evidence is
// persistent and incrementally updatable: the pipeline builds it once
// (NewContext) and then folds each crawl batch forward through
// AddPages / FoldSupport / AddCandidates / RemoveCandidates, so an
// update touches only the delta instead of re-deriving evidence from
// every page ever crawled. Every mutation records which concepts,
// entities and words it touched; VerifyDelta consumes those dirty sets
// to re-verify only the candidates whose evidence actually changed.
//
// NewContext remains the from-scratch assembly path and is the oracle
// the incremental operations are pinned against (TestEvidenceMatchesOracle).
type Evidence struct {
	// EntityAttrs maps entity ID → normalized infobox-predicate
	// distribution v_att(e).
	EntityAttrs map[string]map[string]float64
	// conceptAttrs maps concept → v_att(c), the attribute distribution
	// aggregated over its candidate hyponyms, as a running sum that
	// every candidate and page mutation adjusts by the one entity it
	// concerns (see attrSum).
	conceptAttrs map[string]*attrSum
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

// NewEvidence returns an empty Evidence over the given support
// accumulator and recognizer, with cold caches (the first verification
// pass recomputes everything).
func NewEvidence(support *ner.Support, rec *ner.Recognizer) *Evidence {
	return &Evidence{
		EntityAttrs:        make(map[string]map[string]float64),
		conceptAttrs:       make(map[string]*attrSum),
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

// NewContext assembles verification evidence from the corpus and the
// merged candidate set in one shot — the from-scratch path the
// incremental operations are equivalence-tested against.
func NewContext(c *encyclopedia.Corpus, cands []extract.Candidate, support *ner.Support, rec *ner.Recognizer) *Evidence {
	ev := NewEvidence(support, rec)
	ev.AddPages(c.Pages)
	ev.AddCandidates(cands)
	return ev
}

// MarkAllDirty invalidates every verification cache: the next
// Reverify recomputes heads, pair statuses, kill sets and all
// candidate decisions from the current evidence.
func (ev *Evidence) MarkAllDirty() { ev.allDirty = true }

// AddPages folds newly crawled pages into the page-derived evidence:
// entity titles, the ID→title mapping, and the per-entity attribute
// distributions. Re-crawled IDs keep their title mapping and overwrite
// their attribute distribution, exactly like a from-scratch pass over
// the concatenated corpus.
func (ev *Evidence) AddPages(pages []encyclopedia.Page) {
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

// ImportEntity restores one page's evidence from a snapshot: the
// ID→title mapping and (when non-empty) the attribute distribution.
// It is the deserialization counterpart of AddPages and must run
// before AddCandidates so edge counting sees the title mapping.
func (ev *Evidence) ImportEntity(id, title string, attrs map[string]float64) {
	ev.titleByID[id] = title
	ev.EntityTitles[title] = true
	if len(attrs) > 0 {
		ev.EntityAttrs[id] = attrs
	}
}

// EntityEvidence is one page's persistent evidence, as exported for
// snapshots.
type EntityEvidence struct {
	ID    string
	Title string
	// Attrs is the normalized infobox-predicate distribution; empty
	// for pages without an infobox.
	Attrs map[string]float64
}

// ExportEntities returns the page-derived evidence sorted by entity
// ID, for deterministic serialization.
func (ev *Evidence) ExportEntities() []EntityEvidence {
	out := make([]EntityEvidence, 0, len(ev.titleByID))
	for id, title := range ev.titleByID {
		out = append(out, EntityEvidence{ID: id, Title: title, Attrs: ev.EntityAttrs[id]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// FoldSupport merges delta NE-support observations into the persistent
// accumulator and marks every touched word NE-dirty, so candidates
// whose hypernym's s1 moved are re-verified.
func (ev *Evidence) FoldSupport(delta *ner.Support) {
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
func (ev *Evidence) AddCandidates(cands []extract.Candidate) int {
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
func (ev *Evidence) bumpCooc(a, b string, delta int) {
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

func (ev *Evidence) addPartner(a, b string) {
	m := ev.coocPartners[a]
	if m == nil {
		m = make(map[string]bool)
		ev.coocPartners[a] = m
	}
	m[b] = true
}

func (ev *Evidence) dropPartner(a, b string) {
	if m := ev.coocPartners[a]; m != nil {
		delete(m, b)
		if len(m) == 0 {
			delete(ev.coocPartners, a)
		}
	}
}

// bumpEntityCooc adjusts the page-only shared-hyponym count of a
// concept pair — the overlap subsumption derivation reads.
func (ev *Evidence) bumpEntityCooc(a, b string, delta int) {
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

func (ev *Evidence) addEntityPartner(a, b string) {
	m := ev.entityCoocPartners[a]
	if m == nil {
		m = make(map[string]bool)
		ev.entityCoocPartners[a] = m
	}
	m[b] = true
}

func (ev *Evidence) dropEntityPartner(a, b string) {
	if m := ev.entityCoocPartners[a]; m != nil {
		delete(m, b)
		if len(m) == 0 {
			delete(ev.entityCoocPartners, a)
		}
	}
}

// EntityOverlap returns how many known pages the two concepts share.
func (ev *Evidence) EntityOverlap(a, b string) int { return ev.entityCooc[orderedPair(a, b)] }

// EntityPartners returns the concepts sharing at least one page with
// c (the evidence's own index — read-only).
func (ev *Evidence) EntityPartners(c string) map[string]bool { return ev.entityCoocPartners[c] }

// TakeEntityDirtyConcepts returns and clears the set of concepts whose
// entity extent changed since the last call — the re-derivation
// frontier for subsumption. After construction or a snapshot load the
// set covers every concept with entity hyponyms, so the first
// derivation pass evaluates everything.
func (ev *Evidence) TakeEntityDirtyConcepts() map[string]bool {
	out := ev.entityDirty
	ev.entityDirty = make(map[string]bool)
	return out
}

// addEntityHypo records that the known page hypo sits under hyper.
func (ev *Evidence) addEntityHypo(hyper, hypo string) {
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
func (ev *Evidence) EntityHyponyms(concept string) map[string]bool {
	return ev.entityHypos[concept]
}

// RemoveCandidates retracts candidate pairs from the edge-derived
// evidence — the counterpart of AddCandidates, applied after a
// verification pass rejects previously kept pairs. Unknown pairs are
// ignored.
func (ev *Evidence) RemoveCandidates(cands []extract.Candidate) {
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

// attrSum is one concept's aggregated attribute evidence: the sum of
// the attribute distributions of its n attribute-bearing candidate
// hyponyms. v_att(c) is the sum normalized; it is never materialized —
// cosine is scale-free and klToSum divides on read — so folding one
// entity in or out costs that entity's handful of predicates, however
// many hyponyms the concept has.
type attrSum struct {
	sum map[string]float64
	n   int
}

// attrResidue separates a real predicate mass from the rounding
// residue a subtraction leaves when a predicate's last contributor is
// retracted. One contributor adds count/|infobox| ≥ 1/|infobox|, orders
// of magnitude above it; residue is ~1e-16 per operation.
const attrResidue = 1e-9

// adjustConceptAttrs folds one entity's attribute distribution into
// (sign +1) or out of (sign -1) the concept's aggregate. Entities
// without attributes contribute nothing, exactly as a from-scratch
// aggregation skips them; a concept whose last contributor leaves
// loses its entry.
func (ev *Evidence) adjustConceptAttrs(concept string, dist map[string]float64, sign int) {
	if len(dist) == 0 {
		return
	}
	a := ev.conceptAttrs[concept]
	if a == nil {
		a = &attrSum{sum: make(map[string]float64, len(dist))}
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
func (ev *Evidence) conceptAttrSum(concept string) map[string]float64 {
	if a := ev.conceptAttrs[concept]; a != nil {
		return a.sum
	}
	return nil
}

// S2 is the taxonomy NE support of the paper: the fraction of a word's
// taxonomy occurrences in which it behaves as an entity (a page title
// appearing as a hyponym) rather than as a concept (a hypernym).
func (ev *Evidence) S2(w string) float64 {
	te, he := ev.titleEdges[w], ev.hyperEdges[w]
	if !ev.EntityTitles[w] || te+he == 0 {
		return 0
	}
	return float64(te) / float64(te+he)
}

// NESupport combines corpus and taxonomy support with the paper's
// noisy-or (Equation 2): s(H) = 1 − (1−s1)(1−s2).
func (ev *Evidence) NESupport(h string) float64 {
	s1 := ev.Support.S1(h)
	s2 := ev.S2(h)
	return 1 - (1-s1)*(1-s2)
}
