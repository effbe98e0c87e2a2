package verify

import (
	"cmp"
	"slices"
	"strings"

	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/extract"
	"cnprobase/internal/ner"
	"cnprobase/internal/symtab"
)

// Evidence carries the evidence the verification strategies consult,
// on the dense ID space the package comment describes. It is
// persistent and incrementally updatable: the pipeline builds it once
// and then folds each crawl batch forward through AddPages /
// FoldSupport / AddCandidates / RemoveCandidates, so an update touches
// only the delta instead of re-deriving evidence from every page ever
// crawled. Every mutation records which concepts, entities and words
// it touched; Reverify consumes those dirty marks to re-verify only the
// candidates whose evidence actually changed.
//
// The mutations are order-free: pages may arrive before or after the
// candidates that name them, and any interleaving leaves the evidence
// a from-scratch assembly of the same pages and pairs would build
// (TestEvidenceMatchesOracle, TestEvidenceModel).
type Evidence struct {
	// Support provides the corpus NE statistic s1. It is an
	// accumulator: updates fold delta observations in via FoldSupport.
	Support *ner.Support
	// Recognizer finds the named entities of the abstracts an update
	// folds into Support.
	Recognizer *ner.Recognizer

	// syms interns every entity ID, page title and hypernym; nodes is
	// indexed by its IDs. The table may be shared (the build's taxonomy
	// interns into it too), so it can hold IDs past the end of
	// nodes: names the evidence has no record for. preds interns
	// infobox predicates and is the evidence's own.
	syms  *symtab.Table
	preds *symtab.Table
	nodes []node
	// concepts lists the concept records (the names with at least one
	// hyponym), unordered; a record knows its position.
	concepts []*concept
	// cooc holds, per concept pair sharing at least one hyponym, the
	// shared counts strategy III-A's Jaccard and subsumption derivation
	// read in O(1), keyed by packPair.
	cooc map[uint64]coocEntry
	// incompatible is the current set of strategy-III-A incompatible
	// pairs, on the same key.
	incompatible map[uint64]struct{}

	// lastOpts remembers the thresholds the cached decisions were
	// computed under; a change invalidates everything.
	lastOpts Options
	haveOpts bool

	// Dirt accumulated since the last Reverify, as ID lists deduplicated
	// by a flag on the node: concepts whose hyponym set or aggregated
	// attributes changed, entities whose claims or attributes changed,
	// words whose NESupport inputs changed. Nothing is recorded while
	// allDirty is set — the next pass recomputes everything anyway.
	dirtyConcepts []uint32
	dirtyEntities []uint32
	dirtyNE       []uint32
	// allDirty forces a full recompute on the next pass (cold caches:
	// freshly constructed, snapshot-loaded, or option change).
	allDirty bool
	// entityDirty lists the concepts whose page extent changed since
	// the last TakeExtentPairs — the re-derivation frontier for
	// subsumption.
	entityDirty []uint32
}

// node is everything the evidence knows about one name, in each of the
// roles a name can play.
type node struct {
	// claims lists the hypernyms the name sits under as a hyponym: the
	// current candidate set, from the low-degree side.
	claims []claim
	// attrs is v_att(e), the page's normalized infobox-predicate
	// distribution; nil without an infobox.
	attrs []attr
	// con is the name's record as a hypernym; nil without hyponyms.
	con *concept
	// title is the page's title ID plus one; zero until the page is
	// seen, so candidates arriving before or after their hyponym's page
	// count toward titleEdges exactly as a from-scratch assembly would.
	title uint32
	// titleEdges counts the claims made by pages titled with this name —
	// its taxonomy occurrences as an entity, for s2.
	titleEdges uint32
	flags      uint8
}

const (
	flagTitle        uint8 = 1 << iota // the name is some page's title
	flagDirtyConcept                   // listed in dirtyConcepts
	flagDirtyEntity                    // listed in dirtyEntities
	flagDirtyNE                        // listed in dirtyNE
	flagEntityDirty                    // listed in entityDirty
	flagKill                           // listed in the running pass's kill list
)

// claim is one candidate pair, stored on its hyponym.
type claim struct {
	hyper uint32
	// pos is the hyponym's index in the hypernym's hypos, so retracting
	// the pair never searches the extent.
	pos uint32
	// reason caches the last verification decision; unaffected pairs
	// reuse it.
	reason reasonCode
	// killed is the pair's strategy-III-A kill entry.
	killed bool
	// queued marks the pair as collected into the running pass's
	// affected list.
	queued bool
}

// concept is a name's record as a hypernym. It exists while the name
// has hyponyms; with the last hyponym every field is back at its zero
// value (no shared hyponym, no contributor), so the record is dropped.
type concept struct {
	id  uint32
	pos uint32 // index in Evidence.concepts
	// hypos is the candidate hyponym set; its length is also the name's
	// taxonomy occurrence count as a hypernym, for s2.
	hypos []uint32
	// partners lists the concepts sharing at least one hyponym.
	partners []uint32
	// sum is the running sum of the attribute distributions of the
	// nAttr attribute-bearing hyponyms. v_att(c) is the sum normalized;
	// it is never materialized — cosine is scale-free and klToSum
	// divides on read — so folding one entity in or out costs that
	// entity's handful of predicates, however many hyponyms there are.
	sum   []attr
	nAttr int
	// pages counts the hyponyms that are known pages: the size of the
	// entity extent subsumption derivation reads.
	pages int
	// head caches the lexical head as of the last verification
	// (segmentation costs drift as statistics accumulate, so heads are
	// re-derived each pass and compared).
	head      string
	headKnown bool
	// ne caches the strategy-III-B rejection verdict (NESupport >
	// threshold); only a flipped verdict makes the pairs affected.
	ne, neKnown bool
}

// coocEntry is what the evidence keeps per co-claiming concept pair.
type coocEntry struct {
	shared uint32 // hyponyms the two concepts share
	pages  uint32 // of which known pages
	// pos[0] is the higher ID's index in the lower ID's partner list,
	// pos[1] the reverse.
	pos [2]uint32
}

// packPair keys a concept pair; side is a's place in it (0 = lower ID).
func packPair(a, b uint32) (key uint64, side int) {
	if a < b {
		return uint64(a)<<32 | uint64(b), 0
	}
	return uint64(b)<<32 | uint64(a), 1
}

// NewEvidence returns an empty Evidence over the given support
// accumulator and recognizer, with cold caches (the first verification
// pass recomputes everything). Names are interned in syms — the table
// the build shares with its taxonomy; nil gives the evidence a
// table of its own.
func NewEvidence(syms *symtab.Table, support *ner.Support, rec *ner.Recognizer) *Evidence {
	if syms == nil {
		syms = symtab.New()
	}
	return &Evidence{
		Support:      support,
		Recognizer:   rec,
		syms:         syms,
		preds:        symtab.New(),
		cooc:         make(map[uint64]coocEntry),
		incompatible: make(map[uint64]struct{}),
		allDirty:     true,
	}
}

// MarkAllDirty invalidates every verification cache: the next
// Reverify recomputes heads, pair statuses, kill sets and all
// candidate decisions from the current evidence.
func (ev *Evidence) MarkAllDirty() { ev.allDirty = true }

// intern returns the name's ID with its node in place.
func (ev *Evidence) intern(name string) uint32 {
	id := ev.syms.Intern(name)
	ev.grow(id)
	return id
}

// grow puts the nodes up to id in place.
func (ev *Evidence) grow(id uint32) {
	if grow := int(id) + 1 - len(ev.nodes); grow > 0 {
		ev.nodes = append(ev.nodes, make([]node, grow)...)
	}
}

// lookup returns the ID of a name the evidence has a node for.
func (ev *Evidence) lookup(name string) (uint32, bool) {
	id, ok := ev.syms.Lookup(name)
	return id, ok && int(id) < len(ev.nodes)
}

// mark lists id under flag once.
func (ev *Evidence) mark(id uint32, flag uint8, list *[]uint32) {
	if n := &ev.nodes[id]; n.flags&flag == 0 {
		n.flags |= flag
		*list = append(*list, id)
	}
}

// dirty records verification dirt; while the caches are cold anyway it
// is never read before Reverify resets it, so it is not written.
func (ev *Evidence) dirty(id uint32, flag uint8, list *[]uint32) {
	if !ev.allDirty {
		ev.mark(id, flag, list)
	}
}

// unmark empties a mark list.
func (ev *Evidence) unmark(flag uint8, list *[]uint32) {
	for _, id := range *list {
		ev.nodes[id].flags &^= flag
	}
	*list = (*list)[:0]
}

// conceptOf returns id's record as a hypernym, creating it.
func (ev *Evidence) conceptOf(id uint32) *concept {
	n := &ev.nodes[id]
	if n.con == nil {
		n.con = &concept{id: id, pos: uint32(len(ev.concepts))}
		ev.concepts = append(ev.concepts, n.con)
	}
	return n.con
}

// findClaim locates the pair on its hyponym; -1 when absent.
func (ev *Evidence) findClaim(hypo, hyper uint32) int {
	for i, cl := range ev.nodes[hypo].claims {
		if cl.hyper == hyper {
			return i
		}
	}
	return -1
}

// AddPages folds newly crawled pages into the page-derived evidence:
// titles, the ID→title mapping, and the per-entity attribute
// distributions. The pages' names are interned already: ids[2i] is page
// i's entity ID, ids[2i+1] its title. Re-crawled IDs keep their title
// mapping and overwrite their attribute distribution, exactly like a
// from-scratch pass over the concatenated corpus.
func (ev *Evidence) AddPages(pages []encyclopedia.Page, ids []uint32) {
	var scratch []attr
	for i := range pages {
		p := &pages[i]
		id, title := ids[2*i], ids[2*i+1]
		ev.grow(max(id, title))
		n := &ev.nodes[id]
		if n.title == 0 {
			n.title = title + 1
			// Candidates that referenced this hyponym before its page
			// arrived now count as title occurrences, and the hyponym
			// joins every claiming concept's page extent, pairwise.
			if len(n.claims) > 0 {
				ev.nodes[title].titleEdges += uint32(len(n.claims))
				ev.dirty(title, flagDirtyNE, &ev.dirtyNE)
			}
			for k, cl := range n.claims {
				ev.nodes[cl.hyper].con.pages++
				ev.mark(cl.hyper, flagEntityDirty, &ev.entityDirty)
				for _, other := range n.claims[k+1:] {
					ev.bumpCooc(cl.hyper, other.hyper, 0, 1)
				}
			}
		}
		if t := &ev.nodes[title]; t.flags&flagTitle == 0 {
			t.flags |= flagTitle
			ev.dirty(title, flagDirtyNE, &ev.dirtyNE)
		}
		if len(p.Infobox) == 0 {
			continue
		}
		// Infoboxes are a handful of triples: counting by scan beats a
		// map, and the total is their number.
		scratch = scratch[:0]
	triples:
		for _, t := range p.Infobox {
			pred := ev.preds.Intern(t.Predicate)
			for j := range scratch {
				if scratch[j].pred == pred {
					scratch[j].w++
					continue triples
				}
			}
			scratch = append(scratch, attr{pred, 1})
		}
		for j := range scratch {
			scratch[j].w /= float64(len(p.Infobox))
		}
		ev.setAttrs(id, sortedAttrs(scratch))
	}
}

// sortedAttrs returns a right-sized copy of v sorted by predicate ID.
func sortedAttrs(v []attr) []attr {
	v = slices.Clone(v)
	slices.SortFunc(v, func(a, b attr) int { return cmp.Compare(a.pred, b.pred) })
	return v
}

// setAttrs replaces a page's attribute distribution, moving its
// contribution to every claimed concept's aggregate.
func (ev *Evidence) setAttrs(id uint32, dist []attr) {
	n := &ev.nodes[id]
	old := n.attrs
	n.attrs = dist
	ev.dirty(id, flagDirtyEntity, &ev.dirtyEntities)
	for _, cl := range n.claims {
		con := ev.nodes[cl.hyper].con
		con.adjustAttrs(old, -1)
		con.adjustAttrs(dist, +1)
		ev.dirty(cl.hyper, flagDirtyConcept, &ev.dirtyConcepts)
	}
}

// The snapshot's page evidence. A snapshot names a page's entity by its
// serving-view node ID and its attribute predicates by their index in
// one predicate table sorted once per save; PagesAlong resolves the
// evidence into that shape, and ImportPage (after InternPredicates)
// restores it.

// Attr is one component of a page's attribute distribution as a
// snapshot stores it: a predicate, named by its index in a predicate
// table, and its weight.
type Attr struct {
	Pred   uint32
	Weight float64
}

// PageIndex is the page-derived evidence resolved along a table of
// names ascending in byte order — a serving view's node names: first
// the pages whose entity the table holds, in table order, then the
// pages whose entity it does not, in name order. Preds is the
// predicate table, ascending; AppendAttrs names predicates by their
// index in it. The index describes the evidence as of PagesAlong and
// is walked by position, as often as needed.
type PageIndex struct {
	Preds []string
	ev    *Evidence
	names []string // the evidence's symbol names
	rank  []uint32 // predicate ID → index in Preds
	pages []uint32 // page symbol IDs: the table's pages, then the rest
	nodes []uint32 // for the table's pages: their index in the table
	// onTable maps a symbol ID to its index in the table plus one; zero
	// for a name the table does not hold.
	onTable []uint32
}

// PagesAlong indexes the page evidence along a table of n names, name(i)
// the i-th — a serving view's NodeCount and Name, so the table is read
// in place. It resolves each name of the table once and sorts only the
// predicates — and, when some page's entity is missing from the table,
// those pages.
func (ev *Evidence) PagesAlong(n int, name func(i uint32) string) *PageIndex {
	p := &PageIndex{ev: ev, names: ev.syms.Names()}
	preds := ev.preds.Names()
	order := make([]uint32, len(preds)) // rank → predicate ID
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int { return strings.Compare(preds[a], preds[b]) })
	p.Preds, p.rank = make([]string, len(order)), make([]uint32, len(order))
	for r, id := range order {
		p.Preds[r], p.rank[id] = preds[id], uint32(r)
	}

	total := 0
	for i := range ev.nodes {
		if ev.nodes[i].title != 0 {
			total++
		}
	}
	p.pages = make([]uint32, 0, total)
	p.onTable = make([]uint32, len(p.names))
	for i := range uint32(n) {
		id, ok := ev.syms.Lookup(name(i))
		if !ok || int(id) >= len(p.onTable) {
			continue
		}
		p.onTable[id] = i + 1
		if int(id) < len(ev.nodes) && ev.nodes[id].title != 0 {
			p.pages = append(p.pages, id)
			p.nodes = append(p.nodes, i)
		}
	}
	if len(p.pages) == total {
		return p
	}
	from := len(p.pages)
	for id := range ev.nodes {
		if ev.nodes[id].title != 0 && p.onTable[id] == 0 {
			p.pages = append(p.pages, uint32(id))
		}
	}
	rest := p.pages[from:]
	slices.SortFunc(rest, func(a, b uint32) int { return strings.Compare(p.names[a], p.names[b]) })
	return p
}

// Len returns the number of pages.
func (p *PageIndex) Len() int { return len(p.pages) }

// OnTable returns how many pages — the first ones — have their entity
// in the table.
func (p *PageIndex) OnTable() int { return len(p.nodes) }

// Node returns page i's entity's index in the table; i < OnTable().
func (p *PageIndex) Node(i int) uint32 { return p.nodes[i] }

// IndexOf returns the index in the table of the name with symbol ID id,
// if the table holds it: how a kept pair, named by IDs, finds its edge.
func (p *PageIndex) IndexOf(id uint32) (uint32, bool) {
	if int(id) >= len(p.onTable) || p.onTable[id] == 0 {
		return 0, false
	}
	return p.onTable[id] - 1, true
}

// Name returns the name of symbol ID id.
func (p *PageIndex) Name(id uint32) string { return p.names[id] }

// Entity returns page i's entity ID.
func (p *PageIndex) Entity(i int) string { return p.names[p.pages[i]] }

// Title returns page i's title.
func (p *PageIndex) Title(i int) string { return p.names[p.ev.nodes[p.pages[i]].title-1] }

// AppendAttrs appends page i's normalized infobox-predicate
// distribution, predicates by their index in Preds and ascending, and
// returns the extended slice (nothing for a page without an infobox).
func (p *PageIndex) AppendAttrs(dst []Attr, i int) []Attr {
	from := len(dst)
	for _, a := range p.ev.nodes[p.pages[i]].attrs {
		dst = append(dst, Attr{p.rank[a.pred], a.w})
	}
	// Stored by predicate ID; after a snapshot load IDs are ranks.
	if out := dst[from:]; !slices.IsSortedFunc(out, cmpAttr) {
		slices.SortFunc(out, cmpAttr)
	}
	return dst
}

func cmpAttr(a, b Attr) int { return cmp.Compare(a.Pred, b.Pred) }

// InternPredicates interns a snapshot's predicate table and returns
// each predicate's ID, in table order: what ImportPage's attributes
// name predicates by. Interned into an evidence that has none yet, IDs
// are table indexes.
func (ev *Evidence) InternPredicates(table []string) []uint32 {
	ids := make([]uint32, len(table))
	for i, pred := range table {
		ids[i] = ev.preds.Intern(pred)
	}
	return ids
}

// ImportPage restores one page's evidence from a snapshot: entity and
// title are IDs in the evidence's symbol table, and attrs names
// predicates by the IDs InternPredicates returned, each at most once.
// It is the deserialization counterpart of AddPages and must run
// before AddPair, so edge counting sees the title mapping.
func (ev *Evidence) ImportPage(entity, title uint32, attrs []Attr) {
	ev.grow(max(entity, title))
	ev.nodes[entity].title = title + 1
	ev.nodes[title].flags |= flagTitle
	if len(attrs) == 0 {
		return
	}
	dist := make([]attr, len(attrs))
	for i, a := range attrs {
		dist[i] = attr{a.Pred, a.Weight}
	}
	slices.SortFunc(dist, func(a, b attr) int { return cmp.Compare(a.pred, b.pred) })
	ev.nodes[entity].attrs = dist
}

// FoldSupport merges delta NE-support observations into the persistent
// accumulator and marks every touched word NE-dirty, so candidates
// whose hypernym's s1 moved are re-verified. Only words the evidence
// names can be hypernyms, so only those are marked.
func (ev *Evidence) FoldSupport(delta *ner.Support) {
	if delta == nil {
		return
	}
	ev.Support.Merge(delta)
	if ev.allDirty {
		return
	}
	for _, w := range delta.Words() {
		if id, ok := ev.lookup(w); ok {
			ev.mark(id, flagDirtyNE, &ev.dirtyNE)
		}
	}
}

// AddCandidates folds candidate pairs, named by IDs of the evidence's
// symbol table, into the edge-derived evidence; pairs already present
// are ignored (the evidence is per distinct (hypo, hyper) pair,
// matching the deduplicated set a from-scratch assembly consumes).
// Returns how many pairs were new.
func (ev *Evidence) AddCandidates(cands []extract.Candidate) int {
	added := 0
	for i := range cands {
		if ev.AddPair(cands[i].Hypo, cands[i].Hyper) {
			added++
		}
	}
	return added
}

// AddPair is AddCandidates for one pair. It reports whether the pair
// was new.
func (ev *Evidence) AddPair(hypo, hyper uint32) bool {
	ev.grow(max(hypo, hyper))
	if ev.findClaim(hypo, hyper) >= 0 {
		return false
	}
	con := ev.conceptOf(hyper)
	n := &ev.nodes[hypo]
	var page int32
	if n.title != 0 {
		page = 1
	}
	for _, cl := range n.claims {
		ev.bumpCooc(hyper, cl.hyper, 1, page)
	}
	n.claims = append(n.claims, claim{hyper: hyper, pos: uint32(len(con.hypos))})
	con.hypos = append(con.hypos, hypo)
	con.adjustAttrs(n.attrs, +1)
	ev.dirty(hyper, flagDirtyNE, &ev.dirtyNE)
	ev.dirty(hyper, flagDirtyConcept, &ev.dirtyConcepts)
	ev.dirty(hypo, flagDirtyEntity, &ev.dirtyEntities)
	if page != 0 {
		ev.nodes[n.title-1].titleEdges++
		ev.dirty(n.title-1, flagDirtyNE, &ev.dirtyNE)
		con.pages++
		ev.mark(hyper, flagEntityDirty, &ev.entityDirty)
	}
	return true
}

// RemoveCandidates retracts candidate pairs from the edge-derived
// evidence — the counterpart of AddCandidates, applied after a
// verification pass rejects previously kept pairs. Unknown pairs are
// ignored.
func (ev *Evidence) RemoveCandidates(cands []extract.Candidate) {
	for i := range cands {
		hypo, hyper := cands[i].Hypo, cands[i].Hyper
		if int(max(hypo, hyper)) >= len(ev.nodes) {
			continue
		}
		at := ev.findClaim(hypo, hyper)
		if at < 0 {
			continue
		}
		n, con := &ev.nodes[hypo], ev.nodes[hyper].con
		// Swap the pair out of both lists; the hyponym moved into the
		// vacated extent slot learns its new position.
		slot, last := n.claims[at].pos, len(con.hypos)-1
		if moved := con.hypos[last]; moved != hypo {
			con.hypos[slot] = moved
			ev.nodes[moved].claims[ev.findClaim(moved, hyper)].pos = slot
		}
		con.hypos = con.hypos[:last]
		n.claims[at] = n.claims[len(n.claims)-1]
		n.claims = n.claims[:len(n.claims)-1]

		var page int32
		if n.title != 0 {
			page = 1
		}
		for _, cl := range n.claims {
			ev.bumpCooc(hyper, cl.hyper, -1, -page)
		}
		con.adjustAttrs(n.attrs, -1)
		ev.dirty(hyper, flagDirtyNE, &ev.dirtyNE)
		ev.dirty(hyper, flagDirtyConcept, &ev.dirtyConcepts)
		ev.dirty(hypo, flagDirtyEntity, &ev.dirtyEntities)
		if page != 0 {
			ev.nodes[n.title-1].titleEdges--
			ev.dirty(n.title-1, flagDirtyNE, &ev.dirtyNE)
			con.pages--
			ev.mark(hyper, flagEntityDirty, &ev.entityDirty)
		}
		if last == 0 {
			tail := ev.concepts[len(ev.concepts)-1]
			ev.concepts[con.pos], tail.pos = tail, con.pos
			ev.concepts = ev.concepts[:len(ev.concepts)-1]
			ev.nodes[hyper].con = nil
		}
	}
}

// bumpCooc adjusts what a concept pair shares — hyponyms, and pages
// among them — maintaining the partner lists and dropping the entry
// with the last shared hyponym. Both concepts have their records.
func (ev *Evidence) bumpCooc(a, b uint32, shared, pages int32) {
	key, side := packPair(a, b)
	lo, hi := a, b
	if side == 1 {
		lo, hi = b, a
	}
	e, ok := ev.cooc[key]
	if !ok {
		cl, ch := ev.nodes[lo].con, ev.nodes[hi].con
		e.pos = [2]uint32{uint32(len(cl.partners)), uint32(len(ch.partners))}
		cl.partners = append(cl.partners, hi)
		ch.partners = append(ch.partners, lo)
	}
	e.shared = uint32(int32(e.shared) + shared)
	e.pages = uint32(int32(e.pages) + pages)
	if e.shared == 0 {
		ev.dropPartner(lo, e.pos[0])
		ev.dropPartner(hi, e.pos[1])
		delete(ev.cooc, key)
		return
	}
	ev.cooc[key] = e
}

// dropPartner swaps the partner at index at out of c's partner list;
// the partner moved into the slot has its stored position corrected.
func (ev *Evidence) dropPartner(c, at uint32) {
	con := ev.nodes[c].con
	last := uint32(len(con.partners) - 1)
	moved := con.partners[last]
	con.partners = con.partners[:last]
	if at == last {
		return
	}
	con.partners[at] = moved
	key, side := packPair(c, moved)
	e := ev.cooc[key]
	e.pos[side] = at
	ev.cooc[key] = e
}

// attrResidue separates a real predicate mass from the rounding
// residue a subtraction leaves when a predicate's last contributor is
// retracted. One contributor adds count/|infobox| ≥ 1/|infobox|, orders
// of magnitude above it; residue is ~1e-16 per operation.
const attrResidue = 1e-9

// adjustAttrs folds one entity's attribute distribution into (sign +1)
// or out of (sign -1) the concept's aggregate. Entities without
// attributes contribute nothing, exactly as a from-scratch aggregation
// skips them; a concept whose last contributor leaves has no aggregate.
func (c *concept) adjustAttrs(dist []attr, sign int) {
	if len(dist) == 0 {
		return
	}
	if c.nAttr += sign; c.nAttr <= 0 {
		c.nAttr, c.sum = 0, c.sum[:0]
		return
	}
	for _, a := range dist {
		i, found := findAttr(c.sum, a.pred)
		s := float64(sign) * a.w
		if found {
			s += c.sum[i].w
		}
		switch {
		case s > attrResidue && found:
			c.sum[i].w = s
		case s > attrResidue:
			c.sum = slices.Insert(c.sum, i, attr{a.pred, s})
		case found:
			c.sum = slices.Delete(c.sum, i, i+1)
		}
	}
}

// ExtentPair is an ordered pair of concepts that share known pages,
// with the integer extents subsumption derivation decides on.
type ExtentPair struct {
	// Sub and Super name the pair's sides in the order the caller's
	// filter accepted them.
	Sub, Super string
	// SubExtent counts the known pages under Sub, Overlap those under
	// both.
	SubExtent, Overlap int
}

// TakeExtentPairs returns the re-derivation frontier for subsumption
// and clears it: every ordered pair (c1, c2) of concepts sharing at
// least one known page in which a side's page extent changed since the
// last call, restricted to the pairs whose extents pass keep. The walk
// — dirty concepts × their partners — runs on IDs and counters; keep
// sees the two extents before the pair's shared count is looked up or
// a name resolved, so a filter that rejects nearly everything makes
// the call cost nearly nothing. A pair with both sides dirty is
// reported once per side. After construction or a snapshot load every
// concept with page hyponyms is dirty, so the first call covers
// everything.
func (ev *Evidence) TakeExtentPairs(keep func(n1, n2 int) bool) []ExtentPair {
	var out []ExtentPair
	names := ev.syms.Names()
	for _, a := range ev.entityDirty {
		ca := ev.nodes[a].con
		if ca == nil {
			continue
		}
		for _, b := range ca.partners {
			cb := ev.nodes[b].con
			fwd, rev := keep(ca.pages, cb.pages), keep(cb.pages, ca.pages)
			if !fwd && !rev {
				continue
			}
			key, _ := packPair(a, b)
			shared := int(ev.cooc[key].pages)
			if shared == 0 {
				continue
			}
			if fwd {
				out = append(out, ExtentPair{names[a], names[b], ca.pages, shared})
			}
			if rev {
				out = append(out, ExtentPair{names[b], names[a], cb.pages, shared})
			}
		}
	}
	ev.unmark(flagEntityDirty, &ev.entityDirty)
	return out
}

// Hyponyms returns how many candidate pairs name symbol ID id as their
// hypernym: between update batches, when the evidence describes the
// kept pairs, the kept hyponyms the taxonomy does not index.
func (ev *Evidence) Hyponyms(id uint32) int {
	if int(id) < len(ev.nodes) && ev.nodes[id].con != nil {
		return len(ev.nodes[id].con.hypos)
	}
	return 0
}

// Holds reports whether (hypo, hyper) is a candidate pair of the
// evidence: between update batches, whether it is kept.
func (ev *Evidence) Holds(hypo, hyper uint32) bool {
	return int(hypo) < len(ev.nodes) && ev.findClaim(hypo, hyper) >= 0
}

// S2 is the taxonomy NE support of the paper: the fraction of a word's
// taxonomy occurrences in which it behaves as an entity (a page title
// appearing as a hyponym) rather than as a concept (a hypernym).
func (ev *Evidence) S2(w string) float64 {
	id, ok := ev.lookup(w)
	if !ok {
		return 0
	}
	n := &ev.nodes[id]
	te, he := int(n.titleEdges), 0
	if n.con != nil {
		he = len(n.con.hypos)
	}
	if n.flags&flagTitle == 0 || te+he == 0 {
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
