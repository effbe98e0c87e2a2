// Package serving implements the immutable, read-optimized serving
// view of a built taxonomy — the classic build/serve split of the
// CN-Probase deployment. The lists in internal/taxonomy are the *write*
// model: what the pipeline assembles and extends. A View is the *read*
// model: compiled once from the lists (or opened over a snapshot's
// image), it answers the paper's three APIs — men2ent,
// getConcept, getEntity — with zero locks and near-zero allocation per
// query.
//
// Layout: node names are interned to dense uint32 IDs assigned in
// sorted order (so ascending IDs are ascending strings and adjacency
// stored by ID is already in canonical name order; a view with a delta
// adds IDs past these, see below). Adjacency
// is CSR-style — one flat edge array plus per-node offsets — and every
// per-edge array is integer-only: an edge's endpoint is an ID, and its
// name is read off the name table when it is asked for. So publishing a
// view copies no string headers and hands the collector nothing to
// scan per edge. The view ranks one direction, P(concept | entity): each
// node's hypernym segment has a typicality permutation — 4-byte
// positions, computed once per segment — and a ranked entry's ID and
// score are read off the CSR arrays (RankedHypernymAt). The hyponym
// side is adjacency only, in ID order, which is what getEntity serves.
// Mentions live in one flat sorted table resolved by binary search.
//
// The two sorted string tables, node names and mentions, are kept in
// the snapshot image's own form on every view: one byte arena plus an
// n+1 offset array (table). A name is read as a string over the arena
// bytes, valid for the life of the view, so neither table holds a
// string header per entry: a mapped view aliases the file's arenas and
// offsets, and a heap view's two tables are four pointer-free arrays
// whatever their length. A mention's entities are node IDs
// (mentionEnts), read by MentionEntities and named through Name, so no
// array of a view holds a pointer per element.
//
// The View is the one read model: the taxonomy keeps no query methods
// of its own. What each query answers is pinned against the
// string-keyed model in internal/taxonomy's model test, and the HTTP
// responses built on them against recorded goldens. Returned slices are
// views into shared immutable arrays, which callers must not modify —
// except the name lists of Hypernyms, Hyponyms and Lookup, built fresh per
// call.
//
// Beside the name-keyed queries of the three APIs the view has an
// ID-native read surface for the handlers and the application engines
// (conceptualize, qa), which are its only read model: ID resolves a
// name once, the *Of methods and RankedHypernymAt read kind, hypernym
// IDs, rankings and evidence total of an ID, FindMentionsAppend scans a
// text and hands back each surface with its mention-table row, whose
// entities MentionEntities reads as node IDs, and NamePrefixesAppend
// finds the node names that are prefixes of a string in one pass over
// the sorted table.
//
// Every flat view has this one layout, whether compiled, folded or
// mapped over a snapshot: a name or mention is found by binary search
// over its sorted table, and a text scan seeks growing prefixes in the
// mention table behind a first-rune filter (one bit per rune some
// mention starts with, built in one pass at construction, never
// stored), so a position that starts no mention costs one bit test.
//
// A publication need not rebuild that layout. Patch hands out a flat
// base plus a delta — the rows, in the same layout, of the nodes and
// mentions written since the base (see delta): the base's arrays are
// shared, not copied, every query reads a written node's or mention's
// row from the delta and any other from the base, and the base's node
// IDs stay put, so on such a view IDs ascend with names only among the
// base's nodes and CompareIDs orders any two. Fold merges the base's
// rows and the delta's into a flat view by ID — an integer renumbering,
// no name compared, nothing re-derived — and that flat view is what an
// image is written from. On a flat view every query pays one nil check
// for this.
package serving

import (
	"strings"
	"unicode/utf8"
	"unsafe"

	"cnprobase/internal/taxonomy"
)

// View is the immutable serving view. The zero value is not usable;
// build one with Compile, Patch, Fold or OpenImage. Three of them build
// the flat layout: Compile reads a taxonomy straight into it, Fold
// merges a base and its delta into it by ID, and OpenImage maps it over
// an image; Compile and OpenImage fill the derived arrays with the one
// derivation, buildDerived. Patch lays a delta over a flat view. A View
// is safe for unlimited concurrent use and never changes after
// construction — servers swap whole Views atomically to pick up new
// data (see api.Server.SwapView).
type View struct {
	names table // id → name, sorted ascending; an ID is its name's rank
	kinds []taxonomy.NodeKind

	// Hypernym CSR: node i's outgoing edges occupy index range
	// [hyperOff[i], hyperOff[i+1]) in the flat arrays. hyperIDs is
	// ascending within each node (canonical order); hyperRank is the
	// same range's positions (0 = hyperOff[i]) in typicality order —
	// evidence count descending, then ID ascending (rank). Edge
	// provenance, its sources, is stored on this side, aligned with
	// hyperIDs; an edge's evidence count is the number of its sources
	// (taxonomy.Source.Evidence), so it is never stored. No per-edge
	// array holds a pointer.
	hyperOff    []uint32
	hyperIDs    []uint32
	hyperRank   []uint32
	edgeSources []taxonomy.Source
	hyperTotals []int64 // per node: Σ evidence counts of outgoing edges

	// Hyponym CSR, the transpose of the hypernym side: hypoIDs is
	// ascending within each node, and that ID order is the one getEntity
	// answers in. It carries no ranking and no evidence: everything an
	// edge holds lives in the hypernym CSR.
	hypoOff []uint32
	hypoIDs []uint32

	// Mention table: mentions sorted ascending, every one valid UTF-8
	// (the taxonomy stores them so); mention i's entities are the node
	// IDs mentionEnts[mentionOff[i]:mentionOff[i+1]], ascending, so in
	// name order. Every entity a mention names is a node: one the
	// taxonomy neither marks nor links is a node of unknown kind with no
	// edge (see Compile). A text scan seeks prefixes in the table behind
	// mentionFirst, the set of runes some mention starts with.
	mentions     table
	mentionOff   []uint32
	mentionEnts  []uint32
	mentionFirst runeSet

	stats taxonomy.Stats

	// delta is nil on a flat view. On a view with a delta the arrays
	// above are its base's, shared, and the delta holds the rows written
	// since (see delta).
	delta *delta
}

// table is a sorted string table in the image's own form: entry i is
// arena[off[i]:off[i+1]], and off has one entry more than the table
// has rows (the zero table has none). at reads an entry as a string
// over the arena, so the table holds no string header per entry.
type table struct {
	arena []byte
	off   []uint32
}

//cnp:noalloc
func (t table) len() int { return max(len(t.off)-1, 0) }

// at is entry i. Its bytes are addressed without a second bounds
// check: the offsets ascend and end at len(arena), which construction
// guarantees and the image validator checks before a mapped view
// exists.
//
//cnp:noalloc
func (t table) at(i int) string {
	lo, hi := t.off[i], t.off[i+1]
	return unsafe.String((*byte)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(t.arena)), lo)), int(hi-lo))
}

// push appends s as the table's next entry.
func (t *table) push(s string) {
	t.arena = append(t.arena, s...)
	t.off = append(t.off, uint32(len(t.arena)))
}

// The ID-native read surface. On a flat view a node's ID is its rank
// in the sorted name table, so IDs ascend with names; on a view with a
// delta they ascend with names only among the base's nodes, and
// CompareIDs orders any two (see delta). IDs stay valid for the life of
// the view (never across views). The application engines resolve each
// name once with ID and read everything else by it — no second search,
// no hash. The *Of methods panic on an ID the view did not hand out.

// ID resolves a node name to its ID. from is where to look: 0, or one
// past the previous answer when resolving an ascending list of names (a
// mention's entities) — the search then gallops from there, so
// neighbours in the name table resolve in a few comparisons. name must
// not sort below node from. On a view with a delta a new node's name is
// searched in the delta's own table, and a from past the base's nodes
// searches the base from its start.
//
//cnp:noalloc
func (v *View) ID(name string, from uint32) (uint32, bool) {
	if d := v.delta; d != nil {
		id, ok := v.find(name, from)
		return id, ok && !d.isDead(id)
	}
	if i := v.names.seek(int(from), name); i < v.names.len() && v.names.at(i) == name {
		return uint32(i), true
	}
	return 0, false
}

// find is ID before the dead nodes of a delta are ruled out.
//
//cnp:noalloc
func (v *View) find(name string, from uint32) (uint32, bool) {
	d := v.delta
	if d != nil && from > d.nBase {
		from = 0
	}
	if i := v.names.seek(int(from), name); i < v.names.len() && v.names.at(i) == name {
		return uint32(i), true
	}
	if d != nil {
		if r := d.rows.names.seek(0, name); r < d.rows.names.len() && d.rows.names.at(r) == name {
			return d.newIDs[r], true
		}
	}
	return 0, false
}

// Name returns the name of node id.
//
//cnp:noalloc
func (v *View) Name(id uint32) string {
	if v.delta != nil {
		return v.delta.name(id)
	}
	return v.names.at(int(id))
}

// KindOf returns the kind of node id.
//
//cnp:noalloc
func (v *View) KindOf(id uint32) taxonomy.NodeKind {
	if v.delta != nil {
		v, id = v.delta.node(id)
	}
	return v.kinds[id]
}

// HypernymIDsOf returns the direct hypernyms of node id, their IDs in
// name order (CompareIDs) — Hypernyms' names in the same order. The
// returned slice is shared: do not modify it.
//
//cnp:noalloc
func (v *View) HypernymIDsOf(id uint32) []uint32 {
	if v.delta != nil {
		v, id = v.delta.node(id)
	}
	return v.hyperIDs[v.hyperOff[id]:v.hyperOff[id+1]]
}

// HyponymIDsOf returns the direct hyponyms of node id, their IDs in name
// order (CompareIDs) — Hyponyms' names in the same order. The returned
// slice is shared: do not modify it.
//
//cnp:noalloc
func (v *View) HyponymIDsOf(id uint32) []uint32 {
	if v.delta != nil {
		v, id = v.delta.node(id)
	}
	return v.hypoIDs[v.hypoOff[id]:v.hypoOff[id+1]]
}

// RankedHypernymAt returns node id's hypernym of typicality rank r (0
// is the most typical; r < len(HypernymIDsOf(id))) and its typicality
// P(hyper | id): evidence count — the number of the edge's sources —
// descending, ties in name order.
//
//cnp:noalloc
func (v *View) RankedHypernymAt(id uint32, r int) (uint32, float64) {
	if v.delta != nil {
		v, id = v.delta.node(id)
	}
	lo := v.hyperOff[id]
	j := lo + v.hyperRank[lo:v.hyperOff[id+1]][r]
	return v.hyperIDs[j], typicality(int64(v.edgeSources[j].Evidence()), v.hyperTotals[id])
}

// typicality is an evidence count's share of its segment's total, zero
// when the total is — the one expression behind every score the view
// answers (RankedHypernymAt).
//
//cnp:noalloc
func typicality(count, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(count) / float64(total)
}

// EvidenceTotalOf returns the summed evidence count behind node id's
// outgoing isA edges — Σ EdgeOf(id, h).Sources.Evidence() over its
// hypernyms, the denominator of RankedHypernymAt's scores.
//
//cnp:noalloc
func (v *View) EvidenceTotalOf(id uint32) int64 {
	if v.delta != nil {
		v, id = v.delta.node(id)
	}
	return v.hyperTotals[id]
}

// NamePrefixesAppend appends the IDs of the nodes whose names are
// prefixes of s between minRunes and maxRunes runes long, shortest
// first: one narrowing over the sorted name table, a rune at a time
// (seekPrefix), instead of one search per length — and on a view with
// a delta a second over the new nodes' names, the two runs merged by
// length. s must be valid UTF-8.
//
//cnp:noalloc
func (v *View) NamePrefixesAppend(dst []uint32, s string, minRunes, maxRunes int) []uint32 {
	start := len(dst)
	dst = v.names.prefixesAppend(dst, nil, s, minRunes, maxRunes)
	if d := v.delta; d != nil {
		dst = d.rows.names.prefixesAppend(dst, d.newIDs, s, minRunes, maxRunes)
		n := start
		for _, id := range dst[start:] {
			if !d.isDead(id) {
				dst[n] = id
				n++
			}
		}
		dst = dst[:n]
		// Each run is shortest first, and no two names are one length.
		for i := start + 1; i < len(dst); i++ {
			for j := i; j > start && len(v.Name(dst[j-1])) > len(v.Name(dst[j])); j-- {
				dst[j-1], dst[j] = dst[j], dst[j-1]
			}
		}
	}
	return dst
}

// prefixesAppend appends the rows of t's entries that are prefixes of
// s between minRunes and maxRunes runes long, shortest first, mapped
// through ids when it is not nil.
//
//cnp:noalloc
func (t table) prefixesAppend(dst, ids []uint32, s string, minRunes, maxRunes int) []uint32 {
	at, end := 0, 0
	for k := 1; k <= maxRunes && end < len(s); k++ {
		_, size := utf8.DecodeRuneInString(s[end:])
		end += size
		if at = t.seekPrefix(at, s[:end]); at < 0 {
			break
		}
		if k >= minRunes && len(t.at(at)) == end {
			if ids != nil {
				dst = append(dst, ids[at])
			} else {
				dst = append(dst, uint32(at))
			}
		}
	}
	return dst
}

// EdgeAt returns the sources of edge i, an index EdgeIndex handed out.
// On a flat view it indexes the flat hypernym array: node u's edges are
// the len(HypernymIDsOf(u)) indexes that follow those of the nodes
// below u, so edges are numbered by (hyponym ID, hypernym ID). The
// snapshot's evidence section names kept pairs by this number, which is
// why the snapshot writer folds a view first. On a view with a delta,
// the indexes past the base's edges are the delta's.
//
//cnp:noalloc
func (v *View) EdgeAt(i uint32) taxonomy.Source {
	if d := v.delta; d != nil && i >= uint32(len(v.edgeSources)) {
		return d.rows.edgeSources[i-uint32(len(v.edgeSources))]
	}
	return v.edgeSources[i]
}

// MentionRow returns the row of mention s in the sorted mention table,
// s taken as stored (Lookup trims its query first) — on a view with a
// delta, the delta's row when it holds one. from is where to look, as
// for ID: 0, or one past an earlier answer for a mention that sorts at
// or above it.
//
//cnp:noalloc
func (v *View) MentionRow(s string, from uint32) (uint32, bool) {
	if d := v.delta; d != nil {
		// The delta's row of a mention replaces the base's, and is
		// numbered past the base's rows.
		if i := d.rows.mentions.seek(0, s); i < d.rows.mentions.len() && d.rows.mentions.at(i) == s {
			return uint32(v.mentions.len() + i), true
		}
		if from > uint32(v.mentions.len()) {
			from = 0
		}
	}
	if i := v.mentions.seek(int(from), s); i < v.mentions.len() && v.mentions.at(i) == s {
		return uint32(i), true
	}
	return 0, false
}

// NodeCount returns the number of nodes.
//
//cnp:noalloc
func (v *View) NodeCount() int {
	if d := v.delta; d != nil {
		return d.nodeCount
	}
	return v.names.len()
}

// EdgeCount returns the number of isA edges.
//
//cnp:noalloc
func (v *View) EdgeCount() int {
	if v.delta != nil {
		return v.stats.IsARelations
	}
	return len(v.hyperIDs)
}

// MentionCount returns the number of distinct mentions.
//
//cnp:noalloc
func (v *View) MentionCount() int {
	if d := v.delta; d != nil {
		return d.mentionCount
	}
	return v.mentions.len()
}

// Nodes returns all node names, sorted, in a slice built fresh on each
// call (one allocation of NodeCount string headers): the view keeps its
// names in one byte arena, not as a list (on a view with a delta, two,
// merged here). The strings share the view's bytes and stay valid for
// its life. Name reads one name by ID without allocating.
func (v *View) Nodes() []string {
	d := v.delta
	if d == nil {
		return tableStrings(v.names, false)
	}
	out := make([]string, 0, d.nodeCount)
	i, j := 0, 0
	for i < v.names.len() || j < d.rows.names.len() {
		if j == d.rows.names.len() || (i < v.names.len() && v.names.at(i) < d.rows.names.at(j)) {
			if !d.isDead(uint32(i)) {
				out = append(out, v.names.at(i))
			}
			i++
		} else {
			if !d.isDead(d.newIDs[j]) {
				out = append(out, d.rows.names.at(j))
			}
			j++
		}
	}
	return out
}

// Stats returns the Table-I-shaped summary computed at compile time.
//
//cnp:noalloc
func (v *View) Stats() taxonomy.Stats { return v.stats }

// Kind returns the node kind of name.
//
//cnp:noalloc
func (v *View) Kind(name string) taxonomy.NodeKind {
	if id, ok := v.ID(name, 0); ok {
		return v.KindOf(id)
	}
	return taxonomy.KindUnknown
}

// Hypernyms returns the direct hypernyms of node in canonical (sorted)
// order — the getConcept API's answer, as a fresh slice (one
// allocation; HypernymIDsOf reads the same list without one). Nil when
// the node is unknown or has no hypernyms.
func (v *View) Hypernyms(node string) []string {
	id, ok := v.ID(node, 0)
	if !ok {
		return nil
	}
	return v.namesOf(v.HypernymIDsOf(id))
}

// Hyponyms returns up to limit direct hyponyms of a concept in
// canonical order — the getEntity API's answer, as a fresh slice (one
// allocation; HyponymIDsOf reads the same list without one); limit <= 0
// means all. Nil when the concept is unknown or has no hyponyms.
func (v *View) Hyponyms(concept string, limit int) []string {
	id, ok := v.ID(concept, 0)
	if !ok {
		return nil
	}
	ids := v.HyponymIDsOf(id)
	if limit > 0 && limit < len(ids) {
		ids = ids[:limit]
	}
	return v.namesOf(ids)
}

// namesOf resolves ids to a fresh slice of names, nil when there are
// none.
func (v *View) namesOf(ids []uint32) []string {
	if len(ids) == 0 {
		return nil
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = v.Name(id)
	}
	return out
}

// EdgeIndex locates the index of edge (hypoID → hyperID), the number
// EdgeAt reads, by binary search over the node's hypernym IDs in name
// order (CompareIDs). Hand-rolled (no sort.Search closure) to keep
// EdgeOf at 0 allocs/op.
//
//cnp:noalloc
func (v *View) EdgeIndex(hypoID, hyperID uint32) (uint32, bool) {
	r, i := v.node(hypoID)
	off, end := r.hyperOff[i], r.hyperOff[i+1]
	seg := r.hyperIDs[off:end]
	lo, hi := 0, len(seg)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v.CompareIDs(seg[mid], hyperID) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(seg) && seg[lo] == hyperID {
		if v.delta != nil && r == &v.delta.rows {
			off += uint32(len(v.edgeSources)) // a delta row
		}
		return off + uint32(lo), true
	}
	return 0, false
}

// EdgeOf returns the edge with its full provenance, if present. No
// production path calls it since the conceptualization engine reads
// evidence totals by ID (EvidenceTotalOf); it stays as the facade's
// per-edge provenance query and is what the model, delta and image
// equivalence tests compare edge payloads through.
//
//cnp:noalloc
func (v *View) EdgeOf(hypo, hyper string) (taxonomy.Edge, bool) {
	hypoID, ok := v.ID(hypo, 0)
	hyperID, ok2 := v.ID(hyper, 0)
	if !ok || !ok2 {
		return taxonomy.Edge{}, false
	}
	i, ok := v.EdgeIndex(hypoID, hyperID)
	if !ok {
		return taxonomy.Edge{}, false
	}
	return taxonomy.Edge{
		Hypo:    hypo,
		Hyper:   hyper,
		Sources: v.EdgeAt(i),
	}, true
}

// Ancestors returns all transitive hypernyms of node, breadth-first
// with each node's hypernyms in name order, excluding node itself.
// Cycles are tolerated.
func (v *View) Ancestors(node string) []string {
	start, ok := v.ID(node, 0)
	if !ok {
		return nil
	}
	seen := map[uint32]bool{start: true}
	var out []string
	queue := append([]uint32(nil), v.HypernymIDsOf(start)...)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		out = append(out, v.Name(cur))
		queue = append(queue, v.HypernymIDsOf(cur)...)
	}
	return out
}

// Lookup returns the entity IDs a mention may refer to, sorted — the
// men2ent API — as a fresh slice of names (one allocation, as for
// Hypernyms; MentionRow and MentionEntities read the same list as node
// IDs without one). Nil when the mention is unknown.
func (v *View) Lookup(mention string) []string {
	i, ok := v.MentionRow(strings.TrimSpace(mention), 0)
	if !ok {
		return nil
	}
	return v.namesOf(v.MentionEntities(int32(i)))
}
