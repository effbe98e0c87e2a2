package serving

import (
	"cmp"
	"math"
	"slices"

	"cnprobase/internal/taxonomy"
)

// A delta is what a publication adds to the last flat view: the rows of
// the nodes and mentions written since that view, its base. A view
// with a delta answers every query for a node or mention the delta
// holds from the delta's row, and every other from the base's arrays,
// which it shares rather than copies — the LSM shape: a large immutable
// base plus a small change set, merged at read time, folded into one
// flat layout only now and then (Fold).
//
// Node IDs do not move while the base stands. The base's nodes keep
// their IDs, and a node new since the base takes the next ID past the
// base's last, in arrival order. So on a view with a delta ascending ID
// is not ascending name: every ordered row the delta holds — a node's
// hypernyms and hyponyms, a mention's entities — is in name order, and
// CompareIDs is the one comparison that puts IDs in that order. On a
// flat view it is a plain integer compare.
type delta struct {
	base  *View  // the flat view the delta lies over; the view shares its arrays
	nBase uint32 // base.NodeCount(): the first ID of a new node

	// rows holds the delta's rows in the View layout, one node row per
	// slot and one mention row per mention the delta rewrites. Slot s <
	// len(touched) is base node touched[s]; slot len(touched)+i is new
	// node i, whose ID is nBase+i. rows.names holds the new nodes' names,
	// ascending; rows.mentions the delta's mentions, ascending, with
	// their entities in name order.
	rows    View
	touched []uint32 // base node IDs the delta rewrites, ascending

	newRow []uint32 // new node i → its row of rows.names
	newIDs []uint32 // row of rows.names → node ID
	keys   []uint64 // new node i → its order key (see key)

	// dead lists, ascending, the nodes the delta holds that have left
	// the taxonomy: their rows are empty and ID does not resolve them.
	dead []uint32

	// mentioned is the set of base nodes a base mention names, built
	// when a node the view holds first reads as absent and shared along
	// the deltas over the same base (see mentions).
	mentioned []uint64

	nodeCount, mentionCount int // NodeCount and MentionCount of the view
}

// foldShare is the fold point: a delta whose rows pass 1/foldShare of
// its base's (nodes plus mentions) has outgrown it, and the next
// publication folds it (Outgrown). A fold copies the flat arrays, and
// every delta publication copies the delta's rows, so the share trades
// the one against the other: with F the fold's bytes, W the base's rows,
// b the rows a batch writes and c the bytes a delta row costs, the bytes
// per batch F·b/(f·W) + c·f·W/2 are least near f = √(2·F·b/(c·W²)). At
// 30k entities (F ≈ 4.7 MB, W ≈ 72k, b ≈ 150, c ≈ 125 B, the hyponym
// lists of the concepts a batch names included) that is 1/21, and at
// 300k with 300-page batches about the same; 1/16 is a round figure
// near both.
const foldShare = 16

// slot returns the delta row of node id, if the delta holds one: every
// new node has one, and a base node when it is in touched.
//
//cnp:noalloc
func (d *delta) slot(id uint32) (uint32, bool) {
	if id >= d.nBase {
		return uint32(len(d.touched)) + id - d.nBase, true
	}
	lo, hi := 0, len(d.touched)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d.touched[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint32(lo), lo < len(d.touched) && d.touched[lo] == id
}

// id is the node ID of slot s.
func (d *delta) id(s int) uint32 {
	if s < len(d.touched) {
		return d.touched[s]
	}
	return d.nBase + uint32(s-len(d.touched))
}

// isDead reports whether node id has left the taxonomy since the base.
//
//cnp:noalloc
func (d *delta) isDead(id uint32) bool {
	if len(d.dead) == 0 {
		return false
	}
	_, ok := slices.BinarySearch(d.dead, id)
	return ok
}

// key is node id's position in name order as an integer. Base node b
// is b<<32 | MaxUint32. A new node is p<<32 | r, where p is the number
// of base names below its name and r its rank among the new names: it
// sorts after base node p-1 and before base node p, and among the new
// nodes by name. The keys of the new nodes are rebuilt with each delta,
// as r moves, but never their order.
//
//cnp:noalloc
func (d *delta) key(id uint32) uint64 {
	if id < d.nBase {
		return uint64(id)<<32 | math.MaxUint32
	}
	return d.keys[id-d.nBase]
}

// CompareIDs orders two node IDs of v as their names order: the one
// comparison behind every ID-ordered list a view hands out. On a flat
// view IDs are name ranks and this is an integer compare; on a view
// with a delta it compares order keys.
//
//cnp:noalloc
func (v *View) CompareIDs(a, b uint32) int {
	if d := v.delta; d != nil {
		return cmp.Compare(d.key(a), d.key(b))
	}
	return cmp.Compare(a, b)
}

// SortIDs sorts ids into name order — CompareIDs' order, by which a
// flat view's IDs simply ascend.
func (v *View) SortIDs(ids []uint32) {
	if v.delta != nil {
		slices.SortFunc(ids, v.CompareIDs)
		return
	}
	slices.Sort(ids)
}

// node returns the arrays that hold node id's row, and its index
// there: the delta's rows and its slot when the delta holds the node,
// v's own arrays (the base's) and id otherwise.
//
//cnp:noalloc
func (v *View) node(id uint32) (*View, uint32) {
	if v.delta != nil {
		return v.delta.node(id)
	}
	return v, id
}

// node is View.node on a view with this delta. The accessors of a View
// call it on that branch only, and it is kept out of line so that the
// smaller of them (KindOf, EvidenceTotalOf) still inline: a flat view
// pays a nil check, and for the larger ones a call.
//
//go:noinline
//cnp:noalloc
func (d *delta) node(id uint32) (*View, uint32) {
	if s, ok := d.slot(id); ok {
		return &d.rows, s
	}
	return d.base, id
}

// name is View.Name on a view with this delta, out of line as node is.
//
//go:noinline
//cnp:noalloc
func (d *delta) name(id uint32) string {
	if id >= d.nBase {
		return d.rows.names.at(int(d.newRow[id-d.nBase]))
	}
	return d.base.names.at(int(id))
}

// HasDelta reports whether v is a base view plus a delta; a view
// without one is flat, as Compile, Fold and OpenImage build it.
func (v *View) HasDelta() bool { return v.delta != nil }

// DeltaRows returns the node and mention rows v's delta holds, zero
// for a flat view (or none).
func (v *View) DeltaRows() (nodes, mentions int) {
	if v == nil {
		return 0, 0
	}
	if d := v.delta; d != nil {
		return len(d.rows.kinds), d.rows.mentions.len()
	}
	return 0, 0
}

// Outgrown reports whether v's delta holds more rows than 1/foldShare
// of its base does — the point where publishing another delta over the
// same base costs more than folding it.
func (v *View) Outgrown() bool {
	if v == nil || v.delta == nil {
		return false
	}
	d := v.delta
	nodes, mentions := v.DeltaRows()
	return (nodes+mentions)*foldShare > int(d.nBase)+d.base.mentions.len()
}

// Fold returns the flat view that answers like v: v itself when it has
// no delta; otherwise a merge of the base's rows and the delta's by ID.
// It walks the base's nodes and the delta's new ones in name order (by
// order key: a new node of key p<<32|r comes before base node p), drops
// the dead ones, and numbers the rest by their place in that walk. Each
// node's row is then copied, from the delta when the delta holds one
// and from the base otherwise, with only its node IDs — hypernyms,
// hyponyms, a mention's entities — renumbered. The renumbering keeps
// name order, so every ordered row stays ordered, and a rank is a
// position inside its own segment, so rankings, totals and edge sources
// copy as they are; the delta view's stats and first-rune filter are
// already current (extend). Mentions merge by text: the base's rows,
// each delta row replacing its own or slotting in. Fold runs no
// derivation and compares no node name; its image is Compile's byte for
// byte. A nil view folds to nil.
func (v *View) Fold() *View {
	if v == nil || v.delta == nil {
		return v
	}
	d, b := v.delta, v.delta.base

	// each calls f for every live node in name order — the base's nodes
	// and the new ones merged by order key — with its name and the row
	// that holds it: the delta's slot when the delta holds one, the base's
	// row otherwise. Only a row the delta holds can be dead.
	each := func(f func(id uint32, name string, r *View, s uint32)) {
		k, t := 0, 0 // new rows [:k] and d.touched[:t] are walked
		for id := uint32(0); ; id++ {
			for ; k < len(d.newIDs) && d.key(d.newIDs[k])>>32 <= uint64(id); k++ {
				if nid := d.newIDs[k]; !d.isDead(nid) {
					f(nid, d.rows.names.at(k), &d.rows, uint32(len(d.touched))+nid-d.nBase)
				}
			}
			switch {
			case id == d.nBase:
				return
			case t < len(d.touched) && d.touched[t] == id:
				if !d.isDead(id) {
					f(id, b.names.at(int(id)), &d.rows, uint32(t))
				}
				t++
			default:
				f(id, b.names.at(int(id)), b, id)
			}
		}
	}

	// ---- old ID → new ID: a node's place in the walk ----
	remap := make([]uint32, int(d.nBase)+len(d.newIDs))
	n, e, nameBytes := 0, 0, 0
	each(func(id uint32, name string, r *View, s uint32) {
		remap[id] = uint32(n)
		n++
		e += int(r.hyperOff[s+1] - r.hyperOff[s])
		nameBytes += len(name)
	})

	// ---- node rows ----
	nv := &View{
		names:        newTable(n, nameBytes),
		kinds:        make([]taxonomy.NodeKind, n),
		hyperOff:     make([]uint32, n+1),
		hyperIDs:     make([]uint32, 0, e),
		hyperRank:    make([]uint32, 0, e),
		edgeSources:  make([]taxonomy.Source, 0, e),
		hyperTotals:  make([]int64, n),
		hypoOff:      make([]uint32, n+1),
		hypoIDs:      make([]uint32, 0, e),
		mentionFirst: v.mentionFirst,
		stats:        v.stats,
	}
	i := 0
	each(func(_ uint32, name string, r *View, s uint32) {
		nv.names.push(name)
		nv.kinds[i], nv.hyperTotals[i] = r.kinds[s], r.hyperTotals[s]
		lo, hi := r.hyperOff[s], r.hyperOff[s+1]
		nv.hyperOff[i] = uint32(len(nv.hyperIDs))
		for _, h := range r.hyperIDs[lo:hi] {
			nv.hyperIDs = append(nv.hyperIDs, remap[h])
		}
		nv.hyperRank = append(nv.hyperRank, r.hyperRank[lo:hi]...)
		nv.edgeSources = append(nv.edgeSources, r.edgeSources[lo:hi]...)
		nv.hypoOff[i] = uint32(len(nv.hypoIDs))
		for _, h := range r.hypoIDs[r.hypoOff[s]:r.hypoOff[s+1]] {
			nv.hypoIDs = append(nv.hypoIDs, remap[h])
		}
		i++
	})
	nv.hyperOff[n], nv.hypoOff[n] = uint32(len(nv.hyperIDs)), uint32(len(nv.hypoIDs))

	// ---- mentions: where each delta row lands among the base's, and
	// whether it replaces the base's row there ----
	m := &d.rows
	at := make([]int, m.mentions.len())
	replaces := make([]bool, len(at))
	rows, ents, menBytes := d.mentionCount, len(b.mentionEnts)+len(m.mentionEnts), len(b.mentions.arena)+len(m.mentions.arena)
	for i := range at {
		text := m.mentions.at(i)
		if i > 0 {
			at[i] = at[i-1]
		}
		at[i] = b.mentions.seek(at[i], text)
		if replaces[i] = at[i] < b.mentions.len() && b.mentions.at(at[i]) == text; replaces[i] {
			ents -= int(b.mentionOff[at[i]+1] - b.mentionOff[at[i]])
			menBytes -= len(text)
		}
	}
	nv.mentions = newTable(rows, menBytes)
	nv.mentionOff = make([]uint32, 0, rows+1)
	nv.mentionEnts = make([]uint32, 0, ents)
	push := func(from *View, i int) {
		nv.mentions.push(from.mentions.at(i))
		nv.mentionOff = append(nv.mentionOff, uint32(len(nv.mentionEnts)))
		for _, id := range from.mentionEnts[from.mentionOff[i]:from.mentionOff[i+1]] {
			nv.mentionEnts = append(nv.mentionEnts, remap[id])
		}
	}
	p := 0
	for i, a := range at {
		for ; p < a; p++ {
			push(b, p)
		}
		if replaces[i] {
			p++
		}
		push(m, i)
	}
	for ; p < b.mentions.len(); p++ {
		push(b, p)
	}
	nv.mentionOff = append(nv.mentionOff, uint32(len(nv.mentionEnts)))
	return nv
}

// extend returns prev with the change's rows laid over it: a view with
// a delta over prev's base, carrying prev's delta rows except where the
// change re-read the node or mention. A node the read finds gone keeps
// its ID and a row that marks it dead, and one that comes back takes
// that ID again. extend returns nil when the change does not cover the
// difference (an edge or a mention names a node that neither the change
// nor prev holds). What it costs is the read's rows, the hyponym lists
// of the nodes the read names, and one copy of prev's delta rows.
func extend(prev *View, ch *change) *View {
	base, pd := prev, prev.delta
	if pd != nil {
		base = pd.base
	} else {
		pd = &delta{base: base, nBase: uint32(base.names.len())}
	}
	nb, oldNew := pd.nBase, uint32(len(pd.newRow))
	d := &delta{base: base, nBase: nb, mentioned: pd.mentioned}

	// ---- the read nodes' IDs: a node prev holds, live or dead, keeps
	// its ID; a new one takes the next past prev's. One the read finds
	// absent dies, unless a mention names it: a mention's entity is a
	// node whatever else the taxonomy holds of it ----
	ids := make([]uint32, len(ch.names))
	var fresh []int // change positions of the new nodes, in name order
	for ci, name := range ch.names {
		id, held := prev.find(name, 0)
		switch {
		case held:
			ids[ci] = id
			if ch.absent[ci] && !pd.isDead(id) && d.mentions(prev, id) {
				ch.absent[ci] = false
			}
		case ch.absent[ci]:
			ids[ci] = gone
		default:
			ids[ci] = nb + oldNew + uint32(len(fresh))
			fresh = append(fresh, ci)
		}
	}

	// ---- new node names: prev's and the fresh ones, merged in name order ----
	nNew := int(oldNew) + len(fresh)
	pos := make([]uint32, nNew) // new node i → base names below it
	for i := range pd.keys {
		pos[i] = uint32(pd.keys[i] >> 32)
	}
	nameBytes := len(pd.rows.names.arena)
	for j, ci := range fresh {
		pos[int(oldNew)+j] = uint32(base.names.seek(0, ch.names[ci]))
		nameBytes += len(ch.names[ci])
	}
	d.rows.names = newTable(nNew, nameBytes)
	d.newIDs = make([]uint32, 0, nNew)
	d.newRow = make([]uint32, nNew)
	d.keys = make([]uint64, nNew)
	push := func(name string, id uint32) {
		r := len(d.newIDs)
		d.rows.names.push(name)
		d.newIDs = append(d.newIDs, id)
		d.newRow[id-nb] = uint32(r)
		d.keys[id-nb] = uint64(pos[id-nb])<<32 | uint64(r)
	}
	for r, j := 0, 0; r < pd.rows.names.len() || j < len(fresh); {
		if j == len(fresh) || (r < pd.rows.names.len() && pd.rows.names.at(r) < ch.names[fresh[j]]) {
			push(pd.rows.names.at(r), pd.newIDs[r])
			r++
		} else {
			push(ch.names[fresh[j]], ids[fresh[j]])
			j++
		}
	}

	// ---- slots: prev's touched base nodes and the re-read ones, then
	// every new node. at[s] is the change position of a re-read slot
	// and -1 for one carried over; was[s] is the slot prev's delta holds
	// the node in, -1 for none ----
	read := make([]uint32, 0, len(ids)) // the re-read nodes, ascending
	for _, id := range ids {
		if id != gone {
			read = append(read, id)
		}
	}
	slices.Sort(read)
	d.touched = make([]uint32, 0, len(pd.touched)+len(read))
	for i, j := 0, 0; i < len(pd.touched) || (j < len(read) && read[j] < nb); {
		switch {
		case j == len(read) || read[j] >= nb || (i < len(pd.touched) && pd.touched[i] < read[j]):
			d.touched = append(d.touched, pd.touched[i])
			i++
		case i < len(pd.touched) && pd.touched[i] == read[j]:
			d.touched = append(d.touched, read[j])
			i, j = i+1, j+1
		default:
			d.touched = append(d.touched, read[j])
			j++
		}
	}
	slots := len(d.touched) + nNew
	at, was := make([]int32, slots), make([]int32, slots)
	for s, i := 0, 0; s < len(d.touched); s++ {
		for i < len(pd.touched) && pd.touched[i] < d.touched[s] {
			i++
		}
		at[s], was[s] = -1, -1
		if i < len(pd.touched) && pd.touched[i] == d.touched[s] {
			was[s] = int32(i)
		}
	}
	for k := range nNew {
		s := len(d.touched) + k
		at[s], was[s] = -1, -1
		if k < int(oldNew) {
			was[s] = int32(len(pd.touched) + k)
		}
	}
	for ci, id := range ids {
		if id != gone {
			s, _ := d.slot(id)
			at[s] = int32(ci)
		}
	}
	for _, id := range pd.dead {
		if s, _ := d.slot(id); at[s] < 0 {
			d.dead = append(d.dead, id) // not re-read: still dead
		}
	}
	for ci, id := range ids {
		if id != gone && ch.absent[ci] {
			d.dead = append(d.dead, id)
		}
	}
	slices.Sort(d.dead)
	// prevRow is the row prev holds for slot s: its delta row or its
	// base row; nil for a node new to this delta.
	prevRow := func(s int) (*View, uint32) {
		if was[s] >= 0 {
			return &pd.rows, uint32(was[s])
		}
		if id := d.id(s); id < nb {
			return base, id
		}
		return nil, 0
	}
	// The view: prev's flat arrays (the base's), the new delta, stats
	// and the mention filter filled in below.
	nv := *base
	nv.delta = d
	nv.stats = prev.stats
	nv.mentionFirst = prev.mentionFirst
	d.nodeCount = int(nb) + nNew - len(d.dead)

	// resolve names a node the change or prev holds.
	resolve := func(name string) (uint32, bool) {
		if ci, ok := slices.BinarySearch(ch.names, name); ok {
			return ids[ci], !ch.absent[ci]
		}
		return prev.ID(name, 0)
	}

	// ---- node rows: kinds and the hypernym side ----
	rows := &d.rows
	rows.kinds = make([]taxonomy.NodeKind, slots)
	rows.hyperOff = make([]uint32, slots+1)
	rows.hyperTotals = make([]int64, slots)
	edges := 0
	for s := range slots {
		if ci := at[s]; ci >= 0 {
			edges += int(ch.edgeOff[ci+1] - ch.edgeOff[ci])
		} else {
			r, i := prevRow(s)
			edges += int(r.hyperOff[i+1] - r.hyperOff[i])
		}
	}
	rows.hyperIDs = make([]uint32, 0, edges)
	rows.hyperRank = make([]uint32, edges)
	rows.edgeSources = make([]taxonomy.Source, 0, edges)
	var links []link
	for s := range slots {
		r, i := prevRow(s)
		if at[s] < 0 {
			lo, hi := r.hyperOff[i], r.hyperOff[i+1]
			rows.kinds[s], rows.hyperTotals[s] = r.kinds[i], r.hyperTotals[i]
			rows.hyperOff[s] = uint32(len(rows.hyperIDs))
			copy(rows.hyperRank[len(rows.hyperIDs):], r.hyperRank[lo:hi])
			rows.hyperIDs = append(rows.hyperIDs, r.hyperIDs[lo:hi]...)
			rows.edgeSources = append(rows.edgeSources, r.edgeSources[lo:hi]...)
			continue
		}
		ci := at[s]
		if r != nil {
			countStats(&nv.stats, r.kinds[i], int(r.hyperOff[i+1]-r.hyperOff[i]), -1)
		}
		lo := uint32(len(rows.hyperIDs))
		rows.kinds[s], rows.hyperOff[s] = ch.kinds[ci], lo
		for _, e := range ch.edges[ch.edgeOff[ci]:ch.edgeOff[ci+1]] {
			h, ok := resolve(e.hyper)
			if !ok {
				return nil
			}
			rows.hyperIDs = append(rows.hyperIDs, h)
			rows.edgeSources = append(rows.edgeSources, e.sources)
			rows.hyperTotals[s] += int64(e.sources.Evidence())
			// A re-read hypernym takes its re-read hyponyms from here
			// (see below).
			if hs, ok := d.slot(h); ok && at[hs] >= 0 {
				links = append(links, link{hs, d.id(s)})
			}
		}
		// The read lists a node's edges in hypernym name order, which is
		// the order CompareIDs puts their IDs in.
		hi := uint32(len(rows.hyperIDs))
		rank(rows.hyperRank[lo:hi], rows.edgeSources[lo:hi])
		countStats(&nv.stats, rows.kinds[s], int(hi-lo), 1)
	}
	rows.hyperOff[slots] = uint32(len(rows.hyperIDs))

	// ---- the hyponym side: a re-read node's hyponyms are the ones prev
	// lists that were not re-read — their rows stand, so they still name
	// it — merged with the re-read rows that name it now; a carried
	// node's are prev's ----
	slices.SortFunc(links, func(a, b link) int {
		return cmp.Or(cmp.Compare(a.hyper, b.hyper), nv.CompareIDs(a.hypo, b.hypo))
	})
	byName := slices.Clone(read)
	slices.SortFunc(byName, nv.CompareIDs)
	hypos := len(links)
	for s := range slots {
		if r, i := prevRow(s); r != nil {
			hypos += int(r.hypoOff[i+1] - r.hypoOff[i])
		}
	}
	rows.hypoIDs = make([]uint32, 0, hypos)
	rows.hypoOff = make([]uint32, slots+1)
	for l, s := 0, 0; s < slots; s++ {
		rows.hypoOff[s] = uint32(len(rows.hypoIDs))
		var had []uint32
		if r, i := prevRow(s); r != nil {
			had = r.hypoIDs[r.hypoOff[i]:r.hypoOff[i+1]]
		}
		if at[s] < 0 {
			rows.hypoIDs = append(rows.hypoIDs, had...)
			continue
		}
		from := l
		for l < len(links) && links[l].hyper == uint32(s) {
			l++
		}
		rows.hypoIDs = mergeHyponyms(rows.hypoIDs, had, byName, links[from:l], d)
	}
	rows.hypoOff[slots] = uint32(len(rows.hypoIDs))

	// ---- mentions: prev's delta rows, with the change's re-read ones
	// replacing them or slotting in between ----
	pm := &pd.rows
	m := &d.rows
	rowsN, entsN, bytesN := pm.mentions.len()+len(ch.mentions), len(pm.mentionEnts), len(pm.mentions.arena)
	for _, cm := range ch.mentions {
		entsN += len(cm.ents)
		bytesN += len(cm.text)
	}
	m.mentions = newTable(rowsN, bytesN)
	m.mentionOff = make([]uint32, 0, rowsN+1)
	m.mentionEnts = make([]uint32, 0, entsN)
	d.mentionCount = prev.MentionCount()
	copied := false
	carry := func(p int) {
		m.mentions.push(pm.mentions.at(p))
		m.mentionOff = append(m.mentionOff, uint32(len(m.mentionEnts)))
		m.mentionEnts = append(m.mentionEnts, pm.mentionEnts[pm.mentionOff[p]:pm.mentionOff[p+1]]...)
	}
	p := 0
	for _, cm := range ch.mentions {
		for ; p < pm.mentions.len() && pm.mentions.at(p) < cm.text; p++ {
			carry(p)
		}
		if p < pm.mentions.len() && pm.mentions.at(p) == cm.text {
			p++
		} else if _, ok := prev.MentionRow(cm.text, 0); !ok {
			d.mentionCount++
		}
		if !nv.mentionFirst.hasFirst(cm.text) {
			if !copied {
				nv.mentionFirst, copied = slices.Clone(nv.mentionFirst), true
			}
			nv.mentionFirst.add(cm.text)
		}
		m.mentions.push(cm.text)
		m.mentionOff = append(m.mentionOff, uint32(len(m.mentionEnts)))
		lo := len(m.mentionEnts)
		for _, ent := range cm.ents {
			id, ok := resolve(ch.symbols[ent])
			if !ok {
				return nil
			}
			m.mentionEnts = append(m.mentionEnts, id)
		}
		slices.SortFunc(m.mentionEnts[lo:], nv.CompareIDs)
	}
	for ; p < pm.mentions.len(); p++ {
		carry(p)
	}
	m.mentionOff = append(m.mentionOff, uint32(len(m.mentionEnts)))
	return &nv
}

// gone marks a read node that has no ID in the view extend builds.
const gone = ^uint32(0)

// mentions reports whether a mention of prev names node id, one the
// change did not re-read: a base mention (mentioned, the base's entity
// set, built on first need and shared along the deltas over the base)
// or one of prev's delta rows.
func (d *delta) mentions(prev *View, id uint32) bool {
	if d.mentioned == nil {
		d.mentioned = make([]uint64, d.nBase/64+1)
		for _, e := range d.base.mentionEnts {
			d.mentioned[e/64] |= 1 << (e % 64)
		}
	}
	if id < d.nBase && d.mentioned[id/64]&(1<<(id%64)) != 0 {
		return true
	}
	if pd := prev.delta; pd != nil {
		return slices.Contains(pd.rows.mentionEnts, id)
	}
	return false
}

// link is a re-read row's edge to a re-read node: the hypernym's slot
// and the hyponym's ID.
type link struct{ hyper, hypo uint32 }

// mergeHyponyms appends to dst, in name order, the hyponyms a node had
// (in name order) that were not re-read (read, in name order) — their
// rows stand, so they still name the node — and the hyponyms of links,
// the re-read rows that name it now, in name order. It copies had in
// runs between the places the two lists cut it, found by binary search,
// so a large list costs a copy and a search per cut.
func mergeHyponyms(dst, had, read []uint32, links []link, d *delta) []uint32 {
	at := 0 // had[:at] is written
	upTo := func(key uint64) {
		lo, hi := at, len(had)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if d.key(had[mid]) < key {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		dst = append(dst, had[at:lo]...)
		at = lo
	}
	r, l := 0, 0
	for r < len(read) || l < len(links) {
		// A re-read node that still names this one is cut out, then put
		// back as a link.
		if r < len(read) && (l == len(links) || d.key(read[r]) <= d.key(links[l].hypo)) {
			upTo(d.key(read[r]))
			if at < len(had) && had[at] == read[r] {
				at++
			}
			r++
			continue
		}
		upTo(d.key(links[l].hypo))
		dst = append(dst, links[l].hypo)
		l++
	}
	return append(dst, had[at:]...)
}

// countStats adds (sign 1) or removes (sign -1) one node's share of the
// stats: its kind, and its degree hypernym edges classified by its kind
// (an unmarked hyponym counts as an instance), as buildDerived counts
// them.
func countStats(s *taxonomy.Stats, kind taxonomy.NodeKind, degree, sign int) {
	switch kind {
	case taxonomy.KindEntity:
		s.Entities += sign
	case taxonomy.KindConcept:
		s.Concepts += sign
	}
	if degree == 0 {
		return
	}
	s.IsARelations += sign * degree
	s.NodesWithHypernym += sign
	if kind == taxonomy.KindConcept {
		s.SubConceptIsA += sign * degree
	} else {
		s.EntityConceptIsA += sign * degree
	}
}

// hasFirst reports whether the set holds the first rune of m.
func (s runeSet) hasFirst(m string) bool {
	for _, r := range m {
		return s.has(r)
	}
	return true
}
