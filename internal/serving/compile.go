package serving

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"cnprobase/internal/taxonomy"
)

// Compile freezes the taxonomy's lists into an immutable View:
// adjacency in canonical sorted order, each node's hypernyms ranked by
// typicality P(concept | entity) from their evidence counts — each
// edge's number of sources. The nodes are put in name order once;
// edges are then ordered, and their hypernyms resolved, through that
// permutation, and so are a mention's entities, so compiling searches
// no sorted table per edge or per mention entity. An edge held by both
// Kept and Derived is one edge, its sources OR'ed. The view is laid out
// as a mapped one is (see OpenImage): sorted tables and flat arrays, no
// index beside them, so what it allocates does not grow with the
// taxonomy. The sorted names and mentions are concatenated once into
// the view's two arenas, each held, like the image's, to 4 GiB (past
// that Compile panics).
//
// Every entity a mention names is a node of the view: one the
// taxonomy holds no node for (a hand-assembled mention can name any
// string) is a node of unknown kind with no edge, which every query but
// ID, Name and Nodes answers for as for a name the view does not know.
//
// Later writes to the taxonomy are not reflected; compile again, or
// Patch, and swap.
func Compile(t *taxonomy.Taxonomy) *View {
	names := t.Symbols().Names()
	order := t.Nodes()
	ch := &change{rank: make([]int32, len(names)), name: func(id uint32) string { return names[id] }}
	for i := range ch.rank {
		ch.rank[i] = -1
	}
	for i, id := range order {
		ch.rank[id] = int32(i)
	}
	ch.read(t, order)
	ents := make([]uint32, len(t.Mentions))
	for i := 0; i < len(t.Mentions); {
		row, from := changeMention{text: t.Mentions[i].Text}, i
		for ; i < len(t.Mentions) && t.Mentions[i].Text == row.text; i++ {
			ents[i] = t.Mentions[i].Entity
		}
		row.ents = ents[from:i:i]
		ch.mentions = append(ch.mentions, row)
	}
	return assemble(&View{}, ch)
}

// Patch returns a view that answers like Compile(t), built from prev —
// a view compiled, patched, folded or mapped from the same taxonomy
// earlier — and a read of only the named nodes (symbol IDs) and
// mentions. They must cover everything written since prev was built:
// the ends of every pair that joined or left Kept or Derived or changed
// its sources, every node whose kind changed, every mention that gained
// an entity — what core.Update's diffs name.
//
// The result is prev's base plus a delta: the rows of the named nodes
// and mentions, read now, and the rows of prev's own delta, carried
// over. Nothing of the base is copied, so the cost is the read plus the
// delta's rows — what was written since the base, not what exists.
// Folding a delta that has grown too large is the caller's call
// (Outgrown, Fold). Patch returns nil when the names do not cover the
// difference (prev belongs to another taxonomy, or the list missed a
// write); compile in full then.
func Patch(prev *View, t *taxonomy.Taxonomy, nodes []uint32, mentions []string) *View {
	return extend(prev, readNamed(t, nodes, mentions))
}

// readNamed reads the named nodes and mentions of t as a change: the
// nodes in name order, each mention's entities among them. A mention's
// entity is a node whatever the taxonomy holds of it, so a named node
// one of the mentions read names is not absent; one an untouched
// mention names is kept by extend.
func readNamed(t *taxonomy.Taxonomy, nodes []uint32, mentions []string) *change {
	names := t.Symbols().Names()
	ch := &change{name: func(id uint32) string { return names[id] }}
	mentions = slices.Clone(mentions)
	slices.Sort(mentions)
	var ents []uint32
	for _, text := range slices.Compact(mentions) {
		if ms := t.MentionsOf(text); len(ms) > 0 {
			row := changeMention{text: text}
			for _, m := range ms {
				row.ents = append(row.ents, m.Entity)
			}
			ch.mentions = append(ch.mentions, row)
			ents = append(ents, row.ents...)
		}
	}
	nodes = slices.Concat(nodes, ents)
	slices.SortFunc(nodes, func(a, b uint32) int { return strings.Compare(names[a], names[b]) })
	nodes = slices.Compact(nodes)
	ch.read(t, nodes)
	slices.Sort(ents)
	for i, id := range nodes {
		_, named := slices.BinarySearch(ents, id)
		ch.absent[i] = ch.absent[i] && !named
	}
	return ch
}

// change is what assemble folds over a previous view: the current
// state of every node that may differ from it, and of every mention
// whose entity list may. A full compile is the change that names
// everything, folded over the empty view.
type change struct {
	// names lists the nodes, ascending and distinct; absent marks,
	// parallel to it, the nodes that do not exist, and kinds their kinds.
	names  []string
	absent []bool
	kinds  []taxonomy.NodeKind
	// Node i's edges are edges[edgeOff[i]:edgeOff[i+1]], ascending by
	// hypernym name.
	edgeOff []uint32
	edges   []changeEdge
	// rank maps a symbol ID to its node's position in a full read, -1
	// when it is no node; nil for a read of named nodes.
	rank     []int32
	mentions []changeMention // ascending by text, distinct
	// name names a node: by symbol ID for a read, by node ID of the
	// folded view for a fold.
	name func(uint32) string
}

// changeEdge is one edge of a change's node. at is the hypernym's
// position in the change, or -1 when the read did not resolve it (it
// is then looked up in the new view).
type changeEdge struct {
	hyper   string
	at      int32
	sources taxonomy.Source
}

// changeMention is one mention and its entities, named by the change's
// name.
type changeMention struct {
	text string
	ents []uint32
}

// read reads the nodes of ids, which are in name order and distinct:
// kind, existence and edges, in hypernym name order — resolved through
// rank, which a full read has, by name otherwise.
func (ch *change) read(t *taxonomy.Taxonomy, ids []uint32) {
	ch.names = make([]string, len(ids))
	ch.absent = make([]bool, len(ids))
	ch.kinds = make([]taxonomy.NodeKind, len(ids))
	ch.edgeOff = make([]uint32, len(ids)+1)
	if ch.rank != nil {
		ch.edges = make([]changeEdge, 0, len(t.Kept)+len(t.Derived))
	}
	var pairs []taxonomy.Pair
	for i, id := range ids {
		pairs = t.AppendEdges(pairs[:0], id)
		ch.names[i], ch.kinds[i] = ch.name(id), t.KindOf(id)
		// A node is marked or the hyponym of an edge (a hypernym is always
		// marked); a full read holds mention entities too (Nodes).
		ch.absent[i] = ch.rank == nil && ch.kinds[i] == taxonomy.KindUnknown && len(pairs) == 0
		from := len(ch.edges)
		for _, p := range pairs {
			at := int32(-1)
			if ch.rank != nil {
				at = ch.rank[p.Hyper]
			}
			ch.edges = append(ch.edges, changeEdge{hyper: ch.name(p.Hyper), at: at, sources: p.Source})
		}
		slices.SortFunc(ch.edges[from:], func(a, b changeEdge) int {
			if ch.rank != nil {
				return cmp.Compare(a.at, b.at)
			}
			return strings.Compare(a.hyper, b.hyper)
		})
		ch.edgeOff[i+1] = uint32(len(ch.edges))
	}
}

// run is a stretch of prev's nodes the change does not name: prev IDs
// [lo, hi) keep their content and sit at new IDs [at, at+hi-lo).
type run struct{ lo, hi, at uint32 }

// gone marks a node that has no ID in the new view.
const gone = ^uint32(0)

// assemble is the one array-assembly routine behind Compile and Fold.
// Nodes the change names are written from the change; the stretches of
// prev between them are block-copied, the node IDs inside them
// renumbered through a monotone old → new table. It returns nil when
// the change does not cover the difference: a carried-over or restated
// edge, or a mention, names a node the new view lacks.
func assemble(prev *View, ch *change) *View {
	// ---- plan: interleave prev's untouched runs with the named nodes ----
	var runs []run
	remap := make([]uint32, prev.names.len()) // prev ID → new ID, or gone
	at := make([]uint32, len(ch.names))       // named node → new ID, or gone
	n, p := uint32(0), uint32(0)
	keep := func(hi uint32) {
		if hi > p {
			runs = append(runs, run{lo: p, hi: hi, at: n})
			for i := p; i < hi; i++ {
				remap[i] = n + (i - p)
			}
			n += hi - p
			p = hi
		}
	}
	for ci, name := range ch.names {
		pos := prev.names.seek(int(p), name)
		found := pos < prev.names.len() && prev.names.at(pos) == name
		keep(uint32(pos))
		at[ci] = gone
		if ch.absent == nil || !ch.absent[ci] {
			at[ci] = n
			n++
		}
		if found {
			remap[p] = at[ci]
			p++
		}
	}
	keep(uint32(prev.names.len()))

	e, nameBytes := uint32(0), 0
	for _, r := range runs {
		e += prev.hyperOff[r.hi] - prev.hyperOff[r.lo]
		nameBytes += int(prev.names.off[r.hi] - prev.names.off[r.lo])
	}
	for ci, id := range at {
		if id != gone {
			e += ch.edgeOff[ci+1] - ch.edgeOff[ci]
			nameBytes += len(ch.names[ci])
		}
	}
	v := &View{
		names:    newTable(int(n), nameBytes),
		kinds:    make([]taxonomy.NodeKind, n),
		hyperOff: make([]uint32, n+1),
	}
	fresh := make([]bool, n) // new ID → named by the change
	ri, ci := 0, 0
	for id := uint32(0); id < n; {
		if ri < len(runs) && runs[ri].at == id {
			r := runs[ri]
			ri++
			v.names.pushRun(prev.names, r.lo, r.hi)
			copy(v.kinds[id:], prev.kinds[r.lo:r.hi])
			id += r.hi - r.lo
			continue
		}
		for at[ci] != id {
			ci++
		}
		v.names.push(ch.names[ci])
		v.kinds[id], fresh[id] = ch.kinds[ci], true
		ci++
		id++
	}

	// ---- flat sorted mention table: prev's rows, their entities
	// renumbered, with the change's entries replacing them or slotting
	// in between, their entities resolved to node IDs — through the
	// full read's rank, by a search of the new names otherwise ----
	rows, ents, menBytes := prev.mentions.len()+len(ch.mentions), len(prev.mentionEnts), len(prev.mentions.arena)
	for i := range ch.mentions {
		ents += len(ch.mentions[i].ents)
		menBytes += len(ch.mentions[i].text)
	}
	v.mentions = newTable(rows, menBytes)
	v.mentionOff = make([]uint32, 0, rows+1)
	v.mentionEnts = make([]uint32, 0, ents)
	covered := true
	p = 0
	keepRows := func(hi uint32) {
		if hi > p {
			a, b := prev.mentionOff[p], prev.mentionOff[hi]
			shift := uint32(len(v.mentionEnts)) - a
			v.mentions.pushRun(prev.mentions, p, hi)
			for _, o := range prev.mentionOff[p:hi] {
				v.mentionOff = append(v.mentionOff, o+shift)
			}
			for _, id := range prev.mentionEnts[a:b] {
				covered = covered && remap[id] != gone
				v.mentionEnts = append(v.mentionEnts, remap[id])
			}
			p = hi
		}
	}
	// No row of prev vanishes (no mention pair is ever removed), so the
	// first-rune filter is prev's plus the change's first runes: no pass
	// over the table.
	v.mentionFirst = make(runeSet, runeSetWords)
	copy(v.mentionFirst, prev.mentionFirst)
	for i := range ch.mentions {
		entry := &ch.mentions[i]
		pos := prev.mentions.seek(int(p), entry.text)
		found := pos < prev.mentions.len() && prev.mentions.at(pos) == entry.text
		keepRows(uint32(pos))
		if found {
			p++
		}
		v.mentions.push(entry.text)
		v.mentionOff = append(v.mentionOff, uint32(len(v.mentionEnts)))
		row := len(v.mentionEnts)
		for _, ent := range entry.ents {
			var id uint32
			var ok bool
			if ch.rank != nil {
				if c := ch.rank[ent]; c >= 0 {
					id, ok = at[c], at[c] != gone
				}
			} else {
				id, ok = v.ID(ch.name(ent), 0)
			}
			covered = covered && ok
			v.mentionEnts = append(v.mentionEnts, id)
		}
		slices.Sort(v.mentionEnts[row:]) // node IDs ascend with the entities' names
		v.mentionFirst.add(entry.text)
	}
	keepRows(uint32(prev.mentions.len()))
	v.mentionOff = append(v.mentionOff, uint32(len(v.mentionEnts)))
	if !covered {
		return nil
	}

	// ---- hypernym CSR: the canonical edge arrays, laid out in ID order
	// (runs and named nodes interleave by construction) ----
	v.hyperIDs = make([]uint32, e)
	v.edgeSources = make([]taxonomy.Source, e)
	off := uint32(0)
	ri, ci = 0, 0
	for id := uint32(0); id < n; {
		if ri < len(runs) && runs[ri].at == id {
			r := runs[ri]
			ri++
			a, b := prev.hyperOff[r.lo], prev.hyperOff[r.hi]
			for i := r.lo; i < r.hi; i++ {
				v.hyperOff[id+(i-r.lo)] = prev.hyperOff[i] - a + off
			}
			for j := a; j < b; j++ {
				hyperID := remap[prev.hyperIDs[j]]
				covered = covered && hyperID != gone
				v.hyperIDs[off+(j-a)] = hyperID
			}
			copy(v.edgeSources[off:], prev.edgeSources[a:b])
			off += b - a
			id += r.hi - r.lo
			continue
		}
		for at[ci] != id {
			ci++
		}
		v.hyperOff[id] = off
		for _, edge := range ch.edges[ch.edgeOff[ci]:ch.edgeOff[ci+1]] {
			hyperID := gone
			if edge.at >= 0 {
				hyperID = at[edge.at]
			} else if id, ok := v.ID(edge.hyper, 0); ok {
				hyperID = id
			}
			covered = covered && hyperID != gone
			v.hyperIDs[off] = hyperID
			v.edgeSources[off] = edge.sources
			off++
		}
		ci++
		id++
	}
	v.hyperOff[n] = off
	if !covered {
		return nil
	}
	v.derive(prev, runs, remap, fresh)
	return v
}

// newTable returns an empty table with room for rows entries of
// arenaLen bytes between them. Its offsets are uint32, as the image's
// are, so a table past 4 GiB cannot be built.
func newTable(rows, arenaLen int) table {
	if uint64(arenaLen) > math.MaxUint32 {
		panic("serving: string table exceeds the 4 GiB arena limit")
	}
	return table{arena: make([]byte, 0, arenaLen), off: make([]uint32, 1, rows+1)}
}

// buildDerived computes everything reconstructible from the canonical
// arrays — names, kinds, the hypernym CSR and its edge evidence — for
// every node. OpenImage calls it on the mapped path; assemble runs the
// same derivation (derive) restricted to the nodes a change names, so
// the kinds of View cannot drift apart: the derived state is produced
// by one function either way.
func (v *View) buildDerived() { v.derive(nil, nil, nil, nil) }

// derive fills the derived arrays — per-node evidence totals, the
// hypernym typicality rank permutations, the transposed hyponym CSR and
// the stats summary — from the canonical ones; an edge's evidence
// count is the number of its sources. Every per-edge array it
// fills is integer-only, so copying one from prev runs no write
// barrier. Nodes inside runs take their segments from prev verbatim
// (node IDs renumbered through remap): none of their edges changed, so
// neither did their totals, hyponyms or ranking order, and a rank is a
// position inside its own segment, so it survives the renumbering
// unchanged. Fresh nodes are derived from the new canonical arrays;
// fresh == nil means every node is.
func (v *View) derive(prev *View, runs []run, remap []uint32, fresh []bool) {
	n, e := v.names.len(), len(v.hyperIDs)
	v.hyperRank = make([]uint32, e)
	v.hyperTotals = make([]int64, n)
	v.hypoOff = make([]uint32, n+1)
	v.hypoIDs = make([]uint32, e)

	// ---- hypernym side, and every node's hyponym degree ----
	for _, r := range runs {
		a, b, to := prev.hyperOff[r.lo], prev.hyperOff[r.hi], v.hyperOff[r.at]
		copy(v.hyperRank[to:], prev.hyperRank[a:b])
		copy(v.hyperTotals[r.at:], prev.hyperTotals[r.lo:r.hi])
		for i := r.lo; i < r.hi; i++ {
			v.hypoOff[r.at+(i-r.lo)+1] = prev.hypoOff[i+1] - prev.hypoOff[i]
		}
	}
	for u := 0; u < n; u++ {
		if fresh != nil && !fresh[u] {
			continue
		}
		lo, hi := v.hyperOff[u], v.hyperOff[u+1]
		for _, s := range v.edgeSources[lo:hi] {
			v.hyperTotals[u] += int64(s.Evidence())
		}
		rank(v.hyperRank[lo:hi], v.edgeSources[lo:hi])
	}
	for _, hyperID := range v.hyperIDs {
		if fresh == nil || fresh[hyperID] {
			v.hypoOff[hyperID+1]++
		}
	}
	for i := 0; i < n; i++ {
		v.hypoOff[i+1] += v.hypoOff[i]
	}

	// ---- hyponym side ----
	for _, r := range runs {
		a, b, to := prev.hypoOff[r.lo], prev.hypoOff[r.hi], v.hypoOff[r.at]
		for j := a; j < b; j++ {
			v.hypoIDs[to+(j-a)] = remap[prev.hypoIDs[j]]
		}
	}
	// Transpose the edges that end at fresh nodes. Scanning the flat
	// array — which is in (hypo, hyper) ascending order — and appending
	// per hypernym keeps each segment sorted by hyponym ID.
	fill := make([]uint32, n)
	copy(fill, v.hypoOff[:n])
	for u := 0; u < n; u++ {
		for j := v.hyperOff[u]; j < v.hyperOff[u+1]; j++ {
			hyperID := v.hyperIDs[j]
			if fresh != nil && !fresh[hyperID] {
				continue
			}
			v.hypoIDs[fill[hyperID]] = uint32(u)
			fill[hyperID]++
		}
	}

	// ---- stats (the taxonomy's ComputeStats, replayed over the frozen
	// content) ----
	v.stats = taxonomy.Stats{}
	for _, k := range v.kinds {
		switch k {
		case taxonomy.KindEntity:
			v.stats.Entities++
		case taxonomy.KindConcept:
			v.stats.Concepts++
		}
	}
	v.stats.IsARelations = e
	for u := 0; u < n; u++ {
		lo, hi := v.hyperOff[u], v.hyperOff[u+1]
		if lo == hi {
			continue
		}
		v.stats.NodesWithHypernym++
		if v.kinds[u] == taxonomy.KindConcept {
			v.stats.SubConceptIsA += int(hi - lo)
		} else {
			v.stats.EntityConceptIsA += int(hi - lo) // unmarked hyponyms behave as instances
		}
	}
}

// rank fills perm with the positions of a CSR segment whose edges
// have sources, in typicality order: evidence count (the number of
// sources) descending, then position ascending. A segment's node IDs
// ascend with its positions and IDs are sorted name ranks, while every
// typicality in it is count/total over one shared total; so this is
// exactly "score descending, name ascending" without a division or a
// string compare (a zero total has only zero counts, hence the
// identity order). TestRankOrderMatchesScoreOrder holds it.
func rank(perm []uint32, sources []taxonomy.Source) {
	for i := range perm {
		perm[i] = uint32(i)
	}
	if len(perm) < 2 {
		return
	}
	slices.SortFunc(perm, func(a, b uint32) int {
		if c := cmp.Compare(sources[b].Evidence(), sources[a].Evidence()); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}
