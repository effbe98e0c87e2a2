package serving

import (
	"cmp"
	"math"
	"slices"

	"cnprobase/internal/taxonomy"
)

// Compile freezes the current contents of a build store (plus its
// mention index, which may be nil) into an immutable View: adjacency in
// canonical sorted order, each node's hypernyms ranked by typicality
// P(concept | entity) from their evidence counts — each edge's number
// of sources.
// The store hands its content over already in that order, hypernyms
// resolved to positions (taxonomy.ReadAll), and a mention's entities
// are resolved to node IDs through the store's symbol table, so
// compiling searches no sorted table per edge or per mention entity.
// The view is laid out as a mapped one is (see OpenImage): sorted
// tables and flat arrays, no index beside them, so what it allocates
// does not grow with the store. The store's sorted names and mentions
// are concatenated once into the view's two arenas, each held, like the
// image's, to 4 GiB (past that Compile panics).
//
// Every entity a mention names is a node of the view: one the store
// holds no node for (a hand-built index can name any string) is a node
// of unknown kind with no edge, which every query but ID, Name and
// Nodes answers for as for a name the view does not know.
//
// Later writes to the store are not reflected; compile again, or
// Patch, and swap.
func Compile(t *taxonomy.Taxonomy, m *taxonomy.MentionIndex) *View {
	ch := &change{NodeSet: t.ReadAll()}
	if m != nil {
		ch.mentions = m.Sorted()
	}
	return build(&View{}, t, ch)
}

// Patch returns the view Compile(t, m) would build, assembled from
// prev — a view compiled or patched from the same store earlier — and
// a fresh read of only the named nodes and mentions. The names must
// cover everything written to the store and the index since prev was
// built, which is what Taxonomy.ChangesSince and
// MentionIndex.ChangesSince report; both lists must be ascending and
// without duplicates. Everything else is copied from prev's arrays
// with node IDs shifted past the nodes that appeared or vanished, so
// the cost is one pass over the arrays plus work proportional to the
// named nodes' adjacency and mentions.
//
// The result is an ordinary View with the same layout, the same
// answers and the same image bytes as a full compile. prev may have
// any backing: a patched view copies everything it keeps. Patch
// returns nil when the names do not cover the difference (the store
// was written while Patch read it, or prev belongs to another store);
// compile in full then.
func Patch(prev *View, t *taxonomy.Taxonomy, m *taxonomy.MentionIndex, nodes, mentions []string) *View {
	ch := &change{NodeSet: t.ReadNodes(nodes)}
	for _, mention := range mentions {
		if ids := m.Lookup(mention); len(ids) > 0 {
			ch.mentions = append(ch.mentions, taxonomy.MentionEntry{Mention: mention, IDs: ids})
		}
	}
	return build(prev, t, ch)
}

// change is what assemble folds over a previous view: the current
// state of every node that may differ from it, and of every mention
// whose entity list may. A full compile is the change that names
// everything, folded over the empty view.
type change struct {
	// The nodes, as the store reads them out in canonical order. An edge
	// whose hypernym the read resolved (At >= 0) names a node of the
	// change; any other is looked up in the new view.
	*taxonomy.NodeSet
	mentions []taxonomy.MentionEntry // ascending by Mention, distinct; IDs ascending, distinct, non-empty
}

// run is a stretch of prev's nodes the change does not name: prev IDs
// [lo, hi) keep their content and sit at new IDs [at, at+hi-lo).
type run struct{ lo, hi, at uint32 }

// gone marks a node that has no ID in the new view.
const gone = ^uint32(0)

// build assembles the change over prev. A mention entity that would be
// no node of the result — a name the store holds no node for, or a
// node of prev the change reads as absent — is read again with the
// change's nodes and kept as a node of unknown kind with no edge, and
// the view assembled again, which resolves every entity. The
// pipeline's mentions name nodes of the store, so it assembles once.
func build(prev *View, t *taxonomy.Taxonomy, ch *change) *View {
	v, missing := assemble(prev, ch)
	if len(missing) == 0 {
		return v
	}
	slices.Sort(missing)
	missing = slices.Compact(missing)
	names := slices.Concat(ch.Names, missing)
	slices.Sort(names)
	names = slices.Compact(names)
	ch.NodeSet = t.ReadNodes(names)
	for i, j := 0, 0; j < len(missing); i++ {
		if names[i] == missing[j] {
			ch.Absent[i] = false // read as absent: of no kind, without edges
			j++
		}
	}
	v, _ = assemble(prev, ch)
	return v
}

// assemble is the one array-assembly routine behind Compile and Patch.
// Nodes the change names are written from the change; the stretches of
// prev between them are block-copied, the node IDs inside them
// renumbered through a monotone old → new table. It returns a nil view
// when the change does not cover the difference: a carried-over or
// restated edge points at a node the new view lacks. When a mention
// entity is no node of the new view, it returns a nil view and the
// names of all such entities (see build).
func assemble(prev *View, ch *change) (*View, []string) {
	// ---- plan: interleave prev's untouched runs with the named nodes ----
	var runs []run
	remap := make([]uint32, prev.names.len()) // prev ID → new ID, or gone
	at := make([]uint32, len(ch.Names))       // named node → new ID, or gone
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
	for ci, name := range ch.Names {
		pos := prev.names.seek(int(p), name)
		found := pos < prev.names.len() && prev.names.at(pos) == name
		keep(uint32(pos))
		at[ci] = gone
		if ch.Absent == nil || !ch.Absent[ci] {
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
			e += ch.EdgeOff[ci+1] - ch.EdgeOff[ci]
			nameBytes += len(ch.Names[ci])
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
		v.names.push(ch.Names[ci])
		v.kinds[id], fresh[id] = ch.Kinds[ci], true
		ci++
		id++
	}

	// ---- flat sorted mention table: prev's rows, their entities
	// renumbered, with the change's entries replacing them or slotting
	// in between, their entities resolved to node IDs — through the
	// store's symbol table when the change is a full read
	// (NodeSet.Find), by a search of the new names otherwise ----
	rows, ents, menBytes := prev.mentions.len()+len(ch.mentions), len(prev.mentionEnts), len(prev.mentions.arena)
	for i := range ch.mentions {
		ents += len(ch.mentions[i].IDs)
		menBytes += len(ch.mentions[i].Mention)
	}
	v.mentions = newTable(rows, menBytes)
	v.mentionOff = make([]uint32, 0, rows+1)
	v.mentionEnts = make([]uint32, 0, ents)
	var missing []string
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
				if remap[id] == gone {
					missing = append(missing, prev.Name(id))
				}
				v.mentionEnts = append(v.mentionEnts, remap[id])
			}
			p = hi
		}
	}
	// No row of prev vanishes (a MentionIndex never removes one), so the
	// first-rune filter is prev's plus the change's first runes: no pass
	// over the table.
	v.mentionFirst = make(runeSet, runeSetWords)
	copy(v.mentionFirst, prev.mentionFirst)
	for i := range ch.mentions {
		entry := &ch.mentions[i]
		pos := prev.mentions.seek(int(p), entry.Mention)
		found := pos < prev.mentions.len() && prev.mentions.at(pos) == entry.Mention
		keepRows(uint32(pos))
		if found {
			p++
		}
		v.mentions.push(entry.Mention)
		v.mentionOff = append(v.mentionOff, uint32(len(v.mentionEnts)))
		from := uint32(0) // the entities ascend, so do their IDs
		for _, name := range entry.IDs {
			var id uint32
			var ok bool
			if c := ch.Find(name); c >= 0 {
				id, ok = at[c], at[c] != gone
			} else {
				id, ok = v.ID(name, from)
			}
			if !ok {
				missing = append(missing, name)
				continue
			}
			v.mentionEnts = append(v.mentionEnts, id)
			from = id + 1
		}
		v.mentionFirst.add(entry.Mention)
	}
	keepRows(uint32(prev.mentions.len()))
	v.mentionOff = append(v.mentionOff, uint32(len(v.mentionEnts)))
	if len(missing) > 0 {
		return nil, missing
	}

	// ---- hypernym CSR: the canonical edge arrays, laid out in ID order
	// (runs and named nodes interleave by construction) ----
	v.hyperIDs = make([]uint32, e)
	v.edgeSources = make([]taxonomy.Source, e)
	covered := true
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
		for _, edge := range ch.Edges[ch.EdgeOff[ci]:ch.EdgeOff[ci+1]] {
			hyperID := gone
			if edge.At >= 0 {
				hyperID = at[edge.At]
			} else if id, ok := v.ID(edge.Hyper, 0); ok {
				hyperID = id
			}
			covered = covered && hyperID != gone
			v.hyperIDs[off] = hyperID
			v.edgeSources[off] = edge.Sources
			off++
		}
		ci++
		id++
	}
	v.hyperOff[n] = off
	if !covered {
		return nil, nil
	}
	v.derive(prev, runs, remap, fresh)
	return v, nil
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

	// ---- stats (the store's ComputeStats, replayed over the frozen
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
