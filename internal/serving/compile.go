package serving

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"cnprobase/internal/taxonomy"
)

// Compile freezes the taxonomy's lists into an immutable, flat View:
// it reads the nodes in name order straight into the view's arrays —
// node i is the i-th name, so an ID is a name rank — and resolves each
// node's edges and each mention's entities through one symbol ID →
// name rank table, so compiling searches no sorted table per edge or per
// mention entity. An edge held by both Kept and Derived is one edge,
// its sources OR'ed. The derived arrays — hypernym rankings by
// typicality P(concept | entity) from each edge's number of sources,
// evidence totals, the hyponym side, stats — are then filled by
// buildDerived, as OpenImage fills a mapped view's. The view is laid
// out as a mapped one is: sorted tables and flat arrays, no index
// beside them, so what it allocates does not grow with the taxonomy.
// The sorted names and mentions are concatenated once into the view's
// two arenas, each held, like the image's, to 4 GiB (past that Compile
// panics).
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
	ranks := make([]uint32, len(names)) // symbol ID → node ID (name rank), for the nodes
	nameBytes := 0
	for i, id := range order {
		ranks[id] = uint32(i)
		nameBytes += len(names[id])
	}
	n := len(order)
	// The taxonomy counts its edges as it writes them; the count only
	// sizes the arrays.
	e := t.ComputeStats().IsARelations
	v := &View{
		names:       newTable(n, nameBytes),
		kinds:       make([]taxonomy.NodeKind, n),
		hyperOff:    make([]uint32, n+1),
		hyperIDs:    make([]uint32, 0, e),
		edgeSources: make([]taxonomy.Source, 0, e),
	}
	var pairs []taxonomy.Pair
	for i, id := range order {
		v.names.push(names[id])
		v.kinds[i] = t.KindOf(id)
		v.hyperOff[i] = uint32(len(v.hyperIDs))
		pairs = t.AppendEdges(pairs[:0], id)
		slices.SortFunc(pairs, func(a, b taxonomy.Pair) int { return cmp.Compare(ranks[a.Hyper], ranks[b.Hyper]) })
		for _, p := range pairs {
			v.hyperIDs = append(v.hyperIDs, ranks[p.Hyper])
			v.edgeSources = append(v.edgeSources, p.Source)
		}
	}
	v.hyperOff[n] = uint32(len(v.hyperIDs))

	// ---- the mention table: one row per text, its entities' node IDs
	// ascending ----
	rows, menBytes := 0, 0
	for i, m := range t.Mentions {
		if i == 0 || m.Text != t.Mentions[i-1].Text {
			rows++
			menBytes += len(m.Text)
		}
	}
	v.mentions = newTable(rows, menBytes)
	v.mentionOff = make([]uint32, 0, rows+1)
	v.mentionEnts = make([]uint32, len(t.Mentions))
	for i := 0; i < len(t.Mentions); {
		text, from := t.Mentions[i].Text, i
		for ; i < len(t.Mentions) && t.Mentions[i].Text == text; i++ {
			v.mentionEnts[i] = ranks[t.Mentions[i].Entity]
		}
		slices.Sort(v.mentionEnts[from:i])
		v.mentions.push(text)
		v.mentionOff = append(v.mentionOff, uint32(from))
	}
	v.mentionOff = append(v.mentionOff, uint32(len(t.Mentions)))
	v.mentionFirst = firstRuneSet(v.mentions)
	v.buildDerived()
	return v
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
	ch := &change{symbols: names}
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

// change is what extend lays over a previous view: the current state
// of every node that may differ from it, and of every mention whose
// entity list may.
type change struct {
	// names lists the nodes, ascending and distinct; absent marks,
	// parallel to it, the nodes that do not exist, and kinds their kinds.
	names  []string
	absent []bool
	kinds  []taxonomy.NodeKind
	// Node i's edges are edges[edgeOff[i]:edgeOff[i+1]], ascending by
	// hypernym name.
	edgeOff  []uint32
	edges    []changeEdge
	mentions []changeMention // ascending by text, distinct
	symbols  []string        // symbol ID → name
}

// changeEdge is one edge of a change's node.
type changeEdge struct {
	hyper   string
	sources taxonomy.Source
}

// changeMention is one mention and its entities' symbol IDs.
type changeMention struct {
	text string
	ents []uint32
}

// read reads the nodes of ids, which are in name order and distinct:
// kind, existence and edges, in hypernym name order.
func (ch *change) read(t *taxonomy.Taxonomy, ids []uint32) {
	ch.names = make([]string, len(ids))
	ch.absent = make([]bool, len(ids))
	ch.kinds = make([]taxonomy.NodeKind, len(ids))
	ch.edgeOff = make([]uint32, len(ids)+1)
	var pairs []taxonomy.Pair
	for i, id := range ids {
		pairs = t.AppendEdges(pairs[:0], id)
		ch.names[i], ch.kinds[i] = ch.symbols[id], t.KindOf(id)
		// A node is marked or the hyponym of an edge (a hypernym is always
		// marked).
		ch.absent[i] = ch.kinds[i] == taxonomy.KindUnknown && len(pairs) == 0
		from := len(ch.edges)
		for _, p := range pairs {
			ch.edges = append(ch.edges, changeEdge{hyper: ch.symbols[p.Hyper], sources: p.Source})
		}
		slices.SortFunc(ch.edges[from:], func(a, b changeEdge) int { return strings.Compare(a.hyper, b.hyper) })
		ch.edgeOff[i+1] = uint32(len(ch.edges))
	}
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

// buildDerived fills the derived arrays — per-node evidence totals,
// the hypernym typicality rank permutations, the transposed hyponym
// CSR and the stats summary — from the canonical ones: names, kinds,
// the hypernym CSR and its edge sources (an edge's evidence count is
// the number of its sources). Compile and OpenImage both call it, so a
// compiled view and a mapped one cannot drift apart; Fold copies these
// arrays from the rows it merges instead.
func (v *View) buildDerived() {
	n, e := v.names.len(), len(v.hyperIDs)
	v.hyperRank = make([]uint32, e)
	v.hyperTotals = make([]int64, n)
	v.hypoOff = make([]uint32, n+1)
	v.hypoIDs = make([]uint32, e)
	v.stats = taxonomy.Stats{}
	for u := 0; u < n; u++ {
		lo, hi := v.hyperOff[u], v.hyperOff[u+1]
		for _, s := range v.edgeSources[lo:hi] {
			v.hyperTotals[u] += int64(s.Evidence())
		}
		rank(v.hyperRank[lo:hi], v.edgeSources[lo:hi])
		countStats(&v.stats, v.kinds[u], int(hi-lo), 1)
	}
	for _, hyperID := range v.hyperIDs {
		v.hypoOff[hyperID+1]++
	}
	for i := 0; i < n; i++ {
		v.hypoOff[i+1] += v.hypoOff[i]
	}
	// Transpose: scanning the flat array — which is in (hypo, hyper)
	// ascending order — and appending per hypernym keeps each segment
	// sorted by hyponym ID.
	fill := slices.Clone(v.hypoOff[:n])
	for u := 0; u < n; u++ {
		for _, hyperID := range v.hyperIDs[v.hyperOff[u]:v.hyperOff[u+1]] {
			v.hypoIDs[fill[hyperID]] = uint32(u)
			fill[hyperID]++
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
