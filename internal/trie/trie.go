// Package trie implements a rune-keyed prefix tree used as the
// dictionary backbone of the word segmenter and the NE recognizer.
//
// The trie stores words as sequences of runes, which matches the unit of
// Chinese text processing (one Han character per rune). It supports exact
// membership tests, prefix tests, and the "all matches from position i"
// query the Viterbi segmenter needs.
//
// Layout: all nodes live in a single flat arena ([]node indexed by
// uint32) instead of a pointer-per-node heap graph, and each node's
// children are a run of (rune, child-index) edges sorted by rune —
// scanned linearly at small fan-out, binary-searched above it. Freeze
// compacts every per-node run into one shared edge slice so a frozen
// trie is two contiguous arrays, which is what makes MatchesFrom cheap
// enough to sit in the segmenter's inner loop: no pointer chasing, no
// map probes, no per-node GC objects.
package trie

import "sort"

// edge is one child link: the labelling rune and the child's index in
// the node arena.
type edge struct {
	r     rune
	child uint32
}

// node is one arena slot. edges is sorted by rune; after Freeze it is a
// capacity-clamped view into the shared edge slice rather than an owned
// allocation.
type node struct {
	edges []edge
	// terminal marks the end of an inserted word; weight carries an
	// optional caller-supplied value (e.g. corpus frequency, or the
	// segmenter's precomputed word cost).
	terminal bool
	weight   float64
}

// Trie is a rune-keyed prefix tree over a flat node arena. The zero
// value is not usable; call New.
type Trie struct {
	nodes []node
	// rootDispatch, built by Freeze, maps first-rune → child index + a
	// dense O(1) table over [rootLo, rootLo+len): the root has the
	// widest fan-out of any node (one child per distinct first
	// character, thousands for a real Han dictionary) and is crossed by
	// every single query, so it gets a direct-index table instead of a
	// binary search. 0 marks "no child" (the root is never a child).
	rootDispatch []uint32
	rootLo       rune
	frozen       bool
	size         int
}

// New returns an empty trie. Node 0 is the root.
func New() *Trie {
	return &Trie{nodes: make([]node, 1, 16)}
}

// Size returns the number of distinct words stored.
func (t *Trie) Size() int { return t.size }

// Frozen reports whether Freeze has compacted the trie (and no insert
// has thawed it since).
func (t *Trie) Frozen() bool { return t.frozen }

// binarySearchMin is the fan-out at which child lookup switches from a
// linear scan of the sorted run to binary search. Han tries are shallow
// and wide at the root but narrow below it, so most lookups stay on the
// branch-predictable linear path.
const binarySearchMin = 8

// findEdge locates r in the sorted edge run es.
//
//cnp:noalloc
func findEdge(es []edge, r rune) (uint32, bool) {
	if len(es) < binarySearchMin {
		for i := range es {
			if es[i].r == r {
				return es[i].child, true
			}
			if es[i].r > r {
				break
			}
		}
		return 0, false
	}
	lo, hi := 0, len(es)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if es[mid].r < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(es) && es[lo].r == r {
		return es[lo].child, true
	}
	return 0, false
}

// Insert adds word to the trie with weight 1. Inserting an existing word
// is a no-op for size but keeps the larger weight.
func (t *Trie) Insert(word string) { t.InsertWeighted(word, 1) }

// InsertWeighted adds word with the given weight. If word exists, the
// maximum of the old and new weight is kept. Inserting a word that
// needs a new edge into a frozen trie thaws it first (an O(edges)
// copy); call Freeze again afterwards to restore the compact layout.
func (t *Trie) InsertWeighted(word string, weight float64) {
	if word == "" {
		return
	}
	n := uint32(0)
	for _, r := range word {
		c, ok := findEdge(t.nodes[n].edges, r)
		if !ok {
			if t.frozen {
				t.thaw()
			}
			c = t.addChild(n, r)
		}
		n = c
	}
	nd := &t.nodes[n]
	if !nd.terminal {
		nd.terminal = true
		t.size++
		nd.weight = weight
		return
	}
	if weight > nd.weight {
		nd.weight = weight
	}
}

// addChild appends a fresh node to the arena and links it under parent
// at the rune's sorted position. Must not be called while frozen.
func (t *Trie) addChild(parent uint32, r rune) uint32 {
	ci := uint32(len(t.nodes))
	t.nodes = append(t.nodes, node{})
	nd := &t.nodes[parent]
	es := nd.edges
	pos := sort.Search(len(es), func(i int) bool { return es[i].r >= r })
	es = append(es, edge{})
	copy(es[pos+1:], es[pos:])
	es[pos] = edge{r: r, child: ci}
	nd.edges = es
	return ci
}

// Freeze compacts every node's edge run into one shared slice, in node
// order. Lookups are unchanged semantically but touch two contiguous
// arrays instead of scattered allocations. Freezing an already-frozen
// trie is a no-op.
func (t *Trie) Freeze() {
	if t.frozen {
		return
	}
	total := 0
	for i := range t.nodes {
		total += len(t.nodes[i].edges)
	}
	shared := make([]edge, 0, total)
	for i := range t.nodes {
		nd := &t.nodes[i]
		s := len(shared)
		shared = append(shared, nd.edges...)
		// Clamp the capacity so a stray append could never clobber the
		// next node's run (it would copy out instead).
		nd.edges = shared[s:len(shared):len(shared)]
	}
	t.buildRootDispatch()
	t.frozen = true
}

// Root-dispatch sizing: only worth the memory when the root is wide,
// and only safe when the rune span is bounded (a full Han dictionary
// spans ~21k runes ≈ 84KB of table; an adversarial span would not be
// dense, so it falls back to the sorted run).
const (
	dispatchMinFanout = 16
	dispatchMaxSpan   = 1 << 16
)

func (t *Trie) buildRootDispatch() {
	t.rootDispatch, t.rootLo = nil, 0
	es := t.nodes[0].edges
	if len(es) < dispatchMinFanout {
		return
	}
	lo, hi := es[0].r, es[len(es)-1].r
	span := int(hi-lo) + 1
	if span > dispatchMaxSpan {
		return
	}
	d := make([]uint32, span)
	for _, e := range es {
		d[e.r-lo] = e.child
	}
	t.rootDispatch, t.rootLo = d, lo
}

// thaw gives every node back an owned copy of its edge run so sorted
// insertion can shift edges in place again.
func (t *Trie) thaw() {
	for i := range t.nodes {
		nd := &t.nodes[i]
		if len(nd.edges) > 0 {
			nd.edges = append(make([]edge, 0, len(nd.edges)+1), nd.edges...)
		}
	}
	t.rootDispatch, t.rootLo = nil, 0
	t.frozen = false
}

// Contains reports whether word was inserted.
func (t *Trie) Contains(word string) bool {
	n, ok := t.find(word)
	return ok && t.nodes[n].terminal
}

// Weight returns the weight of word and whether it is present.
func (t *Trie) Weight(word string) (float64, bool) {
	n, ok := t.find(word)
	if !ok || !t.nodes[n].terminal {
		return 0, false
	}
	return t.nodes[n].weight, true
}

// HasPrefix reports whether any inserted word starts with prefix.
func (t *Trie) HasPrefix(prefix string) bool {
	_, ok := t.find(prefix)
	return ok
}

func (t *Trie) find(word string) (uint32, bool) {
	n := uint32(0)
	for _, r := range word {
		if n == 0 && t.rootDispatch != nil {
			off := int(r - t.rootLo)
			if off < 0 || off >= len(t.rootDispatch) || t.rootDispatch[off] == 0 {
				return 0, false
			}
			n = t.rootDispatch[off]
			continue
		}
		c, ok := findEdge(t.nodes[n].edges, r)
		if !ok {
			return 0, false
		}
		n = c
	}
	return n, true
}

// Match is a dictionary hit returned by MatchesFrom.
type Match struct {
	// Len is the number of runes matched.
	Len int
	// Weight is the stored word weight.
	Weight float64
}

// MatchesFrom returns every dictionary word that starts at rs[start],
// reported as rune lengths in increasing order. The scan stops as soon
// as no stored word continues with the next rune, so the cost is bounded
// by the longest dictionary word.
func (t *Trie) MatchesFrom(rs []rune, start int) []Match {
	return t.MatchesFromAppend(rs, start, nil)
}

// MatchesFromAppend is MatchesFrom in append style: hits are appended
// to buf (which may be a recycled scratch slice) and the extended slice
// is returned, so a steady-state caller allocates nothing.
//
//cnp:noalloc
func (t *Trie) MatchesFromAppend(rs []rune, start int, buf []Match) []Match {
	if start >= len(rs) {
		return buf
	}
	nodes := t.nodes
	n := uint32(0)
	i := start
	if d := t.rootDispatch; d != nil {
		off := int(rs[i] - t.rootLo)
		if off < 0 || off >= len(d) || d[off] == 0 {
			return buf
		}
		n = d[off]
		if nodes[n].terminal {
			buf = append(buf, Match{Len: 1, Weight: nodes[n].weight})
		}
		i++
	}
scan:
	for ; i < len(rs); i++ {
		// findEdge, inlined by hand: this loop is the segmenter's inner
		// loop and the call is over the inlining budget.
		r := rs[i]
		es := nodes[n].edges
		if len(es) < binarySearchMin {
			for j := range es {
				if es[j].r == r {
					n = es[j].child
					goto hit
				}
				if es[j].r > r {
					break scan
				}
			}
			break scan
		} else {
			lo, hi := 0, len(es)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if es[mid].r < r {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo >= len(es) || es[lo].r != r {
				break scan
			}
			n = es[lo].child
		}
	hit:
		if nodes[n].terminal {
			buf = append(buf, Match{Len: i - start + 1, Weight: nodes[n].weight})
		}
	}
	return buf
}

// LongestFrom returns the rune length of the longest dictionary word
// starting at rs[start], or 0 if none matches.
//
//cnp:noalloc
func (t *Trie) LongestFrom(rs []rune, start int) int {
	if start >= len(rs) {
		return 0
	}
	nodes := t.nodes
	best := 0
	n := uint32(0)
	i := start
	if d := t.rootDispatch; d != nil {
		off := int(rs[i] - t.rootLo)
		if off < 0 || off >= len(d) || d[off] == 0 {
			return 0
		}
		n = d[off]
		if nodes[n].terminal {
			best = 1
		}
		i++
	}
	for ; i < len(rs); i++ {
		c, ok := findEdge(nodes[n].edges, rs[i])
		if !ok {
			break
		}
		n = c
		if nodes[n].terminal {
			best = i - start + 1
		}
	}
	return best
}

// Reweight replaces every stored word's weight with fn(word, weight).
// Weights live in the node arena, not the shared edge slice, so this
// works on frozen tries without thawing them.
func (t *Trie) Reweight(fn func(word string, weight float64) float64) {
	var prefix []rune
	var rec func(n uint32)
	rec = func(n uint32) {
		nd := &t.nodes[n]
		if nd.terminal {
			nd.weight = fn(string(prefix), nd.weight)
		}
		for _, e := range nd.edges {
			prefix = append(prefix, e.r)
			rec(e.child)
			prefix = prefix[:len(prefix)-1]
		}
	}
	rec(0)
}

// Walk visits every stored word in unspecified order. The callback
// receives the word and its weight; returning false stops the walk.
func (t *Trie) Walk(fn func(word string, weight float64) bool) {
	var prefix []rune
	var rec func(n uint32) bool
	rec = func(n uint32) bool {
		nd := &t.nodes[n]
		if nd.terminal {
			if !fn(string(prefix), nd.weight) {
				return false
			}
		}
		for _, e := range nd.edges {
			prefix = append(prefix, e.r)
			ok := rec(e.child)
			prefix = prefix[:len(prefix)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	rec(0)
}
