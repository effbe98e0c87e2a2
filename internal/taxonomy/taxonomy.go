// Package taxonomy implements the conceptual taxonomy *build* store:
// the write-side accumulator the construction pipeline assembles into.
// It holds entities, concepts and provenance-tagged isA edges, and
// is saved only inside a snapshot (internal/snapshot). It is not a
// query model: every reader — the HTTP APIs, the application engines,
// the experiments — goes through the immutable, lock-free view in
// internal/serving, compiled from the store (serving.Compile, or
// serving.Patch for the nodes written since) or opened over a
// snapshot's image. What the store reads back is its
// content in canonical form (ReadAll, ReadNodes, Edges), the Stats
// counters and the change log, plus the few point reads the subconcept
// derivation rules make while they write (Kind, HyponymCount, EdgeOf,
// Concepts, IsAncestor).
//
// The store lives on dense IDs. Names are interned in a symtab.Table —
// the one the build's verification evidence uses, so a name is hashed
// once per build — and the rest is one flat array of node records
// indexed by ID: kind, outgoing edges (hypernym ID, sources)
// and hyponym IDs, in arrival order. There is no second
// index to keep in step and nothing to finalize: the Stats counters are
// kept by the writes, the change log is a list of touched IDs, and the
// canonical reads put names in order themselves.
//
// A Taxonomy is safe for concurrent use: one RWMutex, writers
// exclusive, readers shared.
package taxonomy

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"cnprobase/internal/symtab"
)

// Source identifies where an isA relation was generated from (paper
// Figure 2: the four encyclopedia sources) plus derivation modes.
type Source uint8

// Source values.
const (
	// SourceBracket marks pairs from the separation algorithm.
	SourceBracket Source = 1 << iota
	// SourceAbstract marks pairs from neural generation.
	SourceAbstract
	// SourceInfobox marks pairs from predicate discovery.
	SourceInfobox
	// SourceTag marks pairs from direct tag extraction.
	SourceTag
	// SourceMorph marks subconcept edges derived from compound heads.
	SourceMorph
	// SourceSubsume marks subconcept edges derived by set inclusion.
	SourceSubsume
	// SourceTranslation marks pairs from the Probase-Tran baseline.
	SourceTranslation
)

// String names a single source bit or a combination.
func (s Source) String() string {
	names := []struct {
		bit  Source
		name string
	}{
		{SourceBracket, "bracket"},
		{SourceAbstract, "abstract"},
		{SourceInfobox, "infobox"},
		{SourceTag, "tag"},
		{SourceMorph, "morph"},
		{SourceSubsume, "subsume"},
		{SourceTranslation, "translation"},
	}
	out := ""
	for _, n := range names {
		if s&n.bit != 0 {
			if out != "" {
				out += "+"
			}
			out += n.name
		}
	}
	if out == "" {
		return "none"
	}
	return out
}

// NodeKind classifies a taxonomy node.
type NodeKind uint8

// Node kinds.
const (
	// KindUnknown is a node seen only inside edges.
	KindUnknown NodeKind = iota
	// KindEntity is a disambiguated instance (a page).
	KindEntity
	// KindConcept is a class.
	KindConcept
)

// Edge is one isA relation: Hypo isA Hyper.
type Edge struct {
	Hypo    string `json:"hypo"`
	Hyper   string `json:"hyper"`
	Sources Source `json:"sources"`
}

// edge is one outgoing isA relation, stored on its hyponym.
type edge struct {
	hyper   uint32
	sources Source
}

// node is what the store holds about one name. A node exists while it
// is marked or touches an edge; a record that is neither is only a slot
// another owner of the symbol table caused.
type node struct {
	hypers []edge   // outgoing edges, in arrival order
	hypos  []uint32 // the nodes with an edge to this one, in arrival order
	kind   NodeKind
}

func (n *node) exists() bool {
	return n.kind != KindUnknown || len(n.hypers) > 0 || len(n.hypos) > 0
}

// find returns the index of the edge to hyper, or -1. Nodes have a
// handful of hypernyms, so a scan beats any index.
func (n *node) find(hyper uint32) int {
	for i := range n.hypers {
		if n.hypers[i].hyper == hyper {
			return i
		}
	}
	return -1
}

// Taxonomy is the isA graph.
type Taxonomy struct {
	syms *symtab.Table

	mu sync.RWMutex
	// nodes is indexed by symbol ID; IDs past its end have no record.
	nodes []node
	// stats is kept current by the writes (EntityConceptIsA aside, which
	// ComputeStats derives).
	stats Stats
	// changes logs the IDs ChangesSince hands out.
	changes changeLog[uint32]
}

// New returns an empty taxonomy over a symbol table of its own.
func New() *Taxonomy { return NewWithSymbols(symtab.New()) }

// NewWithSymbols returns an empty taxonomy that interns its names in
// syms. The build pipeline hands the store and the verification
// evidence the same table.
func NewWithSymbols(syms *symtab.Table) *Taxonomy { return &Taxonomy{syms: syms} }

// Symbols returns the table the store interns its names in.
func (t *Taxonomy) Symbols() *symtab.Table { return t.syms }

// lookup returns name's ID and record, nil when the store has none.
// Callers hold mu.
func (t *Taxonomy) lookup(name string) (uint32, *node) {
	id, ok := t.syms.Lookup(name)
	if !ok || int(id) >= len(t.nodes) {
		return 0, nil
	}
	return id, &t.nodes[id]
}

// intern returns name's ID with its record in place. Callers hold mu
// for writing; node pointers taken earlier may be stale afterwards.
func (t *Taxonomy) intern(name string) uint32 {
	id := t.syms.Intern(name)
	t.grow(id)
	return id
}

// grow puts the records up to id in place. Callers hold mu for writing.
func (t *Taxonomy) grow(id uint32) {
	if grow := int(id) + 1 - len(t.nodes); grow > 0 {
		t.nodes = append(t.nodes, make([]node, grow)...)
	}
}

// setKind changes a node's kind and keeps the counters in step.
// Callers hold mu for writing.
func (t *Taxonomy) setKind(id uint32, k NodeKind) {
	n := &t.nodes[id]
	if n.kind == k {
		return
	}
	t.countKind(n, -1)
	n.kind = k
	t.countKind(n, +1)
	t.changes.record(id)
}

// countKind adds (sign +1) or removes (sign -1) a node's contribution
// to the kind-dependent counters.
func (t *Taxonomy) countKind(n *node, sign int) {
	switch n.kind {
	case KindEntity:
		t.stats.Entities += sign
	case KindConcept:
		t.stats.Concepts += sign
		t.stats.SubConceptIsA += sign * len(n.hypers)
	}
}

// MarkEntity declares node as an entity.
func (t *Taxonomy) MarkEntity(id string) { t.mark(id, KindEntity) }

// MarkConcept declares node as a concept.
func (t *Taxonomy) MarkConcept(name string) { t.mark(name, KindConcept) }

// MarkEntityID marks a page's entity, named by an ID of the store's
// symbol table: the node is an entity whatever it was before — a
// concept some other page's tag made of it too — as a build makes it,
// which marks every page before it links an edge. An entity is never
// demoted (RemoveIsAID), so a page's entity stays a node.
func (t *Taxonomy) MarkEntityID(id uint32) {
	if t.syms.Names()[id] == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.grow(id)
	t.setKind(id, KindEntity)
}

func (t *Taxonomy) mark(name string, k NodeKind) {
	if name == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id := t.intern(name); t.nodes[id].kind == KindUnknown {
		t.setKind(id, k)
	}
}

// Kind returns the node kind of name.
func (t *Taxonomy) Kind(name string) NodeKind {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if _, n := t.lookup(name); n != nil {
		return n.kind
	}
	return KindUnknown
}

func checkEdge(hypo, hyper string) error {
	if hypo == "" || hyper == "" {
		return fmt.Errorf("taxonomy: empty node in isA(%q, %q)", hypo, hyper)
	}
	if hypo == hyper {
		return fmt.Errorf("taxonomy: self-loop isA(%q, %q)", hypo, hyper)
	}
	return nil
}

// AddIsA inserts or reinforces the isA(hypo, hyper) edge. Self-loops
// are rejected. Hypernyms are implicitly marked as concepts; hyponyms
// keep their current kind (entities are marked via MarkEntity by the
// pipeline; hyponyms that are concepts form subconcept edges).
func (t *Taxonomy) AddIsA(hypo, hyper string, src Source) error {
	if err := checkEdge(hypo, hyper); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addIsA(t.intern(hypo), t.intern(hyper), src)
	return nil
}

// AddIsAID is AddIsA for a pair named by IDs of the store's symbol
// table, with the same checks.
func (t *Taxonomy) AddIsAID(hypo, hyper uint32, src Source) error {
	names := t.syms.Names()
	if err := checkEdge(names[hypo], names[hyper]); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.grow(max(hypo, hyper))
	t.addIsA(hypo, hyper, src)
	return nil
}

// addIsA is AddIsA on IDs with records. Callers hold mu for writing.
func (t *Taxonomy) addIsA(a, b uint32, src Source) {
	n := &t.nodes[a]
	if i := n.find(b); i >= 0 {
		// A pair generated again adds no evidence unless it comes from
		// a source the edge lacks: its evidence count is the number of
		// its sources, so re-sending a page changes nothing. The log
		// names both ends of every edge whose content changed, as
		// TestIncrementalBookkeepingMatchesRecount holds it, though a
		// view reads the edge only on the hyponym's side.
		e := &n.hypers[i]
		if e.sources|src != e.sources {
			e.sources |= src
			t.changes.record(a, b)
		}
		return
	}
	t.link(a, b, edge{hyper: b, sources: src})
}

// link stores a new edge on both endpoints, marks an unknown hypernym
// as a concept and keeps the counters in step. Callers hold mu for
// writing.
func (t *Taxonomy) link(a, b uint32, e edge) {
	hypo, hyper := &t.nodes[a], &t.nodes[b]
	hypo.hypers = append(hypo.hypers, e)
	hyper.hypos = append(hyper.hypos, a)
	t.stats.IsARelations++
	if len(hypo.hypers) == 1 {
		t.stats.NodesWithHypernym++
	}
	if hypo.kind == KindConcept {
		t.stats.SubConceptIsA++
	}
	t.changes.record(a, b)
	if hyper.kind == KindUnknown {
		t.setKind(b, KindConcept)
	}
}

// ImportIDs restores an empty store from a serving image's canonical
// content by ID: every node's kind and every edge verbatim, with its
// sources, and the counters the writes would keep, in one pass under
// one lock, with no name hashed. The store's symbol table must hold the
// image's node names as IDs 0..len(kinds)-1, in image order
// (snapshot.Load interns them first); kinds has one entry per node, and
// node u's edges are [hyperOff[u], hyperOff[u+1]), edge j's hypernym
// being node hyperIDs[j] and its sources sources[j].
func (t *Taxonomy) ImportIDs(kinds []NodeKind, hyperOff, hyperIDs []uint32, sources []Source) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if grow := len(kinds) - len(t.nodes); grow > 0 {
		t.nodes = append(t.nodes, make([]node, grow)...)
	}
	indegree := make([]uint32, len(kinds))
	for _, h := range hyperIDs {
		indegree[h]++
	}
	for u, k := range kinds {
		n := &t.nodes[u]
		if k != KindUnknown {
			t.setKind(uint32(u), k)
		}
		if d := hyperOff[u+1] - hyperOff[u]; d > 0 {
			n.hypers = make([]edge, 0, d)
		}
		if indegree[u] > 0 {
			n.hypos = make([]uint32, 0, indegree[u])
		}
	}
	for u := range kinds {
		for j := hyperOff[u]; j < hyperOff[u+1]; j++ {
			t.link(uint32(u), hyperIDs[j], edge{hyper: hyperIDs[j], sources: sources[j]})
		}
	}
}

// RemoveIsAID deletes the edge, named by IDs of the store's symbol
// table, if present and reports whether it existed.
// Concept endpoints left without any remaining edge are demoted: their
// mark is dropped, so a concept whose last hyponym is retracted by
// re-verification stops counting toward Stats.Concepts instead of
// drifting the count upward across update batches. Entities (marked
// via MarkEntity) always survive retraction.
func (t *Taxonomy) RemoveIsAID(hypo, hyper uint32) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(max(hypo, hyper)) >= len(t.nodes) {
		return false
	}
	a, b := hypo, hyper
	from, to := &t.nodes[a], &t.nodes[b]
	i := from.find(b)
	if i < 0 {
		return false
	}
	from.hypers = slices.Delete(from.hypers, i, i+1)
	j := slices.Index(to.hypos, a)
	to.hypos = slices.Delete(to.hypos, j, j+1)
	t.stats.IsARelations--
	if len(from.hypers) == 0 {
		t.stats.NodesWithHypernym--
	}
	if from.kind == KindConcept {
		t.stats.SubConceptIsA--
	}
	t.changes.record(a, b)
	for _, id := range [2]uint32{b, a} {
		if n := &t.nodes[id]; n.kind == KindConcept && len(n.hypers) == 0 && len(n.hypos) == 0 {
			t.setKind(id, KindUnknown)
		}
	}
	return true
}

// EdgeOf returns a copy of the edge, if present.
func (t *Taxonomy) EdgeOf(hypo, hyper string) (Edge, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, from := t.lookup(hypo)
	b, to := t.lookup(hyper)
	if from == nil || to == nil {
		return Edge{}, false
	}
	i := from.find(b)
	if i < 0 {
		return Edge{}, false
	}
	e := &from.hypers[i]
	return Edge{Hypo: hypo, Hyper: hyper, Sources: e.sources}, true
}

// sortedNames resolves n IDs — id(0) … id(n-1) — to their names,
// ascending; nil for none. Callers hold mu.
func (t *Taxonomy) sortedNames(n int, id func(i int) uint32) []string {
	if n == 0 {
		return nil
	}
	names, out := t.syms.Names(), make([]string, n)
	for i := range out {
		out[i] = names[id(i)]
	}
	slices.Sort(out)
	return out
}

// HyponymCount returns the number of direct hyponyms of a concept.
func (t *Taxonomy) HyponymCount(concept string) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if _, n := t.lookup(concept); n != nil {
		return len(n.hypos)
	}
	return 0
}

// IsAncestor reports whether hyper is reachable from hypo through one
// or more edges: a breadth-first walk over IDs that stops at hyper. A
// node is not its own ancestor, even on a cycle.
func (t *Taxonomy) IsAncestor(hypo, hyper string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	start, from := t.lookup(hypo)
	target, to := t.lookup(hyper)
	if from == nil || to == nil || start == target {
		return false
	}
	// Ancestor sets are small, so the queue doubles as the visited set.
	queue := []uint32{start}
	for i := 0; i < len(queue); i++ {
		for _, e := range t.nodes[queue[i]].hypers {
			switch {
			case e.hyper == target:
				return true
			case !slices.Contains(queue, e.hyper):
				queue = append(queue, e.hyper)
			}
		}
	}
	return false
}

// idsWhere lists the nodes keep accepts. Callers hold mu.
func (t *Taxonomy) idsWhere(keep func(*node) bool) []uint32 {
	var ids []uint32
	for id := range t.nodes {
		if keep(&t.nodes[id]) {
			ids = append(ids, uint32(id))
		}
	}
	return ids
}

// Concepts returns the names of the nodes whose kind is KindConcept,
// sorted.
func (t *Taxonomy) Concepts() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ids := t.idsWhere(func(n *node) bool { return n.kind == KindConcept })
	return t.sortedNames(len(ids), func(i int) uint32 { return ids[i] })
}

// Edges returns copies of all edges, sorted for determinism.
func (t *Taxonomy) Edges() []Edge { return t.ReadAll().edgeList() }

// edgeList flattens the set's edges, in node then hypernym order.
func (set *NodeSet) edgeList() []Edge {
	out := make([]Edge, 0, len(set.Edges))
	for i, hypo := range set.Names {
		for _, e := range set.Edges[set.EdgeOff[i]:set.EdgeOff[i+1]] {
			out = append(out, Edge{Hypo: hypo, Hyper: e.Hyper, Sources: e.Sources})
		}
	}
	return out
}

// Stats summarizes the taxonomy in the shape of the paper's Table I
// row: entities, concepts, and the entity-concept / subconcept-concept
// split of isA edges.
type Stats struct {
	Entities          int `json:"entities"`
	Concepts          int `json:"concepts"`
	IsARelations      int `json:"isa_relations"`
	EntityConceptIsA  int `json:"entity_concept_isa"`
	SubConceptIsA     int `json:"subconcept_isa"`
	NodesWithHypernym int `json:"nodes_with_hypernym"`
}

// ComputeStats reads the counters the writes maintain: edges are
// classified by hyponym kind (unmarked hyponyms behave as instances).
func (t *Taxonomy) ComputeStats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := t.stats
	s.EntityConceptIsA = s.IsARelations - s.SubConceptIsA
	return s
}

// ChangesSince returns the names of the nodes written — marked,
// demoted, or at either end of an inserted, removed or reinforced edge
// — since the call that returned token, ascending and without
// duplicates, plus the token for the next call. ok is false, and nodes
// nil, when token does not name the previous call (the first call
// ever, or another consumer called in between): the caller must then
// treat every node as changed. IDs are recorded only from the first
// call on, so a store nobody asks retains nothing.
func (t *Taxonomy) ChangesSince(token uint64) (nodes []string, next uint64, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids, next, ok := t.changes.since(token)
	return t.sortedNames(len(ids), func(i int) uint32 { return ids[i] }), next, ok
}

// ---- canonical reads (compilation into serving views) ----

// NodeSet is the state of a set of nodes read from the store in
// canonical order: what a serving view is compiled or patched from.
type NodeSet struct {
	// Names lists the nodes, ascending and distinct.
	Names []string
	// Absent marks, parallel to Names, the nodes that do not exist (a
	// ReadNodes of a name since retracted); nil when all exist.
	Absent []bool
	// Kinds is parallel to Names. A node with hyponyms is always marked
	// (an edge marks an unknown hypernym a concept, and only a node
	// left without edges is unmarked), so a view, and the snapshot image
	// made of it, has no unmarked hypernym.
	Kinds []NodeKind
	// Node i's outgoing edges are Edges[EdgeOff[i]:EdgeOff[i+1]],
	// ascending by hypernym name.
	EdgeOff []uint32
	Edges   []NodeEdge

	// syms and rank resolve a name to its position (Find): rank maps a
	// symbol ID to the position of its node, -1 when it has none. Only
	// ReadAll sets them.
	syms *symtab.Table
	rank []int32
}

// Find returns the position of node name in a set ReadAll returned, or
// -1 when the store read no such node: one lookup in the store's symbol
// table, no search of Names. A set ReadNodes returned answers -1.
func (set *NodeSet) Find(name string) int32 {
	if set.syms == nil {
		return -1
	}
	if id, ok := set.syms.Lookup(name); ok && int(id) < len(set.rank) {
		return set.rank[id]
	}
	return -1
}

// NodeEdge is one outgoing edge of a NodeSet node.
type NodeEdge struct {
	Hyper string
	// At is Hyper's index in the set's Names, or -1 when the reader did
	// not resolve it (the hypernym may still be among them).
	At      int32
	Sources Source
}

// ReadAll returns every node of the store. The IDs are put in name
// order once; edges are then ordered, and their hypernyms resolved
// (At), through that permutation — no name is hashed or compared again.
func (t *Taxonomy) ReadAll() *NodeSet {
	t.mu.RLock()
	defer t.mu.RUnlock()
	names := t.syms.Names()
	order := t.idsWhere((*node).exists)
	slices.SortFunc(order, func(a, b uint32) int { return strings.Compare(names[a], names[b]) })
	rank := make([]int32, len(t.nodes))
	for i := range rank {
		rank[i] = -1
	}
	for i, id := range order {
		rank[id] = int32(i)
	}
	set := &NodeSet{
		Names:   make([]string, len(order)),
		Kinds:   make([]NodeKind, len(order)),
		EdgeOff: make([]uint32, len(order)+1),
		Edges:   make([]NodeEdge, 0, t.stats.IsARelations),
		syms:    t.syms,
		rank:    rank,
	}
	for i, id := range order {
		set.Names[i] = names[id]
		set.put(i, &t.nodes[id], names, rank)
	}
	return set
}

// ReadNodes returns the named nodes, which must be ascending and
// distinct; names the store does not know, or no longer holds anything
// about, are reported Absent. Hypernyms are left unresolved (At = -1).
func (t *Taxonomy) ReadNodes(nodes []string) *NodeSet {
	t.mu.RLock()
	defer t.mu.RUnlock()
	names := t.syms.Names()
	set := &NodeSet{
		Names:   nodes,
		Absent:  make([]bool, len(nodes)),
		Kinds:   make([]NodeKind, len(nodes)),
		EdgeOff: make([]uint32, len(nodes)+1),
	}
	for i, name := range nodes {
		if _, n := t.lookup(name); n != nil && n.exists() {
			set.put(i, n, names, nil)
		} else {
			set.Absent[i] = true
			set.EdgeOff[i+1] = set.EdgeOff[i]
		}
	}
	return set
}

// put fills in node i of the set from its record: kind and edges, the
// edges ascending by hypernym name — which, given the rank of every ID
// in name order, is ascending by rank, and the rank is the edge's At.
func (set *NodeSet) put(i int, n *node, names []string, rank []int32) {
	set.Kinds[i] = n.kind
	for _, e := range n.hypers {
		at := int32(-1)
		if rank != nil {
			at = rank[e.hyper]
		}
		set.Edges = append(set.Edges, NodeEdge{Hyper: names[e.hyper], At: at, Sources: e.sources})
	}
	slices.SortFunc(set.Edges[set.EdgeOff[i]:], func(a, b NodeEdge) int {
		if rank != nil {
			return int(a.At - b.At)
		}
		return strings.Compare(a.Hyper, b.Hyper)
	})
	set.EdgeOff[i+1] = uint32(len(set.Edges))
}
