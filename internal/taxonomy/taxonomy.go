// Package taxonomy implements the conceptual taxonomy *build* store:
// the mutable structure the construction pipeline assembles into. It
// holds entities, concepts and provenance-tagged isA edges, maintains
// hypernym/hyponym indexes, answers closure queries (with cycle
// guards) and serializes to JSON. For serving traffic, the finished
// store is frozen into the immutable, lock-free view in
// internal/serving (see serving.Compile); the query methods here have
// View equivalents with equivalence pinned by tests.
//
// The store is sharded: nodes and edges are distributed over N
// lock-protected shards keyed by a hash of the hyponym (edges, hypernym
// lists) or of the node itself (kinds, hyponym lists), so concurrent
// writers contend only when they touch the same shard. Single-node
// queries (Hypernyms, Hyponyms, Kind, EdgeOf) lock exactly one shard;
// whole-graph queries (Edges, Nodes, ComputeStats) visit shards one at
// a time. Finalize puts adjacency lists into canonical order and keeps
// a merged sorted node list that Nodes is served from until the next
// write. Every write records the nodes it touches, so re-finalizing
// after an incremental update sorts and merges only those; Stats are
// per-shard counters maintained by the writes themselves.
//
// A Taxonomy is safe for concurrent use: writes lock at most two
// shards (always in index order, so writers cannot deadlock), and
// readers never hold more than one shard lock at a time.
package taxonomy

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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
	Hypo    string  `json:"hypo"`
	Hyper   string  `json:"hyper"`
	Sources Source  `json:"sources"`
	Score   float64 `json:"score"`
	// Count is how many times the pair was generated across sources.
	Count int `json:"count"`
}

type edgeKey struct{ hypo, hyper string }

// DefaultShards is the shard count used by New. Sixteen shards keep
// write contention negligible for the pipeline's worker counts while
// the per-shard maps stay large enough to amortize.
const DefaultShards = 16

// shard is one lock-protected partition of the store. Edges and
// hypernym lists live in the hyponym's shard; hyponym lists and node
// kinds live in the named node's shard.
type shard struct {
	mu     sync.RWMutex
	edges  map[edgeKey]*Edge   // keyed by shard(hypo)
	hypers map[string][]string // hypo → hypernyms, keyed by shard(hypo)
	hypos  map[string][]string // hyper → hyponyms, keyed by shard(hyper)
	kinds  map[string]NodeKind // keyed by shard(node)
	// touched holds every node of this shard written since the last
	// Finalize, with the adjacency lists that were appended to (removals
	// keep list order). Finalize sorts those lists and merges the names
	// into the node list, so its cost follows the writes, not the store.
	touched map[string]touch
	// This shard's share of Stats, maintained by the writes: marked
	// entities and concepts, and the outgoing edges of concept-kind
	// nodes (a node's kind and its hypernym list share a shard).
	entities, concepts, subConceptIsA int
}

// touch says which of a touched node's adjacency lists need re-sorting.
type touch uint8

const (
	touchHypers touch = 1 << iota
	touchHypos
)

// touch records a write to the node. Callers hold sh.mu.
func (sh *shard) touch(name string, lists touch) { sh.touched[name] |= lists }

// setKind changes a node's kind and keeps the shard's counters in step;
// KindUnknown removes the entry. Callers hold sh.mu.
func (sh *shard) setKind(name string, k NodeKind) {
	old := sh.kinds[name]
	if old == k {
		return
	}
	out := len(sh.hypers[name])
	switch old {
	case KindEntity:
		sh.entities--
	case KindConcept:
		sh.concepts--
		sh.subConceptIsA -= out
	}
	switch k {
	case KindEntity:
		sh.entities++
	case KindConcept:
		sh.concepts++
		sh.subConceptIsA += out
	}
	if k == KindUnknown {
		delete(sh.kinds, name)
	} else {
		sh.kinds[name] = k
	}
	sh.touch(name, 0)
}

// has reports whether the node exists: it is marked or touches an edge.
// All three facts live in the node's own shard. Callers hold sh.mu.
func (sh *shard) has(name string) bool {
	return sh.kinds[name] != KindUnknown || len(sh.hypers[name]) > 0 || len(sh.hypos[name]) > 0
}

// merged is the sorted node list Finalize maintains. gen records the
// write generation it was computed at; readers treat it as valid only
// while the store's generation still matches, so a write racing
// Finalize can never leave a stale list looking valid. A stale list
// stays reachable: it is the base the next Finalize merges the touched
// names into.
type merged struct {
	gen   uint64
	nodes []string // sorted
}

// Taxonomy is the isA graph.
type Taxonomy struct {
	shards   []shard
	writeGen atomic.Uint64
	final    atomic.Pointer[merged]

	// finalizeMu serializes Finalize and ChangesSince; changes is the
	// log of node names ChangesSince hands out.
	finalizeMu sync.Mutex
	changes    changeLog
}

// New returns an empty taxonomy with DefaultShards shards.
func New() *Taxonomy { return NewSharded(DefaultShards) }

// NewSharded returns an empty taxonomy with n shards (n <= 0 selects
// DefaultShards). Higher shard counts reduce write contention during
// parallel construction; shard count does not affect query results.
func NewSharded(n int) *Taxonomy {
	if n <= 0 {
		n = DefaultShards
	}
	t := &Taxonomy{shards: make([]shard, n)}
	for i := range t.shards {
		t.shards[i] = shard{
			edges:   make(map[edgeKey]*Edge),
			hypers:  make(map[string][]string),
			hypos:   make(map[string][]string),
			kinds:   make(map[string]NodeKind),
			touched: make(map[string]touch),
		}
	}
	return t
}

// ShardCount returns the number of shards.
func (t *Taxonomy) ShardCount() int { return len(t.shards) }

// fnv32a hashes s with 32-bit FNV-1a.
func fnv32a(s string) uint32 {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime
	}
	return h
}

func (t *Taxonomy) shardIndex(name string) int {
	return int(fnv32a(name) % uint32(len(t.shards)))
}

func (t *Taxonomy) shardOf(name string) *shard { return &t.shards[t.shardIndex(name)] }

// invalidate makes readers ignore the merged node list: a Finalize
// computing concurrently publishes its result under the generation it
// started at, which no longer matches.
func (t *Taxonomy) invalidate() { t.writeGen.Add(1) }

// mergedIndexes returns the merged node list if it is still current,
// nil otherwise.
func (t *Taxonomy) mergedIndexes() *merged {
	if m := t.final.Load(); m != nil && m.gen == t.writeGen.Load() {
		return m
	}
	return nil
}

// lockPair write-locks the shards of a and b in index order (deadlock
// free) and returns the corresponding shards plus an unlock function.
func (t *Taxonomy) lockPair(a, b string) (sa, sb *shard, unlock func()) {
	i, j := t.shardIndex(a), t.shardIndex(b)
	sa, sb = &t.shards[i], &t.shards[j]
	if i == j {
		sa.mu.Lock()
		return sa, sb, sa.mu.Unlock
	}
	lo, hi := sa, sb
	if i > j {
		lo, hi = sb, sa
	}
	lo.mu.Lock()
	hi.mu.Lock()
	return sa, sb, func() { hi.mu.Unlock(); lo.mu.Unlock() }
}

// MarkEntity declares node as an entity.
func (t *Taxonomy) MarkEntity(id string) { t.mark(id, KindEntity) }

// MarkConcept declares node as a concept.
func (t *Taxonomy) MarkConcept(name string) { t.mark(name, KindConcept) }

func (t *Taxonomy) mark(name string, k NodeKind) {
	if name == "" {
		return
	}
	sh := t.shardOf(name)
	sh.mu.Lock()
	if sh.kinds[name] == KindUnknown {
		sh.setKind(name, k)
	}
	sh.mu.Unlock()
	t.invalidate()
}

// ImportKind overwrites the node kind unconditionally. It is the
// deserialization counterpart of MarkEntity/MarkConcept: JSON and
// binary-snapshot loaders restore saved kinds through it. KindUnknown
// entries are dropped rather than stored — Unknown is the absence of a
// kind, and storing it would make a parallel restore racy against
// InsertEdge's implicit concept marking.
func (t *Taxonomy) ImportKind(name string, k NodeKind) {
	if name == "" {
		return
	}
	sh := t.shardOf(name)
	sh.mu.Lock()
	sh.setKind(name, k)
	sh.mu.Unlock()
	t.invalidate()
}

// Kind returns the node kind of name.
func (t *Taxonomy) Kind(name string) NodeKind {
	sh := t.shardOf(name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.kinds[name]
}

// AddIsA inserts or reinforces the isA(hypo, hyper) edge. Self-loops
// are rejected. Hypernyms are implicitly marked as concepts; hyponyms
// keep their current kind (entities are marked via MarkEntity by the
// pipeline; hyponyms that are concepts form subconcept edges).
func (t *Taxonomy) AddIsA(hypo, hyper string, src Source, score float64) error {
	if hypo == "" || hyper == "" {
		return fmt.Errorf("taxonomy: empty node in isA(%q, %q)", hypo, hyper)
	}
	if hypo == hyper {
		return fmt.Errorf("taxonomy: self-loop isA(%q, %q)", hypo, hyper)
	}
	sa, sb, unlock := t.lockPair(hypo, hyper)
	defer unlock()
	k := edgeKey{hypo, hyper}
	if e, ok := sa.edges[k]; ok {
		e.Sources |= src
		e.Count++
		if score > e.Score {
			e.Score = score
		}
		// The evidence count feeds both endpoints' typicality rankings.
		sa.touch(hypo, 0)
		sb.touch(hyper, 0)
		t.invalidate()
		return nil
	}
	sa.edges[k] = &Edge{Hypo: hypo, Hyper: hyper, Sources: src, Score: score, Count: 1}
	linkEdge(sa, sb, hypo, hyper)
	t.invalidate()
	return nil
}

// linkEdge indexes a new edge on both endpoints, marks an unknown
// hypernym as a concept and keeps the counters in step. Callers hold
// both shard locks.
func linkEdge(sa, sb *shard, hypo, hyper string) {
	sa.hypers[hypo] = append(sa.hypers[hypo], hyper)
	sa.touch(hypo, touchHypers)
	if sa.kinds[hypo] == KindConcept {
		sa.subConceptIsA++
	}
	sb.hypos[hyper] = append(sb.hypos[hyper], hypo)
	sb.touch(hyper, touchHypos)
	if sb.kinds[hyper] == KindUnknown {
		sb.setKind(hyper, KindConcept)
	}
}

// InsertEdge installs an edge verbatim: the full provenance — sources,
// score, evidence count — is taken from e rather than re-derived. It is
// the deserialization counterpart of AddIsA (which merges evidence);
// loaders restoring a saved graph use it so counts and scores round-trip
// bit-exactly. An existing (Hypo, Hyper) edge is overwritten in place.
// Like AddIsA, the hypernym is implicitly marked as a concept when its
// kind is still unknown, so edge and kind sections may be restored
// concurrently in any order.
func (t *Taxonomy) InsertEdge(e Edge) error {
	if e.Hypo == "" || e.Hyper == "" {
		return fmt.Errorf("taxonomy: empty node in isA(%q, %q)", e.Hypo, e.Hyper)
	}
	if e.Hypo == e.Hyper {
		return fmt.Errorf("taxonomy: self-loop isA(%q, %q)", e.Hypo, e.Hyper)
	}
	sa, sb, unlock := t.lockPair(e.Hypo, e.Hyper)
	defer unlock()
	k := edgeKey{e.Hypo, e.Hyper}
	if old, ok := sa.edges[k]; ok {
		*old = e
		sa.touch(e.Hypo, 0)
		sb.touch(e.Hyper, 0)
		if sb.kinds[e.Hyper] == KindUnknown {
			sb.setKind(e.Hyper, KindConcept)
		}
	} else {
		cp := e
		sa.edges[k] = &cp
		linkEdge(sa, sb, e.Hypo, e.Hyper)
	}
	t.invalidate()
	return nil
}

// RemoveIsA deletes the edge if present and reports whether it existed.
// Concept endpoints left without any remaining edge are demoted: their
// kinds entry is dropped, so a concept whose last hyponym is retracted
// by re-verification stops counting toward Stats.Concepts instead of
// drifting the count upward across update batches. Entities (marked
// via MarkEntity) always survive retraction.
func (t *Taxonomy) RemoveIsA(hypo, hyper string) bool {
	sa, sb, unlock := t.lockPair(hypo, hyper)
	defer unlock()
	k := edgeKey{hypo, hyper}
	if _, ok := sa.edges[k]; !ok {
		return false
	}
	delete(sa.edges, k)
	sa.touch(hypo, 0)
	sb.touch(hyper, 0)
	if sa.kinds[hypo] == KindConcept {
		sa.subConceptIsA--
	}
	if hs := removeString(sa.hypers[hypo], hyper); len(hs) > 0 {
		sa.hypers[hypo] = hs
	} else {
		delete(sa.hypers, hypo) // empty entries would skew NodesWithHypernym
	}
	if hs := removeString(sb.hypos[hyper], hypo); len(hs) > 0 {
		sb.hypos[hyper] = hs
	} else {
		delete(sb.hypos, hyper)
	}
	// Demote orphaned concepts. A node's adjacency both ways lives in
	// its own shard (hypers is keyed by the hyponym side, hypos by the
	// hypernym side), so each endpoint check stays inside the shard
	// lock already held.
	if sb.kinds[hyper] == KindConcept && len(sb.hypos[hyper]) == 0 && len(sb.hypers[hyper]) == 0 {
		sb.setKind(hyper, KindUnknown)
	}
	if sa.kinds[hypo] == KindConcept && len(sa.hypers[hypo]) == 0 && len(sa.hypos[hypo]) == 0 {
		sa.setKind(hypo, KindUnknown)
	}
	t.invalidate()
	return true
}

func removeString(xs []string, x string) []string {
	for i, v := range xs {
		if v == x {
			return append(xs[:i], xs[i+1:]...)
		}
	}
	return xs
}

// HasIsA reports whether the direct edge exists.
func (t *Taxonomy) HasIsA(hypo, hyper string) bool {
	sh := t.shardOf(hypo)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.edges[edgeKey{hypo, hyper}]
	return ok
}

// EdgeOf returns a copy of the edge, if present.
func (t *Taxonomy) EdgeOf(hypo, hyper string) (Edge, bool) {
	sh := t.shardOf(hypo)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.edges[edgeKey{hypo, hyper}]
	if !ok {
		return Edge{}, false
	}
	return *e, true
}

// Hypernyms returns the direct hypernyms of node (getConcept in the
// paper's API table).
func (t *Taxonomy) Hypernyms(node string) []string {
	sh := t.shardOf(node)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return append([]string(nil), sh.hypers[node]...)
}

// Hyponyms returns up to limit direct hyponyms of a concept (getEntity
// in the paper's API table); limit <= 0 means all.
func (t *Taxonomy) Hyponyms(concept string, limit int) []string {
	sh := t.shardOf(concept)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	hs := sh.hypos[concept]
	if limit <= 0 || limit > len(hs) {
		limit = len(hs)
	}
	return append([]string(nil), hs[:limit]...)
}

// HyponymCount returns the number of direct hyponyms of a concept.
func (t *Taxonomy) HyponymCount(concept string) int {
	sh := t.shardOf(concept)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.hypos[concept])
}

// Ancestors returns all transitive hypernyms of node, breadth-first,
// excluding node itself. Cycles are tolerated. Each BFS step reads one
// shard; concurrent writers may interleave, in which case the result is
// a best-effort snapshot (exact once construction has finished).
func (t *Taxonomy) Ancestors(node string) []string {
	seen := map[string]bool{node: true}
	var out []string
	queue := t.Hypernyms(node)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		out = append(out, cur)
		queue = append(queue, t.Hypernyms(cur)...)
	}
	return out
}

// IsAncestor reports whether hyper is reachable from hypo.
func (t *Taxonomy) IsAncestor(hypo, hyper string) bool {
	for _, a := range t.Ancestors(hypo) {
		if a == hyper {
			return true
		}
	}
	return false
}

// Nodes returns all node names, sorted. After Finalize the merged
// sorted list is served from cache.
func (t *Taxonomy) Nodes() []string {
	if m := t.mergedIndexes(); m != nil {
		return append([]string(nil), m.nodes...)
	}
	return t.computeNodes()
}

// computeNodes unions every shard's nodes — the from-nothing node list
// the first Finalize starts from and un-finalized reads fall back to.
func (t *Taxonomy) computeNodes() []string {
	seen := make(map[string]bool)
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for k := range sh.edges {
			seen[k.hypo] = true
			seen[k.hyper] = true
		}
		for n := range sh.kinds {
			seen[n] = true
		}
		sh.mu.RUnlock()
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Edges returns copies of all edges, sorted for determinism.
func (t *Taxonomy) Edges() []Edge {
	out := make([]Edge, 0, t.EdgeCount())
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for _, e := range sh.edges {
			out = append(out, *e)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hypo != out[j].Hypo {
			return out[i].Hypo < out[j].Hypo
		}
		return out[i].Hyper < out[j].Hyper
	})
	return out
}

// EdgeCount returns the number of isA edges.
func (t *Taxonomy) EdgeCount() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		n += len(sh.edges)
		sh.mu.RUnlock()
	}
	return n
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

// snapshotKinds copies the merged kind map, one shard at a time.
func (t *Taxonomy) snapshotKinds() map[string]NodeKind {
	out := make(map[string]NodeKind)
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for n, k := range sh.kinds {
			out[n] = k
		}
		sh.mu.RUnlock()
	}
	return out
}

// ComputeStats sums the shards' counters: edges are classified by
// hyponym kind (unmarked hyponyms behave as instances). It costs
// O(shards) whether or not the store is finalized.
func (t *Taxonomy) ComputeStats() Stats {
	var s Stats
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		s.Entities += sh.entities
		s.Concepts += sh.concepts
		s.IsARelations += len(sh.edges)
		s.SubConceptIsA += sh.subConceptIsA
		s.NodesWithHypernym += len(sh.hypers)
		sh.mu.RUnlock()
	}
	s.EntityConceptIsA = s.IsARelations - s.SubConceptIsA
	return s
}

// Finalize puts the adjacency lists appended to since the last call
// into canonical (sorted) order — so the result of a parallel build is
// structurally identical to a sequential one — and brings the merged
// sorted node list up to date for the serving path. The first call
// builds the list from the whole store; later calls merge in only the
// nodes written since, so re-finalizing after an incremental update
// costs what the update touched (plus one copy of the list when a node
// appeared or vanished). Any subsequent write invalidates the list;
// one racing Finalize bumps the generation the list is published
// under, so the stale list is ignored rather than served.
func (t *Taxonomy) Finalize() {
	t.finalizeMu.Lock()
	defer t.finalizeMu.Unlock()
	t.finalizeLocked()
}

func (t *Taxonomy) finalizeLocked() {
	gen := t.writeGen.Load()
	base := t.final.Load()
	// Names are only worth collecting when something consumes them: a
	// node list to merge into, or a change log someone reads.
	collect := base != nil || t.changes.tracking()
	var written, added, removed []string
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for n, lists := range sh.touched {
			if lists&touchHypers != 0 {
				sort.Strings(sh.hypers[n])
			}
			if lists&touchHypos != 0 {
				sort.Strings(sh.hypos[n])
			}
			if !collect {
				continue
			}
			written = append(written, n)
			if base != nil {
				_, listed := slices.BinarySearch(base.nodes, n)
				switch exists := sh.has(n); {
				case exists && !listed:
					added = append(added, n)
				case listed && !exists:
					removed = append(removed, n)
				}
			}
		}
		if len(sh.touched) > 0 {
			sh.touched = make(map[string]touch)
		}
		sh.mu.Unlock()
	}
	t.changes.record(written...)
	nodes := []string(nil)
	switch {
	case base == nil:
		nodes = t.computeNodes()
	case len(added)+len(removed) == 0:
		nodes = base.nodes
	default:
		sort.Strings(added)
		sort.Strings(removed)
		nodes = spliceSorted(base.nodes, removed, added)
	}
	t.final.Store(&merged{gen: gen, nodes: nodes})
}

// spliceSorted returns base without the names in removed and with the
// names in added, all three ascending; removed ⊆ base, added ∩ base = ∅.
// Runs of base between two changes are copied whole.
func spliceSorted(base, removed, added []string) []string {
	out := make([]string, 0, len(base)+len(added)-len(removed))
	from := 0
	copyTo := func(name string) int {
		at, _ := slices.BinarySearch(base[from:], name)
		out = append(out, base[from:from+at]...)
		return from + at
	}
	for len(removed)+len(added) > 0 {
		if len(added) == 0 || (len(removed) > 0 && removed[0] < added[0]) {
			from = copyTo(removed[0]) + 1
			removed = removed[1:]
		} else {
			from = copyTo(added[0])
			out = append(out, added[0])
			added = added[1:]
		}
	}
	return append(out, base[from:]...)
}

// ChangesSince finalizes the store and returns the names of the nodes
// written — marked, demoted, or at either end of an inserted, removed
// or reinforced edge — since the call that returned token, ascending
// and without duplicates, plus the token for the next call. ok is
// false, and nodes nil, when token does not name the previous call
// (the first call ever, or another consumer called in between): the
// caller must then treat every node as changed. Names are recorded
// only from the first call on, so a store nobody asks retains nothing.
func (t *Taxonomy) ChangesSince(token uint64) (nodes []string, next uint64, ok bool) {
	t.finalizeMu.Lock()
	defer t.finalizeMu.Unlock()
	t.finalizeLocked()
	return t.changes.since(token)
}

// Finalized reports whether the merged indexes are currently valid.
func (t *Taxonomy) Finalized() bool { return t.mergedIndexes() != nil }

// ---- partitioned export (binary snapshots) ----

// KindEntry is one explicitly marked node in a Partition.
type KindEntry struct {
	Name string
	Kind NodeKind
}

// Partition is one hash-partitioned slice of the store's logical
// content: the marked nodes and edges whose owning name (node name for
// kinds, hyponym for edges) hashes into the partition.
type Partition struct {
	Kinds []KindEntry
	Edges []Edge
}

// ExportPartitions splits the store's content into n hash partitions:
// entry i holds the kinds of nodes with fnv32a(name) % n == i and the
// edges with fnv32a(hypo) % n == i. The partitioning depends only on
// the logical content and n — not on the store's shard count — which
// is what lets a snapshot format built on it stay byte-stable across
// Shards settings. Entry order within a partition is unspecified
// (callers needing determinism sort); KindUnknown entries are omitted.
// Shards are read one RLock at a time, so a concurrent writer may or
// may not be reflected (exact once construction has finished).
func (t *Taxonomy) ExportPartitions(n int) []Partition {
	if n <= 0 {
		n = 1
	}
	parts := make([]Partition, n)
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for name, k := range sh.kinds {
			if k == KindUnknown {
				continue
			}
			p := &parts[fnv32a(name)%uint32(n)]
			p.Kinds = append(p.Kinds, KindEntry{Name: name, Kind: k})
		}
		for _, e := range sh.edges {
			p := &parts[fnv32a(e.Hypo)%uint32(n)]
			p.Edges = append(p.Edges, *e)
		}
		sh.mu.RUnlock()
	}
	return parts
}

// ---- serialization ----

type taxJSON struct {
	Kinds map[string]NodeKind `json:"kinds"`
	Edges []Edge              `json:"edges"`
}

// WriteJSON serializes the taxonomy.
func (t *Taxonomy) WriteJSON(w io.Writer) error {
	out := taxJSON{Kinds: t.snapshotKinds(), Edges: t.Edges()}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(out); err != nil {
		return fmt.Errorf("taxonomy: encode: %w", err)
	}
	return bw.Flush()
}

// ReadJSON loads a taxonomy written by WriteJSON.
func ReadJSON(r io.Reader) (*Taxonomy, error) {
	var in taxJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("taxonomy: decode: %w", err)
	}
	t := New()
	for n, k := range in.Kinds {
		t.ImportKind(n, k)
	}
	for _, e := range in.Edges {
		if err := t.InsertEdge(e); err != nil {
			return nil, err
		}
	}
	return t, nil
}
