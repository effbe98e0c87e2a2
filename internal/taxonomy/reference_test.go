package taxonomy

// The sharded string-map store the dense-ID Taxonomy replaced, kept
// verbatim (types renamed) as the oracle of TestTaxonomyModel: sixteen
// lock-protected shards of string-keyed maps, adjacency lists that
// Finalize sorts, a merged sorted node list. It defines what every
// query method, ComputeStats and the change log must answer.

import (
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

type refEdgeKey struct{ hypo, hyper string }

// refDefaultShards is the refShard count used by New. Sixteen shards keep
// write contention negligible for the pipeline's worker counts while
// the per-refShard maps stay large enough to amortize.
const refDefaultShards = 16

// refShard is one lock-protected partition of the store. Edges and
// hypernym lists live in the hyponym's refShard; hyponym lists and node
// kinds live in the named node's refShard.
type refShard struct {
	mu     sync.RWMutex
	edges  map[refEdgeKey]*Edge // keyed by refShard(hypo)
	hypers map[string][]string  // hypo → hypernyms, keyed by refShard(hypo)
	hypos  map[string][]string  // hyper → hyponyms, keyed by refShard(hyper)
	kinds  map[string]NodeKind  // keyed by refShard(node)
	// touched holds every node of this refShard written since the last
	// Finalize, with the adjacency lists that were appended to (removals
	// keep list order). Finalize sorts those lists and merges the names
	// into the node list, so its cost follows the writes, not the store.
	touched map[string]refTouch
	// This refShard's share of Stats, maintained by the writes: marked
	// entities and concepts, and the outgoing edges of concept-kind
	// nodes (a node's kind and its hypernym list share a refShard).
	entities, concepts, subConceptIsA int
}

// refTouch says which of a touched node's adjacency lists need re-sorting.
type refTouch uint8

const (
	refTouchHypers refTouch = 1 << iota
	refTouchHypos
)

// refTouch records a write to the node. Callers hold sh.mu.
func (sh *refShard) refTouch(name string, lists refTouch) { sh.touched[name] |= lists }

// setKind changes a node's kind and keeps the refShard's counters in step;
// KindUnknown removes the entry. Callers hold sh.mu.
func (sh *refShard) setKind(name string, k NodeKind) {
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
	sh.refTouch(name, 0)
}

// has reports whether the node exists: it is marked or touches an edge.
// All three facts live in the node's own refShard. Callers hold sh.mu.
func (sh *refShard) has(name string) bool {
	return sh.kinds[name] != KindUnknown || len(sh.hypers[name]) > 0 || len(sh.hypos[name]) > 0
}

// refMerged is the sorted node list Finalize maintains. gen records the
// write generation it was computed at; readers treat it as valid only
// while the store's generation still matches, so a write racing
// Finalize can never leave a stale list looking valid. A stale list
// stays reachable: it is the base the next Finalize merges the touched
// names into.
type refMerged struct {
	gen   uint64
	nodes []string // sorted
}

// refTaxonomy is the isA graph.
type refTaxonomy struct {
	shards   []refShard
	writeGen atomic.Uint64
	final    atomic.Pointer[refMerged]

	// finalizeMu serializes Finalize and ChangesSince; changes is the
	// log of node names ChangesSince hands out.
	finalizeMu sync.Mutex
	changes    changeLog[string]
}

// New returns an empty taxonomy with refDefaultShards shards.
func newRef() *refTaxonomy { return newRefSharded(refDefaultShards) }

// newRefSharded returns an empty taxonomy with n shards (n <= 0 selects
// refDefaultShards). Higher refShard counts reduce write contention during
// parallel construction; refShard count does not affect query results.
func newRefSharded(n int) *refTaxonomy {
	if n <= 0 {
		n = refDefaultShards
	}
	t := &refTaxonomy{shards: make([]refShard, n)}
	for i := range t.shards {
		t.shards[i] = refShard{
			edges:   make(map[refEdgeKey]*Edge),
			hypers:  make(map[string][]string),
			hypos:   make(map[string][]string),
			kinds:   make(map[string]NodeKind),
			touched: make(map[string]refTouch),
		}
	}
	return t
}

// ShardCount returns the number of shards.
func (t *refTaxonomy) ShardCount() int { return len(t.shards) }

func (t *refTaxonomy) shardIndex(name string) int {
	h := fnv.New32a()
	_, _ = io.WriteString(h, name) // a hash never fails to write
	return int(h.Sum32() % uint32(len(t.shards)))
}

func (t *refTaxonomy) shardOf(name string) *refShard { return &t.shards[t.shardIndex(name)] }

// invalidate makes readers ignore the refMerged node list: a Finalize
// computing concurrently publishes its result under the generation it
// started at, which no longer matches.
func (t *refTaxonomy) invalidate() { t.writeGen.Add(1) }

// mergedIndexes returns the refMerged node list if it is still current,
// nil otherwise.
func (t *refTaxonomy) mergedIndexes() *refMerged {
	if m := t.final.Load(); m != nil && m.gen == t.writeGen.Load() {
		return m
	}
	return nil
}

// lockPair write-locks the shards of a and b in index order (deadlock
// free) and returns the corresponding shards plus an unlock function.
func (t *refTaxonomy) lockPair(a, b string) (sa, sb *refShard, unlock func()) {
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
func (t *refTaxonomy) MarkEntity(id string) { t.mark(id, KindEntity) }

// MarkConcept declares node as a concept.
func (t *refTaxonomy) MarkConcept(name string) { t.mark(name, KindConcept) }

func (t *refTaxonomy) mark(name string, k NodeKind) {
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

// Kind returns the node kind of name.
func (t *refTaxonomy) Kind(name string) NodeKind {
	sh := t.shardOf(name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.kinds[name]
}

// AddIsA inserts or reinforces the isA(hypo, hyper) edge. Self-loops
// are rejected. Hypernyms are implicitly marked as concepts; hyponyms
// keep their current kind (entities are marked via MarkEntity by the
// pipeline; hyponyms that are concepts form subconcept edges).
func (t *refTaxonomy) AddIsA(hypo, hyper string, src Source) error {
	if hypo == "" || hyper == "" {
		return fmt.Errorf("taxonomy: empty node in isA(%q, %q)", hypo, hyper)
	}
	if hypo == hyper {
		return fmt.Errorf("taxonomy: self-loop isA(%q, %q)", hypo, hyper)
	}
	sa, sb, unlock := t.lockPair(hypo, hyper)
	defer unlock()
	k := refEdgeKey{hypo, hyper}
	if e, ok := sa.edges[k]; ok {
		if e.Sources|src == e.Sources {
			return nil // nothing new: nothing logged, as the store logs nothing
		}
		e.Sources |= src
		// Both ends are logged, as the store logs them.
		sa.refTouch(hypo, 0)
		sb.refTouch(hyper, 0)
		t.invalidate()
		return nil
	}
	sa.edges[k] = &Edge{Hypo: hypo, Hyper: hyper, Sources: src}
	refLinkEdge(sa, sb, hypo, hyper)
	t.invalidate()
	return nil
}

// refLinkEdge indexes a new edge on both endpoints, marks an unknown
// hypernym as a concept and keeps the counters in step. Callers hold
// both refShard locks.
func refLinkEdge(sa, sb *refShard, hypo, hyper string) {
	sa.hypers[hypo] = append(sa.hypers[hypo], hyper)
	sa.refTouch(hypo, refTouchHypers)
	if sa.kinds[hypo] == KindConcept {
		sa.subConceptIsA++
	}
	sb.hypos[hyper] = append(sb.hypos[hyper], hypo)
	sb.refTouch(hyper, refTouchHypos)
	if sb.kinds[hyper] == KindUnknown {
		sb.setKind(hyper, KindConcept)
	}
}

// RemoveIsA deletes the edge if present and reports whether it existed.
// Concept endpoints left without any remaining edge are demoted: their
// kinds entry is dropped, so a concept whose last hyponym is retracted
// by re-verification stops counting toward Stats.Concepts instead of
// drifting the count upward across update batches. Entities (marked
// via MarkEntity) always survive retraction.
func (t *refTaxonomy) RemoveIsA(hypo, hyper string) bool {
	sa, sb, unlock := t.lockPair(hypo, hyper)
	defer unlock()
	k := refEdgeKey{hypo, hyper}
	if _, ok := sa.edges[k]; !ok {
		return false
	}
	delete(sa.edges, k)
	sa.refTouch(hypo, 0)
	sb.refTouch(hyper, 0)
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
	// its own refShard (hypers is keyed by the hyponym side, hypos by the
	// hypernym side), so each endpoint check stays inside the refShard
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

// EdgeOf returns a copy of the edge, if present.
func (t *refTaxonomy) EdgeOf(hypo, hyper string) (Edge, bool) {
	sh := t.shardOf(hypo)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.edges[refEdgeKey{hypo, hyper}]
	if !ok {
		return Edge{}, false
	}
	return *e, true
}

// Hypernyms returns the direct hypernyms of node (getConcept in the
// paper's API table).
func (t *refTaxonomy) Hypernyms(node string) []string {
	sh := t.shardOf(node)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return append([]string(nil), sh.hypers[node]...)
}

// Hyponyms returns up to limit direct hyponyms of a concept (getEntity
// in the paper's API table); limit <= 0 means all.
func (t *refTaxonomy) Hyponyms(concept string, limit int) []string {
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
func (t *refTaxonomy) HyponymCount(concept string) int {
	sh := t.shardOf(concept)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.hypos[concept])
}

// Ancestors returns all transitive hypernyms of node, breadth-first,
// excluding node itself. Cycles are tolerated. Each BFS step reads one
// refShard; concurrent writers may interleave, in which case the result is
// a best-effort snapshot (exact once construction has finished).
func (t *refTaxonomy) Ancestors(node string) []string {
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
func (t *refTaxonomy) IsAncestor(hypo, hyper string) bool {
	for _, a := range t.Ancestors(hypo) {
		if a == hyper {
			return true
		}
	}
	return false
}

// Nodes returns all node names, sorted. After Finalize the refMerged
// sorted list is served from cache.
func (t *refTaxonomy) Nodes() []string {
	if m := t.mergedIndexes(); m != nil {
		return append([]string(nil), m.nodes...)
	}
	return t.computeNodes()
}

// computeNodes unions every refShard's nodes — the from-nothing node list
// the first Finalize starts from and un-finalized reads fall back to.
func (t *refTaxonomy) computeNodes() []string {
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
func (t *refTaxonomy) Edges() []Edge {
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
func (t *refTaxonomy) EdgeCount() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		n += len(sh.edges)
		sh.mu.RUnlock()
	}
	return n
}

// snapshotKinds copies the refMerged kind map, one refShard at a time.
func (t *refTaxonomy) snapshotKinds() map[string]NodeKind {
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
func (t *refTaxonomy) ComputeStats() Stats {
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
// structurally identical to a sequential one — and brings the refMerged
// sorted node list up to date for the serving path. The first call
// builds the list from the whole store; later calls merge in only the
// nodes written since, so re-finalizing after an incremental update
// costs what the update touched (plus one copy of the list when a node
// appeared or vanished). Any subsequent write invalidates the list;
// one racing Finalize bumps the generation the list is published
// under, so the stale list is ignored rather than served.
func (t *refTaxonomy) Finalize() {
	t.finalizeMu.Lock()
	defer t.finalizeMu.Unlock()
	t.finalizeLocked()
}

func (t *refTaxonomy) finalizeLocked() {
	gen := t.writeGen.Load()
	base := t.final.Load()
	// Names are only worth collecting when something consumes them: a
	// node list to merge into, or a change log someone reads.
	collect := base != nil || t.changes.seq != 0
	var written, added, removed []string
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for n, lists := range sh.touched {
			if lists&refTouchHypers != 0 {
				sort.Strings(sh.hypers[n])
			}
			if lists&refTouchHypos != 0 {
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
			sh.touched = make(map[string]refTouch)
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
	t.final.Store(&refMerged{gen: gen, nodes: nodes})
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
func (t *refTaxonomy) ChangesSince(token uint64) (nodes []string, next uint64, ok bool) {
	t.finalizeMu.Lock()
	defer t.finalizeMu.Unlock()
	t.finalizeLocked()
	return t.changes.since(token)
}

// Finalized reports whether the refMerged indexes are currently valid.
func (t *refTaxonomy) Finalized() bool { return t.mergedIndexes() != nil }

// RankedHypernyms returns the node's hypernyms with their typicality
// P(hyper | node) — the edge's evidence count, its number of sources,
// over the sum of the node's — sorted by descending typicality (ties broken
// lexicographically); limit <= 0 returns all. Zero scores when the sum
// is zero.
func (t *refTaxonomy) RankedHypernyms(node string, limit int) []Scored {
	// All of node's outgoing edges live in node's refShard, so one lock
	// covers the whole sibling scan.
	sh := t.shardOf(node)
	sh.mu.RLock()
	hypers := sh.hypers[node]
	out := make([]Scored, 0, len(hypers))
	total := 0
	for _, h := range hypers {
		e := sh.edges[refEdgeKey{node, h}]
		out = append(out, Scored{Node: h, Score: float64(e.Sources.Evidence())})
		total += e.Sources.Evidence()
	}
	sh.mu.RUnlock()
	for i := range out {
		if total == 0 {
			out[i].Score = 0
		} else {
			out[i].Score /= float64(total)
		}
	}
	sortScored(out)
	if limit > 0 && limit < len(out) {
		out = out[:limit]
	}
	return out
}

func sortScored(xs []Scored) {
	sort.Slice(xs, func(i, j int) bool {
		if xs[i].Score != xs[j].Score {
			return xs[i].Score > xs[j].Score
		}
		return xs[i].Node < xs[j].Node
	})
}

// Reference is the oracle under the name the external model test
// (package taxonomy_test: it needs serving, which imports this
// package) reaches it by.
type Reference = refTaxonomy

// NewReference returns an empty oracle store with the given shard
// count.
func NewReference(shards int) *Reference { return newRefSharded(shards) }
