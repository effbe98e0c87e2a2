// Package taxonomy holds the taxonomy's write model: what the
// construction pipeline assembles and an ingest replica extends batch
// after batch. It is a value over the dense IDs of a symtab.Table (the
// one the build's verification evidence interns into), made of four
// lists:
//
//   - the kind of every node, by symbol ID;
//   - Kept, the verified generated isA pairs, sorted by (Hypo, Hyper)
//     ID: the pipeline's kept candidate list itself;
//   - Derived, every edge part no kept pair holds — the pairs the
//     subconcept rules derive — sorted the same way;
//   - Mentions, the (mention, entity) pairs men2ent resolves, sorted.
//
// A pair in both Kept and Derived is one edge, its sources the two
// lists' OR'ed. Nothing indexes the lists a second way: the pipeline
// reads a concept's kept hyponyms off the verification evidence, and
// every query goes through the immutable view in internal/serving,
// compiled from the lists or opened over a snapshot's image. The Stats
// counters are kept by the writes.
//
// A Taxonomy has one writer at a time — a build, an update, or a hand
// assembly through the name-keyed writers (MarkEntity, MarkConcept,
// AddIsA, AddMention) — and is read between writes.
package taxonomy

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"unicode/utf8"

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

// derivedSources are the bits the derivation rules set; Add files
// every other bit under Kept.
const derivedSources = SourceMorph | SourceSubsume

// sourceNames names the source bits, lowest first.
var sourceNames = [...]string{"bracket", "abstract", "infobox", "tag", "morph", "subsume", "translation"}

// String names a single source bit or a combination.
func (s Source) String() string {
	var parts []string
	for i, name := range sourceNames {
		if s&(1<<i) != 0 {
			parts = append(parts, name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
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

// Edge is one isA relation named by its nodes: Hypo isA Hyper.
type Edge struct {
	Hypo    string `json:"hypo"`
	Hyper   string `json:"hyper"`
	Sources Source `json:"sources"`
}

// Pair is one isA relation on symbol IDs, Hypo isA Hyper, with the
// sources that generated or derived it. The pipeline's candidates are
// pairs (extract.Candidate).
type Pair struct {
	Hypo, Hyper uint32
	Source      Source
}

// Key packs the pair into one integer; keys order pairs by (Hypo,
// Hyper), the order of Kept and Derived.
func (p Pair) Key() uint64 { return uint64(p.Hypo)<<32 | uint64(p.Hyper) }

// Find locates the pair (hypo, hyper) in a list sorted by key: its
// position, or where it would go, and whether it is there.
func Find(list []Pair, hypo, hyper uint32) (int, bool) {
	key := Pair{Hypo: hypo, Hyper: hyper}.Key()
	return slices.BinarySearchFunc(list, key, func(p Pair, k uint64) int { return cmp.Compare(p.Key(), k) })
}

// span is the stretch of a sorted list whose pairs have hyponym id.
func span(list []Pair, id uint32) []Pair {
	lo, _ := Find(list, id, 0)
	hi := lo
	for hi < len(list) && list[hi].Hypo == id {
		hi++
	}
	return list[lo:hi]
}

// merge calls f for the union of two lists sorted by key, in key order:
// a pair in both once, with its sources OR'ed.
func merge(a, b []Pair, f func(Pair)) {
	for len(a) > 0 || len(b) > 0 {
		switch {
		case len(b) == 0 || len(a) > 0 && a[0].Key() < b[0].Key():
			f(a[0])
			a = a[1:]
		case len(a) == 0 || b[0].Key() < a[0].Key():
			f(b[0])
			b = b[1:]
		default:
			p := a[0]
			p.Source |= b[0].Source
			f(p)
			a, b = a[1:], b[1:]
		}
	}
}

// Mention is one surface mention of an entity — its title, its ID or
// an alias — the entity named by symbol ID.
type Mention struct {
	Text   string
	Entity uint32
}

func compareMentions(a, b Mention) int {
	return cmp.Or(strings.Compare(a.Text, b.Text), cmp.Compare(a.Entity, b.Entity))
}

// Taxonomy is the isA graph as the lists the package comment describes.
type Taxonomy struct {
	syms  *symtab.Table
	kinds []NodeKind // by symbol ID; IDs past its end are KindUnknown
	// Kept holds the verified generated pairs, sorted by key and
	// distinct. The pipeline edits it in place (core.Result.Kept is this
	// field) and reports the edit (Inserted, Retracted).
	Kept []Pair
	// Derived holds every edge part no kept pair holds, sorted by key
	// and distinct.
	Derived []Pair
	// Mentions holds the mention pairs, sorted by Text then Entity and
	// distinct; every Text is trimmed, non-empty and valid UTF-8.
	Mentions []Mention

	stats Stats
	named uint64 // writes of the name-keyed writers, see NamedWrites
}

// New returns an empty taxonomy over a symbol table of its own.
func New() *Taxonomy { return NewWithSymbols(symtab.New()) }

// NewWithSymbols returns an empty taxonomy that interns its names in
// syms, the table the build pipeline shares with the evidence.
func NewWithSymbols(syms *symtab.Table) *Taxonomy { return &Taxonomy{syms: syms} }

// Restore returns the taxonomy of the given lists — kinds by symbol ID,
// pairs sorted by key, mentions sorted — as a snapshot describes it.
func Restore(syms *symtab.Table, kinds []NodeKind, kept, derived []Pair, mentions []Mention) *Taxonomy {
	t := &Taxonomy{syms: syms, kinds: kinds, Kept: kept, Derived: derived, Mentions: mentions}
	t.recount()
	return t
}

// Symbols returns the table the taxonomy interns its names in.
func (t *Taxonomy) Symbols() *symtab.Table { return t.syms }

// NamedWrites counts the writes made through the name-keyed writers.
// The pipeline reports its own writes as diffs; a reader that follows
// those diffs starts over from the lists when this count moves.
func (t *Taxonomy) NamedWrites() uint64 { return t.named }

// KindOf returns the kind of symbol ID id.
func (t *Taxonomy) KindOf(id uint32) NodeKind {
	if int(id) < len(t.kinds) {
		return t.kinds[id]
	}
	return KindUnknown
}

// Kind returns the kind of the named node.
func (t *Taxonomy) Kind(name string) NodeKind {
	id, ok := t.syms.Lookup(name)
	if !ok {
		return KindUnknown
	}
	return t.KindOf(id)
}

// setKind changes a node's kind and keeps the counters in step. It
// reports whether the kind changed.
func (t *Taxonomy) setKind(id uint32, k NodeKind) bool {
	if t.KindOf(id) == k {
		return false
	}
	if grow := int(id) + 1 - len(t.kinds); grow > 0 {
		t.kinds = append(t.kinds, make([]NodeKind, grow)...)
	}
	t.count(id, -1)
	t.kinds[id] = k
	t.count(id, +1)
	return true
}

// count adds (sign +1) or removes (sign -1) a node's contribution to
// the kind-dependent counters.
func (t *Taxonomy) count(id uint32, sign int) {
	switch t.kinds[id] {
	case KindEntity:
		t.stats.Entities += sign
	case KindConcept:
		t.stats.Concepts += sign
		t.stats.SubConceptIsA += sign * t.outDegree(id)
	}
}

// MarkEntity declares the named node an entity, unless it has a kind.
func (t *Taxonomy) MarkEntity(name string) { t.mark(name, KindEntity) }

// MarkConcept declares the named node a concept, unless it has a kind.
func (t *Taxonomy) MarkConcept(name string) { t.mark(name, KindConcept) }

func (t *Taxonomy) mark(name string, k NodeKind) {
	if name != "" {
		t.named++
		if id := t.syms.Intern(name); t.KindOf(id) == KindUnknown {
			t.setKind(id, k)
		}
	}
}

// MarkEntityID marks a page's entity: the node is an entity whatever it
// was before, as a build makes it, which marks every page before it
// links an edge. An entity is never demoted, so a page's entity stays a
// node. It reports whether the kind changed.
func (t *Taxonomy) MarkEntityID(id uint32) bool {
	return t.syms.Names()[id] != "" && t.setKind(id, KindEntity)
}

// MarkConceptID declares symbol ID id a concept unless it has a kind,
// and reports whether it had none.
func (t *Taxonomy) MarkConceptID(id uint32) bool {
	return t.KindOf(id) == KindUnknown && t.setKind(id, KindConcept)
}

// AddIsA inserts or reinforces the isA(hypo, hyper) edge. Self-loops
// and empty names are rejected. An unknown hypernym becomes a concept;
// the hyponym keeps its kind.
func (t *Taxonomy) AddIsA(hypo, hyper string, src Source) error {
	if hypo == "" || hyper == "" || hypo == hyper {
		return fmt.Errorf("taxonomy: empty node or self-loop in isA(%q, %q)", hypo, hyper)
	}
	t.named++
	t.Add(Pair{Hypo: t.syms.Intern(hypo), Hyper: t.syms.Intern(hyper), Source: src})
	return nil
}

// Add inserts or reinforces the edge of pair p, whose ends differ: its
// derivation bits go to Derived, every other bit to Kept. It reports
// whether the edge's sources grew (a new edge's always do).
func (t *Taxonomy) Add(p Pair) bool {
	before, existed := t.SourcesOf(p.Hypo, p.Hyper)
	if gen := p.Source &^ derivedSources; gen != 0 || p.Source == 0 {
		t.Kept = insert(t.Kept, Pair{Hypo: p.Hypo, Hyper: p.Hyper, Source: gen})
	}
	if der := p.Source & derivedSources; der != 0 {
		t.Derived = insert(t.Derived, Pair{Hypo: p.Hypo, Hyper: p.Hyper, Source: der})
	}
	if !existed {
		t.linked([]Pair{p})
	}
	return !existed || before|p.Source != before
}

// insert adds p to a sorted list, OR-ing its sources into an equal
// pair already there.
func insert(list []Pair, p Pair) []Pair {
	i, ok := Find(list, p.Hypo, p.Hyper)
	if ok {
		list[i].Source |= p.Source
		return list
	}
	return slices.Insert(list, i, p)
}

// Inserted keeps the counters in step with pairs, sorted by key, the
// caller has just inserted into Kept: a pair Derived holds was an edge
// already; every other one is new.
func (t *Taxonomy) Inserted(pairs []Pair) {
	if len(t.Derived) == 0 {
		t.linked(pairs) // a build's kept list: every pair is new
		return
	}
	var fresh []Pair
	for _, p := range pairs {
		if _, ok := Find(t.Derived, p.Hypo, p.Hyper); !ok {
			fresh = append(fresh, p)
		}
	}
	t.linked(fresh)
}

// linked keeps the counters in step with pairs, sorted by key, that
// have just become edges, then marks every unknown hypernym a concept
// (which counts the concept's edges, new ones included).
func (t *Taxonomy) linked(pairs []Pair) {
	for i := 0; i < len(pairs); {
		hypo, from := pairs[i].Hypo, i
		for ; i < len(pairs) && pairs[i].Hypo == hypo; i++ {
			t.stats.IsARelations++
			if t.KindOf(hypo) == KindConcept {
				t.stats.SubConceptIsA++
			}
		}
		if t.outDegree(hypo) == i-from {
			t.stats.NodesWithHypernym++ // its first edges
		}
	}
	for _, p := range pairs {
		t.MarkConceptID(p.Hyper)
	}
}

// Retracted removes the edges of pairs the caller has just removed from
// Kept — re-verification rejected them — whole: a derived part goes
// with them. A concept at either end left without any edge is demoted,
// so the concept count does not drift upward across update batches; an
// entity always survives. keptHypernym reports whether an ID is still
// the hypernym of a kept pair, which the verification evidence indexes.
func (t *Taxonomy) Retracted(pairs []Pair, keptHypernym func(id uint32) bool) {
	pairs = slices.Clone(pairs)
	slices.SortFunc(pairs, func(a, b Pair) int { return cmp.Compare(a.Key(), b.Key()) })
	for i := 0; i < len(pairs); {
		hypo := pairs[i].Hypo
		for ; i < len(pairs) && pairs[i].Hypo == hypo; i++ {
			if j, ok := Find(t.Derived, hypo, pairs[i].Hyper); ok {
				t.Derived = slices.Delete(t.Derived, j, j+1)
			}
			t.stats.IsARelations--
			if t.KindOf(hypo) == KindConcept {
				t.stats.SubConceptIsA--
			}
		}
		if t.outDegree(hypo) == 0 {
			t.stats.NodesWithHypernym-- // its last edges
		}
	}
	for _, p := range pairs {
		for _, id := range [2]uint32{p.Hyper, p.Hypo} {
			if t.KindOf(id) == KindConcept && t.outDegree(id) == 0 && !keptHypernym(id) &&
				!slices.ContainsFunc(t.Derived, func(d Pair) bool { return d.Hyper == id }) {
				t.setKind(id, KindUnknown)
			}
		}
	}
}

// outDegree is the number of edges of node id.
func (t *Taxonomy) outDegree(id uint32) (n int) {
	merge(span(t.Kept, id), span(t.Derived, id), func(Pair) { n++ })
	return n
}

// AppendEdges appends node id's edges to dst — one per hypernym,
// ascending by hypernym ID — and returns the extended slice.
func (t *Taxonomy) AppendEdges(dst []Pair, id uint32) []Pair {
	merge(span(t.Kept, id), span(t.Derived, id), func(p Pair) { dst = append(dst, p) })
	return dst
}

// EachEdge calls f for every edge, in (Hypo, Hyper) ID order.
func (t *Taxonomy) EachEdge(f func(Pair)) { merge(t.Kept, t.Derived, f) }

// SourcesOf returns the sources of the edge (hypo, hyper), and whether
// there is one.
func (t *Taxonomy) SourcesOf(hypo, hyper uint32) (src Source, ok bool) {
	if i, kept := Find(t.Kept, hypo, hyper); kept {
		src, ok = t.Kept[i].Source, true
	}
	if i, derived := Find(t.Derived, hypo, hyper); derived {
		src, ok = src|t.Derived[i].Source, true
	}
	return src, ok
}

// EdgeOf returns the named edge, if present.
func (t *Taxonomy) EdgeOf(hypo, hyper string) (Edge, bool) {
	a, ok := t.syms.Lookup(hypo)
	b, ok2 := t.syms.Lookup(hyper)
	if !ok || !ok2 {
		return Edge{}, false
	}
	src, ok := t.SourcesOf(a, b)
	if !ok {
		return Edge{}, false
	}
	return Edge{Hypo: hypo, Hyper: hyper, Sources: src}, true
}

// IsAncestor reports whether hyper is reachable from hypo through one
// or more edges: a breadth-first walk that stops at hyper. A node is
// not its own ancestor, even on a cycle.
func (t *Taxonomy) IsAncestor(hypo, hyper uint32) bool {
	queue := []uint32{hypo} // ancestor sets are small: the queue is the visited set
	for i := 0; i < len(queue) && hypo != hyper; i++ {
		for _, e := range t.AppendEdges(nil, queue[i]) {
			if e.Hyper == hyper {
				return true
			}
			if !slices.Contains(queue, e.Hyper) {
				queue = append(queue, e.Hyper)
			}
		}
	}
	return false
}

// Concepts returns the names of the concept nodes, sorted.
func (t *Taxonomy) Concepts() []string {
	names := t.syms.Names()
	var out []string
	for id, k := range t.kinds {
		if k == KindConcept {
			out = append(out, names[id])
		}
	}
	slices.Sort(out)
	return out
}

// Nodes returns the IDs of every node, in name order: the marked ones,
// the ends of every edge and every mention's entity.
func (t *Taxonomy) Nodes() []uint32 {
	names := t.syms.Names()
	node := make([]bool, len(names))
	for id, k := range t.kinds {
		node[id] = k != KindUnknown
	}
	t.EachEdge(func(p Pair) { node[p.Hypo], node[p.Hyper] = true, true })
	for _, m := range t.Mentions {
		node[m.Entity] = true
	}
	var ids []uint32
	for id, ok := range node {
		if ok {
			ids = append(ids, uint32(id))
		}
	}
	slices.SortFunc(ids, func(a, b uint32) int { return strings.Compare(names[a], names[b]) })
	return ids
}

// Edges returns every edge, by hyponym name then hypernym name.
func (t *Taxonomy) Edges() []Edge {
	names := t.syms.Names()
	rank := make([]int32, len(names))
	for i, id := range t.Nodes() {
		rank[id] = int32(i)
	}
	var pairs []Pair
	t.EachEdge(func(p Pair) { pairs = append(pairs, p) })
	slices.SortFunc(pairs, func(a, b Pair) int {
		return cmp.Or(cmp.Compare(rank[a.Hypo], rank[b.Hypo]), cmp.Compare(rank[a.Hyper], rank[b.Hyper]))
	})
	out := make([]Edge, len(pairs))
	for i, p := range pairs {
		out[i] = Edge{Hypo: names[p.Hypo], Hyper: names[p.Hyper], Sources: p.Source}
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
	s := t.stats
	s.EntityConceptIsA = s.IsARelations - s.SubConceptIsA
	return s
}

// recount sets the counters from the lists, in one pass over each.
func (t *Taxonomy) recount() {
	t.stats = Stats{}
	for _, k := range t.kinds {
		switch k {
		case KindEntity:
			t.stats.Entities++
		case KindConcept:
			t.stats.Concepts++
		}
	}
	last := ^uint32(0)
	t.EachEdge(func(p Pair) {
		t.stats.IsARelations++
		if p.Hypo != last {
			t.stats.NodesWithHypernym++
			last = p.Hypo
		}
		if t.KindOf(p.Hypo) == KindConcept {
			t.stats.SubConceptIsA++
		}
	})
}

// AddMention registers mention for the named entity; empty mentions
// and entities are ignored, and so is a pair already held.
func (t *Taxonomy) AddMention(mention, entity string) {
	if entity != "" {
		t.named++
		t.AddMentions([]Mention{{Text: mention, Entity: t.syms.Intern(entity)}})
	}
}

// AddMentions merges ms (which it reorders) into Mentions and returns
// the mentions that gained an entity, ascending and distinct. Each
// mention is stored trimmed and in its rune-decoded spelling — a byte
// that is not valid UTF-8 becomes U+FFFD, as a text scan reads it, so
// every mention table is valid UTF-8, which a view's byte-wise scan and
// the snapshot image require; empty ones and pairs already held are
// dropped. The merge moves the part of the list behind the first new
// pair, within capacity grown amortised.
func (t *Taxonomy) AddMentions(ms []Mention) []string {
	n := 0
	for _, m := range ms {
		if m.Text = strings.TrimSpace(m.Text); !utf8.ValidString(m.Text) {
			m.Text = string([]rune(m.Text))
		}
		if m.Text != "" {
			ms[n] = m
			n++
		}
	}
	fresh := ms[:n]
	slices.SortFunc(fresh, compareMentions)
	fresh = slices.Compact(fresh)
	// Where each new pair goes in the list as it stands; one held
	// already is dropped.
	at := make([]int, 0, len(fresh))
	n = 0
	for _, m := range fresh {
		if i, held := slices.BinarySearchFunc(t.Mentions, m, compareMentions); !held {
			fresh[n] = m
			at = append(at, i)
			n++
		}
	}
	fresh = fresh[:n]
	end := len(t.Mentions)
	t.Mentions = slices.Grow(t.Mentions, n)[:end+n]
	for j := n - 1; j >= 0; j-- {
		copy(t.Mentions[at[j]+j+1:], t.Mentions[at[j]:end])
		t.Mentions[at[j]+j] = fresh[j]
		end = at[j]
	}
	var texts []string
	for _, m := range fresh {
		if len(texts) == 0 || texts[len(texts)-1] != m.Text {
			texts = append(texts, m.Text)
		}
	}
	return texts
}

// MentionsOf returns the pairs of mention text, by entity ID: a stretch
// of Mentions the caller must not modify.
func (t *Taxonomy) MentionsOf(text string) []Mention {
	lo, _ := slices.BinarySearchFunc(t.Mentions, text, func(m Mention, s string) int { return strings.Compare(m.Text, s) })
	hi := lo
	for hi < len(t.Mentions) && t.Mentions[hi].Text == text {
		hi++
	}
	return t.Mentions[lo:hi]
}
