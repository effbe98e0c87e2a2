// Package conceptualize implements short-text conceptualization on top
// of the taxonomy — the application layer the paper motivates (its QA
// coverage experiment, and the short-text classification system it
// cites as a consumer of CN-Probase).
//
// Given a text, the engine finds entity mentions with the men2ent
// index, resolves ambiguity by context agreement, aggregates each
// entity's concepts weighted by typicality, and returns a ranked
// concept vector for the text — the "conceptualized" reading used by
// downstream classifiers.
//
// The engine reads one model, the immutable serving.View, through its
// ID-native surface: the text scan hands back each surface with its
// mention-table row, whose candidate entities are node IDs, rankings
// and evidence totals are read by ID, and the context and aggregate are
// keyed by concept ID in small pooled slices; a name is looked up only
// when the Result is written. The
// resolve path takes no locks and, through ConceptualizeInto with
// recycled buffers, allocates nothing per text. A taxonomy is
// conceptualized by compiling it first (serving.Compile); the
// string-keyed algorithm the engine replaced is the oracle in
// reference_test.go, which holds the engine to bit-equal scores.
package conceptualize

import (
	"cmp"
	"slices"
	"sync"

	"cnprobase/internal/serving"
	"cnprobase/internal/taxonomy"
)

// Engine conceptualizes text against a serving view. An Engine is a
// small immutable configuration over its view; it is safe for
// concurrent use and cheap to construct per request.
type Engine struct {
	v *serving.View
	// MaxConceptsPerEntity bounds how many concepts each resolved
	// entity contributes (most typical first); <= 0 means no bound.
	MaxConceptsPerEntity int
}

// NewView returns an Engine over an immutable serving view with
// default settings.
func NewView(v *serving.View) *Engine {
	return &Engine{v: v, MaxConceptsPerEntity: 5}
}

// Mention is one resolved mention inside a text.
type Mention struct {
	Surface string `json:"surface"`
	// Entity is the chosen disambiguated entity.
	Entity string `json:"entity"`
	// Candidates is the number of entities the surface could mean.
	Candidates int `json:"candidates"`
	// Concepts are the chosen entity's ranked concepts, most typical
	// first. They live in the Result's own storage: valid until the
	// Result is refilled.
	Concepts []taxonomy.Scored `json:"concepts"`
}

// Result is the conceptualized reading of a text.
type Result struct {
	Mentions []Mention `json:"mentions,omitempty"`
	// Concepts is the aggregated ranked concept vector of the text,
	// normalized to sum to 1.
	Concepts []taxonomy.Scored `json:"concepts"`
	// ranked backs every Mention's Concepts, one run per mention in
	// mention order, recycled with the Result.
	ranked []taxonomy.Scored
}

// Covered reports whether the text contained at least one resolvable
// taxonomy mention — the coverage predicate of the paper's QA
// experiment.
func (r Result) Covered() bool { return len(r.Mentions) > 0 }

// concept is one weighted concept of a text, by node ID.
type concept struct {
	id    uint32
	score float64
}

// scratch is the pooled per-call state of ConceptualizeInto: the found
// surfaces, the text's concept context and the chosen entities'
// aggregate. A text touches a few candidates × a few concepts, so
// context and aggregate are slices scanned linearly by ID, not maps.
type scratch struct {
	found   []serving.Found
	context []concept
	agg     []concept
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// maxPooledScratch bounds, in elements per slice, the scratch handed
// back to the pool: what one very long text grew is left to the
// collector instead of being parked per P for the life of the process.
const maxPooledScratch = 4 << 10

// Conceptualize processes one text and returns a fresh Result.
func (e *Engine) Conceptualize(text string) Result {
	var res Result
	e.ConceptualizeInto(&res, text)
	return res
}

// ConceptualizeInto is Conceptualize in recycle style: res's slices
// are truncated and refilled, so passing the same Result across calls
// keeps the resolve path at 0 allocs/op (all other per-call state is
// pooled internally). The refilled res must not be retained across a
// subsequent call.
//
//cnp:noalloc
func (e *Engine) ConceptualizeInto(res *Result, text string) {
	res.Mentions = res.Mentions[:0]
	res.Concepts = res.Concepts[:0]
	res.ranked = res.ranked[:0]
	v := e.v
	sc := scratchPool.Get().(*scratch)
	found := v.FindMentionsAppend(sc.found[:0], text)
	context, agg := sc.context[:0], sc.agg[:0]

	// First pass: collect every candidate's concepts for context
	// agreement. most bounds the ranked concepts the chosen entities can
	// bring: per surface, its widest candidate's.
	most := 0
	for i := range found {
		widest := 0
		for _, id := range v.MentionEntities(found[i].Row) {
			n := e.conceptCount(id)
			widest = max(widest, n)
			for r := range n {
				c, score := v.RankedHypernymAt(id, r)
				context = add(context, c, score)
			}
		}
		most += widest
	}
	// Second pass: disambiguate each surface and aggregate the chosen
	// entities' concepts. Every sum — per concept and the normalizer —
	// runs in mention order, so scores are bit-identical to the
	// reference's.
	total := 0.0
	for i := range found {
		cands := v.MentionEntities(found[i].Row)
		id := cands[e.disambiguate(cands, context)]
		n := e.conceptCount(id)
		if n == 0 {
			continue
		}
		if res.Mentions == nil {
			// A fresh Result: size it once instead of growing it append by
			// append. One array backs the aggregate (it holds at most the
			// context's concepts) and the mentions' ranked runs.
			//cnp:allow noallochot (only a Result that was never filled; a recycled one keeps its arrays)
			res.Mentions, res.ranked = make([]Mention, 0, len(found)-i), make([]taxonomy.Scored, 0, len(context)+most)
			res.Concepts, res.ranked = res.ranked[:0:len(context)], res.ranked[len(context):len(context)]
		}
		start := len(res.ranked)
		for r := range n {
			c, score := v.RankedHypernymAt(id, r)
			res.ranked = append(res.ranked, taxonomy.Scored{Node: v.Name(c), Score: score})
			if score == 0 {
				score = 1e-3
			}
			agg = add(agg, c, score)
			total += score
		}
		res.Mentions = append(res.Mentions, Mention{
			Surface:    found[i].Surface,
			Entity:     v.Name(id),
			Candidates: len(cands),
			Concepts:   res.ranked[start:],
		})
	}
	// res.ranked may have moved while it grew: point every mention at
	// its run of the final array.
	at := 0
	for i := range res.Mentions {
		m := &res.Mentions[i]
		end := at + len(m.Concepts)
		m.Concepts = res.ranked[at:end:end]
		at = end
	}
	if total > 0 {
		for i := range agg {
			agg[i].score /= total
		}
	}
	slices.SortFunc(agg, e.byRank)
	for _, c := range agg {
		res.Concepts = append(res.Concepts, taxonomy.Scored{Node: v.Name(c.id), Score: c.score})
	}
	if res.Concepts == nil {
		res.Concepts = []taxonomy.Scored{}
	}

	if cap(found) <= maxPooledScratch && cap(context) <= maxPooledScratch && cap(agg) <= maxPooledScratch {
		sc.found, sc.context, sc.agg = found, context, agg
		scratchPool.Put(sc)
	}
}

// conceptCount is how many ranked concepts node id contributes: all its
// hypernyms, bounded by MaxConceptsPerEntity.
//
//cnp:noalloc
func (e *Engine) conceptCount(id uint32) int {
	n := len(e.v.HypernymIDsOf(id))
	if e.MaxConceptsPerEntity > 0 {
		n = min(n, e.MaxConceptsPerEntity)
	}
	return n
}

// disambiguate picks, by position, the candidate entity by evidence
// popularity (its isA edges' evidence counts — each edge's number of
// sources — summed: a prior favoring the dominant sense) modulated by
// agreement with the text's aggregate context (a mention of 刘德华
// next to 专辑 resolves to the singer sense). A candidate with no
// hypernym scores zero.
//
//cnp:noalloc
func (e *Engine) disambiguate(cands []uint32, context []concept) int {
	best, bestScore := 0, -1.0
	for i, id := range cands {
		agree := 0.0
		for r := range e.conceptCount(id) {
			h, s := e.v.RankedHypernymAt(id, r)
			if at := indexOf(context, h); at >= 0 {
				agree += context[at].score * s
			}
		}
		score := float64(e.v.EvidenceTotalOf(id)) * (1 + agree)
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// add adds score to concept id's entry of xs, appending the entry if
// there is none.
//
//cnp:noalloc
func add(xs []concept, id uint32, score float64) []concept {
	if at := indexOf(xs, id); at >= 0 {
		xs[at].score += score
		return xs
	}
	return append(xs, concept{id: id, score: score})
}

// indexOf returns the position of concept id in xs, or -1.
//
//cnp:noalloc
func indexOf(xs []concept, id uint32) int {
	for i := range xs {
		if xs[i].id == id {
			return i
		}
	}
	return -1
}

// byRank orders concepts by descending score, ties in name order
// (View.CompareIDs) — the taxonomy's ranking order.
func (e *Engine) byRank(a, b concept) int {
	if c := cmp.Compare(b.score, a.score); c != 0 {
		return c
	}
	return e.v.CompareIDs(a.id, b.id)
}
