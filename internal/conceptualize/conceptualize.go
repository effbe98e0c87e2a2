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
// mention-table row, every candidate entity is resolved name → ID once
// per text, and rankings, evidence totals and the context table are
// read by ID or scanned in small pooled slices. The resolve path takes
// no locks and, through ConceptualizeInto with recycled buffers,
// allocates nothing per text. A build store is conceptualized by
// compiling it first (serving.Compile); the string-keyed algorithm the
// engine replaced is the oracle in reference_test.go, which holds the
// engine to bit-equal scores.
package conceptualize

import (
	"sort"
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
	// Concepts are the chosen entity's ranked concepts: a shared
	// subslice of the view's precomputed rankings, do not modify it.
	Concepts []taxonomy.Scored `json:"concepts"`
}

// Result is the conceptualized reading of a text.
type Result struct {
	Mentions []Mention `json:"mentions,omitempty"`
	// Concepts is the aggregated ranked concept vector of the text,
	// normalized to sum to 1.
	Concepts []taxonomy.Scored `json:"concepts"`
}

// Covered reports whether the text contained at least one resolvable
// taxonomy mention — the coverage predicate of the paper's QA
// experiment.
func (r Result) Covered() bool { return len(r.Mentions) > 0 }

// candidate is one entity a surface may mean, resolved to its node —
// ok is false when the mention table names an entity that is no node.
type candidate struct {
	id uint32
	ok bool
}

// scratch is the pooled per-call state of ConceptualizeInto: the found
// surfaces, their candidates resolved once (flat, in surface order),
// and the text's concept context. A text touches a few candidates × a
// few concepts, so the context is a slice scanned linearly, not a map.
type scratch struct {
	found   []serving.Found
	cands   []candidate
	context []taxonomy.Scored
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
	v := e.v
	sc := scratchPool.Get().(*scratch)
	found := v.FindMentionsAppend(sc.found[:0], text)
	cands, context := sc.cands[:0], sc.context[:0]

	// First pass: resolve every candidate, once, and collect its
	// concepts for context agreement.
	for i := range found {
		from := uint32(0) // a mention's entities ascend, so do their IDs
		for _, name := range v.MentionEntities(found[i].Row) {
			id, ok := v.ID(name, from)
			cands = append(cands, candidate{id: id, ok: ok})
			if !ok {
				continue
			}
			from = id + 1
			for _, s := range v.RankedHypernymsOf(id, e.MaxConceptsPerEntity) {
				if at := indexOf(context, s.Node); at >= 0 {
					context[at].Score += s.Score
				} else {
					context = append(context, s)
				}
			}
		}
	}
	// Second pass: disambiguate each surface and aggregate the chosen
	// entities' concepts straight into res.Concepts. Every sum — per
	// concept and the normalizer — runs in mention order, so scores are
	// bit-identical to the reference's.
	total := 0.0
	next := 0
	for i := range found {
		names := v.MentionEntities(found[i].Row)
		if len(names) == 0 {
			continue
		}
		mine := cands[next : next+len(names)]
		next += len(names)
		best := e.disambiguate(mine, context)
		if !mine[best].ok {
			continue
		}
		concepts := v.RankedHypernymsOf(mine[best].id, e.MaxConceptsPerEntity)
		if len(concepts) == 0 {
			continue
		}
		if res.Mentions == nil {
			// A fresh Result: size both vectors once instead of growing
			// them append by append (the context holds every concept the
			// aggregate can).
			//cnp:allow noallochot (only a Result that was never filled; a recycled one keeps its arrays)
			res.Mentions, res.Concepts = make([]Mention, 0, len(found)-i), make([]taxonomy.Scored, 0, len(context))
		}
		res.Mentions = append(res.Mentions, Mention{
			Surface:    found[i].Surface,
			Entity:     names[best],
			Candidates: len(names),
			Concepts:   concepts,
		})
		for _, s := range concepts {
			weight := s.Score
			if weight == 0 {
				weight = 1e-3
			}
			if at := indexOf(res.Concepts, s.Node); at >= 0 {
				res.Concepts[at].Score += weight
			} else {
				res.Concepts = append(res.Concepts, taxonomy.Scored{Node: s.Node, Score: weight})
			}
			total += weight
		}
	}
	if total > 0 {
		for i := range res.Concepts {
			res.Concepts[i].Score /= total
		}
	}
	sort.Sort((*scoredByRank)(&res.Concepts))
	if res.Concepts == nil {
		res.Concepts = []taxonomy.Scored{}
	}

	if cap(found) <= maxPooledScratch && cap(cands) <= maxPooledScratch && cap(context) <= maxPooledScratch {
		sc.found, sc.cands, sc.context = found, cands, context
		scratchPool.Put(sc)
	}
}

// disambiguate picks, by position, the candidate entity by evidence
// popularity (the total generation count behind its isA edges — a
// prior favoring the dominant sense) modulated by agreement with the
// text's aggregate context (a mention of 刘德华 next to 专辑 resolves
// to the singer sense). A candidate that is no node scores zero.
//
//cnp:noalloc
func (e *Engine) disambiguate(cands []candidate, context []taxonomy.Scored) int {
	best, bestScore := 0, -1.0
	for i, c := range cands {
		score := 0.0
		if c.ok {
			agree := 0.0
			for _, s := range e.v.RankedHypernymsOf(c.id, e.MaxConceptsPerEntity) {
				if at := indexOf(context, s.Node); at >= 0 {
					agree += context[at].Score * s.Score
				}
			}
			score = float64(e.v.EvidenceTotalOf(c.id)) * (1 + agree)
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// indexOf returns the position of node in xs, or -1.
//
//cnp:noalloc
func indexOf(xs []taxonomy.Scored, node string) int {
	for i := range xs {
		if xs[i].Node == node {
			return i
		}
	}
	return -1
}

// scoredByRank sorts descending by score, ties broken
// lexicographically — the shared ranking order of the taxonomy and the
// view. A pointer receiver keeps sort.Sort allocation-free.
type scoredByRank []taxonomy.Scored

func (s *scoredByRank) Len() int { return len(*s) }
func (s *scoredByRank) Less(i, j int) bool {
	x := *s
	if x[i].Score != x[j].Score {
		return x[i].Score > x[j].Score
	}
	return x[i].Node < x[j].Node
}
func (s *scoredByRank) Swap(i, j int) {
	x := *s
	x[i], x[j] = x[j], x[i]
}
