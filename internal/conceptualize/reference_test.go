package conceptualize

import (
	"sort"

	"cnprobase/internal/serving"
	"cnprobase/internal/serving/servingtest"
	"cnprobase/internal/taxonomy"
)

// The oracle: the string-keyed algorithm the ID-native engine replaced,
// kept verbatim and run against the string API of the view compiled
// from the taxonomy (ranked concepts read by rank through
// servingtest.RankedHypernyms), with mentions found by its string scan
// (which internal/serving holds to a trie scan of the mention pairs). Every name is re-resolved at every step,
// popularity is
// re-summed edge by edge, and context and aggregate are string maps —
// slow and obviously right. The engine must agree with it down to
// bit-equal scores.

// reference is the oracle engine.
type reference struct {
	view                 *serving.View
	MaxConceptsPerEntity int
}

// newReference returns the oracle over the view compiled from a
// taxonomy, with the engine's default settings.
func newReference(tax *taxonomy.Taxonomy) *reference {
	return &reference{view: serving.Compile(tax), MaxConceptsPerEntity: 5}
}

func (e *reference) Conceptualize(text string) Result {
	var res Result
	surfaces := e.view.FindAllAppend(nil, text)
	context := map[string]float64{}
	agg := map[string]float64{}

	// First pass: collect every candidate's concepts for context
	// agreement.
	for _, sf := range surfaces {
		for _, id := range e.view.Lookup(sf) {
			for _, s := range servingtest.RankedHypernyms(e.view, id, e.MaxConceptsPerEntity) {
				context[s.Node] += s.Score
			}
		}
	}
	// Second pass: disambiguate each surface and aggregate the chosen
	// entities' concepts. total accumulates alongside agg so the
	// normalizer is summed in deterministic (mention) order.
	total := 0.0
	for _, sf := range surfaces {
		ids := e.view.Lookup(sf)
		if len(ids) == 0 {
			continue
		}
		best := e.disambiguate(ids, context)
		concepts := servingtest.RankedHypernyms(e.view, best, e.MaxConceptsPerEntity)
		if len(concepts) == 0 {
			continue
		}
		res.Mentions = append(res.Mentions, Mention{
			Surface:    sf,
			Entity:     best,
			Candidates: len(ids),
			Concepts:   concepts,
		})
		for _, s := range concepts {
			weight := s.Score
			if weight == 0 {
				weight = 1e-3
			}
			agg[s.Node] += weight
			total += weight
		}
	}
	for c, v := range agg {
		if total > 0 {
			v /= total
		}
		res.Concepts = append(res.Concepts, taxonomy.Scored{Node: c, Score: v})
	}
	sort.Sort((*scoredByRank)(&res.Concepts))
	if res.Concepts == nil {
		res.Concepts = []taxonomy.Scored{}
	}
	return res
}

func (e *reference) disambiguate(ids []string, context map[string]float64) string {
	best, bestScore := ids[0], -1.0
	for _, id := range ids {
		pop := 0
		agree := 0.0
		for _, h := range e.view.Hypernyms(id) {
			if ed, ok := e.view.EdgeOf(id, h); ok {
				pop += ed.Sources.Evidence()
			}
		}
		for _, s := range servingtest.RankedHypernyms(e.view, id, e.MaxConceptsPerEntity) {
			agree += context[s.Node] * s.Score
		}
		score := float64(pop) * (1 + agree)
		if score > bestScore {
			best, bestScore = id, score
		}
	}
	return best
}

// scoredByRank sorts descending by score, ties broken by name — the
// taxonomy's ranking order, which the engine reaches by concept ID.
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
