package api

import (
	"sort"

	"cnprobase/internal/conceptualize"
	"cnprobase/internal/qa"
	"cnprobase/internal/serving"
	"cnprobase/internal/serving/servingtest"
	"cnprobase/internal/taxonomy"
)

// The application oracle: conceptualization and question understanding
// computed the string-keyed way — mentions found by the view's string
// scan (internal/serving holds it to a trie scan of the mention pairs), every name re-resolved through the compiled view's
// string API (ranked concepts through servingtest.RankedHypernyms) at
// every step, string maps for every table. The packages
// keep the same algorithm as the oracle of their own engines; this copy
// is what the fuzz target holds the served bytes against.
type reference struct {
	view *serving.View
}

// maxConcepts is the engine's default concept bound.
const maxConcepts = 5

func (s reference) conceptualize(text string) ConceptualizeResponse {
	surfaces := s.view.FindAll(text)
	context := map[string]float64{}
	for _, sf := range surfaces {
		for _, id := range s.view.Lookup(sf) {
			for _, c := range servingtest.RankedHypernyms(s.view, id, maxConcepts) {
				context[c.Node] += c.Score
			}
		}
	}
	resp := ConceptualizeResponse{Text: text, Concepts: []taxonomy.Scored{}}
	agg := map[string]float64{}
	total := 0.0
	for _, sf := range surfaces {
		ids := s.view.Lookup(sf)
		if len(ids) == 0 {
			continue
		}
		best, bestScore := ids[0], -1.0
		for _, id := range ids {
			pop, agree := 0, 0.0
			for _, h := range s.view.Hypernyms(id) {
				if e, ok := s.view.EdgeOf(id, h); ok {
					pop += e.Sources.Evidence()
				}
			}
			for _, c := range servingtest.RankedHypernyms(s.view, id, maxConcepts) {
				agree += context[c.Node] * c.Score
			}
			if score := float64(pop) * (1 + agree); score > bestScore {
				best, bestScore = id, score
			}
		}
		concepts := servingtest.RankedHypernyms(s.view, best, maxConcepts)
		if len(concepts) == 0 {
			continue
		}
		resp.Mentions = append(resp.Mentions, conceptualize.Mention{
			Surface: sf, Entity: best, Candidates: len(ids), Concepts: concepts,
		})
		for _, c := range concepts {
			weight := c.Score
			if weight == 0 {
				weight = 1e-3
			}
			agg[c.Node] += weight
			total += weight
		}
	}
	for c, w := range agg {
		if total > 0 {
			w /= total
		}
		resp.Concepts = append(resp.Concepts, taxonomy.Scored{Node: c, Score: w})
	}
	sort.Slice(resp.Concepts, func(i, j int) bool {
		a, b := resp.Concepts[i], resp.Concepts[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		return a.Node < b.Node
	})
	resp.Covered = len(resp.Mentions) > 0
	return resp
}

func (s reference) understand(question string) QAResponse {
	resp := QAResponse{Question: question}
	for _, sf := range s.view.FindAll(question) {
		ids := s.view.Lookup(sf)
		if len(ids) == 0 {
			continue
		}
		union := map[string]bool{}
		for _, id := range ids {
			for _, h := range s.view.Hypernyms(id) {
				union[h] = true
			}
		}
		concepts := make([]string, 0, len(union))
		for h := range union {
			concepts = append(concepts, h)
		}
		sort.Strings(concepts)
		resp.Covered = resp.Covered || len(concepts) > 0
		resp.Mentions = append(resp.Mentions, qa.EntityMention{Surface: sf, Entities: ids, Concepts: concepts})
	}
	rs := []rune(question)
	seen := map[string]bool{}
	for i := range rs {
		for l := 2; l <= 6 && i+l <= len(rs); l++ {
			if w := string(rs[i : i+l]); s.view.Kind(w) == taxonomy.KindConcept && !seen[w] {
				seen[w] = true
				resp.Concepts = append(resp.Concepts, w)
			}
		}
	}
	resp.Covered = resp.Covered || len(resp.Concepts) > 0
	return resp
}
