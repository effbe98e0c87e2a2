package eval

import "cnprobase/internal/serving"

// TruthSource exposes the ground-truth hypernym sets of entities — the
// synth world's oracle satisfies it. The paper lists coverage among its
// five taxonomy metrics; with a synthetic world it is measurable as
// recall of the ground-truth entity-concept pairs.
type TruthSource interface {
	// TruthHypernyms returns the correct hypernyms of an entity ID
	// (empty for unknown IDs).
	TruthHypernyms(entityID string) []string
}

// CoverageResult reports ground-truth recall.
type CoverageResult struct {
	// Entities is the number of ground-truth entities examined.
	Entities int
	// EntitiesCovered counts entities with at least one correct
	// hypernym in the taxonomy.
	EntitiesCovered int
	// TruthPairs / PairsRecovered count individual ground-truth
	// (entity, hypernym) pairs and how many the taxonomy contains.
	TruthPairs     int
	PairsRecovered int
}

// EntityCoverage is the fraction of entities with ≥1 correct hypernym.
func (r CoverageResult) EntityCoverage() float64 {
	if r.Entities == 0 {
		return 0
	}
	return float64(r.EntitiesCovered) / float64(r.Entities)
}

// PairRecall is the fraction of ground-truth pairs recovered.
func (r CoverageResult) PairRecall() float64 {
	if r.TruthPairs == 0 {
		return 0
	}
	return float64(r.PairsRecovered) / float64(r.TruthPairs)
}

// CoverageOf measures how much of the ground truth a taxonomy, read
// through its serving view, recovered: a truth pair counts when the
// hypernym is among the entity's ancestors (isA is transitive, and the
// direct hypernyms are ancestors too).
func CoverageOf(v *serving.View, truth TruthSource, entityIDs []string) CoverageResult {
	var res CoverageResult
	for _, id := range entityIDs {
		want := truth.TruthHypernyms(id)
		if len(want) == 0 {
			continue
		}
		res.Entities++
		reach := make(map[string]bool)
		for _, h := range v.Ancestors(id) {
			reach[h] = true
		}
		covered := false
		for _, h := range want {
			res.TruthPairs++
			if reach[h] {
				res.PairsRecovered++
				covered = true
			}
		}
		if covered {
			res.EntitiesCovered++
		}
	}
	return res
}
