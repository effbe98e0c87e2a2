// Package verify implements the verification module (paper Section
// III): three heuristic strategies that filter wrong candidate isA
// relations. A candidate is rejected if ANY strategy judges it wrong —
// the same disjunctive policy the paper uses.
//
//  1. Incompatible concepts (III-A): concept pairs with near-disjoint
//     hyponym sets and dissimilar attribute distributions are
//     incompatible; an entity claimed under both keeps the concept with
//     the smaller KL divergence between attribute distributions.
//  2. Named-entity hypernyms (III-B): a hypernym that is itself a named
//     entity is wrong; corpus support s1 and taxonomy support s2 are
//     combined with a noisy-or.
//  3. Syntax rules (III-C): thematic (non-taxonomic) hypernyms from a
//     184-word lexicon are rejected, and the hypernym's lexical head
//     must not occur in a non-head position of the hyponym.
package verify

import "math"

// Options holds the thresholds of the three strategies, with toggles so
// ablations can disable each independently.
type Options struct {
	// EnableIncompatible toggles strategy III-A.
	EnableIncompatible bool
	// JaccardMax: hyponym-set Jaccard similarity below which a concept
	// pair may be incompatible.
	JaccardMax float64
	// CosineMax: attribute-distribution cosine similarity below which a
	// concept pair may be incompatible.
	CosineMax float64
	// MinConceptSupport: concepts need at least this many hyponyms to
	// participate in incompatibility detection.
	MinConceptSupport int

	// EnableNE toggles strategy III-B.
	EnableNE bool
	// NEThreshold: candidates whose hypernym NE support s(H) exceeds
	// this are rejected (paper: set empirically).
	NEThreshold float64

	// EnableSyntax toggles strategy III-C.
	EnableSyntax bool

	// Workers bounds the per-candidate filtering fan-out; values <= 1
	// filter sequentially. Per-candidate decisions are independent, so
	// any worker count keeps the same survivors in the same order. The
	// pipeline fills a zero value with its own resolved worker count;
	// set it explicitly to pin verification concurrency independently.
	Workers int
}

// DefaultOptions returns the calibrated thresholds.
func DefaultOptions() Options {
	return Options{
		EnableIncompatible: true,
		JaccardMax:         0.05,
		CosineMax:          0.60,
		MinConceptSupport:  5,
		EnableNE:           true,
		NEThreshold:        0.55,
		EnableSyntax:       true,
	}
}

func normalize(d map[string]float64) {
	sum := 0.0
	for _, v := range d {
		sum += v
	}
	if sum == 0 {
		return
	}
	for k := range d {
		d[k] /= sum
	}
}

// cosine returns the cosine similarity of two sparse distributions.
func cosine(a, b map[string]float64) float64 {
	var dot, na, nb float64
	for k, v := range a {
		na += v * v
		if w, ok := b[k]; ok {
			dot += v * w
		}
	}
	for _, v := range b {
		nb += v * v
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// jaccard returns |a∩b| / |a∪b|.
func jaccard(a, b map[string]bool) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	small, large := a, b
	if len(small) > len(large) {
		small, large = large, small
	}
	inter := 0
	for k := range small {
		if large[k] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// KL computes D_KL(p‖q) = Σ p(x)·log(p(x)/q(x)) with ε-smoothing for
// q-zeros (Equation 1 of the paper, sign normalized).
func KL(p, q map[string]float64) float64 { return klScaled(p, q, 1) }

// klToSum is KL against the distribution an unnormalized mass sum
// describes: D_KL(p ‖ sum/Σsum).
func klToSum(p, sum map[string]float64) float64 {
	total := 0.0
	for _, v := range sum {
		total += v
	}
	if total == 0 {
		total = 1
	}
	return klScaled(p, sum, total)
}

// klScaled computes D_KL(p ‖ q/scale).
func klScaled(p, q map[string]float64, scale float64) float64 {
	const eps = 1e-6
	sum := 0.0
	for k, pv := range p {
		if pv <= 0 {
			continue
		}
		qv := q[k] / scale
		if qv <= 0 {
			qv = eps
		}
		sum += pv * math.Log(pv/qv)
	}
	return sum
}
