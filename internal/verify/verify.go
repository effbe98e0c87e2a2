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
//
// # The ID space
//
// The strategies run over an Evidence, and an Evidence holds no string
// but in one place. Every name it is told about — entity IDs, page
// titles, hypernyms — is interned once into a symbol table (name →
// dense uint32, names kept once) and infobox predicates into a second,
// much smaller one; everything else is indexed by those IDs:
//
//   - per ID, one node record: the hypernyms the name claims as a
//     hyponym ([]claim, each carrying its cached decision and kill
//     flag), its attribute distribution as a page (a vector sorted by
//     predicate ID), its title, its occurrence count as a title, its
//     dirty marks, and — while it has hyponyms — a concept record with
//     the hyponym list, the co-occurrence partner list, the running
//     attribute sum, the page count of its extent and the cached head
//     and NE verdict;
//   - per concept pair, one entry of a pointer-free map keyed by the
//     two IDs packed into a uint64: how many hyponyms the pair shares,
//     how many of those are pages, and where each concept sits in the
//     other's partner list; the incompatible pairs are a set on the
//     same key.
//
// Nothing scans a concept's extent to answer about one hyponym: the
// paper's top concepts have millions. "Does h sit under c" reads h's
// few claims; a claim stores h's position in c's hyponym list and a
// pair entry stores the partner positions, so retracting either is a
// swap with the last element; the size of an extent or of its page
// subset is a length or a counter. The only walks over an extent
// enumerate it because every member is needed: the pairs to re-decide
// under a hypernym whose head or NE verdict flipped, and the hyponyms
// two concepts share when their incompatibility status flipped (the
// smaller side is walked).
//
// Candidates in (AddCandidates, RemoveCandidates, VerifyDelta) and
// Decisions out (Reverify) are named by IDs of the symbol table, which
// the build shares with the generators and the taxonomy. Strings
// cross the boundary at: pages in (AddPages, their names already
// interned), the snapshot section
// (PagesAlong resolves a view's node names once; ImportPage and AddPair
// take IDs), S2 / NESupport, the syntax strategy's reads of the two
// names of a pair it decides, and the one read subconcept derivation
// makes (TakeExtentPairs — names only for the pairs that pass its
// filter).
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

// attr is one component of a sparse attribute vector over interned
// infobox predicates. Vectors are kept sorted by predicate ID, so two
// of them are compared by one merge walk and summed in one order.
type attr struct {
	pred uint32
	w    float64
}

// findAttr locates pred in a sorted vector: the insertion point, and
// whether pred is there. A hand-rolled binary search — no comparison
// closure — because every candidate and page fold runs it per
// predicate.
func findAttr(v []attr, pred uint32) (int, bool) {
	lo, hi := 0, len(v)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v[mid].pred < pred {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(v) && v[lo].pred == pred
}

// cosine returns the cosine similarity of two sparse vectors.
func cosine(a, b []attr) float64 {
	var dot, na, nb float64
	j := 0
	for _, x := range a {
		na += x.w * x.w
		for j < len(b) && b[j].pred < x.pred {
			j++
		}
		if j < len(b) && b[j].pred == x.pred {
			dot += x.w * b[j].w
		}
	}
	for _, y := range b {
		nb += y.w * y.w
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// nearlyEqual reports whether two evidence scores differ by no more
// than summation order can explain. Attribute aggregates are sums of
// floats folded in arrival order (and adjusted in place by updates),
// so two runs over the same evidence agree only to the last few bits;
// every threshold and tie-break of strategy III-A treats such a
// difference as none, which keeps Build, Update and any page order on
// the same verdicts.
func nearlyEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*max(1, math.Abs(a), math.Abs(b))
}

// klToSum is D_KL(p ‖ sum/Σsum) = Σ p(x)·log(p(x)/q(x)) with
// ε-smoothing for q-zeros (Equation 1 of the paper, sign normalized),
// taken against the distribution an unnormalized mass sum describes.
func klToSum(p, sum []attr) float64 {
	const eps = 1e-6
	total := 0.0
	for _, y := range sum {
		total += y.w
	}
	if total == 0 {
		total = 1
	}
	kl := 0.0
	j := 0
	for _, x := range p {
		if x.w <= 0 {
			continue
		}
		for j < len(sum) && sum[j].pred < x.pred {
			j++
		}
		q := 0.0
		if j < len(sum) && sum[j].pred == x.pred {
			q = sum[j].w / total
		}
		if q <= 0 {
			q = eps
		}
		kl += x.w * math.Log(x.w/q)
	}
	return kl
}
