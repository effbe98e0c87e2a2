package taxonomy

import "math/bits"

// Probase-style typicality scores. CN-Probase inherits Probase's
// probabilistic reading of the isA graph: evidence counts on edges
// induce P(concept | entity), which getConcept?ranked=1 and the
// applications (conceptualization, short-text understanding) rank an
// entity's concepts by. The evidence for an edge is the number of
// independent sources that generated it (Source.Evidence): a page sent
// twice adds none. The serving view computes the scores
// (serving.View.RankedHypernymAt); the taxonomy keeps only the sources.
// P(entity | concept) is not served: getEntity lists a concept's
// hyponyms in name order.

// Evidence is the evidence count of an edge with sources s: the number
// of sources that generated it.
func (s Source) Evidence() int { return bits.OnesCount8(uint8(s)) }

// Scored couples a node with a typicality score.
type Scored struct {
	Node  string  `json:"node"`
	Score float64 `json:"score"`
}
