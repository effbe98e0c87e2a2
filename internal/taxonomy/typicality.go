package taxonomy

// Probase-style typicality scores. CN-Probase inherits Probase's
// probabilistic reading of the isA graph: evidence counts on edges
// induce P(concept | entity), which getConcept?ranked=1 and the
// applications (conceptualization, short-text understanding) rank an
// entity's concepts by. The evidence for an edge is its Count — how
// many independent generation events produced it. The serving view
// computes the scores (serving.View.RankedHypernymAt); the store only
// keeps the counts. P(entity | concept) is not served: getEntity lists
// a concept's hyponyms in name order.

// Scored couples a node with a typicality score.
type Scored struct {
	Node  string  `json:"node"`
	Score float64 `json:"score"`
}
