package taxonomy

// Probase-style typicality scores. CN-Probase inherits Probase's
// probabilistic reading of the isA graph: evidence counts on edges
// induce P(concept | entity) and P(entity | concept), which downstream
// applications (conceptualization, short-text understanding) rank by.
// The evidence for an edge is its Count — how many independent
// generation events produced it. The serving view computes the scores
// (serving.View.RankedHypernymsAppend and friends); the store only
// keeps the counts.

// Scored couples a node with a typicality score.
type Scored struct {
	Node  string  `json:"node"`
	Score float64 `json:"score"`
}
