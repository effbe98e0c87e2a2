package taxonomy

import "sort"

// Probase-style typicality scores. CN-Probase inherits Probase's
// probabilistic reading of the isA graph: evidence counts on edges
// induce P(concept | entity) and P(entity | concept), which downstream
// applications (conceptualization, short-text understanding) rank by.
// The evidence for an edge is its Count — how many independent
// generation events produced it — Laplace-smoothed across siblings.

// Scored couples a node with a typicality score.
type Scored struct {
	Node  string  `json:"node"`
	Score float64 `json:"score"`
}

// TypicalityOfConcept returns P(hyper | hypo): how typical the concept
// is for the entity, from the edge evidence counts. Zero when the edge
// is absent.
func (t *Taxonomy) TypicalityOfConcept(hypo, hyper string) float64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e := t.edgeOf(hypo, hyper)
	if e == nil {
		return 0
	}
	_, n := t.lookup(hypo)
	return share(e.count, n.hyperTotal())
}

// TypicalityOfInstance returns P(hypo | hyper): how representative the
// instance is of the concept.
func (t *Taxonomy) TypicalityOfInstance(hyper, hypo string) float64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e := t.edgeOf(hypo, hyper)
	if e == nil {
		return 0
	}
	b, _ := t.lookup(hyper)
	return share(e.count, t.hypoTotal(b))
}

// share is count/total, zero when there is no evidence at all.
func share(count, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(count) / float64(total)
}

// hyperTotal sums the evidence counts of the node's outgoing edges.
func (n *node) hyperTotal() int {
	total := 0
	for i := range n.hypers {
		total += n.hypers[i].count
	}
	return total
}

// hypoTotal sums the evidence counts of the edges into id. Callers
// hold mu.
func (t *Taxonomy) hypoTotal(id uint32) int {
	total := 0
	for _, h := range t.nodes[id].hypos {
		n := &t.nodes[h]
		total += n.hypers[n.find(id)].count
	}
	return total
}

// RankedHypernyms returns the node's hypernyms sorted by descending
// typicality (ties broken lexicographically); limit <= 0 returns all.
func (t *Taxonomy) RankedHypernyms(node string, limit int) []Scored {
	t.mu.RLock()
	out := []Scored{}
	if _, n := t.lookup(node); n != nil {
		names, total := t.syms.Names(), n.hyperTotal()
		out = make([]Scored, 0, len(n.hypers))
		for _, e := range n.hypers {
			out = append(out, Scored{Node: names[e.hyper], Score: share(e.count, total)})
		}
	}
	t.mu.RUnlock()
	return topScored(out, limit)
}

// RankedHyponyms returns the concept's hyponyms sorted by descending
// typicality; limit <= 0 returns all.
func (t *Taxonomy) RankedHyponyms(concept string, limit int) []Scored {
	t.mu.RLock()
	out := []Scored{}
	if id, n := t.lookup(concept); n != nil {
		names, total := t.syms.Names(), t.hypoTotal(id)
		out = make([]Scored, 0, len(n.hypos))
		for _, h := range n.hypos {
			from := &t.nodes[h]
			out = append(out, Scored{Node: names[h], Score: share(from.hypers[from.find(id)].count, total)})
		}
	}
	t.mu.RUnlock()
	return topScored(out, limit)
}

// topScored sorts xs by descending score, ties lexicographically, and
// cuts to limit (<= 0: all).
func topScored(xs []Scored, limit int) []Scored {
	sort.Slice(xs, func(i, j int) bool {
		if xs[i].Score != xs[j].Score {
			return xs[i].Score > xs[j].Score
		}
		return xs[i].Node < xs[j].Node
	})
	if limit > 0 && limit < len(xs) {
		xs = xs[:limit]
	}
	return xs
}
