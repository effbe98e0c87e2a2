package taxonomy

// Path explanation queries: downstream applications ask not only "is X
// a Y" but "why" — the witness chain through the concept hierarchy.

// PathToAncestor returns one shortest isA chain from node to ancestor
// (inclusive of both ends), or nil when ancestor is not reachable. BFS
// guarantees minimal length; ties resolve to the hypernym that sorts
// first. Each BFS step reads through Hypernyms, so the store's lock is
// never held across steps.
func (t *Taxonomy) PathToAncestor(node, ancestor string) []string {
	if node == ancestor {
		return []string{node}
	}
	prev := map[string]string{node: ""}
	queue := []string{node}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, h := range t.Hypernyms(cur) {
			if _, seen := prev[h]; seen {
				continue
			}
			prev[h] = cur
			if h == ancestor {
				// Reconstruct.
				var rev []string
				for at := h; at != ""; at = prev[at] {
					rev = append(rev, at)
				}
				out := make([]string, len(rev))
				for i := range rev {
					out[i] = rev[len(rev)-1-i]
				}
				return out
			}
			queue = append(queue, h)
		}
	}
	return nil
}

// CommonAncestors returns concepts reachable from both nodes, useful
// for semantic relatedness between entities (e.g. two 演员 instances
// meet at 演员).
func (t *Taxonomy) CommonAncestors(a, b string) []string {
	inA := make(map[string]bool)
	for _, x := range t.Ancestors(a) {
		inA[x] = true
	}
	var out []string
	for _, x := range t.Ancestors(b) {
		if inA[x] {
			out = append(out, x)
		}
	}
	return out
}
