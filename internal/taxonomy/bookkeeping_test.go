package taxonomy

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// markedKinds reads the explicit kind marks. ReadAll lists the nodes;
// its own Kinds are canonical (a withdrawn mark on a node with hyponyms
// reads as a concept), so the raw mark is asked of Kind.
func markedKinds(t *Taxonomy) map[string]NodeKind {
	kinds := map[string]NodeKind{}
	for _, name := range t.ReadAll().Names {
		if k := t.Kind(name); k != KindUnknown {
			kinds[name] = k
		}
	}
	return kinds
}

// recountStats is the reference Stats: one walk over the whole store,
// classifying every edge by its hyponym's kind.
func recountStats(t *Taxonomy) Stats {
	var s Stats
	kinds := markedKinds(t)
	for _, k := range kinds {
		switch k {
		case KindEntity:
			s.Entities++
		case KindConcept:
			s.Concepts++
		}
	}
	withHyper := make(map[string]bool)
	for _, e := range t.Edges() {
		s.IsARelations++
		withHyper[e.Hypo] = true
		if kinds[e.Hypo] == KindConcept {
			s.SubConceptIsA++
		} else {
			s.EntityConceptIsA++
		}
	}
	s.NodesWithHypernym = len(withHyper)
	return s
}

// unionNodes is the reference node list: every marked name and every
// edge endpoint, ascending.
func unionNodes(t *Taxonomy) []string {
	var out []string
	for name := range markedKinds(t) {
		out = append(out, name)
	}
	for _, e := range t.Edges() {
		out = append(out, e.Hypo, e.Hyper)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// nodeState is everything a reader can observe about one node: its
// kind and the edges at either end of it, from one read of edges.
func nodeState(t *Taxonomy, edges []Edge, n string) string {
	var mine []Edge
	for _, e := range edges {
		if e.Hypo == n || e.Hyper == n {
			mine = append(mine, e)
		}
	}
	return fmt.Sprint(t.Kind(n), mine)
}

// TestIncrementalBookkeepingMatchesRecount drives random writes of
// every kind through the store and holds the three things the writes
// maintain incrementally to their from-scratch definitions: the stats
// counters to a recount, the node list to the union of marked names and
// edge endpoints, and the change log to a before/after diff of every
// node.
func TestIncrementalBookkeepingMatchesRecount(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tx := New()
		name := func() string { return fmt.Sprintf("节点%02d", rng.Intn(40)) }
		_, token, ok := tx.ChangesSince(0)
		if ok {
			t.Fatal("the first ChangesSince has nothing to be relative to")
		}
		before := map[string]string{}
		for round := 0; round < 60; round++ {
			for op := 0; op < 1+rng.Intn(12); op++ {
				a, b := name(), name()
				switch rng.Intn(6) {
				case 0, 1, 2:
					_ = tx.AddIsA(a, b, Source(1<<rng.Intn(6)))
				case 3:
					removeIsA(tx, a, b)
				case 4:
					tx.MarkEntity(a)
				case 5:
					tx.MarkConcept(a)
				}
				if got, want := tx.ComputeStats(), recountStats(tx); got != want {
					t.Fatalf("seed %d round %d: stats %+v, recount %+v", seed, round, got, want)
				}
			}
			changed, next, ok := tx.ChangesSince(token)
			if !ok {
				t.Fatalf("seed %d round %d: chained ChangesSince lost its place", seed, round)
			}
			token = next
			nodes := tx.ReadAll().Names
			if union := unionNodes(tx); !reflect.DeepEqual(nodes, union) {
				t.Fatalf("seed %d round %d: node list %v, re-union %v", seed, round, nodes, union)
			}
			if !slices.IsSorted(changed) || len(slices.Compact(slices.Clone(changed))) != len(changed) {
				t.Fatalf("seed %d round %d: change list not ascending and distinct: %v", seed, round, changed)
			}
			after, edges := map[string]string{}, tx.Edges()
			for _, n := range nodes {
				after[n] = nodeState(tx, edges, n)
			}
			for n := range before {
				if _, still := after[n]; !still {
					after[n] = nodeState(tx, edges, n) // vanished: reads as the empty state
				}
			}
			for n, state := range after {
				if _, logged := slices.BinarySearch(changed, n); !logged && before[n] != state {
					t.Fatalf("seed %d round %d: %s changed from %q to %q without being logged (log %v)", seed, round, n, before[n], state, changed)
				}
			}
			before = after
		}
		if _, _, ok := tx.ChangesSince(token - 1); ok {
			t.Fatal("a stale token must not be honoured")
		}
	}
}
