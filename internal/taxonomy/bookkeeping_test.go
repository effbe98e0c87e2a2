package taxonomy

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// markedKinds reads the kind of every name the symbol table holds that
// has one.
func markedKinds(t *Taxonomy) map[string]NodeKind {
	kinds := map[string]NodeKind{}
	for _, name := range t.syms.Names() {
		if k := t.Kind(name); k != KindUnknown {
			kinds[name] = k
		}
	}
	return kinds
}

// recountStats is the reference Stats: one walk over every edge,
// classifying it by its hyponym's kind.
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

// TestIncrementalBookkeepingMatchesRecount drives random writes of
// every kind — marks, adds from every source, retractions, names a
// second owner of the symbol table interns — through the taxonomy and
// holds what the writes maintain incrementally to its from-scratch
// definition: the stats counters to a recount, and the node list to
// the union of marked names and edge endpoints.
func TestIncrementalBookkeepingMatchesRecount(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tx := New()
		name := func() string { return fmt.Sprintf("节点%02d", rng.Intn(40)) }
		for round := 0; round < 60; round++ {
			for op := 0; op < 1+rng.Intn(12); op++ {
				a, b := name(), name()
				switch rng.Intn(7) {
				case 0, 1, 2:
					_ = tx.AddIsA(a, b, Source(1<<rng.Intn(6)))
				case 3:
					removeIsA(tx, a, b)
				case 4:
					tx.MarkEntity(a)
				case 5:
					tx.MarkConcept(a)
				case 6:
					tx.syms.Intern("外来名" + a)
				}
				if got, want := tx.ComputeStats(), recountStats(tx); got != want {
					t.Fatalf("seed %d round %d: stats %+v, recount %+v", seed, round, got, want)
				}
			}
			var nodes []string
			for _, id := range tx.Nodes() {
				nodes = append(nodes, tx.syms.Names()[id])
			}
			if union := unionNodes(tx); !reflect.DeepEqual(nodes, union) {
				t.Fatalf("seed %d round %d: node list %v, re-union %v", seed, round, nodes, union)
			}
			if msg := listsConsistent(tx); msg != "" {
				t.Fatalf("seed %d round %d: %s", seed, round, msg)
			}
		}
	}
}
