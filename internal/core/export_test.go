package core

import "cnprobase/internal/taxonomy"

// arrivingIn returns the arrival seam of a Pipeline that hands the
// merge the generator sets in the given order of sources, whatever
// order the generators finished in.
func arrivingIn(order []taxonomy.Source) func(<-chan candidateSet) <-chan candidateSet {
	return func(in <-chan candidateSet) <-chan candidateSet {
		var sets []candidateSet
		for set := range in {
			sets = append(sets, set)
		}
		out := make(chan candidateSet, len(sets))
		for _, src := range order {
			for _, set := range sets {
				if set.source == src {
					out <- set
				}
			}
		}
		close(out)
		return out
	}
}
