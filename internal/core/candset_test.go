package core

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"cnprobase/internal/extract"
	"cnprobase/internal/taxonomy"
)

// FuzzCandidateSet holds the ID-keyed candidate-set operations to the
// string ones of reference_test.go. The fuzzer picks the pairs of two
// generator sets, a permutation that names the IDs — so that ID order
// and name order disagree — and which pairs of their union an edit
// drops and which new ones it adds. Dedupe, Union, findPair, the
// in-place edit and diffCandidates must then produce, name for name,
// what the string operations produce, each list in its own order.
func FuzzCandidateSet(f *testing.F) {
	f.Add([]byte{3, 1, 2, 0x41, 1, 2, 0x82, 2, 1, 0x03, 7, 7, 0xC4, 4, 9, 0x45, 1, 2, 0x06})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte("000000101")) // a pair in both sets: Union folds its sources
	f.Add([]byte("010101001")) // diffCandidates on a pair sharing the hyponym of another
	f.Add([]byte{9, 15, 14, 0x80, 14, 15, 0x81, 3, 3, 0xFF, 0, 0, 0x40, 8, 1, 0xC0, 1, 8, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const n = 16
		shift := int(data[0])
		name := func(id uint32) string { return fmt.Sprintf("名%02d", (int(id)*5+shift)%n) }
		toNamed := func(cs []extract.Candidate) []named {
			out := make([]named, len(cs))
			for i, c := range cs {
				out[i] = named{name(c.Hypo), name(c.Hyper), c.Source}
			}
			return out
		}
		byName := func(cs []named) []named {
			cs = slices.Clone(cs)
			slices.SortFunc(cs, compareNamed)
			return cs
		}
		same := func(op string, got []extract.Candidate, want []named) {
			t.Helper()
			if g := byName(toNamed(got)); len(g)+len(want) > 0 && !reflect.DeepEqual(g, want) {
				t.Fatalf("%s: IDs give %v, names give %v", op, g, want)
			}
			if !slices.IsSortedFunc(got, func(a, b extract.Candidate) int { return cmp.Compare(a.Key(), b.Key()) }) {
				t.Fatalf("%s: not sorted by key: %v", op, got)
			}
		}
		// Four bytes per element: hypo, hyper, source, then which list
		// it joins.
		var a, b, adds []extract.Candidate
		var dropPick []byte
		for rest := data[1:]; len(rest) >= 4; rest = rest[4:] {
			c := extract.Candidate{Hypo: uint32(rest[0] % n), Hyper: uint32(rest[1] % n),
				Source: taxonomy.Source(1 << (rest[2] % 4))}
			switch rest[3] % 4 {
			case 0:
				a = append(a, c)
			case 1:
				b = append(b, c)
			case 2:
				adds = append(adds, c)
			default:
				dropPick = append(dropPick, rest[0])
			}
		}

		da, db := extract.Dedupe(a), extract.Dedupe(b)
		wa, wb := dedupeNamed(toNamed(a)), dedupeNamed(toNamed(b))
		same("Dedupe", da, wa)
		same("Dedupe", db, wb)
		u, wu := extract.Union(da, db), unionNamed(wa, wb)
		same("Union", u, wu)
		same("diffCandidates", diffCandidates(u, db), diffNamed(wu, wb))
		for _, c := range append(slices.Clone(a), adds...) {
			i, ok := taxonomy.Find(u, c.Hypo, c.Hyper)
			_, wok := findNamed(wu, name(c.Hypo), name(c.Hyper))
			if ok != wok || ok && (u[i].Hypo != c.Hypo || u[i].Hyper != c.Hyper) {
				t.Fatalf("taxonomy.Find(%v): %d %v, by name %v", c, i, ok, wok)
			}
		}

		// The edit drops the picked pairs of the union and adds the new
		// pairs no set holds; each side finds its own indexes.
		var drop, wdrop []int
		for _, p := range dropPick {
			if len(u) == 0 {
				break
			}
			c := u[int(p)%len(u)]
			i, _ := taxonomy.Find(u, c.Hypo, c.Hyper)
			wi, _ := findNamed(wu, name(c.Hypo), name(c.Hyper))
			drop, wdrop = append(drop, i), append(wdrop, wi)
		}
		slices.Sort(drop)
		slices.Sort(wdrop)
		drop, wdrop = slices.Compact(drop), slices.Compact(wdrop)
		var fresh []extract.Candidate
		for _, c := range extract.Dedupe(adds) {
			if _, ok := taxonomy.Find(u, c.Hypo, c.Hyper); !ok {
				fresh = append(fresh, c)
			}
		}
		got := editCandidates(slices.Clone(u), drop, fresh)
		want := editNamed(slices.Clone(wu), wdrop, byName(toNamed(fresh)))
		same("editCandidates", got, want)
	})
}
