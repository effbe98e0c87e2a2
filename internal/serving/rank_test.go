package serving

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"cnprobase/internal/taxonomy"
)

// sortScored is the typicality order the view's rankings are defined
// by: descending score, ties broken by name.
func sortScored(xs []taxonomy.Scored) {
	slices.SortFunc(xs, func(a, b taxonomy.Scored) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		}
		return strings.Compare(a.Node, b.Node)
	})
}

// TestRankOrderMatchesScoreOrder holds rank — evidence count (number
// of sources) descending, then position (ID, so name) ascending — to
// sortScored over the scores a segment's typicality gives, on random
// segments: any source sets, one source per edge (all counts tied) and
// no sources at all (total == 0).
func TestRankOrderMatchesScoreOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draws := []func() taxonomy.Source{
		func() taxonomy.Source { return taxonomy.Source(rng.Intn(256)) },    // counts 0…8, many ties
		func() taxonomy.Source { return taxonomy.Source(1 << rng.Intn(7)) }, // count 1 each
		func() taxonomy.Source { return 0 },                                 // total == 0
	}
	for trial := 0; trial < 5000; trial++ {
		draw := draws[trial%len(draws)]
		n := rng.Intn(40)
		sources := make([]taxonomy.Source, n)
		total := int64(0)
		for i := range sources {
			sources[i] = draw()
			total += int64(sources[i].Evidence())
		}
		score := func(i int) float64 { return typicality(int64(sources[i].Evidence()), total) }
		// Names ascend with position, as a CSR segment's IDs do.
		want := make([]taxonomy.Scored, n)
		for i := range want {
			want[i] = taxonomy.Scored{Node: fmt.Sprintf("节点%03d", i), Score: score(i)}
		}
		sortScored(want)
		perm := make([]uint32, n)
		rank(perm, sources)
		got := make([]taxonomy.Scored, n)
		for r, k := range perm {
			got[r] = taxonomy.Scored{Node: fmt.Sprintf("节点%03d", k), Score: score(int(k))}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("sources %v:\n rank order  %v\n score order %v", sources, got, want)
		}
	}
}

// patchBudgetStore is a few-thousand-edge store: entities with two or
// three hypernyms among 40 concepts, each concept under one top concept.
func patchBudgetStore(tb testing.TB) *taxonomy.Taxonomy {
	tb.Helper()
	tax := taxonomy.New()
	add := func(hypo, hyper string) {
		if err := tax.AddIsA(hypo, hyper, taxonomy.SourceTag); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 1500; i++ {
		id := fmt.Sprintf("实体%04d", i)
		tax.MarkEntity(id)
		for k := 0; k < 2+i%2; k++ {
			add(id, fmt.Sprintf("概念%02d", (i+7*k)%40))
		}
	}
	for c := 0; c < 40; c++ {
		add(fmt.Sprintf("概念%02d", c), "顶层概念")
	}
	return tax
}

// TestPatchAllocationBudget bounds what folding a one-node delta
// allocates per edge of the view — the world-sized copy a fold pays
// (publication itself copies only the delta; TestPublishAllocationBudget
// holds that) — and pins every per-edge array pointer-free, so a
// string-bearing per-edge array, which the collector has to scan and the
// copy has to write-barrier, cannot come back unnoticed.
//
// Until publication became a delta over a base, every batch paid this
// copy, as a patch of the previous flat view; the figures below are that
// patch's, which the fold now does.
//
// On this 3 791-edge, 1 541-node store a patch allocated 138.1 B/edge
// while each rank array was a []taxonomy.Scored (24 B/edge, holding a
// string), and 103.5 B/edge with []uint32 ranks but both adjacency
// sides' per-edge name slices (2 × 16 B/edge); with neither it
// allocated 68.9 B/edge, 63.5 B/edge once the hyponym-side counts
// became uint32 and the name table an arena, 51.2 B/edge once the
// hyponym side lost its ranking and counts (per-edge arrays 37 → 29 B),
// 42.5 B/edge once evidence counts were read off the sources instead
// of stored (29 → 21 B), 33.9 B/edge once the per-edge score went
// (21 → 13 B), and 29.5 B/edge once the fold merged the base's rows and
// the delta's by ID, copying the derived arrays instead of re-deriving
// them (no name-keyed change, run plan or derivation scratch). Either
// array back would cross the budget, and so would a wider per-edge
// array set.
func TestPatchAllocationBudget(t *testing.T) {
	tax := patchBudgetStore(t)
	prev := Compile(tax)
	fields := reflect.ValueOf(prev).Elem()
	arrays, width := 0, uintptr(0)
	for i := 0; i < fields.NumField(); i++ {
		f := fields.Field(i)
		if f.Kind() != reflect.Slice || f.Len() != prev.EdgeCount() {
			continue
		}
		arrays++
		width += f.Type().Elem().Size()
		if holdsPointers(f.Type().Elem()) {
			t.Errorf("View.%s is %v, a per-edge array whose elements hold pointers", fields.Type().Field(i).Name, f.Type())
		}
	}
	if arrays == 0 {
		t.Fatal("no View slice field is as long as the view has edges")
	}
	t.Logf("%d per-edge arrays, %d B/edge", arrays, width)
	if width > 13 {
		t.Errorf("the per-edge arrays hold %d B/edge, want at most 13", width)
	}
	if raceEnabled {
		t.Skip("allocation sizes are skewed under -race")
	}
	if err := tax.AddIsA("实体0000", "概念39", taxonomy.SourceTag); err != nil {
		t.Fatal(err)
	}
	hypo, _ := tax.Symbols().Lookup("实体0000")
	hyper, _ := tax.Symbols().Lookup("概念39")
	nodes := []uint32{hypo, hyper} // the new edge's two ends
	d := Patch(prev, tax, nodes, nil)
	if d == nil || !d.HasDelta() {
		t.Fatal("Patch did not publish the edge's two ends as a delta")
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var v *View
	for i := 0; i < runs; i++ {
		v = d.Fold()
	}
	runtime.ReadMemStats(&after)
	perEdge := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(v.EdgeCount())
	t.Logf("%d edges, %d nodes: %.1f B/edge per fold", v.EdgeCount(), v.NodeCount(), perEdge)
	const budget = 30
	if perEdge > budget {
		t.Errorf("folding a one-node delta allocates %.1f B per edge, budget %d", perEdge, budget)
	}
}

// holdsPointers reports whether a value of type t contains a pointer
// the collector has to scan.
func holdsPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array, reflect.Slice:
		return t.Kind() == reflect.Slice || holdsPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	}
	return true // pointers, strings, maps, chans, funcs, interfaces
}
