package serving

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"cnprobase/internal/taxonomy"
)

// TestOpenImageHeap holds what a mapped view costs the heap: the node
// names, the mentions and the mentions' entity IDs are read in place
// from the image, so OpenImage allocates a constant number of objects
// at any world size, and its bytes are the derived arrays, the
// first-rune filter and the per-node scratch of validation and
// derivation — nothing per name, mention or mention entity. It also
// pins the layout that makes this so: no View field's elements hold
// pointers.
func TestOpenImageHeap(t *testing.T) {
	var pointerFields []string
	vt := reflect.TypeOf(View{})
	for i := 0; i < vt.NumField(); i++ {
		if elemsHoldPointers(vt.Field(i).Type) {
			pointerFields = append(pointerFields, vt.Field(i).Name)
		}
	}
	if len(pointerFields) > 0 {
		t.Errorf("View fields whose elements hold pointers: %v, want none", pointerFields)
	}
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}

	var counts []float64
	for _, entities := range []int{3000, 30000} {
		data := heapWorldImage(t, entities)
		var v *View
		counts = append(counts, testing.AllocsPerRun(3, func() {
			var err error
			if v, err = OpenImage(data, 0); err != nil {
				t.Fatal(err)
			}
		}))
		const runs = 3
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			v, _ = OpenImage(data, 0)
		}
		runtime.ReadMemStats(&after)
		got := (after.TotalAlloc - before.TotalAlloc) / runs

		// Each object may be rounded up by less than an 8 KiB page (a large
		// one to whole pages, a small one to its size class).
		n, slack := uint64(v.NodeCount()), uint64(counts[len(counts)-1])<<13
		want := derivedBytes(v) + 8*runeSetWords +
			5*n + // buildDerived's fill cursors (4 B) and validate's touched flags (1 B)
			slack
		t.Logf("%d entities (%d nodes, %d mentions): %.0f objects, %d B, budget %d B (derived %d B)",
			entities, n, v.MentionCount(), counts[len(counts)-1], got, want, derivedBytes(v))
		if got > want {
			t.Errorf("%d entities: OpenImage allocates %d B, budget %d B: %d B over, %.1f B per node or mention",
				entities, got, want, got-want, float64(got-want)/float64(n+uint64(v.MentionCount())))
		}
	}
	if counts[0] != counts[1] {
		t.Errorf("OpenImage allocates %.0f objects at the small world and %.0f at the large one; want a constant", counts[0], counts[1])
	}
}

// heapWorldImage compiles a world of the given number of entities,
// each with two mentions, and returns its image.
func heapWorldImage(t *testing.T, entities int) []byte {
	t.Helper()
	tax := taxonomy.New()
	for i := 0; i < entities; i++ {
		id := fmt.Sprintf("实体%05d（人物）", i)
		if err := tax.AddIsA(id, fmt.Sprintf("概念%d", i%(entities/10)), taxonomy.SourceTag); err != nil {
			t.Fatal(err)
		}
		tax.AddMention(fmt.Sprintf("实体%05d", i), id)
		tax.AddMention(id, id)
	}
	im, err := Compile(tax).Image(0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := im.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// derivedBytes is the size of the arrays buildDerived fills: what a view
// holds beyond the image's canonical content.
func derivedBytes(v *View) uint64 {
	var total uint64
	for _, f := range []any{v.hyperRank, v.hyperTotals, v.hypoOff, v.hypoIDs} {
		s := reflect.ValueOf(f)
		total += uint64(s.Len()) * uint64(s.Type().Elem().Size())
	}
	return total
}

// elemsHoldPointers reports whether the elements of t, a slice, or of
// any slice inside t, a struct, hold pointers the collector scans.
func elemsHoldPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Slice:
		return holdsPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if elemsHoldPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
