package cnprobase

import (
	"bytes"
	"runtime"
	"testing"
)

// TestResultHeapBudget holds what an ingest replica's Result keeps on
// the heap — the taxonomy, the verification evidence, the corpus
// statistics and the segmenter, without a published view — to a budget
// per kept edge and per mention pair: a Result loaded from a snapshot
// of a 4 000-entity world, then extended by three crawl batches. The
// write model holds each edge once (its kept list) and each mention
// pair once; a second copy of either — a per-node adjacency, a
// string-keyed mention index — crosses the budget.
func TestResultHeapBudget(t *testing.T) {
	wcfg := DefaultWorldConfig()
	wcfg.Entities = 4000
	w, err := GenerateWorld(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	pages := w.Corpus().Pages
	base := len(pages) - 90
	opts := smallOptions()
	opts.EnableNeural = false
	built, err := Build(&Corpus{Pages: pages[:base]}, opts)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := SaveSnapshot(&snap, built); err != nil {
		t.Fatal(err)
	}
	built = nil

	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // the second cycle empties the pools the first one aged
	runtime.ReadMemStats(&before)
	res, err := LoadSnapshot(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for lo := base; lo < len(pages); lo += 30 {
		if res, err = Update(res, &Corpus{Pages: pages[lo : lo+30]}, opts); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(pages) // live at both reads, so neither counts
	runtime.KeepAlive(snap.Bytes())

	// Counted through a view published afterwards, so it is not held.
	v := res.Freeze()
	pairs := 0
	for row := 0; row < v.MentionCount(); row++ {
		pairs += len(v.MentionEntities(int32(row)))
	}
	// Measured on this world: 3 111 320 B — the mention pairs 221 168 B
	// of it, 30.4 B a pair, and everything else 228 B per kept edge — so
	// a twentieth of headroom over each. A per-node adjacency beside the
	// kept list and a string-keyed mention index beside the pairs bring
	// it to 4 028 832 B, 750 kB over.
	const perEdge, perPair = 240, 32
	budget := int64(perEdge*len(res.Kept) + perPair*pairs)
	t.Logf("%d kept edges, %d mention pairs: the Result holds %d B (%.1f B per edge and pair), budget %d B",
		len(res.Kept), pairs, held, float64(held)/float64(len(res.Kept)+pairs), budget)
	if held > budget {
		t.Errorf("the Result holds %d B, %d B over its budget of %d B per kept edge and %d B per mention pair",
			held, held-budget, perEdge, perPair)
	}
}
