package snapshot

import (
	"bytes"
	"fmt"
	"testing"

	"cnprobase/internal/api"
)

// TestLoadViewServingEquivalence pins the acceptance criterion of the
// build/serve split: the three APIs answer byte-identically whether
// served from the freshly built mutable store, from a snapshot
// restored into the store (Load), or from a snapshot decoded straight
// into the immutable serving view (LoadView) — at any decode worker
// count.
func TestLoadViewServingEquivalence(t *testing.T) {
	fresh := buildState(t, 400, 4)
	data := saveBytes(t, fresh, Options{Workers: 4})

	loaded, err := Load(bytes.NewReader(data), Options{Workers: 4})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			view, meta, err := LoadView(bytes.NewReader(data), Options{Workers: workers})
			if err != nil {
				t.Fatalf("LoadView: %v", err)
			}
			if meta.Pages != fresh.Meta.Pages || meta.Stats != fresh.Meta.Stats {
				t.Fatalf("meta = %+v, want %+v", meta, fresh.Meta)
			}
			if view.Stats() != fresh.Taxonomy.ComputeStats() {
				t.Fatalf("view stats = %+v, want %+v", view.Stats(), fresh.Taxonomy.ComputeStats())
			}
			if view.EdgeCount() != fresh.Taxonomy.EdgeCount() {
				t.Fatalf("view edges = %d, want %d", view.EdgeCount(), fresh.Taxonomy.EdgeCount())
			}
			nodes := fresh.Taxonomy.Nodes()
			if len(nodes) > 80 {
				nodes = nodes[:80]
			}
			mentions := append([]string{"不存在的提及"}, nodes...)
			freshBody := apiResponses(t, api.NewServer(fresh.Taxonomy, fresh.Mentions), nodes, mentions)
			storeBody := apiResponses(t, api.NewServer(loaded.Taxonomy, loaded.Mentions), nodes, mentions)
			viewBody := apiResponses(t, api.NewViewServer(view), nodes, mentions)
			if freshBody != storeBody {
				t.Fatal("snapshot-loaded store responses differ from fresh build")
			}
			if freshBody != viewBody {
				t.Fatal("LoadView responses differ from fresh build")
			}
		})
	}
}

// TestLoadViewDetectsCorruption mirrors the store loader's corruption
// battery for the direct-to-view path: every truncation and every
// byte flip must yield an error, never a panic or a silent success.
func TestLoadViewDetectsCorruption(t *testing.T) {
	st := handState(t)
	data := saveBytes(t, st, Options{Workers: 1})
	for n := 0; n < len(data); n++ {
		if _, _, err := LoadView(bytes.NewReader(data[:n]), Options{Workers: 1}); err == nil {
			t.Fatalf("truncation to %d of %d bytes was not detected", n, len(data))
		}
	}
	for i := range data {
		mutated := append([]byte(nil), data...)
		mutated[i] ^= 0x40
		if _, _, err := LoadView(bytes.NewReader(mutated), Options{Workers: 1}); err == nil {
			t.Fatalf("flip of byte %d in a %d-byte snapshot was not detected", i, len(data))
		}
	}
}
