package taxonomy_test

import (
	"bytes"
	"testing"

	"cnprobase/internal/serving"
	"cnprobase/internal/taxonomy"
)

// FuzzReadTaxonomy holds the JSON loader to what can be served: any
// bytes either fail to load, or load into a store that compiles to an
// image the image decoder accepts, whose summary agrees with the
// store's counters, and that WriteJSON → ReadJSON reproduces exactly.
func FuzzReadTaxonomy(f *testing.F) {
	for _, seed := range []string{
		`{"kinds":{"甲":7},"edges":[]}`,
		`{"kinds":{},"edges":[{"hypo":"甲","hyper":"乙","count":-3}]}`,
		`{"kinds":{"甲":1,"乙":0},"edges":[{"hypo":"甲","hyper":"乙","sources":9,"score":0.5,"count":2},{"hypo":"乙","hyper":"丙","count":0}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		tx, err := taxonomy.ReadJSON(bytes.NewReader(raw))
		if err != nil {
			return
		}
		v := serving.Compile(tx, nil)
		if got, want := tx.ComputeStats(), v.Stats(); got != want {
			t.Fatalf("store stats %+v, view stats %+v", got, want)
		}
		im, err := v.Image(0)
		if err != nil {
			t.Fatalf("Image: %v", err)
		}
		var img bytes.Buffer
		if _, err := im.WriteTo(&img); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		if _, err := serving.DecodeImage(img.Bytes(), 0); err != nil {
			t.Fatalf("the image of a loaded taxonomy does not decode: %v", err)
		}
		var once, twice bytes.Buffer
		if err := tx.WriteJSON(&once); err != nil {
			t.Fatal(err)
		}
		again, err := taxonomy.ReadJSON(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("ReadJSON of its own output: %v\n%s", err, once.Bytes())
		}
		if err := again.WriteJSON(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("round trip changed the taxonomy:\n%s\n%s", once.Bytes(), twice.Bytes())
		}
	})
}
