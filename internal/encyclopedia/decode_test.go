package encyclopedia_test

import (
	"bytes"
	"reflect"
	"testing"

	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/synth"
)

// worldJSONL returns a synthetic world's corpus as WriteJSONL writes
// it, with its page and triple counts.
func worldJSONL(tb testing.TB, entities int) (data []byte, pages, triples int) {
	tb.Helper()
	cfg := synth.DefaultConfig()
	cfg.Entities = entities
	w, err := synth.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.Corpus().WriteJSONL(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), w.Corpus().Len(), w.Corpus().TripleCount()
}

// FuzzCorpusDecoding holds ReadJSONL to the encoding/json reader it
// replaced: on any input both return deeply equal corpora, or errors
// with the same text.
func FuzzCorpusDecoding(f *testing.F) {
	world, _, _ := worldJSONL(f, 12)
	f.Add(world)
	for _, seed := range []string{
		`{"title":"a\u003cb","tags":["<标签>"]}`,
		"null\n" + `{"title":"甲"}`,
		`{"title":"甲","tags":null}`,
		`{"Title":"甲"}`,
		`{"title":"甲","title":"乙"}`,
		`{"title":"甲","infobox":[{"s":"甲","p":"职业","o":"演员","s":"乙"}]}`,
		`{"infobox":[{"s":"甲","p":"职业"}],"title":"甲","infobox":[{"o":"演员"}]}`,
		`{"title":"甲","infobox":[],"tags":[]}`,
		`{"title":"甲","x":1}`,
		"{\"title\":\"\xff\"}",
		`{"title":"甲"} x`,
		"　{\"title\":\"甲\"}　",
		"{\"title\":\"甲\"}\r\n\r\n{\"title\":\"乙\",\"tags\":[\"人物\"]}\r\n",
		`{}`,
		` { "tags" : [ "人物" , "演员" ] , "infobox" : [ { } , { "o" : "演员" , "p" : "职业" } ] , "title" : "甲" } `,
		"{\"abstract\":\"a\tb\"}",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		got, err := encyclopedia.ReadJSONL(bytes.NewReader(in))
		want, wantErr := encyclopedia.ReferenceReadJSONL(bytes.NewReader(in))
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("ReadJSONL(%q) error = %v\nreference: %v", in, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("ReadJSONL(%q) =\n  %+v\nreference:\n  %+v", in, got.Pages, want.Pages)
		}
	})
}

// TestReadJSONLScansCanonicalLines: every line WriteJSONL writes takes
// the scanner, so FuzzCorpusDecoding tests the scanner and not only its
// fallback.
func TestReadJSONLScansCanonicalLines(t *testing.T) {
	data, pages, _ := worldJSONL(t, 1200)
	if pages < 1000 {
		t.Fatalf("world has %d pages, want ≥ 1000", pages)
	}
	fallbacks := 0
	encyclopedia.CountFallbacks(t, &fallbacks)
	got, err := encyclopedia.ReadJSONL(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if fallbacks != 0 {
		t.Errorf("%d of %d canonical lines fell back to encoding/json", fallbacks, pages)
	}
	want, err := encyclopedia.ReferenceReadJSONL(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("scanned corpus differs from the reference decoding")
	}
}

// TestReadJSONLAllocations pins the decoder's allocation budget: per
// page at most seven (title, bracket, abstract, subject, the two exact
// slices, the page slice's growth) plus one object string per triple.
// encoding/json made 44 on this corpus.
func TestReadJSONLAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector skews allocation counts")
	}
	data, pages, triples := worldJSONL(t, 1200)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := encyclopedia.ReadJSONL(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	perPage, budget := allocs/float64(pages), 7+float64(triples)/float64(pages)
	t.Logf("%.2f allocs per page at %.2f triples per page", perPage, float64(triples)/float64(pages))
	if perPage > budget {
		t.Errorf("ReadJSONL: %.2f allocs per page, budget %.2f", perPage, budget)
	}
}
