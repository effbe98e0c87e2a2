package extract

import (
	"testing"

	"cnprobase/internal/copynet"
	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/segment"
	"cnprobase/internal/taxonomy"
)

func TestBuildDistantDataset(t *testing.T) {
	seg := testSegmenter()
	c := &encyclopedia.Corpus{Pages: []encyclopedia.Page{
		{Title: "刘德华", Bracket: "男演员", Abstract: "刘德华，中国香港男演员。"},
		{Title: "无摘要", Bracket: "歌手"}, // no abstract → no sample
	}}
	var bracket Batch
	bracket.Add(10, "男演员", taxonomy.SourceBracket)
	bracket.Add(11, "歌手", taxonomy.SourceBracket)
	samples := BuildDistantDataset(c, []uint32{10, 11}, []Batch{bracket}, seg)
	if len(samples) != 1 {
		t.Fatalf("samples = %+v, want 1", samples)
	}
	if len(samples[0].Src) == 0 {
		t.Fatal("empty source tokens")
	}
	if len(samples[0].Tgt) != 1 || samples[0].Tgt[0] != "男演员" {
		t.Errorf("target = %v, want [男演员]", samples[0].Tgt)
	}
	// Source tokens are content only (no punctuation).
	for _, tok := range samples[0].Src {
		if !segment.IsContentToken(tok) {
			t.Errorf("non-content token %q in source", tok)
		}
	}
}

func TestNeuralExtractSkipsDegenerate(t *testing.T) {
	n := &Neural{} // no model, no segmenter
	var b Batch
	if n.Extract(&encyclopedia.Page{Title: "x"}, 0, &b); b.Cands != nil {
		t.Errorf("Extract without abstract = %v", b.Cands)
	}
}

func TestTrainNeuralAndExtract(t *testing.T) {
	seg := testSegmenter()
	// Train on a tiny degenerate task: the defining phrase always ends
	// with the concept.
	var samples []copynet.Sample
	for i := 0; i < 120; i++ {
		samples = append(samples, copynet.Sample{
			Src: []string{"他", "是", "著名", "歌手"},
			Tgt: []string{"歌手"},
		})
	}
	cfg := copynet.Config{Dim: 8, Hidden: 10, Att: 8, MaxSrc: 8, MaxTgt: 2, Vocab: 20, UseCopy: true, Seed: 2}
	reports := 0
	n := TrainNeural(cfg, samples, 3, 0.02, func(copynet.TrainReport) { reports++ })
	if reports != 3 {
		t.Errorf("progress reports = %d, want 3", reports)
	}
	n.SetSegmenter(seg)
	page := &encyclopedia.Page{Title: "张三", Abstract: "他是著名歌手。"}
	var b Batch
	n.Extract(page, 3, &b)
	if len(b.Cands) != 1 {
		t.Fatalf("Extract = %+v", b.Cands)
	}
	if c := b.Cands[0]; c.Hypo != 3 || b.Names[c.Hyper] != "歌手" || c.Source != taxonomy.SourceAbstract {
		t.Errorf("candidate = %+v naming %q", c, b.Names)
	}
}
