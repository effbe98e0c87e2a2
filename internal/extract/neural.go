package extract

import (
	"strings"

	"cnprobase/internal/copynet"
	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/segment"
	"cnprobase/internal/taxonomy"
)

// Neural wraps the copy-mechanism encoder–decoder as the abstract
// extractor (paper Section II, neural generation).
type Neural struct {
	model *copynet.Model
	seg   *segment.Segmenter
}

// BuildDistantDataset assembles the distant-supervision training set:
// for every high-precision bracket-derived isA(e, h), the abstract of e
// becomes the source and h the target (paper: 300k+ pairs built the
// same way).
func BuildDistantDataset(c *encyclopedia.Corpus, bracketCands []Candidate, seg *segment.Segmenter) []copynet.Sample {
	abstracts := make(map[string][]string) // entity ID → segmented abstract
	var buf []string                       // recycled across pages; contentTokens copies out
	for i := range c.Pages {
		p := &c.Pages[i]
		if p.Abstract == "" {
			continue
		}
		buf = seg.CutAppend(buf[:0], p.Abstract)
		abstracts[p.ID()] = contentTokens(buf)
	}
	var out []copynet.Sample
	for _, cand := range bracketCands {
		src, ok := abstracts[cand.Hypo]
		if !ok || len(src) == 0 {
			continue
		}
		tgt := seg.Cut(cand.Hyper)
		if len(tgt) == 0 {
			continue
		}
		out = append(out, copynet.Sample{Src: src, Tgt: tgt})
	}
	return out
}

// contentTokens keeps Han tokens and drops pure punctuation/latin runs;
// the decoder never needs to produce them and dropping them shortens
// the attention span.
func contentTokens(tokens []string) []string {
	var out []string
	for _, t := range tokens {
		if segment.IsContentToken(t) {
			out = append(out, t)
		}
	}
	return out
}

// TrainNeural trains a model on the distant dataset and returns the
// extractor. Progress reports (one per epoch) go to the optional
// callback.
func TrainNeural(cfg copynet.Config, samples []copynet.Sample, epochs int, lr float64, progress func(copynet.TrainReport)) *Neural {
	var seqs [][]string
	for _, s := range samples {
		seqs = append(seqs, s.Src, s.Tgt)
	}
	vocab := copynet.BuildVocab(seqs, cfg.Vocab)
	model := copynet.New(cfg, vocab)
	model.Train(samples, epochs, lr, progress)
	return &Neural{model: model}
}

// SetSegmenter attaches the segmenter used at extraction time.
func (n *Neural) SetSegmenter(seg *segment.Segmenter) { n.seg = seg }

// Model exposes the underlying network (for ablation experiments).
func (n *Neural) Model() *copynet.Model { return n.model }

// Extract generates a concept from the page's abstract and emits it as
// a candidate for the page's entity.
func (n *Neural) Extract(page *encyclopedia.Page) []Candidate {
	if page.Abstract == "" || n.seg == nil {
		return nil
	}
	bufp := cutBufPool.Get().(*[]string)
	toks := n.seg.CutAppend((*bufp)[:0], page.Abstract)
	src := contentTokens(toks)
	*bufp = toks
	cutBufPool.Put(bufp)
	if len(src) == 0 {
		return nil
	}
	tokens := n.model.Generate(src)
	concept := strings.Join(tokens, "")
	if !validHypernym(concept) || concept == page.Title {
		return nil
	}
	return []Candidate{{Hypo: page.ID(), Hyper: concept, Source: taxonomy.SourceAbstract, Score: 0.8}}
}
