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
// same way). hypos[i] is page i's entity ID; bracket holds the bracket
// generator's batches, in page order.
func BuildDistantDataset(c *encyclopedia.Corpus, hypos []uint32, bracket []Batch, seg *segment.Segmenter) []copynet.Sample {
	abstracts := make(map[uint32][]string) // entity ID → segmented abstract
	var buf []string                       // recycled across pages; contentTokens copies out
	for i := range c.Pages {
		p := &c.Pages[i]
		if p.Abstract == "" {
			continue
		}
		buf = seg.CutAppend(buf[:0], p.Abstract)
		abstracts[hypos[i]] = contentTokens(buf)
	}
	var out []copynet.Sample
	for i := range bracket {
		b := &bracket[i]
		for _, cand := range b.Cands {
			src, ok := abstracts[cand.Hypo]
			if !ok || len(src) == 0 {
				continue
			}
			tgt := seg.Cut(b.Names[cand.Hyper])
			if len(tgt) == 0 {
				continue
			}
			out = append(out, copynet.Sample{Src: src, Tgt: tgt})
		}
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

// Extract generates a concept from the page's abstract and emits it as
// a candidate of the page's entity hypo.
func (n *Neural) Extract(page *encyclopedia.Page, hypo uint32, b *Batch) {
	if page.Abstract == "" || n.seg == nil {
		return
	}
	bufp := cutBufPool.Get().(*[]string)
	toks := n.seg.CutAppend((*bufp)[:0], page.Abstract)
	src := contentTokens(toks)
	*bufp = toks
	cutBufPool.Put(bufp)
	if len(src) == 0 {
		return
	}
	tokens := n.model.Generate(src)
	if concept := strings.Join(tokens, ""); validHypernym(concept) && concept != page.Title {
		b.Add(hypo, concept, taxonomy.SourceAbstract)
	}
}
