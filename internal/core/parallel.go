package core

import (
	"runtime"

	"cnprobase/internal/corpus"
	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/ner"
	"cnprobase/internal/par"
	"cnprobase/internal/segment"
	"cnprobase/internal/taxonomy"
)

// workerCount resolves Options.Workers: zero or negative selects one
// worker per logical CPU, one means fully sequential, anything else is
// used as given.
func workerCount(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// windowPages bounds how many pages' intermediate results (token
// slices, NE spans) the streaming passes below keep in memory at once:
// cut a window in parallel, fold it into the accumulator, move on. The
// constant multiplies the pool size so every worker stays busy within
// a window while memory stays O(window), not O(corpus).
const windowPages = 512

// textBatch is one batch of a windowed corpus pass, its arrays reused
// window after window: the tokens of the batch's texts in one backing
// array and, in the NE pass, their spans; text k ends at ends[k].
type textBatch struct {
	toks  []string
	spans []ner.Span
	ends  []textEnd
}

// textEnd is where one text's tokens and spans end in its batch.
type textEnd struct{ tok, span int }

func (b *textBatch) reset() {
	b.toks, b.spans, b.ends = b.toks[:0], b.spans[:0], b.ends[:0]
}

// corpusStats builds the unigram/bigram statistics over every page's
// abstract and bracket. The accumulator only adds counts and the
// bootstrap segmenter reads no statistics (no feedback loop), so the
// windowed parallel fold produces exactly the sequential counts.
func corpusStats(c *encyclopedia.Corpus, boot *segment.Segmenter, p *par.Pool) *corpus.Stats {
	stats := corpus.NewStats()
	par.WindowFold(p, len(c.Pages), windowPages, func(b *textBatch, lo, hi int) {
		b.reset()
		for i := lo; i < hi; i++ {
			for _, text := range [2]string{c.Pages[i].Abstract, c.Pages[i].Bracket} {
				if text != "" {
					b.toks = boot.CutAppend(b.toks, text)
					b.ends = append(b.ends, textEnd{tok: len(b.toks)})
				}
			}
		}
	}, func(b *textBatch) {
		tok := 0
		for _, e := range b.ends {
			stats.AddSentence(b.toks[tok:e.tok])
			tok = e.tok
		}
	})
	return stats
}

// observeSupport runs the NE-evidence pass: segment + recognize every
// abstract (in windowed parallel batches) and fold the observations
// into a Support accumulator in page order. Support only adds counts,
// so windowing cannot change the result.
func observeSupport(c *encyclopedia.Corpus, seg *segment.Segmenter, rec *ner.Recognizer, p *par.Pool) *ner.Support {
	support := ner.NewSupport()
	par.WindowFold(p, len(c.Pages), windowPages, func(b *textBatch, lo, hi int) {
		b.reset()
		for i := lo; i < hi; i++ {
			if text := c.Pages[i].Abstract; text != "" {
				b.toks = seg.CutAppend(b.toks, text)
				b.spans = rec.RecognizeAppend(b.spans, text)
				b.ends = append(b.ends, textEnd{len(b.toks), len(b.spans)})
			}
		}
	}, func(b *textBatch) {
		tok, span := 0, 0
		for _, e := range b.ends {
			support.Observe(b.toks[tok:e.tok], b.spans[span:e.span])
			tok, span = e.tok, e.span
		}
	})
	return support
}

// markPages marks the pages' entities in the taxonomy and returns the
// entities whose kind changed, plus the mention pairs that resolve to
// them: title, ID and infobox aliases. names holds the pages' interned
// entity IDs and titles, interleaved. A page whose entity ID is blank
// names no entity.
func markPages(tax *taxonomy.Taxonomy, pages []encyclopedia.Page, names []uint32) (marked []uint32, ms []taxonomy.Mention) {
	strs := tax.Symbols().Names()
	for i := range pages {
		page, id := &pages[i], names[2*i]
		if strs[id] == "" {
			continue
		}
		if tax.MarkEntityID(id) {
			marked = append(marked, id)
		}
		// The title as interned: the pair shares the symbol table's bytes.
		ms = append(ms, taxonomy.Mention{Text: strs[names[2*i+1]], Entity: id}, taxonomy.Mention{Text: strs[id], Entity: id})
		for _, t := range page.Infobox {
			if t.Predicate == "别名" && t.Object != "" {
				ms = append(ms, taxonomy.Mention{Text: t.Object, Entity: id})
			}
		}
	}
	return marked, ms
}
