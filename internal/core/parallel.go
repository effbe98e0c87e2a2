package core

import (
	"runtime"

	"cnprobase/internal/corpus"
	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/extract"
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

// corpusStats builds the unigram/bigram statistics over every page's
// abstract and bracket. The accumulator only adds counts and the
// bootstrap segmenter reads no statistics (no feedback loop), so the
// windowed parallel fold produces exactly the sequential counts.
func corpusStats(c *encyclopedia.Corpus, boot *segment.Segmenter, p *par.Pool) *corpus.Stats {
	type pageCut struct{ abstract, bracket []string }
	stats := corpus.NewStats()
	par.WindowFold(p, len(c.Pages), windowPages, func(lo, hi int) []pageCut {
		out := make([]pageCut, 0, hi-lo)
		// One shared backing array per batch: CutAppend grows it in
		// place and each page keeps a capacity-clamped sub-slice, so the
		// batch performs a handful of amortized allocations instead of
		// one `[]string` per page.
		toks := make([]string, 0, 32*(hi-lo))
		for i := lo; i < hi; i++ {
			page := &c.Pages[i]
			var pc pageCut
			if page.Abstract != "" {
				a := len(toks)
				toks = boot.CutAppend(toks, page.Abstract)
				pc.abstract = toks[a:len(toks):len(toks)]
			}
			if page.Bracket != "" {
				b := len(toks)
				toks = boot.CutAppend(toks, page.Bracket)
				pc.bracket = toks[b:len(toks):len(toks)]
			}
			out = append(out, pc)
		}
		return out
	}, func(pc pageCut) {
		if len(pc.abstract) > 0 {
			stats.AddSentence(pc.abstract)
		}
		if len(pc.bracket) > 0 {
			stats.AddSentence(pc.bracket)
		}
	})
	return stats
}

// observeSupport runs the NE-evidence pass: segment + recognize every
// abstract (in windowed parallel batches) and fold the observations
// into a Support accumulator in page order. Support only adds counts,
// so windowing cannot change the result.
func observeSupport(c *encyclopedia.Corpus, seg *segment.Segmenter, rec *ner.Recognizer, p *par.Pool) *ner.Support {
	type obs struct {
		tokens []string
		spans  []ner.Span
	}
	support := ner.NewSupport()
	par.WindowFold(p, len(c.Pages), windowPages, func(lo, hi int) []obs {
		out := make([]obs, 0, hi-lo)
		// Batch-shared token backing array; see corpusStats.
		toks := make([]string, 0, 32*(hi-lo))
		for i := lo; i < hi; i++ {
			page := &c.Pages[i]
			if page.Abstract == "" {
				continue
			}
			a := len(toks)
			toks = seg.CutAppend(toks, page.Abstract)
			out = append(out, obs{tokens: toks[a:len(toks):len(toks)], spans: rec.Recognize(page.Abstract)})
		}
		return out
	}, func(o obs) {
		support.Observe(o.tokens, o.spans)
	})
	return support
}

// addPages records the pages as entities of the store and indexes the
// mentions that resolve to them: title, ID and infobox aliases.
// names holds the pages' interned entity IDs and titles, interleaved.
func addPages(tax *taxonomy.Taxonomy, mentions *taxonomy.MentionIndex, pages []encyclopedia.Page, names []uint32) {
	strs := tax.Symbols().Names()
	for i := range pages {
		page := &pages[i]
		id := strs[names[2*i]]
		tax.MarkEntityID(names[2*i])
		mentions.Add(page.Title, id)
		mentions.Add(id, id)
		for _, t := range page.Infobox {
			if t.Predicate == "别名" && t.Object != "" {
				mentions.Add(t.Object, id)
			}
		}
	}
}

// assembleEdges inserts the kept candidates into the store, in list
// order: a few appends per pair on the dense IDs the store shares with
// the candidates, too little work to fan out.
func assembleEdges(tax *taxonomy.Taxonomy, kept []extract.Candidate) error {
	for i := range kept {
		if err := tax.AddIsAID(kept[i].Hypo, kept[i].Hyper, kept[i].Source, kept[i].Score); err != nil {
			return err
		}
	}
	return nil
}
