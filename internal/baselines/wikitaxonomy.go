// Package baselines implements the three comparison taxonomies of the
// paper's Table I: Chinese WikiTaxonomy (single-source, tag-only, high
// precision / low coverage), Bigcilin (multi-source without a
// verification module) and Probase-Tran (English Probase translated to
// Chinese, with the paper's three post-translation filters).
package baselines

import (
	"math/rand"

	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/lexicon"
	"cnprobase/internal/taxonomy"
)

// WikiTaxonomyConfig tunes the tag-only baseline (after Li et al. 2015,
// the "Chinese WikiTaxonomy" row).
type WikiTaxonomyConfig struct {
	// SubsampleRate models the smaller single-encyclopedia corpus the
	// original system was built from (581k entities vs CN-DBpedia's
	// 16M): only this fraction of pages contributes.
	SubsampleRate float64
	// MinTagCount drops tags seen fewer times corpus-wide — the strict
	// filtering that buys the system its high precision.
	MinTagCount int
	Seed        int64
}

// DefaultWikiTaxonomyConfig mirrors the coverage/precision trade-off of
// the paper's Table I row.
func DefaultWikiTaxonomyConfig() WikiTaxonomyConfig {
	return WikiTaxonomyConfig{SubsampleRate: 0.07, MinTagCount: 2, Seed: 11}
}

// BuildWikiTaxonomy constructs the tag-only baseline taxonomy.
func BuildWikiTaxonomy(c *encyclopedia.Corpus, cfg WikiTaxonomyConfig) *taxonomy.Taxonomy {
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Pass 1: corpus-wide tag counts (over the subsample).
	chosen := make([]bool, len(c.Pages))
	tagCount := make(map[string]int)
	for i := range c.Pages {
		if rng.Float64() >= cfg.SubsampleRate {
			continue
		}
		chosen[i] = true
		for _, t := range c.Pages[i].Tags {
			tagCount[t]++
		}
	}
	// Pass 2: emit filtered tag edges. The title gazetteer only covers
	// the pages the system actually crawled (its own subsample), so a
	// sliver of entity-title tag noise survives — which is why the
	// original reports 97.6% rather than 100%.
	titles := make(map[string]bool, len(c.Pages))
	for i := range c.Pages {
		if chosen[i] {
			titles[c.Pages[i].Title] = true
		}
	}
	tax := taxonomy.New()
	regions := make(map[string]bool)
	for _, r := range lexicon.Regions() {
		regions[r] = true
	}
	for i := range c.Pages {
		if !chosen[i] {
			continue
		}
		p := &c.Pages[i]
		id := p.ID()
		tax.MarkEntity(id)
		for _, t := range p.Tags {
			switch {
			case t == "" || t == p.Title:
			case lexicon.IsThematic(t): // their syntactic/lexicon filter
			case regions[t]: // gazetteer filter
			case titles[t]: // tags that are themselves entity pages
			case tagCount[t] < cfg.MinTagCount:
			default:
				// Error deliberately ignored: the only failure mode is
				// a self-loop, excluded above.
				_ = tax.AddIsA(id, t, taxonomy.SourceTag)
			}
		}
	}
	return tax
}
