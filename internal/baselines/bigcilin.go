package baselines

import (
	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/lexicon"
	"cnprobase/internal/segment"
	"cnprobase/internal/taxonomy"
)

// BigcilinConfig tunes the multi-source, no-verification baseline
// (after Fu et al., EMNLP 2013). It extracts from the same sources as
// CN-Probase but with simpler algorithms and — crucially — without the
// verification module, which is the comparison the paper draws.
type BigcilinConfig struct {
	// InfoboxPredicates is the fixed hand-picked predicate list (no
	// predicate discovery).
	InfoboxPredicates []string
	// MinTagCount drops singleton tags — the light frequency-based
	// quality control the original system applies (no semantic
	// verification, which is the gap the paper exploits).
	MinTagCount int
}

// DefaultBigcilinConfig uses the two predicates any Chinese KB engineer
// would hand-pick plus singleton-tag removal.
func DefaultBigcilinConfig() BigcilinConfig {
	return BigcilinConfig{InfoboxPredicates: []string{"职业", "类型"}, MinTagCount: 2}
}

// BuildBigcilin constructs the baseline: raw tags + suffix-heuristic
// brackets + fixed-predicate infobox, merged with no verification.
func BuildBigcilin(c *encyclopedia.Corpus, cfg BigcilinConfig) *taxonomy.Taxonomy {
	seg := segment.New(lexicon.BaseDictionary())
	sel := make(map[string]bool, len(cfg.InfoboxPredicates))
	for _, p := range cfg.InfoboxPredicates {
		sel[p] = true
	}
	tagCount := make(map[string]int)
	for i := range c.Pages {
		for _, t := range c.Pages[i].Tags {
			tagCount[t]++
		}
	}
	tax := taxonomy.New()
	for i := range c.Pages {
		p := &c.Pages[i]
		id := p.ID()
		tax.MarkEntity(id)
		add := func(h string) {
			if h != "" && h != p.Title && h != id {
				_ = tax.AddIsA(id, h, taxonomy.SourceTag)
			}
		}
		// Tags: frequency filter plus a thematic-word lexicon (the
		// cilin-style resource the original leans on) — but no NE or
		// incompatibility verification, which is the gap the paper's
		// Table I exposes.
		for _, t := range p.Tags {
			if tagCount[t] >= cfg.MinTagCount && !lexicon.IsThematic(t) {
				add(t)
			}
		}
		// Brackets: naive heuristic — the last dictionary word of each
		// compound is the hypernym (no PMI separation, so compound
		// titles like 首席战略官 degrade to 战略官 only and modifiers
		// sometimes leak).
		for _, part := range splitOnEnumeration(p.Bracket) {
			add(suffixHypernym(part, seg))
		}
		// Infobox: fixed predicates.
		for _, t := range p.Infobox {
			if sel[t.Predicate] {
				add(t.Object)
			}
		}
	}
	return tax
}

// suffixHypernym returns the last content word of a compound.
func suffixHypernym(compound string, seg *segment.Segmenter) string {
	toks := seg.Cut(compound)
	for i := len(toks) - 1; i >= 0; i-- {
		if segment.IsContentToken(toks[i]) && len([]rune(toks[i])) >= 2 {
			return toks[i]
		}
	}
	return ""
}

func splitOnEnumeration(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	start := 0
	rs := []rune(s)
	for i, r := range rs {
		if r == '、' || r == '，' || r == ',' {
			if i > start {
				out = append(out, string(rs[start:i]))
			}
			start = i + 1
		}
	}
	if start < len(rs) {
		out = append(out, string(rs[start:]))
	}
	return out
}
