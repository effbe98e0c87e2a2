package baselines

import (
	"math/rand"
	"strings"

	"cnprobase/internal/lexicon"
	"cnprobase/internal/runes"
	"cnprobase/internal/synth"
	"cnprobase/internal/taxonomy"
)

// ProbaseTranConfig tunes the translation baseline: English Probase →
// (machine translation) → Chinese taxonomy, filtered by the paper's
// three heuristics (meaning, transitivity, POS).
type ProbaseTranConfig struct {
	// EntityRate is the fraction of the world's entities that English
	// Probase knows about (Probase covers far fewer Chinese entities
	// than a Chinese encyclopedia: 405k vs 15M in Table I).
	EntityRate float64
	// WrongTranslationRate is the probability a concept translation
	// picks a wrong homonym (simulating the ambiguity the paper blames
	// for Probase-Tran's 54.5% precision).
	WrongTranslationRate float64
	// EnglishNoiseRate is English Probase's own error rate (~8%:
	// Probase's reported precision band).
	EnglishNoiseRate float64
	// FilterMeaning / FilterTransitivity / FilterPOS toggle the three
	// post-translation filters.
	FilterMeaning      bool
	FilterTransitivity bool
	FilterPOS          bool
	Seed               int64
}

// DefaultProbaseTranConfig mirrors the paper's setting: all three
// filters on, translation ambiguity dominating.
func DefaultProbaseTranConfig() ProbaseTranConfig {
	return ProbaseTranConfig{
		EntityRate:           0.25,
		WrongTranslationRate: 0.25,
		EnglishNoiseRate:     0.06,
		FilterMeaning:        true,
		FilterTransitivity:   true,
		FilterPOS:            true,
		Seed:                 23,
	}
}

// wrongHomonyms supplies realistic wrong translations: real Chinese
// nouns that an MT system plausibly picks for the ambiguous English
// word. These survive the meaning and POS filters — which is why the
// paper finds simple translation cannot produce a high-quality Chinese
// taxonomy.
var wrongHomonyms = map[string][]string{
	"model":        {"模型"},
	"host":         {"主机"},
	"work":         {"工作"},
	"film":         {"薄膜"},
	"band":         {"波段"},
	"bank":         {"河岸"},
	"novel":        {"新颖"},
	"plant":        {"工厂"},
	"country":      {"乡村"},
	"company":      {"连队"},
	"fish":         {"钓鱼"},
	"game":         {"猎物"},
	"song":         {"宋朝"},
	"singer":       {"缝纫机"},
	"director":     {"主任"},
	"doctor":       {"博士"},
	"teacher":      {"教师机"},
	"car":          {"车厢"},
	"mobile phone": {"移动"},
	"organization": {"组织结构"},
}

// TranReport describes what the translation pipeline did.
type TranReport struct {
	EnglishPairs   int
	Translated     int
	DroppedMeaning int
	DroppedPOS     int
	DroppedTrans   int
}

// BuildProbaseTran synthesizes an English Probase view of the world,
// translates it to Chinese with a noisy dictionary + transliteration,
// applies the three filters and returns the resulting taxonomy.
func BuildProbaseTran(w *synth.World, cfg ProbaseTranConfig) (*taxonomy.Taxonomy, TranReport) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var rep TranReport

	type enPair struct{ hypo, hyper string }
	var pairs []enPair
	conceptsEn := make([]string, 0, len(w.ConceptOrder))
	for _, name := range w.ConceptOrder {
		conceptsEn = append(conceptsEn, w.Concepts[name].En)
	}
	// Entity-concept pairs for the subset Probase knows.
	for _, e := range w.Entities {
		if rng.Float64() >= cfg.EntityRate {
			continue
		}
		for _, c := range e.Concepts {
			en := w.Concepts[c].En
			if rng.Float64() < cfg.EnglishNoiseRate {
				en = conceptsEn[rng.Intn(len(conceptsEn))] // Probase's own noise
			}
			pairs = append(pairs, enPair{hypo: e.English, hyper: en})
		}
	}
	// Concept-concept pairs from the ontology (Probase is concept
	// dense).
	for _, name := range w.ConceptOrder {
		ci := w.Concepts[name]
		if ci.Parent == "" {
			continue
		}
		pairs = append(pairs, enPair{hypo: ci.En, hyper: w.Concepts[ci.Parent].En})
	}
	rep.EnglishPairs = len(pairs)

	// ---- translate ----
	translateConcept := func(en string) string {
		if wrong, ok := wrongHomonyms[en]; ok && rng.Float64() < cfg.WrongTranslationRate {
			return wrong[rng.Intn(len(wrong))]
		}
		if zh, ok := lexicon.FromEnglish(en); ok {
			return zh
		}
		return "" // untranslatable
	}
	translateNode := func(en string) string {
		if _, ok := lexicon.FromEnglish(en); ok {
			return translateConcept(en) // concept: dictionary, maybe wrong homonym
		}
		return transliterate(en) // entity label: syllable inversion
	}

	type zhPair struct{ hypo, hyper string }
	var zhPairs []zhPair
	for _, p := range pairs {
		hypo := translateNode(p.hypo)
		hyper := translateConcept(p.hyper)
		if hypo == "" || hyper == "" || hypo == hyper {
			rep.DroppedMeaning++
			continue
		}
		zhPairs = append(zhPairs, zhPair{hypo, hyper})
	}
	rep.Translated = len(zhPairs)

	// ---- the three filters ----
	dictionary := make(map[string]bool)
	for _, wd := range lexicon.BaseDictionary() {
		dictionary[wd] = true
	}
	edgeSet := make(map[zhPair]bool, len(zhPairs))
	for _, p := range zhPairs {
		edgeSet[p] = true
	}
	tax := taxonomy.New()
	for _, p := range zhPairs {
		// (1) meaning: the hypernym must be a real Chinese lexicon
		// word (garbled translations die here).
		if cfg.FilterMeaning && !dictionary[p.hyper] && !runes.AllHan(p.hyper) {
			rep.DroppedMeaning++
			continue
		}
		// (2) POS: hypernym must be noun-like — at least two Han runes
		// and not a function word.
		if cfg.FilterPOS && (!runes.AllHan(p.hyper) || runes.Len(p.hyper) < 2) {
			rep.DroppedPOS++
			continue
		}
		// (3) transitivity: drop 2-cycles introduced by translation
		// collapsing two English words onto one Chinese word.
		if cfg.FilterTransitivity && edgeSet[zhPair{p.hyper, p.hypo}] {
			rep.DroppedTrans++
			continue
		}
		if err := tax.AddIsA(p.hypo, p.hyper, taxonomy.SourceTranslation); err != nil {
			continue
		}
		if !w.IsConcept(p.hypo) {
			tax.MarkEntity(p.hypo)
		}
	}
	return tax, rep
}

// transliterate inverts a romanized person name syllable by syllable,
// picking the position-appropriate canonical character: the surname
// table for the first field, the given-name table afterwards. It is
// right only when the original characters were the canonical ones —
// the ambiguity that wrecks entity translation.
func transliterate(en string) string {
	parts := strings.Fields(strings.ToLower(en))
	var out strings.Builder
	for pi, part := range parts {
		for _, syl := range splitSyllables(part) {
			var (
				ch string
				ok bool
			)
			if pi == 0 {
				ch, ok = lexicon.PinyinToChar(syl)
			} else {
				ch, ok = lexicon.PinyinToGivenChar(syl)
			}
			if !ok {
				return ""
			}
			out.WriteString(ch)
		}
	}
	return out.String()
}

// splitSyllables greedily cuts a concatenated pinyin string into known
// syllables, longest first.
func splitSyllables(s string) []string {
	var out []string
	for len(s) > 0 {
		matched := ""
		for l := len(s); l >= 1; l-- {
			if _, ok := lexicon.PinyinToChar(s[:l]); ok {
				matched = s[:l]
				break
			}
		}
		if matched == "" {
			return nil
		}
		out = append(out, matched)
		s = s[len(matched):]
	}
	return out
}
