package qa

import (
	"sort"

	"cnprobase/internal/serving"
	"cnprobase/internal/taxonomy"
)

// The oracle: the string-keyed algorithm the ID-native Understand and
// EvaluateSource replaced, kept verbatim and run against the compiled
// view's string API, with mentions found by its string scan (which
// internal/serving holds to a trie scan of the mention pairs) — a map and a sort.Strings per mention, one rune-slice
// conversion and one lookup per concept window. Slow and obviously
// right.

// reference is what the oracle reads.
type reference struct {
	view *serving.View
}

// Evaluate is the oracle of EvaluateSource.
func (src reference) Evaluate(questions []Question) CoverageResult {
	res := CoverageResult{Questions: len(questions)}
	conceptHits := 0
	conceptSum := 0
	var found []string
	for _, q := range questions {
		found = src.view.FindAllAppend(found[:0], q.Text)
		covered := false
		for _, m := range found {
			for _, id := range src.view.Lookup(m) {
				if n := len(src.view.Hypernyms(id)); n > 0 {
					covered = true
					conceptHits++
					conceptSum += n
					break
				}
			}
			if covered {
				break
			}
		}
		if !covered {
			// Concept mention: any taxonomy concept inside the text.
			if src.containsConcept(q.Text) {
				covered = true
			}
		}
		if covered {
			res.Covered++
		}
	}
	if conceptHits > 0 {
		res.AvgConceptsPerEntity = float64(conceptSum) / float64(conceptHits)
	}
	return res
}

// Understand is the oracle of Understand.
func (src reference) Understand(text string) Understanding {
	var u Understanding
	for _, sf := range src.view.FindAllAppend(nil, text) {
		ids := src.view.Lookup(sf)
		if len(ids) == 0 {
			continue
		}
		union := map[string]bool{}
		for _, id := range ids {
			for _, h := range src.view.Hypernyms(id) {
				union[h] = true
			}
		}
		concepts := make([]string, 0, len(union))
		for h := range union {
			concepts = append(concepts, h)
		}
		sort.Strings(concepts)
		if len(concepts) > 0 {
			u.Covered = true
		}
		u.Mentions = append(u.Mentions, EntityMention{Surface: sf, Entities: ids, Concepts: concepts})
	}
	u.Concepts = src.conceptWindows(text)
	if len(u.Concepts) > 0 {
		u.Covered = true
	}
	return u
}

// containsConcept scans the question for any concept node of the
// taxonomy using greedy windows up to 6 runes.
func (src reference) containsConcept(text string) bool {
	rs := []rune(text)
	for i := 0; i < len(rs); i++ {
		for l := 2; l <= 6 && i+l <= len(rs); l++ {
			w := string(rs[i : i+l])
			if src.view.Kind(w) == taxonomy.KindConcept {
				return true
			}
		}
	}
	return false
}

// conceptWindows returns the distinct concept nodes appearing verbatim
// in text (the windows containsConcept scans), in first-occurrence
// order.
func (src reference) conceptWindows(text string) []string {
	rs := []rune(text)
	var out []string
	for i := 0; i < len(rs); i++ {
		for l := 2; l <= 6 && i+l <= len(rs); l++ {
			w := string(rs[i : i+l])
			if src.view.Kind(w) != taxonomy.KindConcept {
				continue
			}
			dup := false
			for _, x := range out {
				if x == w {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, w)
			}
		}
	}
	return out
}
