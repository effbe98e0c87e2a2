// Package ner implements the named-entity recognition substrate the
// verification module needs (paper Section III-B). The paper's NE
// filter only requires an occurrence statistic — how often a word
// appears as a named entity versus in total across a text corpus — so
// the recognizer is a deterministic lexicon + rule system over the same
// vocabulary the synthetic corpus is rendered from:
//
//   - person names: known surname followed by 1–2 given-name runes;
//   - place names: region lexicon hits, or stem + place suffix;
//   - organization names: stem + org suffix/industry word;
//   - work titles: 《…》 book-quoted spans.
//
// Support(w) aggregates recognition decisions over a corpus into the
// s1 statistic of Equation (2).
package ner

import (
	"sort"
	"strings"
	"unicode/utf8"

	"cnprobase/internal/lexicon"
	"cnprobase/internal/runes"
	"cnprobase/internal/trie"
)

// Kind classifies a recognized named entity.
type Kind int

const (
	// None marks a non-entity.
	None Kind = iota
	// Person is a personal name.
	Person
	// Place is a location name.
	Place
	// Org is an organization name.
	Org
	// Work is a creative-work title.
	Work
)

// String returns a short label for the kind.
func (k Kind) String() string {
	switch k {
	case Person:
		return "person"
	case Place:
		return "place"
	case Org:
		return "org"
	case Work:
		return "work"
	default:
		return "none"
	}
}

// Span is one recognized entity occurrence inside a text.
type Span struct {
	Text  string
	Kind  Kind
	Start int // rune offset
	End   int // rune offset, exclusive
}

// Recognizer is a deterministic lexicon + rule NE recognizer. It is
// immutable after construction and safe for concurrent use.
type Recognizer struct {
	surnames    map[string]bool
	regions     map[string]bool
	placeSuffix map[string]bool
	orgSuffix   *trie.Trie
	givenChars  map[rune]bool
	// stems is the gazetteer of name stems that compose with suffixes
	// (清河+市, 蚂蚁+金服); requiring a known stem keeps the suffix
	// rules from swallowing preceding function words (于清+河).
	stems map[string]bool
	// starts has bit c set when rune c begins a region, a stem or a
	// surname; Recognize tries no window at any other rune.
	starts []uint64
}

// New builds a Recognizer from the embedded lexicons.
func New() *Recognizer {
	r := &Recognizer{
		surnames:    make(map[string]bool),
		regions:     make(map[string]bool),
		placeSuffix: make(map[string]bool),
		orgSuffix:   trie.New(),
		givenChars:  make(map[rune]bool),
		stems:       make(map[string]bool),
	}
	for _, s := range lexicon.Surnames() {
		r.surnames[s] = true
		r.addStart(s)
	}
	for _, s := range lexicon.Regions() {
		r.regions[s] = true
		r.addStart(s)
	}
	for _, s := range lexicon.PlaceSuffixes() {
		r.placeSuffix[s] = true
	}
	for _, s := range lexicon.OrgSuffixes() {
		r.orgSuffix.Insert(s)
	}
	for _, s := range lexicon.OrgIndustry() {
		r.orgSuffix.Insert(s)
	}
	for _, s := range append(lexicon.PlaceStems(), lexicon.OrgStems()...) {
		r.stems[s] = true
		r.addStart(s)
	}
	for _, g := range lexicon.GivenChars() {
		for _, c := range g {
			r.givenChars[c] = true
		}
	}
	// The suffix lexicon never changes after construction; compact it.
	r.orgSuffix.Freeze()
	return r
}

// addStart marks the first rune of the lexicon word w in starts.
func (r *Recognizer) addStart(w string) {
	c, _ := utf8.DecodeRuneInString(w)
	for int(c>>6) >= len(r.starts) {
		r.starts = append(r.starts, 0)
	}
	r.starts[c>>6] |= 1 << (c & 63)
}

// canStart reports whether a window beginning with c can be an entity.
func (r *Recognizer) canStart(c rune) bool {
	i := uint(c) >> 6
	return i < uint(len(r.starts)) && r.starts[i]&(1<<(c&63)) != 0
}

// Classify reports whether the word w, taken in isolation, looks like a
// named entity and of which kind. This is the primitive the NE-hypernym
// filter uses.
func (r *Recognizer) Classify(w string) Kind {
	if w == "" {
		return None
	}
	return r.classify(w, []rune(w), runes.AllHan(w))
}

// classify is Classify for a caller that already holds w's runes and
// knows whether they are all Han, as Recognize does for every window
// of a text it decoded once.
func (r *Recognizer) classify(w string, rs []rune, allHan bool) Kind {
	if r.regions[w] {
		return Place
	}
	// 《…》 quoted span.
	if len(rs) >= 3 && rs[0] == '《' && rs[len(rs)-1] == '》' {
		return Work
	}
	if !allHan || len(rs) < 2 {
		return None
	}
	// All Han means valid UTF-8, so the byte length of the two-rune stem
	// follows from its runes and the lexicons are probed with substrings.
	stem := utf8.RuneLen(rs[0]) + utf8.RuneLen(rs[1])
	switch len(rs) {
	case 3:
		// gazetteer stem + place suffix (清河+市).
		if r.placeSuffix[w[stem:]] && r.stems[w[:stem]] {
			return Place
		}
	case 4, 5:
		// gazetteer stem + org suffix (蚂蚁+金服, 清河+研究所).
		if r.orgSuffix.Contains(w[stem:]) && r.stems[w[:stem]] {
			return Org
		}
	}
	// surname + given-name runes.
	return r.personLike(w, rs)
}

// personLike reports whether w looks like surname + 1-2 given chars.
func (r *Recognizer) personLike(w string, rs []rune) Kind {
	try := func(surLen int) bool {
		if len(rs) < surLen+1 || len(rs) > surLen+2 {
			return false
		}
		sur := 0
		for _, c := range rs[:surLen] {
			sur += utf8.RuneLen(c)
		}
		if !r.surnames[w[:sur]] {
			return false
		}
		for _, c := range rs[surLen:] {
			if !r.givenChars[c] {
				return false
			}
		}
		return true
	}
	if try(1) || try(2) {
		return Person
	}
	return None
}

// Recognize scans text and returns all recognized entity spans, longest
// match first at each position, non-overlapping. The text is decoded
// once; every window tried is a substring of it, so a span's Text
// shares the text's memory.
func (r *Recognizer) Recognize(text string) []Span {
	rs := []rune(text)
	if !utf8.ValidString(text) {
		// Spans spell the bytes []rune replaced as U+FFFD, as the runes do.
		text = string(rs)
	}
	// off[i] is the byte offset of rune i, hanRun[i] the length of the
	// run of Han runes starting at i (as far as a window can reach).
	off := make([]int32, len(rs)+1)
	i := 0
	for at := range text {
		off[i] = int32(at)
		i++
	}
	off[len(rs)] = int32(len(text))
	hanRun := make([]uint8, len(rs))
	for i, run := len(rs)-1, uint8(0); i >= 0; i-- {
		if !runes.IsHan(rs[i]) {
			run = 0
		} else if run < maxWindow {
			run++
		}
		hanRun[i] = run
	}
	var out []Span
	for i := 0; i < len(rs); {
		// Book-quoted works.
		if rs[i] == '《' {
			if j := indexRune(rs, i+1, '》'); j > i {
				out = append(out, Span{Text: text[off[i]:off[j+1]], Kind: Work, Start: i, End: j + 1})
				i = j + 1
				continue
			}
		}
		// Every window classify accepts begins with a lexicon first rune
		// (a region, stem or surname), and one beginning with 《 would
		// have to end with the 》 the check above found none of.
		if !r.canStart(rs[i]) {
			i++
			continue
		}
		// Window classification: try longest window first.
		matched := false
		for l := min(maxWindow, len(rs)-i); l >= 2; l-- {
			w := text[off[i]:off[i+l]]
			if k := r.classify(w, rs[i:i+l], int(hanRun[i]) >= l); k != None {
				out = append(out, Span{Text: w, Kind: k, Start: i, End: i + l})
				i += l
				matched = true
				break
			}
		}
		if !matched {
			i++
		}
	}
	return out
}

// maxWindow is the longest lexicon-composed entity form, in runes.
const maxWindow = 6

func indexRune(rs []rune, from int, want rune) int {
	for i := from; i < len(rs); i++ {
		if rs[i] == want {
			return i
		}
	}
	return -1
}

// Support accumulates, per word, how often it occurred as a named
// entity versus in total: the s1(H)=NE(H)/total(H) statistic of the
// paper's Equation (2) context.
type Support struct {
	ne    map[string]int
	total map[string]int
}

// NewSupport returns an empty support accumulator.
func NewSupport() *Support {
	return &Support{ne: make(map[string]int), total: make(map[string]int)}
}

// Observe records the tokens of one segmented sentence together with
// the recognizer's spans over the raw sentence: every token counts
// toward total, and tokens covered by an NE span count toward ne.
// Tokens from the zero-copy segmenter are substrings of whole page
// texts, so keys are cloned on first insertion — a long-lived
// accumulator (the persistent update evidence) never pins its
// callers' backing strings.
func (s *Support) Observe(tokens []string, spans []Span) {
	neText := make(map[string]bool, len(spans))
	for _, sp := range spans {
		neText[strings.Trim(sp.Text, "《》")] = true
		neText[sp.Text] = true
	}
	for _, t := range tokens {
		if !runes.AllHan(t) {
			continue
		}
		isNE := neText[t]
		if _, ok := s.total[t]; !ok {
			t = strings.Clone(t)
		}
		s.total[t]++
		if isNE {
			if _, ok := s.ne[t]; !ok {
				t = strings.Clone(t)
			}
			s.ne[t]++
		}
	}
}

// ObserveWord directly records one occurrence of w, as NE or not. Used
// when the caller already knows the role (e.g. page titles are NEs by
// construction).
func (s *Support) ObserveWord(w string, asNE bool) {
	s.total[w]++
	if asNE {
		s.ne[w]++
	}
}

// S1 returns NE(w)/total(w), or 0 when w was never observed.
func (s *Support) S1(w string) float64 {
	t := s.total[w]
	if t == 0 {
		return 0
	}
	return float64(s.ne[w]) / float64(t)
}

// Observed reports whether w was seen at all.
func (s *Support) Observed(w string) bool { return s.total[w] > 0 }

// Merge folds another accumulator's observations into s. Counts only
// add, so merging per-batch accumulators in any order produces the
// same totals as observing everything into one accumulator.
func (s *Support) Merge(o *Support) {
	if o == nil {
		return
	}
	for w, n := range o.total {
		s.total[w] += n
	}
	for w, n := range o.ne {
		s.ne[w] += n
	}
}

// Words returns every word s has observed, in unspecified order.
func (s *Support) Words() []string {
	out := make([]string, 0, len(s.total))
	for w := range s.total {
		out = append(out, w)
	}
	return out
}

// SupportEntry is one word's observation counts, as exported for
// serialization.
type SupportEntry struct {
	Word  string
	NE    int
	Total int
}

// Entries returns the observation counts sorted by word, for
// deterministic serialization.
func (s *Support) Entries() []SupportEntry {
	out := make([]SupportEntry, 0, len(s.total))
	for w, t := range s.total {
		out = append(out, SupportEntry{Word: w, NE: s.ne[w], Total: t})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Word < out[j].Word })
	return out
}

// Import adds previously exported counts for one word — the
// deserialization counterpart of Entries.
func (s *Support) Import(w string, ne, total int) {
	if total > 0 {
		s.total[w] += total
	}
	if ne > 0 {
		s.ne[w] += ne
	}
}
