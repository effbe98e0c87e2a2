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
	"slices"
	"sort"
	"strings"
	"sync"
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
//
// A window of text classifies by the rules of the package doc, tried
// in this order: a region; a gazetteer stem + place suffix (清河+市) or
// + org suffix (蚂蚁+金服); a surname + given-name runes. Every
// lexicon word is Han, so a window that classifies is all Han. Requiring
// a known stem keeps the suffix rules from swallowing preceding function
// words (于清+河).
type Recognizer struct {
	// lex holds the words a window can begin with — regions, stems
	// and surnames — and every stem composed with every org suffix,
	// each weighted with its kind bits, so one walk from a window start
	// finds every rule's prefix.
	lex *trie.Trie
	// starts holds the first runes of lex's words: RecognizeAppend walks lex
	// at no other rune. placeSuffix and given hold the place suffixes
	// and the given-name runes, the rules' tails.
	starts, placeSuffix, given runeSet
}

// The kind bits of a lex word's weight; one word may carry several.
const (
	lexRegion  = 1 << iota // a region: its window is a Place
	lexStem                // a two-rune gazetteer stem (清河, 蚂蚁)
	lexSurname             // a one- or two-rune surname
	lexOrg                 // a stem + org suffix of four or five runes: an Org
)

// New returns the Recognizer over the embedded lexicons. They never
// change, so every call shares one, built on the first.
func New() *Recognizer { return shared() }

var shared = sync.OnceValue(build)

func build() *Recognizer {
	kinds := make(map[string]uint8)
	for _, s := range lexicon.Regions() {
		kinds[s] |= lexRegion
	}
	for _, s := range lexicon.Surnames() {
		if n := utf8.RuneCountInString(s); n == 1 || n == 2 {
			kinds[s] |= lexSurname
		}
	}
	suffixes := append(lexicon.OrgSuffixes(), lexicon.OrgIndustry()...)
	for _, stem := range append(lexicon.PlaceStems(), lexicon.OrgStems()...) {
		if utf8.RuneCountInString(stem) != 2 {
			continue
		}
		kinds[stem] |= lexStem
		for _, suf := range suffixes {
			if n := utf8.RuneCountInString(suf); n == 2 || n == 3 {
				kinds[stem+suf] |= lexOrg
			}
		}
	}
	r := &Recognizer{lex: trie.New()}
	for w, k := range kinds {
		r.lex.InsertWeighted(w, float64(k))
		c, _ := utf8.DecodeRuneInString(w)
		r.starts.add(c)
	}
	r.lex.Freeze()
	for _, s := range lexicon.PlaceSuffixes() {
		if c, n := utf8.DecodeRuneInString(s); n == len(s) {
			r.placeSuffix.add(c)
		}
	}
	for _, g := range lexicon.GivenChars() {
		for _, c := range g {
			r.given.add(c)
		}
	}
	return r
}

// runeSet is a bitset over runes: bit c of word c>>6.
type runeSet []uint64

func (s *runeSet) add(c rune) {
	for int(c>>6) >= len(*s) {
		*s = append(*s, 0)
	}
	(*s)[c>>6] |= 1 << (c & 63)
}

func (s runeSet) has(c rune) bool {
	i := uint(c) >> 6
	return i < uint(len(s)) && s[i]&(1<<(c&63)) != 0
}

// maxWindow is the longest lexicon-composed entity form, in runes.
const maxWindow = 6

// windows[l] is the kind of the l-rune window at a start, for l up to
// maxWindow; None where the window does not classify.
type windows [maxWindow + 1]Kind

// classify returns the kind of every window at rs[i] of two to
// maxWindow runes, as far as rs reaches, from one walk of lex (ms is
// the walk's scratch, returned for reuse). It applies the rules from
// the last in Recognizer's order to the first, each overwriting, so a
// window gets the kind of the first rule that accepts it.
func (r *Recognizer) classify(rs []rune, i int, ms []trie.Match) (windows, []trie.Match) {
	var win windows
	n := min(maxWindow, len(rs)-i)
	ms = r.lex.MatchesFromAppend(rs, i, ms[:0])
	for _, m := range ms {
		// surname + one or two given-name runes.
		if uint8(m.Weight)&lexSurname != 0 {
			for l := m.Len + 1; l <= m.Len+2 && l <= n && r.given.has(rs[i+l-1]); l++ {
				win[l] = Person
			}
		}
	}
	for _, m := range ms {
		k := uint8(m.Weight)
		if k&lexStem != 0 && n >= 3 && r.placeSuffix.has(rs[i+2]) {
			win[3] = Place
		}
		if k&lexOrg != 0 && m.Len <= n {
			win[m.Len] = Org
		}
	}
	for _, m := range ms {
		if uint8(m.Weight)&lexRegion != 0 && m.Len >= 2 && m.Len <= n {
			win[m.Len] = Place
		}
	}
	return win, ms
}

// scratch is one RecognizeAppend call's working memory: the decoded
// text and the trie walk's hits.
type scratch struct {
	runes   []rune
	matches []trie.Match
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// RecognizeAppend scans text and appends all recognized entity spans to
// dst: at each position a book-quoted 《…》 span, else the longest
// window that classifies, non-overlapping. A span's Text is a
// substring of text (of its valid UTF-8 spelling, which writes each
// invalid byte as U+FFFD). Passing a recycled dst (dst[:0]) keeps a
// call on valid UTF-8 allocation-free.
//
//cnp:noalloc
func (r *Recognizer) RecognizeAppend(dst []Span, text string) []Span {
	sc := scratchPool.Get().(*scratch)
	rs := sc.runes[:0]
	valid := true
	for at, c := range text {
		if c == utf8.RuneError && !strings.HasPrefix(text[at:], "\uFFFD") {
			valid = false
		}
		rs = append(rs, c)
	}
	if !valid {
		//cnp:allow noallochot (cold path: only texts carrying invalid UTF-8)
		text = string(rs)
	}
	ms := sc.matches
	// b is the byte offset of rune i in text.
	for i, b := 0, 0; i < len(rs); {
		c := rs[i]
		if c == '《' {
			if j := indexRune(rs, i+1, '》'); j > i {
				e := b + byteLen(rs[i:j+1])
				dst = append(dst, Span{Text: text[b:e], Kind: Work, Start: i, End: j + 1})
				i, b = j+1, e
				continue
			}
		}
		if r.starts.has(c) {
			var win windows
			win, ms = r.classify(rs, i, ms)
			if l := longest(&win); l > 0 {
				e := b + byteLen(rs[i:i+l])
				dst = append(dst, Span{Text: text[b:e], Kind: win[l], Start: i, End: i + l})
				i, b = i+l, e
				continue
			}
		}
		b += utf8.RuneLen(c)
		i++
	}
	sc.runes, sc.matches = rs, ms
	scratchPool.Put(sc)
	return dst
}

// longest returns the length of the longest window that classifies,
// or 0.
func longest(win *windows) int {
	for l := maxWindow; l >= 2; l-- {
		if win[l] != None {
			return l
		}
	}
	return 0
}

// byteLen returns the UTF-8 length of rs, which hold only valid runes.
func byteLen(rs []rune) int {
	n := 0
	for _, c := range rs {
		n += utf8.RuneLen(c)
	}
	return n
}

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
	ids    map[string]uint32 // word → its index in counts
	counts []wordCount
	// toks and ne are Observe's scratch: one sentence's Han tokens
	// and NE texts, as indexes.
	toks, ne []uint32
}

// wordCount is one word's occurrences: as a named entity, and in all.
type wordCount struct{ ne, total int }

// NewSupport returns an empty support accumulator.
func NewSupport() *Support {
	return &Support{ids: make(map[string]uint32)}
}

// index returns w's index in counts, adding w when it is new. Tokens
// from the zero-copy segmenter are substrings of whole page texts, so
// a new word is cloned: a long-lived accumulator (the persistent
// update evidence) never pins its callers' backing strings.
func (s *Support) index(w string) uint32 {
	i, ok := s.ids[w]
	if !ok {
		i = uint32(len(s.counts))
		s.ids[strings.Clone(w)] = i
		s.counts = append(s.counts, wordCount{})
	}
	return i
}

// Observe records the tokens of one segmented sentence together with
// the recognizer's spans over the raw sentence: every Han token counts
// toward total, and one equal to an NE span's text (or a work's title
// without its 《》) counts toward ne.
func (s *Support) Observe(tokens []string, spans []Span) {
	toks := s.toks[:0]
	for _, t := range tokens {
		if runes.AllHan(t) {
			i := s.index(t)
			s.counts[i].total++
			toks = append(toks, i)
		}
	}
	// Looked up only after the tokens are indexed, an NE text that a
	// token first added finds that token's index; one no token equals
	// finds none or an index no token has.
	ne := s.ne[:0]
	for _, sp := range spans {
		if i, ok := s.ids[sp.Text]; ok {
			ne = append(ne, i)
		}
		if strings.HasPrefix(sp.Text, "《") || strings.HasSuffix(sp.Text, "》") {
			if i, ok := s.ids[strings.Trim(sp.Text, "《》")]; ok {
				ne = append(ne, i)
			}
		}
	}
	// Sorted, a token's test costs log(entities): a text naming
	// thousands does not cost tokens × entities.
	slices.Sort(ne)
	for _, i := range toks {
		if _, isNE := slices.BinarySearch(ne, i); isNE {
			s.counts[i].ne++
		}
	}
	s.toks, s.ne = toks, ne
}

// ObserveWord directly records one occurrence of w, as NE or not. Used
// when the caller already knows the role (e.g. page titles are NEs by
// construction).
func (s *Support) ObserveWord(w string, asNE bool) {
	c := &s.counts[s.index(w)]
	c.total++
	if asNE {
		c.ne++
	}
}

// get returns w's counts, zero when w was never seen.
func (s *Support) get(w string) wordCount {
	if i, ok := s.ids[w]; ok {
		return s.counts[i]
	}
	return wordCount{}
}

// S1 returns NE(w)/total(w), or 0 when w was never observed.
func (s *Support) S1(w string) float64 {
	c := s.get(w)
	if c.total == 0 {
		return 0
	}
	return float64(c.ne) / float64(c.total)
}

// Observed reports whether w was seen at all.
func (s *Support) Observed(w string) bool { return s.get(w).total > 0 }

// Merge folds another accumulator's observations into s. Counts only
// add, so merging per-batch accumulators in any order produces the
// same totals as observing everything into one accumulator.
func (s *Support) Merge(o *Support) {
	if o == nil {
		return
	}
	for w, i := range o.ids {
		s.Import(w, o.counts[i].ne, o.counts[i].total)
	}
}

// Words returns every word s has observed, in unspecified order.
func (s *Support) Words() []string {
	out := make([]string, 0, len(s.ids))
	for w, i := range s.ids {
		if s.counts[i].total > 0 {
			out = append(out, w)
		}
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

// Entries returns the counts of every observed word sorted by word,
// for deterministic serialization.
func (s *Support) Entries() []SupportEntry {
	out := make([]SupportEntry, 0, len(s.ids))
	for w, i := range s.ids {
		if c := s.counts[i]; c.total > 0 {
			out = append(out, SupportEntry{Word: w, NE: c.ne, Total: c.total})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Word < out[j].Word })
	return out
}

// Import adds previously exported counts for one word — the
// deserialization counterpart of Entries. Negative counts add nothing.
func (s *Support) Import(w string, ne, total int) {
	if ne <= 0 && total <= 0 {
		return
	}
	c := &s.counts[s.index(w)]
	c.ne += max(ne, 0)
	c.total += max(total, 0)
}
