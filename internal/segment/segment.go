// Package segment implements Chinese word segmentation on top of a
// dictionary trie. Chinese text has no word spaces, so the separation
// algorithm (paper Section II) depends on this substrate to turn a
// bracket noun compound into the word sequence (x1 … xn).
//
// Two algorithms are provided:
//
//   - Viterbi (default): dynamic programming over all dictionary
//     matches, maximizing the product of unigram word probabilities
//     (equivalently, minimizing summed negative log probabilities).
//     Unknown runes fall back to single-character "words" with a high
//     cost, so dictionary words are strongly preferred.
//   - Forward maximum matching (FMM): the classic greedy longest-match
//     baseline, exposed for comparison and used in tests as an oracle
//     cross-check.
//
// The Viterbi path is the hot loop of every corpus pass the build
// makes (statistics, NE evidence, separation, distant supervision), so
// it is engineered to allocate nothing in steady state: word costs are
// precomputed into the trie's weights at construction (no candidate
// string is ever materialized to look up its cost), spans and tokens
// are byte-offset slices of the input string, and all per-call state
// (lattice arrays, match buffer, span buffer) lives in a pooled
// scratch. Use CutAppend with a recycled destination slice to stay on
// that path; Cut is a convenience wrapper that allocates the result.
//
// A Segmenter is immutable after construction and safe for concurrent
// use.
package segment

import (
	"math"
	"sync"

	"cnprobase/internal/corpus"
	"cnprobase/internal/runes"
	"cnprobase/internal/trie"
)

// Segmenter cuts Chinese text into words using a dictionary and
// optional corpus statistics.
type Segmenter struct {
	// dict stores every dictionary word with its precomputed Viterbi
	// cost as the trie weight, so MatchesFrom hands the decoder
	// (length, cost) pairs directly.
	dict  *trie.Trie
	stats *corpus.Stats // may be nil: uniform word costs
	// unknownPenalty is the additional negative-log cost of emitting a
	// single unknown rune; it keeps the Viterbi path on dictionary words
	// whenever one covers the span.
	unknownPenalty float64
}

// Option configures a Segmenter.
type Option func(*Segmenter)

// WithStats supplies corpus statistics; word costs become smoothed
// unigram surprisals instead of uniform costs.
func WithStats(s *corpus.Stats) Option {
	return func(sg *Segmenter) { sg.stats = s }
}

// WithUnknownPenalty overrides the cost of unknown single runes.
func WithUnknownPenalty(p float64) Option {
	return func(sg *Segmenter) { sg.unknownPenalty = p }
}

// New builds a Segmenter over the given dictionary words.
func New(words []string, opts ...Option) *Segmenter {
	sg := &Segmenter{unknownPenalty: 14.0}
	for _, o := range opts {
		o(sg)
	}
	t := trie.New()
	for _, w := range words {
		if w != "" {
			t.InsertWeighted(w, sg.wordCost(w, true))
		}
	}
	t.Freeze()
	sg.dict = t
	return sg
}

// AddWord inserts an extra dictionary word (e.g. an entity title learned
// from page titles) with its precomputed cost, then re-freezes the
// dictionary so Cut stays on the compact-trie fast path. Word costs
// depend only on the word and the (immutable) corpus statistics, so
// insertion never invalidates other words' precomputed costs. Not safe
// to call concurrently with Cut. Re-freezing costs O(dictionary edges),
// so insert batches through AddWords.
func (sg *Segmenter) AddWord(w string) { sg.AddWords(w) }

// AddWords inserts several dictionary words, thawing at most once and
// re-freezing once at the end — the bulk form AddWord delegates to.
// Not safe to call concurrently with Cut.
func (sg *Segmenter) AddWords(ws ...string) {
	for _, w := range ws {
		if w != "" {
			sg.dict.InsertWeighted(w, sg.wordCost(w, true))
		}
	}
	sg.dict.Freeze()
}

// RefreshCosts recomputes every dictionary word's precomputed cost
// from the current corpus statistics. The statistics object supplied
// via WithStats is mutable; costs are frozen into the trie at
// construction, so a caller that extends the statistics afterwards
// (e.g. the incremental-update pipeline adding a crawl batch) must
// call RefreshCosts for segmentation to see the new probabilities.
// O(dictionary) and in place — the trie stays frozen. Not safe to
// call concurrently with Cut.
func (sg *Segmenter) RefreshCosts() {
	sg.dict.Reweight(func(w string, _ float64) float64 { return sg.wordCost(w, true) })
}

// DictSize returns the number of dictionary words.
func (sg *Segmenter) DictSize() int { return sg.dict.Size() }

// HasWord reports whether w is a dictionary word.
func (sg *Segmenter) HasWord(w string) bool { return sg.dict.Contains(w) }

// scratch is the per-call working set of CutAppend, recycled through a
// pool so steady-state segmentation performs zero heap allocations.
type scratch struct {
	spans []spanRange  // span partition of the input
	rs    []rune       // runes of the current Han span
	ofs   []int32      // byte offset of each rune + final end offset
	best  []float64    // minimal cost to segment rs[:i]
	back  []int32      // start of the last word in that segmentation
	match []trie.Match // per-position dictionary matches
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Cut segments text into words using Viterbi decoding. Punctuation and
// non-Han runs are emitted as their own tokens. Every token is a
// substring (shared bytes) of text.
func (sg *Segmenter) Cut(text string) []string {
	return sg.CutAppend(nil, text)
}

// CutAppend segments text like Cut but appends the tokens to dst and
// returns the extended slice. Passing a recycled dst (e.g. dst[:0]
// from the previous call) keeps the whole segmentation allocation-free
// in steady state — the batch loops of the build pipeline run on this
// entry point.
//
//cnp:noalloc
func (sg *Segmenter) CutAppend(dst []string, text string) []string {
	if text == "" {
		return dst
	}
	sc := scratchPool.Get().(*scratch)
	sc.spans = appendSpans(sc.spans[:0], text)
	for _, sp := range sc.spans {
		if sp.kind == spanHan {
			dst = sg.cutHan(dst, text[sp.start:sp.end], sc)
		} else {
			dst = append(dst, text[sp.start:sp.end])
		}
	}
	scratchPool.Put(sc)
	return dst
}

// wordCost returns the negative log probability of w as one token.
// Known-word costs are computed once per dictionary word at
// construction (or AddWord) and carried as trie weights; the decoder
// never calls this on the hot path.
func (sg *Segmenter) wordCost(w string, known bool) float64 {
	if !known {
		return sg.unknownPenalty * float64(runes.Len(w))
	}
	if sg.stats == nil {
		// Uniform cost with a mild preference for longer words.
		return 6.0 - 0.5*float64(runes.Len(w))
	}
	return -math.Log(sg.stats.Probability(w))
}

// growFloats returns a len-n float slice backed by buf when it has the
// capacity, so the lattice arrays stop allocating once warm.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}

func growInts(buf []int32, n int) []int32 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int32, n)
}

// cutHan Viterbi-decodes one pure-Han span, appending its tokens to
// dst. text is the span substring; all tokens are substrings of it.
//
//cnp:noalloc
func (sg *Segmenter) cutHan(dst []string, text string, sc *scratch) []string {
	rs, ofs := sc.rs[:0], sc.ofs[:0]
	for i, r := range text {
		rs = append(rs, r)
		ofs = append(ofs, int32(i))
	}
	ofs = append(ofs, int32(len(text)))
	sc.rs, sc.ofs = rs, ofs
	n := len(rs)
	if n == 0 {
		return dst
	}
	const inf = math.MaxFloat64
	best := growFloats(sc.best, n+1)
	back := growInts(sc.back, n+1)
	sc.best, sc.back = best, back
	best[0] = 0
	for i := 1; i <= n; i++ {
		best[i] = inf
	}
	match := sc.match
	for i := 0; i < n; i++ {
		if best[i] == inf {
			continue
		}
		// One trie walk per lattice position yields every candidate,
		// single runes included — Match.Weight is the precomputed word
		// cost, so no candidate string is ever built.
		match = sg.dict.MatchesFromAppend(rs, i, match[:0])
		single := sg.unknownPenalty // unknown single-rune fallback
		rest := match
		if len(match) > 0 && match[0].Len == 1 {
			single = match[0].Weight
			rest = match[1:]
		}
		if c := best[i] + single; c < best[i+1] {
			best[i+1] = c
			back[i+1] = int32(i)
		}
		for _, m := range rest {
			end := i + m.Len
			if c := best[i] + m.Weight; c < best[end] {
				best[end] = c
				back[end] = int32(i)
			}
		}
	}
	sc.match = match
	// Reconstruct: follow back pointers appending tokens last-to-first,
	// then reverse the appended region in place.
	base := len(dst)
	for i := n; i > 0; {
		j := back[i]
		dst = append(dst, text[ofs[j]:ofs[i]])
		i = int(j)
	}
	for l, r := base, len(dst)-1; l < r; l, r = l+1, r-1 {
		dst[l], dst[r] = dst[r], dst[l]
	}
	return dst
}

// CutFMM segments a pure-Han string with forward maximum matching, the
// greedy baseline.
func (sg *Segmenter) CutFMM(text string) []string {
	var out []string
	for _, span := range splitSpans(text) {
		if span.kind != spanHan {
			out = append(out, span.text)
			continue
		}
		rs := []rune(span.text)
		for i := 0; i < len(rs); {
			l := sg.dict.LongestFrom(rs, i)
			if l == 0 {
				l = 1
			}
			out = append(out, string(rs[i:i+l]))
			i += l
		}
	}
	return out
}

type spanKind int

const (
	spanHan spanKind = iota
	spanOther
	spanPunct
)

// spanRange is one maximal run, as byte offsets into the input.
type spanRange struct {
	start, end int32
	kind       spanKind
}

// span is the materialized form (kept for splitSpans and its tests).
type span struct {
	text string
	kind spanKind
}

// isSpace reports whether r is whitespace the segmenter drops (CRLF
// included, so Windows line endings never leak a \r into a token).
func isSpace(r rune) bool {
	return r == ' ' || r == '\t' || r == '\n' || r == '\r'
}

// appendSpans partitions text into maximal runs of Han runes,
// punctuation (one span per punct rune) and everything else (whole
// runs: latin words, numbers), appending byte-offset ranges to buf.
// Whitespace separates runs and is dropped. Every range is a verbatim
// byte range of text, invalid UTF-8 included (an invalid byte
// classifies as punctuation via utf8.RuneError but keeps its own
// 1-byte width).
//
//cnp:noalloc
func appendSpans(buf []spanRange, text string) []spanRange {
	cur := -1 // start byte of the open run, -1 = none
	curKind := spanOther
	for i, r := range text {
		var kind spanKind
		switch {
		case isSpace(r) || runes.IsPunct(r):
			if cur >= 0 {
				buf = append(buf, spanRange{start: int32(cur), end: int32(i), kind: curKind})
				cur = -1
			}
			if !isSpace(r) {
				// The punct span ends where the next rune starts; record
				// the start now and close it on the next iteration (or at
				// the end of text) so invalid bytes keep their true width.
				cur, curKind = i, spanPunct
			}
			continue
		case runes.IsHan(r):
			kind = spanHan
		default:
			kind = spanOther
		}
		if cur >= 0 && curKind != kind {
			buf = append(buf, spanRange{start: int32(cur), end: int32(i), kind: curKind})
			cur = -1
		}
		if cur < 0 {
			cur, curKind = i, kind
		}
	}
	if cur >= 0 {
		buf = append(buf, spanRange{start: int32(cur), end: int32(len(text)), kind: curKind})
	}
	return buf
}

// splitSpans partitions text into materialized spans; CutFMM and the
// span tests use this form, the hot path uses appendSpans directly.
func splitSpans(text string) []span {
	var out []span
	for _, sr := range appendSpans(nil, text) {
		out = append(out, span{text: text[sr.start:sr.end], kind: sr.kind})
	}
	return out
}

// IsContentToken reports whether a token produced by Cut is a content
// word (Han text) rather than punctuation, digits or latin runs.
func IsContentToken(tok string) bool { return runes.AllHan(tok) }
