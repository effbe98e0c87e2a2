// Package corpus accumulates word-level statistics over segmented text:
// unigram and adjacent-bigram counts, from which it derives the
// pointwise mutual information (PMI) scores that drive the paper's
// separation algorithm (Section II) and the word probabilities the
// Viterbi segmenter uses.
//
// Stats is safe for concurrent reads after all writes complete; the
// pipeline builds it in a single pass before extraction begins.
package corpus

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Stats holds unigram and adjacent-bigram counts over a segmented
// corpus. Words are interned to dense IDs in arrival order: a word is
// hashed once per occurrence, its count is a slot, and a bigram is one
// packed pair of IDs.
type Stats struct {
	ids     map[string]uint32 // word → ID
	words   []string          // ID → word
	counts  []int             // ID → unigram count
	bigrams map[uint64]int    // pairKey(a, b) → adjacency count
	total   int               // total unigram tokens observed
	pairs   int               // total adjacent pairs observed
}

// NewStats returns an empty statistics accumulator.
func NewStats() *Stats {
	return &Stats{ids: make(map[string]uint32), bigrams: make(map[uint64]int)}
}

// pairKey packs an ordered pair of word IDs (or of ranks) into one key.
func pairKey(a, b uint32) uint64 { return uint64(a)<<32 | uint64(b) }

// intern returns w's ID, assigning the next one. Tokens from the
// zero-copy segmenter are substrings of whole page texts, so a new word
// is cloned — Stats never pins its callers' backing strings (the clone
// cost is bounded by vocabulary size, not corpus size).
func (s *Stats) intern(w string) uint32 {
	if id, ok := s.ids[w]; ok {
		return id
	}
	w = strings.Clone(w)
	id := uint32(len(s.words))
	s.ids[w] = id
	s.words = append(s.words, w)
	s.counts = append(s.counts, 0)
	return id
}

// AddSentence records one segmented sentence: every non-empty word
// counts as a unigram and every adjacent pair of non-empty words as a
// bigram.
func (s *Stats) AddSentence(words []string) {
	var prev uint32
	havePrev := false
	for _, w := range words {
		if w == "" {
			havePrev = false
			continue
		}
		id := s.intern(w)
		s.counts[id]++
		s.total++
		if havePrev {
			s.bigrams[pairKey(prev, id)]++
			s.pairs++
		}
		prev, havePrev = id, true
	}
}

// Count returns the unigram count of w.
func (s *Stats) Count(w string) int {
	if id, ok := s.ids[w]; ok {
		return s.counts[id]
	}
	return 0
}

// PairCount returns the adjacency count of (a, b).
func (s *Stats) PairCount(a, b string) int {
	ia, ok := s.ids[a]
	if !ok {
		return 0
	}
	ib, ok := s.ids[b]
	if !ok {
		return 0
	}
	return s.bigrams[pairKey(ia, ib)]
}

// Tokens returns the total number of unigram tokens observed.
func (s *Stats) Tokens() int { return s.total }

// Pairs returns the total number of adjacent pairs observed.
func (s *Stats) Pairs() int { return s.pairs }

// VocabSize returns the number of distinct words observed.
func (s *Stats) VocabSize() int { return len(s.words) }

// PMI returns the smoothed pointwise mutual information of the adjacent
// pair (a, b):
//
//	PMI(a,b) = log( P(a,b) / (P(a) · P(b)) )
//
// with add-one smoothing on the joint count so unseen pairs get a large
// negative — but finite — score. A pair of unseen words returns the
// floor value.
func (s *Stats) PMI(a, b string) float64 {
	if s.total == 0 || s.pairs == 0 {
		return pmiFloor
	}
	ia, okA := s.ids[a]
	ib, okB := s.ids[b]
	if !okA || !okB {
		return pmiFloor
	}
	ca, cb := s.counts[ia], s.counts[ib]
	joint := float64(s.bigrams[pairKey(ia, ib)]) + smoothing
	pJoint := joint / (float64(s.pairs) + smoothing*float64(len(s.bigrams)+1))
	pa := float64(ca) / float64(s.total)
	pb := float64(cb) / float64(s.total)
	v := math.Log(pJoint / (pa * pb))
	if v < pmiFloor {
		return pmiFloor
	}
	return v
}

const (
	smoothing = 0.1
	pmiFloor  = -20.0
)

// Probability returns the smoothed unigram probability of w, used as the
// word cost in the Viterbi segmenter. Unknown words get a probability
// below every observed word.
func (s *Stats) Probability(w string) float64 {
	if s.total == 0 {
		return 1e-9
	}
	return (float64(s.Count(w)) + smoothing) / (float64(s.total) + smoothing*float64(len(s.words)+1))
}

// AppendBinary appends the statistics' binary form to dst and returns
// the extended slice. The form is canonical — equal counts give equal
// bytes, whatever order the words arrived in:
//
//	uvarint V, then V words ascending in byte order, each a uvarint
//	    length, the word's bytes and its uvarint count;
//	uvarint B, then B bigrams ascending by (rank a, rank b), a word's
//	    rank being its position in the table above, each as
//	    uvarint Δ rank a (from the previous bigram's; 0 at first),
//	    uvarint rank b − least (least is the previous rank b + 1 under
//	    a repeated rank a, else 0) and uvarint count.
//
// The words are sorted once; the bigrams are then sorted as packed
// integers.
func (s *Stats) AppendBinary(dst []byte) []byte {
	order := make([]uint32, len(s.words)) // rank → ID
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int { return strings.Compare(s.words[a], s.words[b]) })
	rank := make([]uint32, len(order)) // ID → rank
	dst = binary.AppendUvarint(dst, uint64(len(order)))
	for r, id := range order {
		rank[id] = uint32(r)
		dst = binary.AppendUvarint(dst, uint64(len(s.words[id])))
		dst = append(dst, s.words[id]...)
		dst = binary.AppendUvarint(dst, uint64(s.counts[id]))
	}
	keys := make([]uint64, 0, len(s.bigrams))
	for k := range s.bigrams {
		keys = append(keys, pairKey(rank[k>>32], rank[uint32(k)]))
	}
	slices.Sort(keys)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	var prevA, least uint64
	for _, k := range keys {
		a, b := k>>32, k&math.MaxUint32
		if a != prevA {
			least = 0
		}
		dst = binary.AppendUvarint(dst, a-prevA)
		dst = binary.AppendUvarint(dst, b-least)
		dst = binary.AppendUvarint(dst, uint64(s.bigrams[pairKey(order[a], order[b])]))
		prevA, least = a, b+1
	}
	return dst
}

// ReadStats decodes the binary form AppendBinary writes. It checks
// everything a Stats built by AddSentence guarantees: words non-empty
// and strictly ascending, bigram ranks inside the word table and
// strictly ascending, every count in 1..MaxInt32 and both totals
// within an int — so the probabilities it yields are positive and its
// PMIs finite.
func ReadStats(b []byte) (*Stats, error) {
	s := NewStats()
	if err := decode(b, s); err != nil {
		return nil, err
	}
	return s, nil
}

// ValidateStats checks b exactly as ReadStats does — the same walk,
// the same errors — without building anything: it allocates nothing on
// success.
func ValidateStats(b []byte) error { return decode(b, nil) }

// decode is the one walk behind ReadStats and ValidateStats; into is
// nil when validating.
func decode(b []byte, into *Stats) error {
	r := reader{b: b}
	// Minimum encoded sizes: a word is a length, a byte and a count; a
	// bigram is three uvarints.
	nWords, err := r.count(3)
	if err != nil {
		return err
	}
	if into != nil {
		into.ids = make(map[string]uint32, nWords)
		into.words = make([]string, 0, nWords)
		into.counts = make([]int, 0, nWords)
	}
	var prev []byte
	var total, pairs int
	for i := 0; i < nWords; i++ {
		w, err := r.str()
		if err != nil {
			return err
		}
		if len(w) == 0 || (i > 0 && bytes.Compare(prev, w) >= 0) {
			return fmt.Errorf("corpus: statistics word %d is empty or out of order", i)
		}
		c, err := r.countValue()
		if err != nil {
			return err
		}
		if total > math.MaxInt-c {
			return fmt.Errorf("corpus: statistics token total overflows")
		}
		total += c
		if into != nil {
			word := string(w)
			into.ids[word] = uint32(i)
			into.words = append(into.words, word)
			into.counts = append(into.counts, c)
		}
		prev = w
	}
	nBigrams, err := r.count(3)
	if err != nil {
		return err
	}
	if into != nil {
		into.bigrams = make(map[uint64]int, nBigrams)
	}
	n := uint64(nWords)
	var a, least uint64
	for i := 0; i < nBigrams; i++ {
		da, err := r.uvarint()
		if err != nil {
			return err
		}
		db, err := r.uvarint()
		if err != nil {
			return err
		}
		if da != 0 {
			least = 0
		}
		// a ≤ n and least ≤ n hold throughout, so neither difference
		// wraps.
		if da >= n-a || db >= n-least {
			return fmt.Errorf("corpus: statistics bigram %d names a word outside the %d-word table", i, n)
		}
		a += da
		b := least + db
		c, err := r.countValue()
		if err != nil {
			return err
		}
		if pairs > math.MaxInt-c {
			return fmt.Errorf("corpus: statistics pair total overflows")
		}
		pairs += c
		if into != nil {
			into.bigrams[pairKey(uint32(a), uint32(b))] = c
		}
		least = b + 1
	}
	if r.off != len(r.b) {
		return fmt.Errorf("corpus: %d trailing bytes after statistics", len(r.b)-r.off)
	}
	if into != nil {
		into.total, into.pairs = total, pairs
	}
	return nil
}

// reader is a bounds-checked cursor over the binary form.
type reader struct {
	b   []byte
	off int
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("corpus: statistics truncated or overlong varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// count reads an element count the remaining bytes can hold at
// minBytes an element, so a bogus count never drives a long loop or a
// large allocation.
func (r *reader) count(minBytes int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64((len(r.b)-r.off)/minBytes) {
		return 0, fmt.Errorf("corpus: statistics element count %d exceeds the remaining %d bytes", v, len(r.b)-r.off)
	}
	return int(v), nil
}

// countValue reads an observation count, which AddSentence never
// leaves outside 1..MaxInt32.
func (r *reader) countValue() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v == 0 || v > math.MaxInt32 {
		return 0, fmt.Errorf("corpus: statistics count %d outside 1..%d", v, math.MaxInt32)
	}
	return int(v), nil
}

// str reads a uvarint-length-prefixed byte string, aliasing the input.
func (r *reader) str() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)-r.off) {
		return nil, fmt.Errorf("corpus: statistics word length %d exceeds the remaining %d bytes", n, len(r.b)-r.off)
	}
	s := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return s, nil
}
