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
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
)

// pairKey is an adjacency key for bigram counts. Using a struct key
// avoids the ambiguity of string concatenation.
type pairKey struct{ a, b string }

// Stats holds unigram and adjacent-bigram counts over a segmented
// corpus.
type Stats struct {
	unigrams map[string]int
	bigrams  map[pairKey]int
	total    int // total unigram tokens observed
	pairs    int // total adjacent pairs observed
}

// NewStats returns an empty statistics accumulator.
func NewStats() *Stats {
	return &Stats{
		unigrams: make(map[string]int),
		bigrams:  make(map[pairKey]int),
	}
}

// AddSentence records one segmented sentence: every word counts as a
// unigram and every adjacent pair as a bigram. Tokens from the
// zero-copy segmenter are substrings of whole page texts, so keys are
// cloned on first insertion — Stats never pins its callers' backing
// strings (the clone cost is bounded by vocabulary size, not corpus
// size).
func (s *Stats) AddSentence(words []string) {
	for i, w := range words {
		if w == "" {
			continue
		}
		if _, ok := s.unigrams[w]; !ok {
			w = strings.Clone(w)
		}
		s.unigrams[w]++
		s.total++
		if i+1 < len(words) && words[i+1] != "" {
			k := pairKey{w, words[i+1]}
			if _, ok := s.bigrams[k]; !ok {
				k = pairKey{strings.Clone(k.a), strings.Clone(k.b)}
			}
			s.bigrams[k]++
			s.pairs++
		}
	}
}

// Count returns the unigram count of w.
func (s *Stats) Count(w string) int { return s.unigrams[w] }

// PairCount returns the adjacency count of (a, b).
func (s *Stats) PairCount(a, b string) int { return s.bigrams[pairKey{a, b}] }

// Tokens returns the total number of unigram tokens observed.
func (s *Stats) Tokens() int { return s.total }

// Pairs returns the total number of adjacent pairs observed.
func (s *Stats) Pairs() int { return s.pairs }

// VocabSize returns the number of distinct words observed.
func (s *Stats) VocabSize() int { return len(s.unigrams) }

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
	ca, cb := s.unigrams[a], s.unigrams[b]
	if ca == 0 || cb == 0 {
		return pmiFloor
	}
	joint := float64(s.bigrams[pairKey{a, b}]) + smoothing
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
	c := s.unigrams[w]
	return (float64(c) + smoothing) / (float64(s.total) + smoothing*float64(len(s.unigrams)+1))
}

// TopWords returns the n most frequent words (ties broken
// lexicographically for determinism).
func (s *Stats) TopWords(n int) []string {
	type wc struct {
		w string
		c int
	}
	all := make([]wc, 0, len(s.unigrams))
	for w, c := range s.unigrams {
		all = append(all, wc{w, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].w < all[j].w
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].w
	}
	return out
}

// statsJSON is the serialization schema for Stats.
type statsJSON struct {
	Unigrams map[string]int `json:"unigrams"`
	Bigrams  []bigramJSON   `json:"bigrams"`
}

type bigramJSON struct {
	A string `json:"a"`
	B string `json:"b"`
	N int    `json:"n"`
}

// countingWriter counts the bytes its writer accepted.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// WriteTo serializes the statistics as JSON and returns the number of
// bytes written to w (io.WriterTo).
func (s *Stats) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	enc := json.NewEncoder(bw)
	out := statsJSON{Unigrams: s.unigrams}
	out.Bigrams = make([]bigramJSON, 0, len(s.bigrams))
	for k, n := range s.bigrams {
		out.Bigrams = append(out.Bigrams, bigramJSON{A: k.a, B: k.b, N: n})
	}
	slices.SortFunc(out.Bigrams, func(x, y bigramJSON) int {
		return cmp.Or(strings.Compare(x.A, y.A), strings.Compare(x.B, y.B))
	})
	if err := enc.Encode(out); err != nil {
		return cw.n, fmt.Errorf("corpus: encode stats: %w", err)
	}
	err := bw.Flush()
	return cw.n, err
}

// ReadStats deserializes statistics written by WriteTo.
func ReadStats(r io.Reader) (*Stats, error) {
	var in statsJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("corpus: decode stats: %w", err)
	}
	s := NewStats()
	for w, c := range in.Unigrams {
		s.unigrams[w] = c
		s.total += c
	}
	for _, b := range in.Bigrams {
		s.bigrams[pairKey{b.A, b.B}] = b.N
		s.pairs += b.N
	}
	return s, nil
}
