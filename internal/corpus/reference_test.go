package corpus

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// refStats is the string-keyed accumulator Stats replaced, kept as the
// oracle of TestStatsModel: unigrams by word, bigrams by a struct of
// the two words.
type refStats struct {
	unigrams map[string]int
	bigrams  map[refPair]int
	total    int
	pairs    int
}

type refPair struct{ a, b string }

func newRefStats() *refStats {
	return &refStats{unigrams: make(map[string]int), bigrams: make(map[refPair]int)}
}

func (s *refStats) AddSentence(words []string) {
	for i, w := range words {
		if w == "" {
			continue
		}
		s.unigrams[w]++
		s.total++
		if i+1 < len(words) && words[i+1] != "" {
			s.bigrams[refPair{w, words[i+1]}]++
			s.pairs++
		}
	}
}

func (s *refStats) PMI(a, b string) float64 {
	if s.total == 0 || s.pairs == 0 {
		return pmiFloor
	}
	ca, cb := s.unigrams[a], s.unigrams[b]
	if ca == 0 || cb == 0 {
		return pmiFloor
	}
	joint := float64(s.bigrams[refPair{a, b}]) + smoothing
	pJoint := joint / (float64(s.pairs) + smoothing*float64(len(s.bigrams)+1))
	pa := float64(ca) / float64(s.total)
	pb := float64(cb) / float64(s.total)
	v := math.Log(pJoint / (pa * pb))
	if v < pmiFloor {
		return pmiFloor
	}
	return v
}

func (s *refStats) Probability(w string) float64 {
	if s.total == 0 {
		return 1e-9
	}
	return (float64(s.unigrams[w]) + smoothing) / (float64(s.total) + smoothing*float64(len(s.unigrams)+1))
}

// modelWords is the vocabulary TestStatsModel draws from: the empty
// token AddSentence skips, words that need escaping in any text form,
// prefixes of each other, and bytes that are not UTF-8.
var modelWords = []string{
	"", "", "首席", "首席官", "战略官", "金服", "a", "ab", "\"", "\\", "\n", "\x00", "\xff", "\xff\xfe", "é", "é", "🙂",
}

// TestStatsModel drives Stats and the string-keyed oracle with the same
// random sentences and holds every reader equal after each one — PMI
// to the bit — and the binary form to a round trip that reads the
// same and re-encodes to the same bytes.
func TestStatsModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, ref := NewStats(), newRefStats()
		for step := 0; step < 30; step++ {
			sent := make([]string, rng.Intn(8))
			for i := range sent {
				sent[i] = modelWords[rng.Intn(len(modelWords))]
			}
			s.AddSentence(sent)
			ref.AddSentence(sent)

			enc := s.AppendBinary(nil)
			if err := ValidateStats(enc); err != nil {
				t.Fatalf("seed %d step %d: ValidateStats: %v", seed, step, err)
			}
			back, err := ReadStats(enc)
			if err != nil {
				t.Fatalf("seed %d step %d: ReadStats: %v", seed, step, err)
			}
			if again := back.AppendBinary(nil); !bytes.Equal(again, enc) {
				t.Fatalf("seed %d step %d: re-encoding the decoded statistics changed the bytes", seed, step)
			}
			for _, got := range []*Stats{s, back} {
				if got.Tokens() != ref.total || got.Pairs() != ref.pairs || got.VocabSize() != len(ref.unigrams) {
					t.Fatalf("seed %d step %d: totals (%d, %d, %d), oracle (%d, %d, %d)", seed, step,
						got.Tokens(), got.Pairs(), got.VocabSize(), ref.total, ref.pairs, len(ref.unigrams))
				}
				for _, a := range modelWords {
					if got.Count(a) != ref.unigrams[a] {
						t.Fatalf("seed %d step %d: Count(%q) = %d, oracle %d", seed, step, a, got.Count(a), ref.unigrams[a])
					}
					if p, q := got.Probability(a), ref.Probability(a); math.Float64bits(p) != math.Float64bits(q) {
						t.Fatalf("seed %d step %d: Probability(%q) = %v, oracle %v", seed, step, a, p, q)
					}
					for _, b := range modelWords {
						if got.PairCount(a, b) != ref.bigrams[refPair{a, b}] {
							t.Fatalf("seed %d step %d: PairCount(%q, %q) = %d, oracle %d", seed, step, a, b, got.PairCount(a, b), ref.bigrams[refPair{a, b}])
						}
						if p, q := got.PMI(a, b), ref.PMI(a, b); math.Float64bits(p) != math.Float64bits(q) {
							t.Fatalf("seed %d step %d: PMI(%q, %q) = %v, oracle %v", seed, step, a, b, p, q)
						}
					}
				}
			}
		}
	}
}
