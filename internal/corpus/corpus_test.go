package corpus

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

func buildStats(sentences ...[]string) *Stats {
	s := NewStats()
	for _, sent := range sentences {
		s.AddSentence(sent)
	}
	return s
}

func TestCounts(t *testing.T) {
	s := buildStats(
		[]string{"蚂蚁", "金服", "首席", "战略官"},
		[]string{"首席", "战略官"},
	)
	if got := s.Count("首席"); got != 2 {
		t.Errorf("Count(首席) = %d, want 2", got)
	}
	if got := s.PairCount("首席", "战略官"); got != 2 {
		t.Errorf("PairCount(首席,战略官) = %d, want 2", got)
	}
	if got := s.PairCount("战略官", "首席"); got != 0 {
		t.Errorf("PairCount is directional; got %d, want 0", got)
	}
	if got := s.Tokens(); got != 6 {
		t.Errorf("Tokens = %d, want 6", got)
	}
	if got := s.Pairs(); got != 4 {
		t.Errorf("Pairs = %d, want 4", got)
	}
	if got := s.VocabSize(); got != 4 {
		t.Errorf("VocabSize = %d, want 4", got)
	}
}

func TestAddSentenceSkipsEmptyTokens(t *testing.T) {
	s := buildStats([]string{"a", "", "b"})
	if s.Tokens() != 2 {
		t.Errorf("Tokens = %d, want 2", s.Tokens())
	}
	if s.PairCount("a", "b") != 0 {
		t.Error("pair across empty token should not count")
	}
}

func TestPMIOrdering(t *testing.T) {
	// 首席+战略官 always adjacent; 金服+首席 rarely; so
	// PMI(首席,战略官) > PMI(金服,首席). This ordering is what drives
	// the separation algorithm.
	var sents [][]string
	for i := 0; i < 50; i++ {
		sents = append(sents, []string{"首席", "战略官"})
	}
	for i := 0; i < 50; i++ {
		sents = append(sents, []string{"蚂蚁", "金服"})
	}
	sents = append(sents, []string{"蚂蚁", "金服", "首席", "战略官"})
	s := buildStats(sents...)
	strong := s.PMI("首席", "战略官")
	weak := s.PMI("金服", "首席")
	if strong <= weak {
		t.Errorf("PMI(首席,战略官)=%.3f should exceed PMI(金服,首席)=%.3f", strong, weak)
	}
}

func TestPMIUnknownWordsFloor(t *testing.T) {
	s := buildStats([]string{"a", "b"})
	if got := s.PMI("x", "y"); got != -20.0 {
		t.Errorf("PMI of unknown pair = %v, want floor -20", got)
	}
	if got := NewStats().PMI("a", "b"); got != -20.0 {
		t.Errorf("PMI on empty stats = %v, want floor", got)
	}
}

func TestProbabilityMonotoneInCount(t *testing.T) {
	s := buildStats(
		[]string{"常见", "常见", "常见", "罕见"},
	)
	if s.Probability("常见") <= s.Probability("罕见") {
		t.Error("more frequent word must have higher probability")
	}
	if s.Probability("未见") >= s.Probability("罕见") {
		t.Error("unseen word must have lower probability than seen word")
	}
	if p := s.Probability("未见"); p <= 0 {
		t.Errorf("unseen probability must be positive, got %v", p)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	s := buildStats(
		[]string{"蚂蚁", "金服", "首席"},
		[]string{"首席", "战略官"},
	)
	got, err := ReadStats(s.AppendBinary(nil))
	if err != nil {
		t.Fatalf("ReadStats: %v", err)
	}
	if got.Tokens() != s.Tokens() || got.Pairs() != s.Pairs() {
		t.Fatalf("round trip totals: got (%d,%d), want (%d,%d)",
			got.Tokens(), got.Pairs(), s.Tokens(), s.Pairs())
	}
	if got.PMI("首席", "战略官") != s.PMI("首席", "战略官") {
		t.Error("PMI changed across serialization")
	}
}

// TestBinaryForm pins the documented layout on a two-sentence corpus.
func TestBinaryForm(t *testing.T) {
	s := buildStats([]string{"b", "a", "b"}, []string{"a", "b"})
	want := []byte{
		2, // words
		1, 'a', 2,
		1, 'b', 3,
		2,       // bigrams
		0, 1, 2, // (a, b) ×2: rank 0, rank 1 − 0
		1, 0, 1, // (b, a) ×1: Δ rank 1, rank 0 − 0
	}
	if got := s.AppendBinary(nil); !bytes.Equal(got, want) {
		t.Fatalf("AppendBinary = %v, want %v", got, want)
	}
}

func TestReadStatsRejectsGarbage(t *testing.T) {
	if _, err := ReadStats([]byte("not statistics")); err == nil {
		t.Fatal("ReadStats accepted garbage")
	}
}

// TestReadStatsRejectsImplausible crafts forms no AddSentence history
// can produce. Each must be refused, by ReadStats and ValidateStats
// with one error: a negative or huge count would make Probability
// negative and the segmenter's word costs NaN.
func TestReadStatsRejectsImplausible(t *testing.T) {
	uv := func(b []byte, xs ...uint64) []byte {
		for _, x := range xs {
			b = binary.AppendUvarint(b, x)
		}
		return b
	}
	word := func(b []byte, w string, count uint64) []byte {
		return uv(append(uv(b, uint64(len(w))), w...), count)
	}
	twoWords := word(word(uv(nil, 2), "a", 1), "b", 1)
	cases := map[string][]byte{
		"count above MaxInt32":     uv(word(uv(nil, 1), "a", math.MaxInt32+1), 0),
		"zero count":               uv(word(uv(nil, 1), "a", 0), 0),
		"count from a negative":    uv(word(uv(nil, 1), "a", uint64(1<<64-5)), 0),
		"empty word":               uv(word(uv(nil, 1), "", 1), 0),
		"words out of order":       uv(word(word(uv(nil, 2), "b", 1), "a", 1), 0),
		"repeated word":            uv(word(word(uv(nil, 2), "a", 1), "a", 1), 0),
		"first rank out of range":  uv(twoWords, 1, 2, 0, 1),
		"second rank out of range": uv(twoWords, 1, 0, 2, 1),
		"second rank wraps":        uv(twoWords, 2, 0, 0, 1, 0, math.MaxUint64, 1),
		"bigram count too large":   uv(twoWords, 1, 0, 1, math.MaxInt32+1),
		"bigram count zero":        uv(twoWords, 1, 0, 1, 0),
		"word count past the end":  uv(nil, 1000),
		"trailing bytes":           append(uv(twoWords, 0), 0),
		"truncated":                twoWords,
	}
	for name, b := range cases {
		_, readErr := ReadStats(b)
		validErr := ValidateStats(b)
		if readErr == nil || validErr == nil {
			t.Errorf("%s: accepted (ReadStats: %v, ValidateStats: %v)", name, readErr, validErr)
			continue
		}
		if readErr.Error() != validErr.Error() {
			t.Errorf("%s: ReadStats says %q, ValidateStats %q", name, readErr, validErr)
		}
	}
}

// TestValidateStatsAllocatesNothing pins the validate-only walk the
// mapped snapshot opener runs.
func TestValidateStatsAllocatesNothing(t *testing.T) {
	enc := buildStats([]string{"蚂蚁", "金服", "首席", "战略官"}, []string{"首席", "战略官"}).AppendBinary(nil)
	if n := testing.AllocsPerRun(100, func() {
		if err := ValidateStats(enc); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ValidateStats allocates %v times per call, want 0", n)
	}
}

// Property: PMI is finite and bounded below by the floor for any pair
// of observed words.
func TestQuickPMIBounded(t *testing.T) {
	f := func(raw [][2]byte) bool {
		s := NewStats()
		vocab := []string{"一", "二", "三", "四"}
		for _, pair := range raw {
			s.AddSentence([]string{vocab[int(pair[0])%4], vocab[int(pair[1])%4]})
		}
		for _, a := range vocab {
			for _, b := range vocab {
				p := s.PMI(a, b)
				if math.IsNaN(p) || math.IsInf(p, 0) || p < -20.0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
