package corpus

import (
	"bytes"
	"io"
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

func TestTopWords(t *testing.T) {
	s := buildStats([]string{"b", "a", "b", "c", "b", "a"})
	got := s.TopWords(2)
	if len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Errorf("TopWords = %v, want [b a]", got)
	}
	if n := len(s.TopWords(100)); n != 3 {
		t.Errorf("TopWords(100) len = %d, want 3", n)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	s := buildStats(
		[]string{"蚂蚁", "金服", "首席"},
		[]string{"首席", "战略官"},
	)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := ReadStats(&buf)
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

// tallyWriter counts what it is handed and refuses everything past
// limit bytes.
type tallyWriter struct{ n, limit int64 }

func (w *tallyWriter) Write(p []byte) (int, error) {
	if room := w.limit - w.n; int64(len(p)) > room {
		w.n += room
		return int(room), io.ErrShortWrite
	}
	w.n += int64(len(p))
	return len(p), nil
}

// TestWriteToReportsBytes pins the io.WriterTo contract: the count is
// the bytes the writer accepted, on success and on failure.
func TestWriteToReportsBytes(t *testing.T) {
	s := buildStats(
		[]string{"蚂蚁", "金服", "首席"},
		[]string{"首席", "战略官"},
	)
	var _ io.WriterTo = s
	var buf bytes.Buffer
	full := &tallyWriter{limit: 1 << 20}
	n, err := s.WriteTo(io.MultiWriter(full, &buf))
	if err != nil || n == 0 || n != full.n || n != int64(buf.Len()) {
		t.Fatalf("WriteTo = %d, %v; the writer saw %d bytes, the buffer holds %d", n, err, full.n, buf.Len())
	}
	short := &tallyWriter{limit: n / 2}
	if got, err := s.WriteTo(short); err == nil || got != short.n || got != n/2 {
		t.Fatalf("WriteTo into a writer that takes %d bytes = %d, %v", n/2, got, err)
	}
}

func TestReadStatsRejectsGarbage(t *testing.T) {
	if _, err := ReadStats(bytes.NewBufferString("not json")); err == nil {
		t.Fatal("ReadStats accepted garbage")
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
