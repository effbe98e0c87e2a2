package segment

import (
	"testing"

	"cnprobase/internal/corpus"
)

func TestViterbiBeatsFMMWithStats(t *testing.T) {
	// Classic FMM failure: greedy longest match takes a long word that
	// strands the remainder. Dictionary: 研究, 研究生, 生命, 命.
	words := []string{"研究", "研究生", "生命", "命", "起源"}
	st := corpus.NewStats()
	for i := 0; i < 40; i++ {
		st.AddSentence([]string{"研究", "生命", "起源"})
	}
	st.AddSentence([]string{"研究生", "命"})
	sg := New(words, WithStats(st))
	got := sg.Cut("研究生命起源")
	assertTokens(t, got, []string{"研究", "生命", "起源"})
	// FMM greedily takes 研究生 and mangles the rest.
	fmm := sg.CutFMM("研究生命起源")
	if len(fmm) > 0 && fmm[0] != "研究生" {
		t.Errorf("FMM = %v; expected the greedy 研究生 failure", fmm)
	}
}

func TestUnknownPenaltyOption(t *testing.T) {
	// With a tiny unknown penalty, single runes become competitive and
	// the segmenter may split; with the default it must keep the
	// dictionary word.
	sg := New([]string{"演员"}, WithUnknownPenalty(0.1))
	if !sg.HasWord("演员") {
		t.Fatal("dictionary lost")
	}
	def := New([]string{"演员"})
	assertTokens(t, def.Cut("演员"), []string{"演员"})
}

func TestDictSize(t *testing.T) {
	sg := New([]string{"a", "b", "b", ""})
	if sg.DictSize() != 2 {
		t.Errorf("DictSize = %d, want 2", sg.DictSize())
	}
}

func TestSplitSpansMixed(t *testing.T) {
	spans := splitSpans("你好world 123，再见")
	var texts []string
	for _, s := range spans {
		texts = append(texts, s.text)
	}
	want := []string{"你好", "world", "123", "，", "再见"}
	if len(texts) != len(want) {
		t.Fatalf("spans = %v, want %v", texts, want)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("spans = %v, want %v", texts, want)
		}
	}
}
