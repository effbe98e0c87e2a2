package ner

import (
	"reflect"
	"testing"

	"cnprobase/internal/runes"
	"cnprobase/internal/synth"
)

// classifyNaive and recognizeNaive are the recognizer as it was written
// first: every window materialized as a string of its own and converted
// back to runes to be classified. They are what Classify and Recognize
// must keep answering.
func (r *Recognizer) classifyNaive(w string) Kind {
	if w == "" {
		return None
	}
	if r.regions[w] {
		return Place
	}
	rs := []rune(w)
	if len(rs) >= 3 && rs[0] == '《' && rs[len(rs)-1] == '》' {
		return Work
	}
	if !runes.AllHan(w) {
		return None
	}
	if len(rs) == 3 && r.placeSuffix[string(rs[2:])] && r.stems[string(rs[:2])] {
		return Place
	}
	for sl := 2; sl <= 3 && sl < len(rs); sl++ {
		if len(rs)-sl == 2 && r.orgSuffix.Contains(string(rs[2:])) && r.stems[string(rs[:2])] {
			return Org
		}
	}
	for _, surLen := range []int{1, 2} {
		if len(rs) < surLen+1 || len(rs) > surLen+2 || !r.surnames[string(rs[:surLen])] {
			continue
		}
		given := true
		for _, c := range rs[surLen:] {
			given = given && r.givenChars[c]
		}
		if given {
			return Person
		}
	}
	return None
}

func (r *Recognizer) recognizeNaive(text string) []Span {
	rs := []rune(text)
	var out []Span
	for i := 0; i < len(rs); {
		if rs[i] == '《' {
			if j := indexRune(rs, i+1, '》'); j > i {
				out = append(out, Span{Text: string(rs[i : j+1]), Kind: Work, Start: i, End: j + 1})
				i = j + 1
				continue
			}
		}
		matched := false
		for l := min(6, len(rs)-i); l >= 2; l-- {
			w := string(rs[i : i+l])
			if k := r.classifyNaive(w); k != None {
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

// naiveTexts are the inputs where slicing the text could differ from
// rebuilding strings out of runes, or where the first-rune gate could
// skip a window that classifies.
var naiveTexts = []string{
	"",
	"王",
	"王伟",
	"《忘情水》是刘涛在清河市清河大学演唱的歌曲",
	"《没有结尾的书名",
	"》《》《一》",
	"王伟\xff在中国\xe4\xb8",        // stray byte, truncated rune
	"《坏\xff字节》与蚂蚁金服\xc0\xaf王伟", // invalid bytes inside a quoted title
	"𠀀𠀁清河市𠀂王伟",                 // four-byte Han runes shift every offset
	"abc清河研究所def欧阳明",
	// Gate edges: a region of each length, a two-rune surname, stem +
	// place suffix, stem + org suffix at 4 and 5 runes, and windows
	// whose first rune begins no lexicon word.
	"在中国的俄罗斯人去了澳大利亚和中国香港",
	"欧阳明",
	"的清河市",
	"是蚂蚁金服",
	"于清河研究所",
	"演员歌手的了",
	"《中国",
}

// TestRecognizeMatchesNaive pins the allocation-free scan to the naive
// one, span for span: over every abstract of a synthetic world, and
// over naiveTexts.
func TestRecognizeMatchesNaive(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.Entities = 1500
	w, err := synth.Generate(cfg)
	if err != nil {
		t.Fatalf("synth.Generate: %v", err)
	}
	texts := append([]string(nil), naiveTexts...)
	for i := range w.Corpus().Pages {
		texts = append(texts, w.Corpus().Pages[i].Abstract)
	}
	r := New()
	spans := 0
	for _, text := range texts {
		spans += len(checkRecognize(t, r, text))
	}
	if spans < len(texts) {
		t.Fatalf("only %d spans over %d texts: the comparison saw too little", spans, len(texts))
	}
	for _, word := range []string{"", "王", "\xff", "王\xff", "《\xff》", "《》", "清河市", "𠀀𠀁市", "蚂蚁金服", "清河研究所", "欧阳明", "欧阳", "王伟伟伟"} {
		if got, want := r.Classify(word), r.classifyNaive(word); got != want {
			t.Errorf("Classify(%q) = %v, want %v", word, got, want)
		}
	}
}

// FuzzRecognize holds Recognize to recognizeNaive span for span, and
// Classify to classifyNaive on every span, over arbitrary text.
func FuzzRecognize(f *testing.F) {
	for _, text := range naiveTexts {
		f.Add(text)
	}
	r := New()
	f.Fuzz(func(t *testing.T, text string) {
		checkRecognize(t, r, text)
	})
}

// checkRecognize fails t unless Recognize and the naive scan agree on
// text, and Classify and the naive classifier agree on every span. It
// returns the spans.
func checkRecognize(t *testing.T, r *Recognizer, text string) []Span {
	t.Helper()
	got, want := r.Recognize(text), r.recognizeNaive(text)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Recognize(%q)\n got  %+v\n want %+v", text, got, want)
	}
	for _, sp := range want {
		if got, want := r.Classify(sp.Text), r.classifyNaive(sp.Text); got != want {
			t.Fatalf("Classify(%q) = %v, want %v", sp.Text, got, want)
		}
	}
	return got
}

// BenchmarkRecognize runs the recognizer over every abstract of an
// 8k-entity synthetic world, the NE-evidence pass of a build without
// its segmentation.
func BenchmarkRecognize(b *testing.B) {
	cfg := synth.DefaultConfig()
	cfg.Entities = 8000
	w, err := synth.Generate(cfg)
	if err != nil {
		b.Fatalf("synth.Generate: %v", err)
	}
	var texts []string
	n := 0
	for i := range w.Corpus().Pages {
		if a := w.Corpus().Pages[i].Abstract; a != "" {
			texts = append(texts, a)
			n += len(a)
		}
	}
	r := New()
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, text := range texts {
			spanSink = r.Recognize(text)
		}
	}
}

// spanSink keeps BenchmarkRecognize's calls from being optimized away.
var spanSink []Span
