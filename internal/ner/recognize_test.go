package ner

import (
	"reflect"
	"strings"
	"testing"

	"cnprobase/internal/lexicon"
	"cnprobase/internal/runes"
	"cnprobase/internal/synth"
)

// naiveLexicon and its classify and recognize are the recognizer as it
// was written first: the lexicons as maps, every window materialized as
// a string of its own and converted back to runes to be classified.
// They are what the recognizer must keep answering.
type naiveLexicon struct {
	surnames, regions, placeSuffix, orgSuffix, stems map[string]bool
	givenChars                                       map[rune]bool
}

func newNaiveLexicon() *naiveLexicon {
	set := func(lists ...[]string) map[string]bool {
		m := make(map[string]bool)
		for _, l := range lists {
			for _, w := range l {
				m[w] = true
			}
		}
		return m
	}
	lx := &naiveLexicon{
		surnames:    set(lexicon.Surnames()),
		regions:     set(lexicon.Regions()),
		placeSuffix: set(lexicon.PlaceSuffixes()),
		orgSuffix:   set(lexicon.OrgSuffixes(), lexicon.OrgIndustry()),
		stems:       set(lexicon.PlaceStems(), lexicon.OrgStems()),
		givenChars:  make(map[rune]bool),
	}
	for _, g := range lexicon.GivenChars() {
		for _, c := range g {
			lx.givenChars[c] = true
		}
	}
	return lx
}

func (lx *naiveLexicon) classify(w string) Kind {
	if w == "" {
		return None
	}
	if lx.regions[w] {
		return Place
	}
	rs := []rune(w)
	if len(rs) >= 3 && rs[0] == '《' && rs[len(rs)-1] == '》' {
		return Work
	}
	if !runes.AllHan(w) {
		return None
	}
	if len(rs) == 3 && lx.placeSuffix[string(rs[2:])] && lx.stems[string(rs[:2])] {
		return Place
	}
	for sl := 2; sl <= 3 && sl < len(rs); sl++ {
		if len(rs)-sl == 2 && lx.orgSuffix[string(rs[2:])] && lx.stems[string(rs[:2])] {
			return Org
		}
	}
	for _, surLen := range []int{1, 2} {
		if len(rs) < surLen+1 || len(rs) > surLen+2 || !lx.surnames[string(rs[:surLen])] {
			continue
		}
		given := true
		for _, c := range rs[surLen:] {
			given = given && lx.givenChars[c]
		}
		if given {
			return Person
		}
	}
	return None
}

func (lx *naiveLexicon) recognize(text string) []Span {
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
			if k := lx.classify(w); k != None {
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

// classifyWord is the kind the recognizer gives w as one whole window:
// Work when 《…》 quote it, else its classify verdict for the window of
// all of w's runes.
func classifyWord(r *Recognizer, w string) Kind {
	rs := []rune(w)
	if len(rs) >= 3 && rs[0] == '《' && rs[len(rs)-1] == '》' {
		return Work
	}
	if len(rs) < 2 || len(rs) > maxWindow {
		return None
	}
	win, _ := r.classify(rs, 0, nil)
	return win[len(rs)]
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
	// One walk, every rule: stem + place suffix, a two-rune surname
	// with two given-name runes, stem + three-rune org suffix.
	"龙泉山欧阳明华与白水河畔的蚂蚁研究所、星河基金会",
}

// TestRecognizeMatchesNaive pins the one-walk scan to the naive one,
// span for span: over every abstract of a synthetic world, and over
// naiveTexts.
func TestRecognizeMatchesNaive(t *testing.T) {
	// The scan skips the naive check that a window is all Han: every
	// lexicon word it composes windows from is.
	for _, l := range [][]string{lexicon.Surnames(), lexicon.GivenChars(), lexicon.Regions(), lexicon.PlaceSuffixes(),
		lexicon.OrgSuffixes(), lexicon.OrgIndustry(), lexicon.PlaceStems(), lexicon.OrgStems()} {
		for _, w := range l {
			if !runes.AllHan(w) {
				t.Fatalf("lexicon word %q is not all Han", w)
			}
		}
	}
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
	r, lx := New(), newNaiveLexicon()
	spans := 0
	for _, text := range texts {
		spans += len(checkRecognize(t, r, lx, text))
	}
	if spans < len(texts) {
		t.Fatalf("only %d spans over %d texts: the comparison saw too little", spans, len(texts))
	}
	for _, word := range []string{"", "王", "\xff", "王\xff", "《\xff》", "《》", "清河市", "𠀀𠀁市", "蚂蚁金服", "清河研究所", "欧阳明", "欧阳", "王伟伟伟"} {
		if got, want := classifyWord(r, word), lx.classify(word); got != want {
			t.Errorf("classify(%q) = %v, want %v", word, got, want)
		}
	}
}

// FuzzRecognize holds Recognize to the naive scan span for span, and
// classify to the naive classifier on every span, over arbitrary text.
func FuzzRecognize(f *testing.F) {
	for _, text := range naiveTexts {
		f.Add(text)
	}
	r, lx := New(), newNaiveLexicon()
	f.Fuzz(func(t *testing.T, text string) {
		checkRecognize(t, r, lx, text)
	})
}

// checkRecognize fails t unless Recognize and the naive scan agree on
// text, and classify and the naive classifier agree on every span. It
// returns the spans.
func checkRecognize(t *testing.T, r *Recognizer, lx *naiveLexicon, text string) []Span {
	t.Helper()
	got, want := r.RecognizeAppend(nil, text), lx.recognize(text)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RecognizeAppend(%q)\n got  %+v\n want %+v", text, got, want)
	}
	for _, sp := range want {
		if got, want := classifyWord(r, sp.Text), lx.classify(sp.Text); got != want {
			t.Fatalf("classify(%q) = %v, want %v", sp.Text, got, want)
		}
	}
	return got
}

// TestRecognizeAllocations pins the steady state of the NE pass:
// RecognizeAppend into a recycled slice allocates nothing, on text
// with spans of every kind and on text with none.
func TestRecognizeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	r := New()
	spans := strings.Repeat("《忘情水》是刘涛在清河市清河大学演唱的歌曲，欧阳明生于中国香港。", 8)
	none := strings.Repeat("演员歌手的了abc，", 8)
	var dst []Span
	dst = r.RecognizeAppend(dst, spans) // warm the scratch pool and dst
	for name, text := range map[string]string{"spans": spans, "none": none} {
		allocs := testing.AllocsPerRun(200, func() {
			dst = r.RecognizeAppend(dst[:0], text)
		})
		if allocs != 0 {
			t.Errorf("RecognizeAppend(%s) allocates %.1f objects per op, want 0", name, allocs)
		}
	}
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
			spanSink = r.RecognizeAppend(spanSink[:0], text)
		}
	}
}

// spanSink keeps BenchmarkRecognize's calls from being optimized away.
var spanSink []Span
