package ner

import (
	"testing"
)

func TestClassifyPersons(t *testing.T) {
	r := New()
	for _, name := range []string{"王伟", "李丽", "刘涛", "欧阳明"} {
		if got := classifyWord(r, name); got != Person {
			t.Errorf("classify(%q) = %v, want person", name, got)
		}
	}
	// Not persons: unknown surname, non given-name chars.
	for _, name := range []string{"演员", "哈伟"} {
		if got := classifyWord(r, name); got == Person {
			t.Errorf("classify(%q) = person, want not-person", name)
		}
	}
}

func TestClassifyPlacesOrgsWorks(t *testing.T) {
	r := New()
	cases := map[string]Kind{
		"中国":     Place,
		"北京":     Place,
		"清河市":    Place,
		"临江湖":    Place,
		"蚂蚁金服":   Org,
		"清河大学":   Org,
		"星河研究所":  Org,
		"《忘情水》":  Work,
		"演员":     None,
		"首席战略官":  None,
		"":       None,
		"abc123": None,
	}
	for w, want := range cases {
		if got := classifyWord(r, w); got != want {
			t.Errorf("classify(%q) = %v, want %v", w, got, want)
		}
	}
}

func TestRecognizeSpans(t *testing.T) {
	r := New()
	text := "王伟出生于清河市，毕业于清河大学，代表作品《忘情水》。"
	spans := r.RecognizeAppend(nil, text)
	found := make(map[string]Kind)
	for _, sp := range spans {
		found[sp.Text] = sp.Kind
	}
	if found["王伟"] != Person {
		t.Errorf("missing person 王伟 in %v", found)
	}
	if found["清河市"] != Place {
		t.Errorf("missing place 清河市 in %v", found)
	}
	if found["清河大学"] != Org {
		t.Errorf("missing org 清河大学 in %v", found)
	}
	if found["《忘情水》"] != Work {
		t.Errorf("missing work 《忘情水》 in %v", found)
	}
}

func TestRecognizeSpanOffsets(t *testing.T) {
	r := New()
	spans := r.RecognizeAppend(nil, "王伟在中国")
	if len(spans) == 0 {
		t.Fatal("no spans")
	}
	for _, sp := range spans {
		rs := []rune("王伟在中国")
		if got := string(rs[sp.Start:sp.End]); got != sp.Text {
			t.Errorf("span text %q does not match offsets [%d,%d) = %q", sp.Text, sp.Start, sp.End, got)
		}
	}
}

func TestSupportS1(t *testing.T) {
	r := New()
	s := NewSupport()
	// 北京 appears twice as NE, 演员 never.
	text := "王伟出生于北京。"
	s.Observe([]string{"王伟", "出生于", "北京", "。"}, r.RecognizeAppend(nil, text))
	s.Observe([]string{"演员", "北京"}, r.RecognizeAppend(nil, "演员北京"))
	if got := s.S1("北京"); got != 1.0 {
		t.Errorf("S1(北京) = %v, want 1.0", got)
	}
	if got := s.S1("演员"); got != 0.0 {
		t.Errorf("S1(演员) = %v, want 0", got)
	}
	if got := s.S1("没出现过"); got != 0.0 {
		t.Errorf("S1(unseen) = %v, want 0", got)
	}
	if !s.Observed("北京") || s.Observed("没出现过") {
		t.Error("Observed bookkeeping wrong")
	}
	// A sentence naming many entities, its spans in the reverse of
	// the tokens' order: every named token counts as NE, the title of
	// a work without its 《》.
	regions := []string{"上海", "广州", "深圳", "杭州", "南京", "成都", "武汉", "西安", "重庆", "天津", "苏州", "长沙", "青岛", "厦门", "福州", "江苏", "浙江"}
	var spans []Span
	for i := len(regions) - 1; i >= 0; i-- {
		spans = append(spans, Span{Text: regions[i], Kind: Place})
	}
	spans = append(spans, Span{Text: "《忘情水》", Kind: Work})
	s.Observe(append([]string{"演员", "忘情水", "《忘情水》"}, regions...), spans)
	for _, w := range append([]string{"忘情水"}, regions...) {
		if got := s.S1(w); got != 1.0 {
			t.Errorf("S1(%s) = %v after a sentence naming %d entities, want 1.0", w, got, len(spans))
		}
	}
	if got := s.S1("演员"); got != 0.0 {
		t.Errorf("S1(演员) = %v after a sentence naming %d entities, want 0", got, len(spans))
	}
}

func TestSupportObserveWord(t *testing.T) {
	s := NewSupport()
	s.ObserveWord("泪花", true)
	s.ObserveWord("泪花", false)
	if got := s.S1("泪花"); got != 0.5 {
		t.Errorf("S1 = %v, want 0.5", got)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		None: "none", Person: "person", Place: "place", Org: "org", Work: "work",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
