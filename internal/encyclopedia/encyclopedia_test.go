package encyclopedia

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func samplePage() Page {
	return Page{
		Title:    "刘德华",
		Bracket:  "中国香港男演员、歌手",
		Abstract: "刘德华，男演员。",
		Infobox: []Triple{
			{Subject: "刘德华（中国香港男演员、歌手）", Predicate: "职业", Object: "演员"},
		},
		Tags: []string{"人物", "演员"},
	}
}

func TestEntityID(t *testing.T) {
	p := samplePage()
	want := "刘德华（中国香港男演员、歌手）"
	if got := p.ID(); got != want {
		t.Errorf("ID = %q, want %q", got, want)
	}
	bare := Page{Title: "刘德华"}
	if got := bare.ID(); got != "刘德华" {
		t.Errorf("bare ID = %q, want title", got)
	}
}

func TestParseEntityID(t *testing.T) {
	title, bracket := ParseEntityID("刘德华（中国香港男演员）")
	if title != "刘德华" || bracket != "中国香港男演员" {
		t.Errorf("ParseEntityID = %q, %q", title, bracket)
	}
	title, bracket = ParseEntityID("刘德华")
	if title != "刘德华" || bracket != "" {
		t.Errorf("ParseEntityID bare = %q, %q", title, bracket)
	}
	// Unbalanced bracket: treated as plain title.
	title, bracket = ParseEntityID("刘德华（残缺")
	if title != "刘德华（残缺" || bracket != "" {
		t.Errorf("ParseEntityID unbalanced = %q, %q", title, bracket)
	}
}

func TestQuickEntityIDRoundTrip(t *testing.T) {
	f := func(a, b uint8) bool {
		titles := []string{"刘德华", "王伟", "清河市"}
		brackets := []string{"", "演员", "中国城市"}
		title := titles[int(a)%len(titles)]
		bracket := brackets[int(b)%len(brackets)]
		t2, b2 := ParseEntityID(EntityID(title, bracket))
		return t2 == title && b2 == bracket
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCorpusCounts(t *testing.T) {
	c := &Corpus{Pages: []Page{samplePage(), {Title: "空页"}}}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
	if c.TripleCount() != 1 {
		t.Errorf("TripleCount = %d", c.TripleCount())
	}
	if c.TagCount() != 2 {
		t.Errorf("TagCount = %d", c.TagCount())
	}
	if c.AbstractCount() != 1 {
		t.Errorf("AbstractCount = %d", c.AbstractCount())
	}
	if c.BracketCount() != 1 {
		t.Errorf("BracketCount = %d", c.BracketCount())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	c := &Corpus{Pages: []Page{samplePage(), {Title: "第二页", Tags: []string{"组织"}}}}
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if got.Len() != c.Len() {
		t.Fatalf("round trip pages = %d, want %d", got.Len(), c.Len())
	}
	if got.Pages[0].ID() != c.Pages[0].ID() {
		t.Errorf("page 0 id = %q, want %q", got.Pages[0].ID(), c.Pages[0].ID())
	}
	if got.Pages[0].Infobox[0] != c.Pages[0].Infobox[0] {
		t.Errorf("triple mismatch: %+v", got.Pages[0].Infobox[0])
	}
}

func TestReadJSONLSkipsBlankLines(t *testing.T) {
	in := `{"title":"甲"}` + "\n\n" + `{"title":"乙"}` + "\n"
	c, err := ReadJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestReadJSONLReportsBadLine(t *testing.T) {
	in := `{"title":"甲"}` + "\n" + `{bad json` + "\n"
	_, err := ReadJSONL(strings.NewReader(in))
	if err == nil {
		t.Fatal("ReadJSONL accepted malformed input")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error should name the line: %v", err)
	}
}

func TestReadJSONLNamesOverlongLine(t *testing.T) {
	in := `{"title":"甲"}` + "\n" + strings.Repeat("a", 4<<20+1) + "\n"
	_, err := ReadJSONL(strings.NewReader(in))
	if err == nil {
		t.Fatal("ReadJSONL accepted a line over 4 MiB")
	}
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("error does not wrap bufio.ErrTooLong: %v", err)
	}
	if !strings.Contains(err.Error(), "line 2: longer than 4 MiB") {
		t.Errorf("error should name the line and the cap: %v", err)
	}
}
