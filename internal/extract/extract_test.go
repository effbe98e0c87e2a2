package extract

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cnprobase/internal/corpus"
	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/segment"
	"cnprobase/internal/taxonomy"
)

// figure3Stats builds corpus statistics that encode the PMI landscape
// of the paper's Figure 3 example: 蚂蚁金服 is a cohesive company name,
// 首席战略官 a cohesive title, and the junction 金服→首席 is weak.
func figure3Stats() *corpus.Stats {
	st := corpus.NewStats()
	for i := 0; i < 30; i++ {
		st.AddSentence([]string{"蚂蚁", "金服"})
		st.AddSentence([]string{"首席", "战略官"})
	}
	for i := 0; i < 3; i++ {
		st.AddSentence([]string{"蚂蚁", "金服", "首席", "战略官"})
	}
	// Background words so the distribution is not degenerate.
	for i := 0; i < 20; i++ {
		st.AddSentence([]string{"中国", "演员"})
		st.AddSentence([]string{"中国香港", "男演员"})
	}
	return st
}

func testSegmenter() *segment.Segmenter {
	return segment.New([]string{
		"蚂蚁", "金服", "首席", "战略官", "中国", "中国香港",
		"男演员", "演员", "歌手", "词作人", "著名",
	})
}

func TestSeparationFigure3(t *testing.T) {
	sep := NewSeparator(testSegmenter(), figure3Stats())
	tree := sep.Separate("蚂蚁金服首席战略官")
	wantWords := []string{"蚂蚁", "金服", "首席", "战略官"}
	if len(tree.Words) != len(wantWords) {
		t.Fatalf("words = %v, want %v", tree.Words, wantWords)
	}
	for i := range wantWords {
		if tree.Words[i] != wantWords[i] {
			t.Fatalf("words = %v, want %v", tree.Words, wantWords)
		}
	}
	// The rightmost path must yield the title, not the company.
	if len(tree.Hypernyms) == 0 {
		t.Fatal("no hypernyms")
	}
	got := make(map[string]bool)
	for _, h := range tree.Hypernyms {
		got[h] = true
	}
	if !got["首席战略官"] {
		t.Errorf("hypernyms %v missing 首席战略官", tree.Hypernyms)
	}
	if !got["战略官"] {
		t.Errorf("hypernyms %v missing 战略官", tree.Hypernyms)
	}
	for _, h := range tree.Hypernyms {
		if h == "蚂蚁金服" || h == "蚂蚁金服首席战略官" {
			t.Errorf("hypernyms %v include modifier/root constituent %q", tree.Hypernyms, h)
		}
	}
}

func TestSeparationSingleWord(t *testing.T) {
	sep := NewSeparator(testSegmenter(), figure3Stats())
	tree := sep.Separate("演员")
	if len(tree.Hypernyms) != 1 || tree.Hypernyms[0] != "演员" {
		t.Errorf("Hypernyms = %v, want [演员]", tree.Hypernyms)
	}
}

func TestSeparationTwoWords(t *testing.T) {
	sep := NewSeparator(testSegmenter(), figure3Stats())
	tree := sep.Separate("中国香港男演员")
	if len(tree.Hypernyms) != 1 || tree.Hypernyms[0] != "男演员" {
		t.Errorf("Hypernyms = %v, want [男演员]", tree.Hypernyms)
	}
}

func TestSeparationEmpty(t *testing.T) {
	sep := NewSeparator(testSegmenter(), figure3Stats())
	if tree := sep.Separate(""); len(tree.Hypernyms) != 0 {
		t.Errorf("Separate(\"\") hypernyms = %v", tree.Hypernyms)
	}
}

func TestSeparatorExtractEnumeratedBracket(t *testing.T) {
	sep := NewSeparator(testSegmenter(), figure3Stats())
	cands := sep.Extract("刘德华", "中国香港男演员、歌手、词作人")
	want := map[string]bool{"男演员": true, "歌手": true, "词作人": true}
	if len(cands) != len(want) {
		t.Fatalf("candidates = %+v, want 3", cands)
	}
	for _, c := range cands {
		if !want[c.Hyper] {
			t.Errorf("unexpected hypernym %q", c.Hyper)
		}
		if c.Hypo != "刘德华（中国香港男演员、歌手、词作人）" {
			t.Errorf("hypo = %q", c.Hypo)
		}
		if c.Source != taxonomy.SourceBracket {
			t.Errorf("source = %v", c.Source)
		}
	}
}

func TestSeparatorExtractNoBracket(t *testing.T) {
	sep := NewSeparator(testSegmenter(), figure3Stats())
	if got := sep.Extract("刘德华", ""); got != nil {
		t.Errorf("Extract with empty bracket = %v", got)
	}
}

func TestTagsExtraction(t *testing.T) {
	p := &encyclopedia.Page{
		Title: "刘德华",
		Tags:  []string{"演员", "人物", "刘德华", "", "Andy"},
	}
	cands := Tags(p)
	if len(cands) != 2 {
		t.Fatalf("Tags = %+v, want 2 candidates", cands)
	}
	for _, c := range cands {
		if c.Hyper == "刘德华" || c.Hyper == "Andy" || c.Hyper == "" {
			t.Errorf("Tags kept invalid hypernym %q", c.Hyper)
		}
	}
}

func TestDedupe(t *testing.T) {
	in := []Candidate{
		{Hypo: "a", Hyper: "b", Source: taxonomy.SourceTag, Score: 0.5},
		{Hypo: "a", Hyper: "b", Source: taxonomy.SourceBracket, Score: 0.9},
		{Hypo: "a", Hyper: "c", Source: taxonomy.SourceTag, Score: 1},
	}
	out := Dedupe(in)
	if len(out) != 2 {
		t.Fatalf("Dedupe len = %d, want 2", len(out))
	}
	first := out[0]
	if first.Hypo != "a" || first.Hyper != "b" {
		t.Fatalf("Dedupe order wrong: %+v", out)
	}
	if first.Source&taxonomy.SourceTag == 0 || first.Source&taxonomy.SourceBracket == 0 {
		t.Errorf("sources not merged: %v", first.Source)
	}
	if first.Score != 0.9 {
		t.Errorf("score = %v, want max 0.9", first.Score)
	}

	// Against the hash-and-sort formulation, on inputs dense in
	// duplicates: same candidates in the same order, input untouched,
	// no spare capacity.
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		in := make([]Candidate, rng.Intn(200))
		for i := range in {
			in[i] = Candidate{
				Hypo: fmt.Sprint("h", rng.Intn(12)), Hyper: fmt.Sprint("c", rng.Intn(6)),
				Source: taxonomy.Source(1 << rng.Intn(4)), Score: float64(rng.Intn(5)) / 4,
			}
		}
		orig := append([]Candidate(nil), in...)
		type key struct{ hypo, hyper string }
		idx := make(map[key]int)
		var want []Candidate
		for _, c := range in {
			if i, ok := idx[key{c.Hypo, c.Hyper}]; ok {
				want[i].Source |= c.Source
				want[i].Score = max(want[i].Score, c.Score)
				continue
			}
			idx[key{c.Hypo, c.Hyper}] = len(want)
			want = append(want, c)
		}
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].Hypo != want[j].Hypo {
				return want[i].Hypo < want[j].Hypo
			}
			return want[i].Hyper < want[j].Hyper
		})
		got := Dedupe(in)
		if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: Dedupe = %+v, want %+v", round, got, want)
		}
		if cap(got) != len(got) {
			t.Fatalf("round %d: %d candidates in a slice of capacity %d", round, len(got), cap(got))
		}
		if !reflect.DeepEqual(in, orig) {
			t.Fatalf("round %d: Dedupe changed its input", round)
		}
		// The same list, assembled from two parts by Union.
		cut := rng.Intn(len(in) + 1)
		a, b := Dedupe(in[:cut]), Dedupe(in[cut:])
		a0, b0 := append([]Candidate(nil), a...), append([]Candidate(nil), b...)
		u := Union(a, b)
		if len(u)+len(want) > 0 && !reflect.DeepEqual(u, want) {
			t.Fatalf("round %d: Union = %+v, want %+v", round, u, want)
		}
		if cap(u) != len(u) || !reflect.DeepEqual(a, a0) || !reflect.DeepEqual(b, b0) {
			t.Fatalf("round %d: Union left spare capacity (%d/%d) or changed a part", round, len(u), cap(u))
		}
	}
}

func buildTestCorpus() *encyclopedia.Corpus {
	c := &encyclopedia.Corpus{}
	// 30 pages whose 职业 triples align with bracket-derived isA; a
	// noisy predicate 相关人物 whose objects rarely align.
	for i := 0; i < 30; i++ {
		id := encyclopedia.EntityID("人"+string(rune('一'+i)), "演员")
		page := encyclopedia.Page{
			Title:   "人" + string(rune('一'+i)),
			Bracket: "演员",
			Infobox: []encyclopedia.Triple{
				{Subject: id, Predicate: "职业", Object: "演员"},
				{Subject: id, Predicate: "国籍", Object: "中国"},
			},
		}
		if i < 2 {
			page.Infobox = append(page.Infobox,
				encyclopedia.Triple{Subject: id, Predicate: "相关人物", Object: "演员"})
		} else {
			page.Infobox = append(page.Infobox,
				encyclopedia.Triple{Subject: id, Predicate: "相关人物", Object: "某人"})
		}
		c.Pages = append(c.Pages, page)
	}
	return c
}

func TestPredicateDiscovery(t *testing.T) {
	c := buildTestCorpus()
	var prior []Candidate
	for i := range c.Pages {
		prior = append(prior, Candidate{Hypo: c.Pages[i].ID(), Hyper: "演员", Source: taxonomy.SourceBracket})
	}
	pd := PredicateDiscovery{MinAligned: 1, MinScore: 0.5, MaxSelected: 12}
	cands, selected := pd.Discover(c, NewPrior(prior))
	if len(cands) < 2 {
		t.Fatalf("candidates = %+v, want 职业 and 相关人物", cands)
	}
	if cands[0].Predicate != "职业" {
		t.Errorf("top candidate = %q, want 职业", cands[0].Predicate)
	}
	if len(selected) != 1 || selected[0] != "职业" {
		t.Errorf("selected = %v, want [职业]", selected)
	}
	// 国籍 never aligns → not a candidate at all.
	for _, cand := range cands {
		if cand.Predicate == "国籍" {
			t.Error("国籍 should not be a candidate")
		}
	}
}

func TestPredicateDiscoveryWhitelist(t *testing.T) {
	c := buildTestCorpus()
	pd := PredicateDiscovery{Whitelist: []string{"职业"}}
	_, selected := pd.Discover(c, NewPrior(nil))
	if len(selected) != 1 || selected[0] != "职业" {
		t.Errorf("whitelist ignored: %v", selected)
	}
}

func TestExtractInfobox(t *testing.T) {
	c := buildTestCorpus()
	cands := ExtractInfobox(c, []string{"职业"})
	if len(cands) != 30 {
		t.Fatalf("ExtractInfobox = %d candidates, want 30", len(cands))
	}
	for _, cand := range cands {
		if cand.Hyper != "演员" || cand.Source != taxonomy.SourceInfobox {
			t.Fatalf("bad candidate %+v", cand)
		}
	}
	if got := ExtractInfobox(c, nil); got != nil {
		t.Errorf("no predicates should yield no candidates, got %d", len(got))
	}
}

func TestPredicateStatScore(t *testing.T) {
	if got := (PredicateStat{Total: 0, Aligned: 0}).Score(); got != 0 {
		t.Errorf("zero-total score = %v", got)
	}
	if got := (PredicateStat{Total: 4, Aligned: 1}).Score(); got != 0.25 {
		t.Errorf("score = %v, want 0.25", got)
	}
}
