package extract

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"cnprobase/internal/corpus"
	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/lexicon"
	"cnprobase/internal/segment"
	"cnprobase/internal/symtab"
	"cnprobase/internal/synth"
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
	got := sep.Hypernyms("刘德华", "中国香港男演员、歌手、词作人")
	if want := []string{"男演员", "歌手", "词作人"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Hypernyms = %q, want %q", got, want)
	}
}

func TestSeparatorExtractNoBracket(t *testing.T) {
	sep := NewSeparator(testSegmenter(), figure3Stats())
	if got := sep.Hypernyms("刘德华", ""); got != nil {
		t.Errorf("Hypernyms with empty bracket = %v", got)
	}
}

func TestTagsExtraction(t *testing.T) {
	p := &encyclopedia.Page{
		Title: "刘德华",
		Tags:  []string{"演员", "人物", "刘德华", "", "Andy", "演员"},
	}
	var b Batch
	Tags(p, 7, &b)
	if want := []string{"演员", "人物"}; !reflect.DeepEqual(b.Names, want) {
		t.Fatalf("Tags named %q, want %q", b.Names, want)
	}
	want := []Candidate{
		{Hypo: 7, Hyper: 0, Source: taxonomy.SourceTag},
		{Hypo: 7, Hyper: 1, Source: taxonomy.SourceTag},
		{Hypo: 7, Hyper: 0, Source: taxonomy.SourceTag},
	}
	if !reflect.DeepEqual(b.Cands, want) {
		t.Fatalf("Tags = %+v, want %+v", b.Cands, want)
	}
}

// TestResolveFirstSeenOrder pins what makes IDs independent of how a
// stream is cut into batches: a name gets the ID of its first
// appearance in the concatenation.
func TestResolveFirstSeenOrder(t *testing.T) {
	stream := []string{"乙类", "甲类", "乙类", "丙类", "甲类", "丁类"}
	var want []Candidate
	for cut := 0; cut <= len(stream); cut++ {
		syms := symtab.New()
		syms.Intern("页面")
		var a, b Batch
		for i, h := range stream {
			if i < cut {
				a.Add(0, h, taxonomy.SourceTag)
			} else {
				b.Add(0, h, taxonomy.SourceTag)
			}
		}
		got := Resolve(syms, []Batch{a, b})
		if cut == 0 {
			want = got
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: %+v, want %+v", cut, got, want)
		}
		if names := syms.Names(); !reflect.DeepEqual(names, []string{"页面", "乙类", "甲类", "丙类", "丁类"}) {
			t.Fatalf("cut %d: table %q", cut, names)
		}
	}
}

func TestDedupe(t *testing.T) {
	in := []Candidate{
		{Hypo: 1, Hyper: 2, Source: taxonomy.SourceTag},
		{Hypo: 1, Hyper: 2, Source: taxonomy.SourceBracket},
		{Hypo: 1, Hyper: 3, Source: taxonomy.SourceTag},
	}
	out := Dedupe(in)
	if len(out) != 2 {
		t.Fatalf("Dedupe len = %d, want 2", len(out))
	}
	first := out[0]
	if first.Hypo != 1 || first.Hyper != 2 {
		t.Fatalf("Dedupe order wrong: %+v", out)
	}
	if first.Source&taxonomy.SourceTag == 0 || first.Source&taxonomy.SourceBracket == 0 {
		t.Errorf("sources not merged: %v", first.Source)
	}

	// Against the hash-and-sort formulation, on inputs dense in
	// duplicates: same candidates in the same order, input untouched,
	// no spare capacity.
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		in := make([]Candidate, rng.Intn(200))
		for i := range in {
			in[i] = Candidate{
				Hypo: uint32(rng.Intn(12)), Hyper: uint32(rng.Intn(6)) << 30,
				Source: taxonomy.Source(1 << rng.Intn(4)),
			}
		}
		orig := slices.Clone(in) // empty, not nil, when in is
		type key struct{ hypo, hyper uint32 }
		idx := make(map[key]int)
		var want []Candidate
		for _, c := range in {
			if i, ok := idx[key{c.Hypo, c.Hyper}]; ok {
				want[i].Source |= c.Source
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

// pageIDs names page i by ID 100+i.
func pageIDs(c *encyclopedia.Corpus) []uint32 {
	ids := make([]uint32, len(c.Pages))
	for i := range ids {
		ids[i] = 100 + uint32(i)
	}
	return ids
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
	hypos := pageIDs(c)
	var prior Batch
	for i := range c.Pages {
		prior.Add(hypos[i], "演员", taxonomy.SourceBracket)
	}
	pd := PredicateDiscovery{MinAligned: 1, MinScore: 0.5, MaxSelected: 12}
	cands, selected := pd.Discover(c, hypos, NewPrior([]Batch{prior}))
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
	_, selected := pd.Discover(c, pageIDs(c), NewPrior(nil))
	if len(selected) != 1 || selected[0] != "职业" {
		t.Errorf("whitelist ignored: %v", selected)
	}
}

func TestExtractInfobox(t *testing.T) {
	c := buildTestCorpus()
	hypos := pageIDs(c)
	var b Batch
	ExtractInfobox(c.Pages, hypos, []string{"职业"}, &b)
	if len(b.Cands) != 30 || !reflect.DeepEqual(b.Names, []string{"演员"}) {
		t.Fatalf("ExtractInfobox = %d candidates naming %q, want 30 naming 演员", len(b.Cands), b.Names)
	}
	for i, cand := range b.Cands {
		if cand.Hypo != hypos[i] || cand.Source != taxonomy.SourceInfobox {
			t.Fatalf("bad candidate %+v", cand)
		}
	}
	var none Batch
	if ExtractInfobox(c.Pages, hypos, nil, &none); len(none.Cands) != 0 {
		t.Errorf("no predicates should yield no candidates, got %d", len(none.Cands))
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

// TestSeparatorMemoMatchesFresh holds the memo to separating afresh: on
// every page of a synthetic world, a Separator shared by several
// goroutines (so repeats of a compound come from the memo, filled
// concurrently) proposes the hypernyms a new Separator does.
func TestSeparatorMemoMatchesFresh(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.Entities = 8000
	w, err := synth.Generate(cfg)
	if err != nil {
		t.Fatalf("synth.Generate: %v", err)
	}
	pages := w.Corpus().Pages
	dict := lexicon.BaseDictionary()
	boot := segment.New(dict)
	stats := corpus.NewStats()
	for i := range pages {
		for _, text := range []string{pages[i].Abstract, pages[i].Bracket} {
			if toks := boot.Cut(text); len(toks) > 0 {
				stats.AddSentence(toks)
			}
		}
	}
	seg := segment.New(dict, segment.WithStats(stats))

	shared := NewSeparator(seg, stats)
	got := make([][]string, len(pages))
	const workers = 4
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(pages); i += workers {
				got[i] = shared.Hypernyms(pages[i].Title, pages[i].Bracket)
			}
		}()
	}
	wg.Wait()
	occurrences := 0
	for i := range pages {
		want := NewSeparator(seg, stats).Hypernyms(pages[i].Title, pages[i].Bracket)
		if !slices.Equal(got[i], want) {
			t.Fatalf("page %d (%s, bracket %q): memoized %q, fresh %q", i, pages[i].Title, pages[i].Bracket, got[i], want)
		}
		occurrences += len(splitCompounds(nil, pages[i].Bracket))
	}
	if distinct := len(shared.memo); distinct == 0 || distinct >= occurrences {
		t.Fatalf("%d distinct compounds over %d occurrences: the memo was never hit", distinct, occurrences)
	}
}

// TestSplitCompoundsMatchesFields holds the one-pass splitter to the
// strings.FieldsFunc form it replaced, on separator runs, edge
// separators, other spaces and invalid bytes.
func TestSplitCompoundsMatchesFields(t *testing.T) {
	fields := func(bracket string) []string {
		var out []string
		for _, p := range strings.FieldsFunc(bracket, func(r rune) bool { return strings.ContainsRune("、，,；;/ ", r) }) {
			if p = strings.TrimSpace(p); p != "" {
				out = append(out, p)
			}
		}
		return out
	}
	for _, b := range []string{
		"", "演员", "中国香港男演员、歌手、词作人", "、、演员，，歌手、", " 演员 / 歌手;; 导演；",
		"\t演员\n、　歌手　", "演\xff员、\xe4\xb8", "a,b;c/d e", "、", " \t ",
	} {
		if got, want := splitCompounds(nil, b), fields(b); !slices.Equal(got, want) {
			t.Errorf("splitCompounds(%q) = %q, want %q", b, got, want)
		}
	}
}
