package verify

import (
	"math"
	"math/rand"
	"testing"

	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/lexicon"
	"cnprobase/internal/ner"
	"cnprobase/internal/segment"
	"cnprobase/internal/symtab"
	"cnprobase/internal/taxonomy"
)

func testSeg() *segment.Segmenter {
	return segment.New(append(lexicon.BaseDictionary(), "机构", "教育机构"))
}

func cand(hypo, hyper string) named {
	return named{Hypo: hypo, Hyper: hyper, Source: taxonomy.SourceTag}
}

// newContext assembles verification evidence from the corpus and the
// merged candidate set in one shot — the from-scratch path the
// incremental operations are equivalence-tested against.
func newContext(c *encyclopedia.Corpus, cands []named, support *ner.Support, rec *ner.Recognizer) *Evidence {
	ev := NewEvidence(nil, support, rec)
	ev.AddPages(c.Pages, pageIDs(ev.syms, c.Pages))
	ev.AddCandidates(onIDs(ev.syms, cands))
	return ev
}

// emptyContext builds a minimal context with no corpus evidence.
func emptyContext(cands []named) *Evidence {
	return newContext(&encyclopedia.Corpus{}, cands, ner.NewSupport(), ner.New())
}

func TestThematicFilter(t *testing.T) {
	cands := []named{cand("刘德华", "演员"), cand("刘德华", "音乐")}
	opts := Options{EnableSyntax: true}
	kept, rep := verifyNamed(cands, emptyContext(cands), testSeg(), opts)
	if len(kept) != 1 || kept[0].Hyper != "演员" {
		t.Fatalf("kept = %+v, want only 演员", kept)
	}
	if rep.Rejected[ReasonThematic] != 1 {
		t.Errorf("thematic rejections = %d, want 1", rep.Rejected[ReasonThematic])
	}
}

func TestHeadPositionRule(t *testing.T) {
	// isA(演员工会, 演员) dies — the hypernym's head occurs at the
	// hyponym's non-head (prefix) position, the 教育机构/教育 pattern
	// of the paper. isA(男演员, 演员) survives: suffix position is the
	// head.
	cands := []named{
		cand("演员工会", "演员"),
		cand("男演员", "演员"),
	}
	opts := Options{EnableSyntax: true}
	kept, rep := verifyNamed(cands, emptyContext(cands), testSeg(), opts)
	if len(kept) != 1 || kept[0].Hypo != "男演员" {
		t.Fatalf("kept = %+v, want only 男演员→演员", kept)
	}
	if rep.Rejected[ReasonHeadPosition] != 1 {
		t.Errorf("head rejections = %d, want 1", rep.Rejected[ReasonHeadPosition])
	}
}

func TestHeadPositionRuleUsesTitleOfEntityID(t *testing.T) {
	// The rule must strip the disambiguation bracket before looking for
	// the head inside the hyponym surface.
	c := cand(encyclopedia.EntityID("演员工会", "组织"), "演员")
	kept, _ := verifyNamed([]named{c}, emptyContext(nil), testSeg(), Options{EnableSyntax: true})
	if len(kept) != 0 {
		t.Errorf("kept = %+v, want rejection", kept)
	}
}

func TestNEFilter(t *testing.T) {
	sup := ner.NewSupport()
	for i := 0; i < 10; i++ {
		sup.ObserveWord("北京", true) // always a named entity in corpus
		sup.ObserveWord("演员", false)
	}
	cands := []named{cand("刘德华", "北京"), cand("刘德华", "演员")}
	ctx := newContext(&encyclopedia.Corpus{}, cands, sup, ner.New())
	opts := Options{EnableNE: true, NEThreshold: 0.5}
	kept, rep := verifyNamed(cands, ctx, testSeg(), opts)
	if len(kept) != 1 || kept[0].Hyper != "演员" {
		t.Fatalf("kept = %+v, want only 演员", kept)
	}
	if rep.Rejected[ReasonNE] != 1 {
		t.Errorf("NE rejections = %d, want 1", rep.Rejected[ReasonNE])
	}
}

func TestNESupportNoisyOr(t *testing.T) {
	// s = 1-(1-s1)(1-s2): corpus and taxonomy evidence amplify.
	corp := &encyclopedia.Corpus{Pages: []encyclopedia.Page{
		{Title: "泪花", Bracket: "歌曲"},
		{Title: "某人"},
	}}
	sup := ner.NewSupport()
	sup.ObserveWord("泪花", true)
	sup.ObserveWord("泪花", false) // s1 = 0.5
	cands := []named{
		cand(encyclopedia.EntityID("泪花", "歌曲"), "歌曲"),
		cand("某人", "泪花"), // the entity title used as a hypernym
	}
	ctx := newContext(corp, cands, sup, ner.New())
	s1 := sup.S1("泪花")
	s2 := ctx.S2("泪花")
	if s2 <= 0 {
		t.Fatalf("S2(泪花) = %v, want positive (it is a page title used as hyponym)", s2)
	}
	want := 1 - (1-s1)*(1-s2)
	if got := ctx.NESupport("泪花"); math.Abs(got-want) > 1e-12 {
		t.Errorf("NESupport = %v, want %v", got, want)
	}
	if ctx.NESupport("泪花") <= s1 {
		t.Error("noisy-or must amplify beyond s1 alone")
	}
}

func TestS2UnknownWord(t *testing.T) {
	ctx := emptyContext(nil)
	if got := ctx.S2("不存在"); got != 0 {
		t.Errorf("S2(unknown) = %v, want 0", got)
	}
}

// incompatibleFixture builds a corpus where 演员 and 图书 are
// incompatible (disjoint hyponyms, disjoint attributes) and one entity
// is wrongly tagged with both.
func incompatibleFixture() (*encyclopedia.Corpus, []named) {
	c := &encyclopedia.Corpus{}
	var cands []named
	person := func(i int) string { return encyclopedia.EntityID("演员甲"+string(rune('a'+i)), "") }
	book := func(i int) string { return encyclopedia.EntityID("图书乙"+string(rune('a'+i)), "") }
	for i := 0; i < 8; i++ {
		id := person(i)
		c.Pages = append(c.Pages, encyclopedia.Page{
			Title: id,
			Infobox: []encyclopedia.Triple{
				{Subject: id, Predicate: "职业", Object: "演员"},
				{Subject: id, Predicate: "出生日期", Object: "1980年"},
			},
		})
		cands = append(cands, cand(id, "演员"))
	}
	for i := 0; i < 8; i++ {
		id := book(i)
		c.Pages = append(c.Pages, encyclopedia.Page{
			Title: id,
			Infobox: []encyclopedia.Triple{
				{Subject: id, Predicate: "出版社", Object: "某社"},
				{Subject: id, Predicate: "页数", Object: "300"},
			},
		})
		cands = append(cands, cand(id, "图书"))
	}
	// The conflicted entity: attribute profile of a person, but tagged
	// as both 演员 and 图书.
	bad := encyclopedia.EntityID("争议者", "")
	c.Pages = append(c.Pages, encyclopedia.Page{
		Title: bad,
		Infobox: []encyclopedia.Triple{
			{Subject: bad, Predicate: "职业", Object: "演员"},
			{Subject: bad, Predicate: "出生日期", Object: "1990年"},
		},
	})
	cands = append(cands, cand(bad, "演员"), cand(bad, "图书"))
	return c, cands
}

func TestIncompatibleConceptsFilter(t *testing.T) {
	c, cands := incompatibleFixture()
	ctx := newContext(c, cands, ner.NewSupport(), ner.New())
	opts := Options{
		EnableIncompatible: true,
		JaccardMax:         0.2,
		CosineMax:          0.6,
		MinConceptSupport:  3,
	}
	kept, rep := verifyNamed(cands, ctx, testSeg(), opts)
	if rep.IncompatiblePairs == 0 {
		t.Fatal("no incompatible pairs detected")
	}
	if rep.Rejected[ReasonIncompatible] != 1 {
		t.Fatalf("incompatible rejections = %d, want 1 (report %+v)", rep.Rejected[ReasonIncompatible], rep)
	}
	// The person-profile entity must keep 演员 and lose 图书.
	for _, k := range kept {
		if k.Hypo == encyclopedia.EntityID("争议者", "") && k.Hyper == "图书" {
			t.Error("KL resolution kept the wrong concept 图书")
		}
	}
}

func TestVerifyDisabledKeepsAll(t *testing.T) {
	c, cands := incompatibleFixture()
	cands = append(cands, cand("某人", "音乐"))
	ctx := newContext(c, cands, ner.NewSupport(), ner.New())
	kept, rep := verifyNamed(cands, ctx, testSeg(), Options{})
	if len(kept) != len(cands) {
		t.Errorf("kept %d of %d with all filters off", len(kept), len(cands))
	}
	if rep.Kept != len(cands) || rep.Input != len(cands) {
		t.Errorf("report wrong: %+v", rep)
	}
}

// vec interns a distribution's predicates in tab and returns it as a
// sorted vector.
func vec(tab *symtab.Table, d map[string]float64) []attr {
	var out []attr
	for k, w := range d {
		out = append(out, attr{tab.Intern(k), w})
	}
	return sortedAttrs(out)
}

func TestMathHelpers(t *testing.T) {
	tab := symtab.New()
	a := map[string]float64{"x": 0.5, "y": 0.5}
	b := map[string]float64{"x": 0.5, "y": 0.5}
	if got := cosine(vec(tab, a), vec(tab, b)); math.Abs(got-1) > 1e-12 {
		t.Errorf("cosine identical = %v, want 1", got)
	}
	c := map[string]float64{"z": 1}
	if got := cosine(vec(tab, a), vec(tab, c)); got != 0 {
		t.Errorf("cosine disjoint = %v, want 0", got)
	}
	if got := cosine(nil, vec(tab, a)); got != 0 {
		t.Errorf("cosine empty = %v, want 0", got)
	}

	s1 := map[string]bool{"a": true, "b": true}
	s2 := map[string]bool{"b": true, "c": true}
	if got := jaccard(s1, s2); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("jaccard = %v, want 1/3", got)
	}
	if got := jaccard(nil, s1); got != 0 {
		t.Errorf("jaccard empty = %v", got)
	}

	p := map[string]float64{"x": 1}
	q := map[string]float64{"x": 1}
	if got := klToSum(vec(tab, p), vec(tab, q)); math.Abs(got) > 1e-12 {
		t.Errorf("KL identical = %v, want 0", got)
	}
	far := map[string]float64{"y": 1}
	if klToSum(vec(tab, p), vec(tab, far)) <= klToSum(vec(tab, p), vec(tab, q)) {
		t.Error("KL to disjoint distribution must exceed KL to itself")
	}

	// A tie is a difference summation order can explain (both values
	// below are ln 4, summed in two orders); anything larger is not.
	for _, c := range []struct {
		a, b float64
		tie  bool
	}{
		{1.3862943611198906, 1.3862943611198904, true},
		{0, 1e-10, true},
		{0.6, 0.6 + 1e-12, true},
		{1, 1 + 1e-6, false},
		{1e6, 1e6 + 1, false},
	} {
		if nearlyEqual(c.a, c.b) != c.tie || nearlyEqual(c.b, c.a) != c.tie {
			t.Errorf("nearlyEqual(%v, %v) != %v", c.a, c.b, c.tie)
		}
	}

	// The vector forms agree with the map forms they replaced, on
	// overlapping supports and an unnormalized right-hand side.
	rng := rand.New(rand.NewSource(1))
	preds := []string{"a", "b", "c", "d", "e", "f"}
	dist := func() map[string]float64 {
		d := map[string]float64{}
		for _, k := range preds {
			if rng.Intn(2) == 0 {
				d[k] = rng.Float64() * 3
			}
		}
		return d
	}
	for i := 0; i < 200; i++ {
		x, y := dist(), dist()
		if got, want := cosine(vec(tab, x), vec(tab, y)), mapCosine(x, y); math.Abs(got-want) > 1e-12 {
			t.Fatalf("cosine(%v, %v) = %v, map form %v", x, y, got, want)
		}
		if got, want := klToSum(vec(tab, x), vec(tab, y)), mapKLToSum(x, y); math.Abs(got-want) > 1e-9 {
			t.Fatalf("klToSum(%v, %v) = %v, map form %v", x, y, got, want)
		}
	}
}

func TestDefaultOptionsEnablesAll(t *testing.T) {
	o := DefaultOptions()
	if !o.EnableIncompatible || !o.EnableNE || !o.EnableSyntax {
		t.Error("default options must enable all three strategies")
	}
}
