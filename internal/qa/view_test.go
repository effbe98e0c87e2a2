package qa

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cnprobase/internal/serving"
	"cnprobase/internal/serving/servingtest"
	"cnprobase/internal/taxonomy"
)

// randWorld builds a random store (taxonomy + mentions) behind the
// reference, the three backings of its content as views, and a batch of
// question-like texts mixing entity surfaces, bare concept names and
// distractors. The world holds what the engines must tell apart:
// ambiguous surfaces and surfaces that are prefixes of one another
// (词1, 词12), surfaces starting with a 4-byte rune, a mention of an
// entity that is no node, entities without concepts, concept names of
// 1 and 7 runes (outside the 2–6 window: must stay unseen) and of 2
// and 6; the texts add 4-byte runes and invalid UTF-8.
func randWorld(t *testing.T, seed int64) (reference, map[string]*serving.View, []Question) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tax := taxonomy.New()
	nEnt, nCon := 20+rng.Intn(20), 4+rng.Intn(4)
	ent := func(i int) string { return fmt.Sprintf("实体%02d", i) }
	cons := []string{"甲", "七个字的概念名", "两字", "六个字概念名", "𠀀概念"}
	for i := 0; i < nCon; i++ {
		cons = append(cons, fmt.Sprintf("概念%d", i))
	}
	var surfaces []string
	for i := 0; i < nEnt; i++ {
		tax.MarkEntity(ent(i))
		// Some entities get no concepts: mentioning them must not
		// count as coverage.
		for tries := rng.Intn(4); tries > 0; tries-- {
			if err := tax.AddIsA(ent(i), cons[rng.Intn(len(cons))], taxonomy.SourceTag); err != nil {
				t.Fatal(err)
			}
		}
		sf := fmt.Sprintf("词%d", rng.Intn(nEnt/2+1))
		if rng.Intn(4) == 0 {
			sf = "𠀀" + sf
		}
		tax.AddMention(sf, ent(i))
		if rng.Intn(6) == 0 {
			tax.AddMention(sf, "不是节点的实体")
		}
		surfaces = append(surfaces, sf)
	}
	for _, c := range cons {
		tax.MarkConcept(c) // also the ones no edge happened to reach
	}
	tax.AddMention("孤词", "不是节点的实体")
	surfaces = append(surfaces, "孤词")

	noise := []string{"𠀀", "\xff", "\xe5\x88", "\uFFFD", "概", "词"}
	var qs []Question
	for i := 0; i < 150; i++ {
		var b strings.Builder
		switch rng.Intn(4) {
		case 0:
			b.WriteString(distractors[rng.Intn(len(distractors))])
		case 1:
			fmt.Fprintf(&b, "有哪些著名的%s？", cons[rng.Intn(len(cons))])
		default:
			fmt.Fprintf(&b, "%s是谁？", surfaces[rng.Intn(len(surfaces))])
			if rng.Intn(3) == 0 {
				b.WriteString(surfaces[rng.Intn(len(surfaces))])
			}
		}
		if rng.Intn(3) == 0 {
			b.WriteString(noise[rng.Intn(len(noise))])
		}
		qs = append(qs, Question{Text: b.String()})
	}
	backings := servingtest.Backings(t, tax)
	return reference{view: backings["compiled"]}, backings, qs
}

// TestEvaluateSourceViewMatchesStore pins the coverage experiment on
// every backing of the serving view against the string-keyed reference
// over the taxonomy's compiled view: identical CoverageResult, and
// identical per-question coverage decisions.
func TestEvaluateSourceViewMatchesStore(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		ref, views, qs := randWorld(t, seed)
		want := ref.Evaluate(qs)
		if want.Covered == 0 || want.Covered == len(qs) {
			t.Fatalf("seed %d: degenerate world, %d of %d covered", seed, want.Covered, len(qs))
		}
		for name, v := range views {
			if got := EvaluateSource(qs, v); got != want {
				t.Fatalf("seed %d: %s view = %+v, reference = %+v", seed, name, got, want)
			}
			for _, q := range qs {
				one := []Question{q}
				if got, want := EvaluateSource(one, v), ref.Evaluate(one); got != want {
					t.Fatalf("seed %d question %q: %s view = %+v, reference = %+v", seed, q.Text, name, got, want)
				}
			}
		}
	}
}

// TestUnderstandMatchesEvaluate pins the serving endpoint's predicate
// to the batch experiment's, question by question — and demands the
// full Understanding on every backing agrees with the reference's.
func TestUnderstandMatchesEvaluate(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		ref, views, qs := randWorld(t, seed)
		for _, q := range qs {
			want := ref.Understand(q.Text)
			for name, v := range views {
				got := Understand(q.Text, v)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d Understand(%q):\n  %s view = %+v\n  reference = %+v", seed, q.Text, name, got, want)
				}
				if slices.Contains(got.Concepts, "甲") || slices.Contains(got.Concepts, "七个字的概念名") {
					t.Fatalf("seed %d Understand(%q) on the %s view saw a concept outside the 2–6-rune window: %q", seed, q.Text, name, got.Concepts)
				}
				if covered := EvaluateSource([]Question{q}, v).Covered == 1; got.Covered != covered {
					t.Fatalf("seed %d %q on the %s view: Understand.Covered = %v, EvaluateSource says %v", seed, q.Text, name, got.Covered, covered)
				}
			}
		}
	}
}

// TestUnderstandAllocations pins what Understand may allocate: its
// returned slices and nothing else — the mention list, one array per
// mention behind its entity and concept names, and the concept list;
// the scan, the concept union and the window search run in stack
// buffers an ordinary question fits.
func TestUnderstandAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	_, views, _ := randWorld(t, 1)
	for name, v := range views {
		for _, c := range []struct {
			text string
			max  float64
		}{
			{"今天天气怎么样？", 0},
			{"孤词是谁？", 2},      // Mentions, and its entity names (no concept)
			{"有哪些著名的概念1？", 1}, // Concepts
		} {
			Understand(c.text, v) // warm the scan's pool
			if allocs := testing.AllocsPerRun(100, func() { Understand(c.text, v) }); allocs > c.max {
				t.Errorf("%s view: Understand(%q) allocates %.1f allocs/op, want ≤ %.0f", name, c.text, allocs, c.max)
			}
		}
	}
}

// TestUnderstandShape pins the answer structure on a hand fixture.
func TestUnderstandShape(t *testing.T) {
	tax := taxonomy.New()
	tax.MarkEntity("刘德华（演员）")
	tax.MarkEntity("刘德华（作家）")
	if err := tax.AddIsA("刘德华（演员）", "演员", taxonomy.SourceTag); err != nil {
		t.Fatal(err)
	}
	if err := tax.AddIsA("刘德华（作家）", "作家", taxonomy.SourceTag); err != nil {
		t.Fatal(err)
	}
	tax.AddMention("刘德华", "刘德华（演员）")
	tax.AddMention("刘德华", "刘德华（作家）")
	v := serving.Compile(tax)

	u := Understand("刘德华是谁？", v)
	if !u.Covered || len(u.Mentions) != 1 {
		t.Fatalf("u = %+v", u)
	}
	m := u.Mentions[0]
	if m.Surface != "刘德华" || len(m.Entities) != 2 {
		t.Errorf("mention = %+v", m)
	}
	if want := []string{"作家", "演员"}; !reflect.DeepEqual(m.Concepts, want) {
		t.Errorf("concepts = %v, want sorted union %v", m.Concepts, want)
	}

	u = Understand("有哪些著名的演员？", v)
	if !u.Covered || len(u.Mentions) != 0 {
		t.Fatalf("concept question u = %+v", u)
	}
	if len(u.Concepts) != 1 || u.Concepts[0] != "演员" {
		t.Errorf("concept windows = %v, want [演员]", u.Concepts)
	}

	u = Understand("今天天气怎么样？", v)
	if u.Covered || u.Mentions != nil || u.Concepts != nil {
		t.Errorf("distractor u = %+v", u)
	}
}
