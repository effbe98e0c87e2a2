package qa

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cnprobase/internal/serving"
	"cnprobase/internal/taxonomy"
)

// randWorld builds a random store (taxonomy + mentions), its compiled
// view, and a batch of question-like texts mixing entity surfaces,
// bare concept names, and distractors.
func randWorld(t *testing.T, seed int64) (Source, *serving.View, []Question) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tax := taxonomy.New()
	mentions := taxonomy.NewMentionIndex()
	nEnt, nCon := 20+rng.Intn(20), 4+rng.Intn(4)
	ent := func(i int) string { return fmt.Sprintf("实体%02d", i) }
	con := func(i int) string { return fmt.Sprintf("概念%d", i) }
	var surfaces []string
	for i := 0; i < nEnt; i++ {
		tax.MarkEntity(ent(i))
		// Some entities get no concepts: mentioning them must not
		// count as coverage.
		for tries := rng.Intn(4); tries > 0; tries-- {
			if err := tax.AddIsA(ent(i), con(rng.Intn(nCon)), taxonomy.SourceTag, rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		sf := fmt.Sprintf("词%d", rng.Intn(nEnt/2+1))
		mentions.Add(sf, ent(i))
		surfaces = append(surfaces, sf)
	}
	tax.Finalize()
	v := serving.Compile(tax, mentions)

	var qs []Question
	for i := 0; i < 150; i++ {
		var b strings.Builder
		switch rng.Intn(4) {
		case 0:
			b.WriteString(distractors[rng.Intn(len(distractors))])
		case 1:
			fmt.Fprintf(&b, "有哪些著名的%s？", con(rng.Intn(nCon)))
		default:
			fmt.Fprintf(&b, "%s是谁？", surfaces[rng.Intn(len(surfaces))])
			if rng.Intn(3) == 0 {
				b.WriteString(surfaces[rng.Intn(len(surfaces))])
			}
		}
		qs = append(qs, Question{Text: b.String()})
	}
	return NewStoreSource(tax, mentions), v, qs
}

// TestEvaluateSourceViewMatchesStore pins the coverage experiment on
// the serving view against the store oracle: identical CoverageResult,
// and identical per-question coverage decisions.
func TestEvaluateSourceViewMatchesStore(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		store, view, qs := randWorld(t, seed)
		sres := EvaluateSource(qs, store)
		vres := EvaluateSource(qs, view)
		if sres != vres {
			t.Fatalf("seed %d: view = %+v, store = %+v", seed, vres, sres)
		}
		for _, q := range qs {
			one := []Question{q}
			if s, v := EvaluateSource(one, store), EvaluateSource(one, view); s != v {
				t.Fatalf("seed %d question %q: view = %+v, store = %+v", seed, q.Text, v, s)
			}
		}
	}
}

// TestUnderstandMatchesEvaluate pins the serving endpoint's predicate
// to the batch experiment's, question by question, on both sources —
// and demands the full Understanding agrees between store and view.
func TestUnderstandMatchesEvaluate(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		store, view, qs := randWorld(t, seed)
		for _, q := range qs {
			su := Understand(q.Text, store)
			vu := Understand(q.Text, view)
			if !reflect.DeepEqual(su, vu) {
				t.Fatalf("seed %d Understand(%q):\n  view  = %+v\n  store = %+v", seed, q.Text, vu, su)
			}
			covered := EvaluateSource([]Question{q}, store).Covered == 1
			if su.Covered != covered {
				t.Fatalf("seed %d %q: Understand.Covered = %v, Evaluate says %v", seed, q.Text, su.Covered, covered)
			}
		}
	}
}

// TestUnderstandShape pins the answer structure on a hand fixture.
func TestUnderstandShape(t *testing.T) {
	tax := taxonomy.New()
	tax.MarkEntity("刘德华（演员）")
	tax.MarkEntity("刘德华（作家）")
	if err := tax.AddIsA("刘德华（演员）", "演员", taxonomy.SourceTag, 1); err != nil {
		t.Fatal(err)
	}
	if err := tax.AddIsA("刘德华（作家）", "作家", taxonomy.SourceTag, 1); err != nil {
		t.Fatal(err)
	}
	mentions := taxonomy.NewMentionIndex()
	mentions.Add("刘德华", "刘德华（演员）")
	mentions.Add("刘德华", "刘德华（作家）")
	tax.Finalize()
	v := serving.Compile(tax, mentions)

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
