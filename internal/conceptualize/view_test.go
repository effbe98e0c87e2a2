package conceptualize

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cnprobase/internal/serving"
	"cnprobase/internal/serving/servingtest"
	"cnprobase/internal/taxonomy"
)

// viewOf compiles the taxonomy into an immutable serving view.
func viewOf(t *testing.T, tx *taxonomy.Taxonomy) *serving.View {
	t.Helper()
	return serving.Compile(tx)
}

// enginesOf returns one engine per backing of the taxonomy's content —
// compiled (hash + trie), patched, opened from image bytes.
func enginesOf(t *testing.T, tx *taxonomy.Taxonomy) map[string]*Engine {
	t.Helper()
	engines := map[string]*Engine{}
	for name, v := range servingtest.Backings(t, tx) {
		engines[name] = NewView(v)
	}
	return engines
}

// requireEquivalent conceptualizes the texts with the string-keyed
// reference and with every engine and demands identical results — same
// resolved mentions, same concept vectors, scores equal under ==. Each
// engine runs with the reference's concept bound. (The engine's Result
// also carries the array its mentions' concepts live in.)
func requireEquivalent(t *testing.T, ref *reference, engines map[string]*Engine, texts []string) {
	t.Helper()
	for _, text := range texts {
		want := ref.Conceptualize(text)
		for name, e := range engines {
			e.MaxConceptsPerEntity = ref.MaxConceptsPerEntity
			if got := e.Conceptualize(text); !reflect.DeepEqual(want.Mentions, got.Mentions) || !reflect.DeepEqual(want.Concepts, got.Concepts) {
				t.Errorf("Conceptualize(%q) on the %s view:\n  engine    = %+v\n  reference = %+v", text, name, got, want)
			}
		}
	}
}

func TestViewMatchesStore(t *testing.T) {
	tx := fixture(t)
	requireEquivalent(t, newReference(tx), enginesOf(t, tx), []string{
		"",
		"刘德华演唱了忘情水。",
		"刘德华",
		"忘情水忘情水",
		"今天天气怎么样？",
		"前面无关刘德华后面无关",
	})
}

// TestViewMatchesStoreRandomized fuzzes the equivalence over random
// worlds: random graphs, random ambiguity, surfaces that are prefixes
// of one another (词1, 词12), surfaces starting with a 4-byte rune,
// mentions of an entity that is no node and of one without hypernyms,
// every concept bound from -1 up, and texts mixing real mentions with
// noise, 4-byte runes and invalid UTF-8. Every result on every backing
// must agree with the string-keyed reference over the taxonomy's compiled
// view, including the float scores.
func TestViewMatchesStoreRandomized(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tx := taxonomy.New()
		nEnt, nCon := 15+rng.Intn(20), 5+rng.Intn(5)
		ent := func(i int) string { return fmt.Sprintf("实体%02d", i) }
		con := func(i int) string { return fmt.Sprintf("概念%d", i) }
		var surfaces []string
		for i := 0; i < nEnt; i++ {
			tx.MarkEntity(ent(i))
			// Every fifth entity has no hypernyms at all.
			for tries := 1 + rng.Intn(3); tries > 0 && i%5 != 4; tries-- {
				if err := tx.AddIsA(ent(i), con(rng.Intn(nCon)), taxonomy.SourceTag); err != nil {
					t.Fatal(err)
				}
			}
			// Some surfaces are shared across entities (ambiguity),
			// some unique; some start beyond the BMP.
			sf := fmt.Sprintf("词%d", rng.Intn(nEnt/2+1))
			if rng.Intn(4) == 0 {
				sf = "𠀀" + sf
			}
			tx.AddMention(sf, ent(i))
			if rng.Intn(6) == 0 {
				tx.AddMention(sf, "不是节点的实体")
			}
			surfaces = append(surfaces, sf)
		}
		tx.AddMention("孤词", "不是节点的实体")
		surfaces = append(surfaces, "孤词")
		ref := newReference(tx)
		ref.MaxConceptsPerEntity = int(seed) - 2 // -1, 0 (both unbounded), 1 … 4
		noise := []string{"无关", "𠀀", "词", "\xff", "\xe5\x88", "\uFFFD", "，"}
		var texts []string
		for i := 0; i < 100; i++ {
			var b strings.Builder
			for j := 0; j < 1+rng.Intn(5); j++ {
				if rng.Intn(3) > 0 {
					b.WriteString(surfaces[rng.Intn(len(surfaces))])
				} else {
					b.WriteString(noise[rng.Intn(len(noise))])
				}
				if rng.Intn(3) == 0 {
					b.WriteString("，")
				}
			}
			texts = append(texts, b.String())
		}
		requireEquivalent(t, ref, enginesOf(t, tx), texts)
	}
}

// tieFixture builds two senses of 苹果 with identical edge evidence, so
// the popularity prior alone cannot separate them, plus 微软 sharing
// the 科技公司 concept with the company sense.
func tieFixture(t *testing.T) *taxonomy.Taxonomy {
	t.Helper()
	tx := taxonomy.New()
	add := func(hypo, hyper string, n int) {
		for i := 0; i < n; i++ {
			if err := tx.AddIsA(hypo, hyper, taxonomy.SourceTag); err != nil {
				t.Fatal(err)
			}
		}
	}
	tx.MarkEntity("苹果（一种水果）")
	tx.MarkEntity("苹果（公司）")
	tx.MarkEntity("微软")
	add("苹果（一种水果）", "水果", 2)
	add("苹果（公司）", "科技公司", 2)
	add("微软", "科技公司", 2)
	tx.AddMention("苹果", "苹果（一种水果）")
	tx.AddMention("苹果", "苹果（公司）")
	tx.AddMention("微软", "微软")
	return tx
}

// TestContextBreaksTies pins the disambiguation contract on every
// backing: with equal popularity, a lone 苹果 resolves to the first
// candidate in canonical order, but co-occurring 微软 swings it to the
// company sense through concept agreement.
func TestContextBreaksTies(t *testing.T) {
	tx := tieFixture(t)
	for name, e := range enginesOf(t, tx) {
		lone := e.Conceptualize("苹果")
		if got := lone.Mentions[0].Entity; got != "苹果（一种水果）" {
			t.Errorf("%s: lone 苹果 = %q, want canonical-order fruit sense", name, got)
		}
		ctx := e.Conceptualize("苹果和微软都发布了新品")
		if got := ctx.Mentions[0].Entity; got != "苹果（公司）" {
			t.Errorf("%s: 苹果 with 微软 context = %q, want company sense", name, got)
		}
	}
}

// TestConceptBounds exercises MaxConceptsPerEntity at its edges on
// every backing: 0 means unbounded, 1 keeps only the most typical.
func TestConceptBounds(t *testing.T) {
	tx := taxonomy.New()
	tx.MarkEntity("多概念实体")
	for i := 0; i < 7; i++ {
		if err := tx.AddIsA("多概念实体", fmt.Sprintf("概念%d", i), taxonomy.SourceTag); err != nil {
			t.Fatal(err)
		}
	}
	tx.AddMention("多概念", "多概念实体")
	for name, e := range enginesOf(t, tx) {
		if got := len(e.Conceptualize("多概念").Mentions[0].Concepts); got != 5 {
			t.Errorf("%s: default bound kept %d concepts, want 5", name, got)
		}
		e.MaxConceptsPerEntity = 0
		if got := len(e.Conceptualize("多概念").Mentions[0].Concepts); got != 7 {
			t.Errorf("%s: unbounded kept %d concepts, want all 7", name, got)
		}
		e.MaxConceptsPerEntity = 1
		res := e.Conceptualize("多概念")
		if got := len(res.Mentions[0].Concepts); got != 1 {
			t.Errorf("%s: bound 1 kept %d concepts", name, got)
		}
		if len(res.Concepts) != 1 {
			t.Errorf("%s: aggregated vector = %+v, want 1 concept", name, res.Concepts)
		}
	}
}

// TestEmptyAndUncovered pins the degenerate shapes: empty text, text
// with zero mentions, and a mention whose entities have no concepts
// all produce an uncovered result with a non-nil empty vector.
func TestEmptyAndUncovered(t *testing.T) {
	tx := fixture(t)
	tx.MarkEntity("孤儿实体") // no hypernyms
	tx.AddMention("孤儿", "孤儿实体")
	for name, e := range enginesOf(t, tx) {
		for _, text := range []string{"", "完全无关的文本", "孤儿"} {
			res := e.Conceptualize(text)
			if res.Covered() {
				t.Errorf("%s: Conceptualize(%q) claims coverage: %+v", name, text, res)
			}
			if res.Concepts == nil || len(res.Concepts) != 0 {
				t.Errorf("%s: Conceptualize(%q).Concepts = %#v, want non-nil empty", name, text, res.Concepts)
			}
		}
	}
}

// TestOverlappingMentions pins greedy longest-match through the full
// engine: 刘德华 must win over its substrings 刘德/德华, and every
// backing must agree with the reference when only the shorter surfaces
// fit.
func TestOverlappingMentions(t *testing.T) {
	tx := fixture(t)
	tx.MarkEntity("刘德（武术指导）")
	tx.MarkEntity("德华（角色）")
	if err := tx.AddIsA("刘德（武术指导）", "武术指导", taxonomy.SourceTag); err != nil {
		t.Fatal(err)
	}
	if err := tx.AddIsA("德华（角色）", "角色", taxonomy.SourceTag); err != nil {
		t.Fatal(err)
	}
	tx.AddMention("刘德", "刘德（武术指导）")
	tx.AddMention("德华", "德华（角色）")
	requireEquivalent(t, newReference(tx), enginesOf(t, tx), []string{"刘德华", "刘德与德华", "刘德德华"})
	view := NewView(viewOf(t, tx))
	res := view.Conceptualize("刘德华")
	if len(res.Mentions) != 1 || res.Mentions[0].Surface != "刘德华" {
		t.Errorf("longest match lost to a substring: %+v", res.Mentions)
	}
	res = view.Conceptualize("刘德与德华")
	if len(res.Mentions) != 2 {
		t.Errorf("shorter overlapping surfaces missed: %+v", res.Mentions)
	}
}

// TestConceptualizeIntoRecycles pins the recycle contract: a reused
// Result is truncated and refilled, never accumulating stale state.
func TestConceptualizeIntoRecycles(t *testing.T) {
	tx := fixture(t)
	e := NewView(viewOf(t, tx))
	var res Result
	e.ConceptualizeInto(&res, "刘德华演唱了忘情水。")
	first := len(res.Mentions)
	e.ConceptualizeInto(&res, "忘情水")
	if len(res.Mentions) != 1 || res.Mentions[0].Surface != "忘情水" {
		t.Fatalf("reused result kept stale mentions (first call had %d): %+v", first, res.Mentions)
	}
	e.ConceptualizeInto(&res, "无关")
	if res.Covered() || len(res.Concepts) != 0 {
		t.Fatalf("reused result kept stale concepts: %+v", res)
	}
}

func TestConceptualizeIntoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	tx := fixture(t)
	for name, v := range servingtest.Backings(t, tx) {
		e := NewView(v)
		text := "刘德华演唱了忘情水。"
		var res Result
		for i := 0; i < 8; i++ { // warm the pool and res capacity
			e.ConceptualizeInto(&res, text)
		}
		allocs := testing.AllocsPerRun(200, func() {
			e.ConceptualizeInto(&res, text)
		})
		if allocs != 0 {
			t.Fatalf("%s view: ConceptualizeInto allocates %.1f allocs/op, want 0", name, allocs)
		}
	}
}

// TestScratchIsBounded pins the pool bound: a text naming thousands of
// distinct entities is conceptualized, but the scratch it grew is not
// parked in the pool for the next request to inherit, and an ordinary
// text still runs without allocating afterwards.
func TestScratchIsBounded(t *testing.T) {
	// One P: the pool's per-P private slot is then the only place a
	// Put can land, so draining the pool below sees it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tx := fixture(t)
	var long strings.Builder
	for i := 0; i < maxPooledScratch+100; i++ {
		id := fmt.Sprintf("实体%05d", i)
		tx.MarkEntity(id)
		if err := tx.AddIsA(id, fmt.Sprintf("概念%d", i%7), taxonomy.SourceTag); err != nil {
			t.Fatal(err)
		}
		tx.AddMention(id, id)
		long.WriteString(id + "，")
	}
	e := NewView(viewOf(t, tx))
	var res Result
	if e.ConceptualizeInto(&res, long.String()); len(res.Mentions) != maxPooledScratch+100 {
		t.Fatalf("long text resolved %d mentions, want %d", len(res.Mentions), maxPooledScratch+100)
	}
	for i := 0; i < 16; i++ {
		sc := scratchPool.Get().(*scratch)
		if cap(sc.found) > maxPooledScratch || cap(sc.context) > maxPooledScratch {
			t.Fatalf("pool kept scratch of %d surfaces / %d concepts (bound %d)",
				cap(sc.found), cap(sc.context), maxPooledScratch)
		}
	}
	if raceEnabled {
		return
	}
	text := "刘德华演唱了忘情水。"
	for i := 0; i < 8; i++ {
		e.ConceptualizeInto(&res, text)
	}
	if allocs := testing.AllocsPerRun(100, func() { e.ConceptualizeInto(&res, text) }); allocs != 0 {
		t.Fatalf("ConceptualizeInto allocates %.1f allocs/op after the long text, want 0", allocs)
	}
}
