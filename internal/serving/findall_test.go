package serving_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"cnprobase/internal/serving"
	"cnprobase/internal/serving/servingtest"
	"cnprobase/internal/taxonomy"
	"cnprobase/internal/trie"
)

// findFixture builds a taxonomy's mention pairs (and the matching
// compiled view) with the shapes greedy matching must handle:
// overlapping surfaces where one is a prefix of another, single-rune
// mentions, multi-entity ambiguity, and latin alongside Han.
func findFixture(t *testing.T) (*taxonomy.Taxonomy, *serving.View) {
	t.Helper()
	tax := taxonomy.New()
	add := func(mention string, ids ...string) {
		for _, id := range ids {
			tax.MarkEntity(id)
			tax.AddMention(mention, id)
		}
	}
	add("刘德华", "刘德华（演员）", "刘德华（作家）")
	add("刘德", "刘德（武术指导）")
	add("德华", "德华（角色）")
	add("华", "华（姓氏）")
	add("忘情水", "忘情水")
	add("A股", "A股")
	add("AI", "AI（人工智能）")
	return tax, serving.Compile(tax)
}

// scanner is the independent oracle of a view's text scan: a trie of a
// taxonomy's mentions, scanned greedy longest-match from each position.
type scanner struct{ dict *trie.Trie }

func newScanner(tx *taxonomy.Taxonomy) scanner {
	s := scanner{dict: trie.New()}
	for _, text := range servingtest.MentionTexts(tx) {
		s.dict.Insert(text)
	}
	return s
}

// FindAll returns the distinct mentions found in text, in order.
func (s scanner) FindAll(text string) []string {
	var out []string
	rs := []rune(text)
	for i := 0; i < len(rs); {
		l := s.dict.LongestFrom(rs, i)
		if l == 0 {
			i++
			continue
		}
		if w := string(rs[i : i+l]); !slices.Contains(out, w) {
			out = append(out, w)
		}
		i += l
	}
	return out
}

// lookup names the entities of mention's pairs, ascending.
func lookup(tx *taxonomy.Taxonomy, mention string) []string {
	var out []string
	for _, m := range tx.MentionsOf(mention) {
		out = append(out, tx.Symbols().Names()[m.Entity])
	}
	slices.Sort(out)
	return out
}

func TestFindAll(t *testing.T) {
	tx := taxonomy.New()
	tx.AddMention("刘德华", "刘德华（演员）")
	tx.AddMention("忘情水", "忘情水")
	found := newScanner(tx).FindAll("刘德华演唱了《忘情水》，刘德华很出名。")
	if !reflect.DeepEqual(found, []string{"刘德华", "忘情水"}) {
		t.Fatalf("FindAll = %v", found)
	}
}

func TestFindAllLongestMatch(t *testing.T) {
	tx := taxonomy.New()
	tx.AddMention("刘德", "刘德")
	tx.AddMention("刘德华", "刘德华（演员）")
	if found := newScanner(tx).FindAll("刘德华"); len(found) != 1 || found[0] != "刘德华" {
		t.Errorf("FindAll = %v, want longest match 刘德华", found)
	}
}

func TestFindAllMatchesMentionIndex(t *testing.T) {
	tax, v := findFixture(t)
	m := newScanner(tax)
	texts := []string{
		"",
		"刘德华演唱了忘情水。",
		"刘德里有德华。",         // longest match fails, shorter overlapping ones hit
		"华仔就是刘德华",         // single-rune mention + longer at another position
		"AI与A股都涨了",        // latin mentions
		"刘德华刘德华刘德华",       // repeats dedupe to one
		"无关文本 totally x",  // nothing matches
		"刘德",              // exact shorter surface
		"\xff\xfe刘德华\xff", // invalid UTF-8 around a valid mention
		"前缀\xe5\x88伪字节刘德华",
	}
	for _, text := range texts {
		want := m.FindAll(text)
		got := v.FindAll(text)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("FindAll(%q): view = %q, trie scan = %q", text, got, want)
		}
	}
}

func TestFindAllRandomizedEquivalence(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tax := taxonomy.New()
		runes := []rune("刘德华周杰伦演员歌手作品abc")
		randWord := func() string {
			n := 1 + rng.Intn(4)
			var b strings.Builder
			for i := 0; i < n; i++ {
				b.WriteRune(runes[rng.Intn(len(runes))])
			}
			return b.String()
		}
		var surfaces []string
		for i := 0; i < 30; i++ {
			w := randWord()
			id := fmt.Sprintf("%s（实体%d）", w, rng.Intn(3))
			tax.MarkEntity(id)
			tax.AddMention(w, id)
			surfaces = append(surfaces, w)
		}
		v, m := serving.Compile(tax), newScanner(tax)
		for i := 0; i < 200; i++ {
			var b strings.Builder
			for j := 0; j < 1+rng.Intn(6); j++ {
				if rng.Intn(2) == 0 {
					b.WriteString(surfaces[rng.Intn(len(surfaces))])
				} else {
					b.WriteString(randWord())
				}
				if rng.Intn(3) == 0 {
					b.WriteString("，")
				}
			}
			text := b.String()
			if want, got := m.FindAll(text), v.FindAll(text); !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d FindAll(%q): view = %q, trie scan = %q", seed, text, got, want)
			}
		}
	}
}

// TestFindAllAppendRecycles pins the append contract: results land in
// dst, dedupe is per-call, and the returned strings are substrings of
// the input (no copies) for valid UTF-8.
func TestFindAllAppendRecycles(t *testing.T) {
	_, v := findFixture(t)
	dst := v.FindAllAppend(nil, "刘德华唱忘情水")
	if len(dst) != 2 {
		t.Fatalf("dst = %q, want 2 mentions", dst)
	}
	// Appending a second text keeps the first call's results and
	// dedupes only within the new call.
	dst = v.FindAllAppend(dst, "刘德华")
	if len(dst) != 3 || dst[2] != "刘德华" {
		t.Fatalf("dst after second append = %q", dst)
	}
	// Recycled dst reuses the backing array.
	dst = dst[:0]
	dst = v.FindAllAppend(dst, "忘情水")
	if len(dst) != 1 || dst[0] != "忘情水" {
		t.Fatalf("recycled dst = %q", dst)
	}
}

func TestFindAllAppendAllocations(t *testing.T) {
	if serving.RaceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	_, v := findFixture(t)
	text := "刘德华演唱了忘情水，AI与A股都涨了。"
	var dst []string
	for i := 0; i < 4; i++ { // warm the pool and dst
		dst = v.FindAllAppend(dst[:0], text)
	}
	allocs := testing.AllocsPerRun(200, func() {
		dst = v.FindAllAppend(dst[:0], text)
	})
	if allocs != 0 {
		t.Fatalf("FindAllAppend allocates %.1f allocs/op, want 0", allocs)
	}
}

// requireScanMatchesIndex holds FindMentionsAppend on every backing to
// the taxonomy's mention pairs: the surfaces are the trie scan's, and
// each carries the table row of its surface, which resolves to the
// entities the pairs name.
func requireScanMatchesIndex(t *testing.T, views map[string]*serving.View, tax *taxonomy.Taxonomy, text string) {
	t.Helper()
	want := newScanner(tax).FindAll(text)
	for name, v := range views {
		found := v.FindMentionsAppend(nil, text)
		var got []string
		for _, f := range found {
			got = append(got, f.Surface)
			var ents []string
			for _, id := range v.MentionEntities(f.Row) {
				ents = append(ents, v.Name(id))
			}
			if want := lookup(tax, f.Surface); fmt.Sprint(ents) != fmt.Sprint(want) {
				t.Errorf("%s view, text %q: surface %q row %d resolves to %q, the pairs say %q", name, text, f.Surface, f.Row, ents, want)
			}
			if row, ok := v.MentionRow(f.Surface, 0); f.Row < 0 || !ok || row != uint32(f.Row) {
				t.Errorf("%s view, text %q: surface %q carries row %d, its row is %d (%v)", name, text, f.Surface, f.Row, row, ok)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s view: FindMentionsAppend(%q) = %q, trie scan = %q", name, text, got, want)
		}
		if all := v.FindAll(text); !reflect.DeepEqual(all, want) {
			t.Errorf("%s view: FindAll(%q) = %q, trie scan = %q", name, text, all, want)
		}
	}
}

// TestFindMentionsMatchesMentionIndex runs the scan-with-rows on every
// backing, over the fixture plus what the first-rune filter must not
// lose: a mention starting beyond the BMP (folded onto it in the
// filter), one starting with a literal U+FFFD (which invalid input
// bytes must match too), and text runes that alias a mention's first
// rune in the filter without starting one.
func TestFindMentionsMatchesMentionIndex(t *testing.T) {
	tax, _ := findFixture(t)
	tax.AddMention("𠀀字头", "𠀀字头（实体）")
	tax.AddMention("�开头", "替换符开头（实体）")
	tax.AddMention("𠀀", "𠀀（单字）")
	views := servingtest.Backings(t, tax)
	for _, text := range []string{
		"",
		"刘德华演唱了忘情水。",
		"刘德里有德华。",
		"华仔就是刘德华",
		"AI与A股都涨了",
		"刘德华刘德华刘德华",
		"无关文本 totally x",
		"\xff\xfe刘德华\xff",
		"前缀\xe5\x88伪字节刘德华",
		"看𠀀字头和𠀀字",       // non-BMP first rune: longest match, then the 1-rune mention
		"�开头在这里",        // literal U+FFFD first rune
		"坏字节\xff开头也算",   // an invalid byte decodes to U+FFFD and starts the mention
		"𐀀字头\x00字头𠀀",    // U+10000 and NUL alias U+20000 in the filter, start nothing
		"\U0010FFFF开头�", // aliases U+FFFF, then a bare U+FFFD at the end
	} {
		requireScanMatchesIndex(t, views, tax, text)
	}
}

// TestMentionIndexStoresValidUTF8 pins the one owner of the UTF-8
// rule: Taxonomy.AddMention stores each byte of a mention that is not
// valid UTF-8 as U+FFFD, as a text scan decodes it, so every backing's
// table is valid UTF-8 and every surface a scan finds is a row that
// resolves to the entities its pairs name.
func TestMentionIndexStoresValidUTF8(t *testing.T) {
	tax := taxonomy.New()
	tax.AddMention("\xff坏", "坏字节（实体）")
	tax.AddMention(" 坏\xfe\xff ", "两个坏字节（实体）")
	tax.AddMention("好", "好（实体）")
	if stored, want := servingtest.MentionTexts(tax), []string{"坏\uFFFD\uFFFD", "好", "\uFFFD坏"}; !reflect.DeepEqual(stored, want) {
		t.Fatalf("stored mentions %q, want %q", stored, want)
	}
	views := servingtest.Backings(t, tax)
	for _, text := range []string{"\xff坏好", "�坏", "好\xfe坏\xff坏", "坏\xfe\xff好"} {
		requireScanMatchesIndex(t, views, tax, text)
	}
	for name, v := range views {
		if got := v.Lookup("\uFFFD坏"); !reflect.DeepEqual(got, []string{"坏字节（实体）"}) {
			t.Errorf("%s view: Lookup of the U+FFFD spelling = %q", name, got)
		}
	}
}

func TestFindMentionsAppendAllocations(t *testing.T) {
	if serving.RaceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	tax, _ := findFixture(t)
	text := "刘德华演唱了忘情水，AI与A股都涨了。"
	for name, v := range servingtest.Backings(t, tax) {
		var dst []serving.Found
		for i := 0; i < 4; i++ { // warm the pool and dst
			dst = v.FindMentionsAppend(dst[:0], text)
		}
		allocs := testing.AllocsPerRun(200, func() {
			dst = v.FindMentionsAppend(dst[:0], text)
		})
		if allocs != 0 || len(dst) != 4 {
			t.Errorf("%s view: FindMentionsAppend allocates %.1f allocs/op finding %d mentions, want 0 and 4", name, allocs, len(dst))
		}
	}
}

// TestScanScratchIsBounded pins the pool bound: a text of a million
// runes is scanned, but the buffers it grew are not parked in the pool
// for the next request to inherit, and ordinary texts still scan
// without allocating afterwards.
func TestScanScratchIsBounded(t *testing.T) {
	// One P: the pool's per-P private slot is then the only place a
	// Put can land, so draining the pool below sees it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tax, _ := findFixture(t)
	long := strings.Repeat("无关文本刘德华", (1<<20)/7+1)
	for name, v := range servingtest.Backings(t, tax) {
		if got := v.FindAllAppend(nil, long); !reflect.DeepEqual(got, []string{"刘德华"}) {
			t.Fatalf("%s view: long text found %q", name, got)
		}
		if got := v.FindMentionsAppend(nil, long); len(got) != 1 {
			t.Fatalf("%s view: long text found %+v", name, got)
		}
		for i := 0; i < 16; i++ {
			if rs, offs, found := serving.PooledScratchCaps(); max(rs, offs, found) > serving.MaxPooledRunes {
				t.Fatalf("%s view: pool kept scratch of %d runes / %d offsets / %d surfaces after a %d-rune text (bound %d)",
					name, rs, offs, found, utf8.RuneCountInString(long), serving.MaxPooledRunes)
			}
		}
		if serving.RaceEnabled {
			continue
		}
		text := "刘德华演唱了忘情水，AI与A股都涨了。"
		var dst []string
		for i := 0; i < 4; i++ {
			dst = v.FindAllAppend(dst[:0], text)
		}
		if allocs := testing.AllocsPerRun(100, func() { dst = v.FindAllAppend(dst[:0], text) }); allocs != 0 {
			t.Errorf("%s view: FindAllAppend allocates %.1f allocs/op after the long text, want 0", name, allocs)
		}
	}
}

// TestNamePrefixesAppend holds the one-narrowing prefix search to one
// exact lookup per length, on every backing.
func TestNamePrefixesAppend(t *testing.T) {
	tax := serving.Fixture(t)
	for _, n := range []string{"概", "概念", "概念0号", "概念0号分支甲乙", "𠀀", "𠀀概念", "A", "AB"} {
		tax.MarkConcept(n)
	}
	rng := rand.New(rand.NewSource(1))
	alphabet := []rune("概念0号分支甲乙𠀀AB实体1（人物）顶层孤岛")
	for name, v := range servingtest.Backings(t, tax) {
		for i := 0; i < 2000; i++ {
			var b strings.Builder
			for j := rng.Intn(9); j > 0; j-- {
				b.WriteRune(alphabet[rng.Intn(len(alphabet))])
			}
			s := b.String()
			if i%5 == 0 {
				s = v.Nodes()[rng.Intn(len(v.Nodes()))] + s
			}
			minR, maxR := rng.Intn(3), 1+rng.Intn(8)
			var want []uint32
			rs := []rune(s)
			for l := max(minR, 1); l <= maxR && l <= len(rs); l++ {
				if id, ok := v.ID(string(rs[:l]), 0); ok {
					want = append(want, id)
				}
			}
			if got := v.NamePrefixesAppend(nil, s, minR, maxR); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s view: NamePrefixesAppend(%q, %d, %d) = %v, want %v", name, s, minR, maxR, got, want)
			}
		}
	}
}
