package taxonomy_test

import (
	"fmt"
	"testing"

	"cnprobase/internal/serving"
	"cnprobase/internal/taxonomy"
)

// The ancestor walk is answered by the serving view compiled from the
// taxonomy, reachability by the taxonomy itself (the derivation rules'
// check); these tests pin their semantics on small graphs.

// viewOf compiles a taxonomy holding the given edges, each added once
// with AddIsA from one source (a pair listed twice is one edge of
// evidence count 1), and the given entity marks.
func viewOf(t *testing.T, edges [][2]string, entities ...string) *serving.View {
	t.Helper()
	tx := taxonomy.New()
	for _, e := range entities {
		tx.MarkEntity(e)
	}
	for _, e := range edges {
		if err := tx.AddIsA(e[0], e[1], taxonomy.SourceTag); err != nil {
			t.Fatalf("AddIsA(%q, %q): %v", e[0], e[1], err)
		}
	}
	return serving.Compile(tx)
}

// isAncestor is Taxonomy.IsAncestor by name.
func isAncestor(tx *taxonomy.Taxonomy, hypo, hyper string) bool {
	a, ok := tx.Symbols().Lookup(hypo)
	b, ok2 := tx.Symbols().Lookup(hyper)
	return ok && ok2 && tx.IsAncestor(a, b)
}

func pathFixture(t *testing.T, extra ...[2]string) *serving.View {
	t.Helper()
	return viewOf(t, append([][2]string{
		{"刘德华", "男演员"}, {"男演员", "演员"}, {"演员", "人物"},
		{"刘德华", "歌手"}, {"歌手", "人物"}, {"张学友", "歌手"},
	}, extra...), "孤岛实体")
}

func TestAncestorsBFS(t *testing.T) {
	tx := taxonomy.New()
	for _, e := range [][2]string{{"男演员", "演员"}, {"演员", "人物"}, {"刘德华", "男演员"}} {
		if err := tx.AddIsA(e[0], e[1], taxonomy.SourceTag); err != nil {
			t.Fatal(err)
		}
	}
	if got := fmt.Sprint(serving.Compile(tx).Ancestors("刘德华")); got != "[男演员 演员 人物]" {
		t.Fatalf("Ancestors = %s, want breadth-first [男演员 演员 人物]", got)
	}
	// The taxonomy's own reachability test, which the derivation rules use.
	if !isAncestor(tx, "刘德华", "人物") {
		t.Error("IsAncestor transitive = false")
	}
	if isAncestor(tx, "人物", "刘德华") || isAncestor(tx, "刘德华", "刘德华") {
		t.Error("IsAncestor inverted or reflexive = true")
	}
}

func TestAncestorsToleratesCycle(t *testing.T) {
	tx := taxonomy.New()
	for _, e := range [][2]string{{"a", "b"}, {"b", "a"}} {
		if err := tx.AddIsA(e[0], e[1], taxonomy.SourceTag); err != nil {
			t.Fatal(err)
		}
	}
	if got := serving.Compile(tx).Ancestors("a"); fmt.Sprint(got) != "[b]" {
		t.Fatalf("Ancestors with cycle = %v, want [b] (the start is not its own ancestor)", got)
	}
	if !isAncestor(tx, "a", "b") || isAncestor(tx, "a", "a") {
		t.Error("IsAncestor on a cycle: a→b must hold, a→a must not")
	}
}

// TestPathDisconnectedComponents covers nodes living in separate
// components: neither reaches the other, they share no ancestor, and a
// marked island node (no edges at all) has none.
func TestPathDisconnectedComponents(t *testing.T) {
	v := pathFixture(t, [2]string{"长江", "河流"}, [2]string{"河流", "地理实体"})
	if got := fmt.Sprint(v.Ancestors("长江")); got != "[河流 地理实体]" {
		t.Errorf("Ancestors(长江) = %s, want [河流 地理实体]", got)
	}
	if got := fmt.Sprint(v.Ancestors("刘德华")); got != "[歌手 男演员 人物 演员]" {
		t.Errorf("Ancestors(刘德华) = %s, want its own component only", got)
	}
	if got := v.Ancestors("孤岛实体"); got != nil {
		t.Errorf("Ancestors(孤岛实体) = %v, want none", got)
	}
}

// TestAncestorsDiamond pins the diamond shape: an ancestor reachable
// along two paths appears exactly once, at its breadth-first depth.
func TestAncestorsDiamond(t *testing.T) {
	// 底A → 右/左 → 顶 (the diamond); 底B → 右 only.
	v := viewOf(t, [][2]string{{"底A", "左"}, {"底A", "右"}, {"左", "顶"}, {"右", "顶"}, {"底B", "右"}})
	if got := fmt.Sprint(v.Ancestors("底A")); got != "[右 左 顶]" { // 右 U+53F3 < 左 U+5DE6
		t.Errorf("Ancestors(底A) = %s, want the top exactly once", got)
	}
	if got := fmt.Sprint(v.Ancestors("底B")); got != "[右 顶]" {
		t.Errorf("Ancestors(底B) = %s, want [右 顶] (左 is not reachable from 底B)", got)
	}
}

// TestPathsTolerateCycles: verification should prevent isA cycles, but
// the ancestor walk must not hang or duplicate if one slips through.
func TestPathsTolerateCycles(t *testing.T) {
	v := viewOf(t, [][2]string{{"甲", "乙"}, {"乙", "丙"}, {"丙", "甲"}})
	if got := fmt.Sprint(v.Ancestors("甲")); got != "[乙 丙]" {
		t.Errorf("Ancestors in a cycle = %s, want [乙 丙]", got)
	}
	if got := fmt.Sprint(v.Ancestors("乙")); got != "[丙 甲]" {
		t.Errorf("Ancestors in a cycle = %s, want [丙 甲]", got)
	}
}
