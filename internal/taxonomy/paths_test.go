package taxonomy_test

import (
	"fmt"
	"testing"

	"cnprobase/internal/serving"
	"cnprobase/internal/taxonomy"
)

// Ancestor and path queries are answered by the serving view compiled
// from the store; these tests pin their semantics on small graphs.

// viewOf compiles a store holding the given edges, each added once
// with AddIsA (a pair listed twice is reinforced), and the given
// entity marks.
func viewOf(t *testing.T, edges [][2]string, entities ...string) *serving.View {
	t.Helper()
	tx := taxonomy.New()
	for _, e := range entities {
		tx.MarkEntity(e)
	}
	for _, e := range edges {
		if err := tx.AddIsA(e[0], e[1], taxonomy.SourceTag, 1); err != nil {
			t.Fatalf("AddIsA(%q, %q): %v", e[0], e[1], err)
		}
	}
	return serving.Compile(tx, nil)
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
		if err := tx.AddIsA(e[0], e[1], taxonomy.SourceTag, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := fmt.Sprint(serving.Compile(tx, nil).Ancestors("刘德华")); got != "[男演员 演员 人物]" {
		t.Fatalf("Ancestors = %s, want breadth-first [男演员 演员 人物]", got)
	}
	// The store's own reachability test, which the derivation rules use.
	if !tx.IsAncestor("刘德华", "人物") {
		t.Error("IsAncestor transitive = false")
	}
	if tx.IsAncestor("人物", "刘德华") || tx.IsAncestor("刘德华", "刘德华") {
		t.Error("IsAncestor inverted or reflexive = true")
	}
}

func TestAncestorsToleratesCycle(t *testing.T) {
	tx := taxonomy.New()
	for _, e := range [][2]string{{"a", "b"}, {"b", "a"}} {
		if err := tx.AddIsA(e[0], e[1], taxonomy.SourceTag, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := serving.Compile(tx, nil).Ancestors("a"); fmt.Sprint(got) != "[b]" {
		t.Fatalf("Ancestors with cycle = %v, want [b] (the start is not its own ancestor)", got)
	}
	if !tx.IsAncestor("a", "b") || tx.IsAncestor("a", "a") {
		t.Error("IsAncestor on a cycle: a→b must hold, a→a must not")
	}
}

func TestPathToAncestor(t *testing.T) {
	v := pathFixture(t)
	// 刘德华 → 歌手 → 人物 and 刘德华 → 男演员 → 演员 → 人物: BFS takes the
	// shorter one.
	if got := fmt.Sprint(v.PathToAncestor("刘德华", "人物")); got != "[刘德华 歌手 人物]" {
		t.Fatalf("path = %s, want the shortest [刘德华 歌手 人物]", got)
	}
	if got := fmt.Sprint(v.PathToAncestor("刘德华", "演员")); got != "[刘德华 男演员 演员]" {
		t.Fatalf("path = %s", got)
	}
}

func TestPathToAncestorUnreachable(t *testing.T) {
	v := pathFixture(t)
	if got := v.PathToAncestor("人物", "刘德华"); got != nil {
		t.Errorf("inverted path = %v, want nil", got)
	}
	if got := v.PathToAncestor("无名", "人物"); got != nil {
		t.Errorf("unknown node path = %v", got)
	}
}

func TestPathToSelf(t *testing.T) {
	if got := pathFixture(t).PathToAncestor("演员", "演员"); fmt.Sprint(got) != "[演员]" {
		t.Errorf("self path = %v", got)
	}
}

// TestPathToSelfUnknownNode pins the self-path contract precisely: a
// node is trivially its own ancestor even when the graph has never
// seen it — the length-1 path is answered before any edge lookup.
func TestPathToSelfUnknownNode(t *testing.T) {
	if got := pathFixture(t).PathToAncestor("从未出现", "从未出现"); fmt.Sprint(got) != "[从未出现]" {
		t.Errorf("self path for unknown node = %v, want [从未出现]", got)
	}
}

// TestPathDisconnectedComponents covers nodes living in separate
// components: no path in either direction, no common ancestors, and a
// marked island node (no edges at all) behaves the same.
func TestPathDisconnectedComponents(t *testing.T) {
	v := pathFixture(t, [2]string{"长江", "河流"}, [2]string{"河流", "地理实体"})
	for _, p := range [][2]string{{"刘德华", "地理实体"}, {"长江", "人物"}, {"孤岛实体", "人物"}} {
		if got := v.PathToAncestor(p[0], p[1]); got != nil {
			t.Errorf("path %s→%s = %v, want nil", p[0], p[1], got)
		}
	}
	for _, other := range []string{"长江", "孤岛实体"} {
		if got := v.CommonAncestors("刘德华", other); len(got) != 0 {
			t.Errorf("CommonAncestors(刘德华, %s) = %v, want none", other, got)
		}
	}
}

// TestCommonAncestorsDiamond pins the diamond shape: ancestors
// reachable along multiple paths appear exactly once, the intersection
// keeps only what both sides reach, and a shortest-path tie resolves
// to the hypernym that sorts first.
func TestCommonAncestorsDiamond(t *testing.T) {
	// 底A → 右/左 → 顶 (the diamond); 底B → 右 only.
	v := viewOf(t, [][2]string{{"底A", "左"}, {"底A", "右"}, {"左", "顶"}, {"右", "顶"}, {"底B", "右"}})
	if got := fmt.Sprint(v.Ancestors("底A")); got != "[右 左 顶]" { // 右 U+53F3 < 左 U+5DE6
		t.Errorf("Ancestors(底A) = %s, want the top exactly once", got)
	}
	if got := fmt.Sprint(v.CommonAncestors("底A", "底B")); got != "[右 顶]" {
		t.Errorf("CommonAncestors = %s, want 右 and 顶 only (左 is not reachable from 底B)", got)
	}
	if got := fmt.Sprint(v.PathToAncestor("底A", "顶")); got != "[底A 右 顶]" {
		t.Errorf("diamond path = %s, want the tie broken toward 右", got)
	}
}

// TestPathsTolerateCycles: verification should prevent isA cycles, but
// path queries must not hang or duplicate if one slips through.
func TestPathsTolerateCycles(t *testing.T) {
	v := viewOf(t, [][2]string{{"甲", "乙"}, {"乙", "丙"}, {"丙", "甲"}})
	if got := fmt.Sprint(v.Ancestors("甲")); got != "[乙 丙]" {
		t.Errorf("Ancestors in a cycle = %s, want [乙 丙]", got)
	}
	if got := fmt.Sprint(v.PathToAncestor("甲", "丙")); got != "[甲 乙 丙]" {
		t.Errorf("path through cycle = %s, want [甲 乙 丙]", got)
	}
	if got := v.CommonAncestors("甲", "乙"); len(got) == 0 {
		t.Error("cycle members should share ancestors")
	}
}

func TestCommonAncestors(t *testing.T) {
	if got := fmt.Sprint(pathFixture(t).CommonAncestors("刘德华", "张学友")); got != "[歌手 人物]" {
		t.Errorf("CommonAncestors = %s, want 歌手 and 人物 (演员 is not an ancestor of 张学友)", got)
	}
}
