// Package servingtest builds, for tests, the kinds of view a server can
// find itself answering from, so that one oracle can be held against
// all of them.
package servingtest

import (
	"bytes"
	"testing"

	"cnprobase/internal/serving"
	"cnprobase/internal/taxonomy"
)

// Backings returns the taxonomy's current content as the ways a
// serving.View comes to be, by name: "compiled" is serving.Compile;
// "patched" is serving.Patch over the compile of an older state of the
// taxonomy — every third symbol no node yet — with the difference and
// every other node and mention re-read, so it is a base plus a delta
// whose new nodes, rewritten base rows and carried base rows interleave;
// "folded" is that view folded flat; "image" is opened over the compiled
// view's serialized bytes, as a mapped snapshot is. All of them must
// answer alike.
func Backings(t testing.TB, tx *taxonomy.Taxonomy) map[string]*serving.View {
	t.Helper()
	compiled := serving.Compile(tx)

	// The older state: the same lists without the nodes whose symbol ID
	// is 1 mod 3, their edges or their mentions.
	drop := func(id uint32) bool { return id%3 == 1 }
	kinds := make([]taxonomy.NodeKind, len(tx.Symbols().Names()))
	for id := range kinds {
		if !drop(uint32(id)) {
			kinds[id] = tx.KindOf(uint32(id))
		}
	}
	var nodes []uint32
	keep := func(pairs []taxonomy.Pair) (out []taxonomy.Pair) {
		for _, p := range pairs {
			if drop(p.Hypo) || drop(p.Hyper) {
				nodes = append(nodes, p.Hypo, p.Hyper)
			} else {
				out = append(out, p)
			}
		}
		return out
	}
	var mentions []string
	var ms []taxonomy.Mention
	for _, m := range tx.Mentions {
		if drop(m.Entity) {
			mentions = append(mentions, m.Text)
		} else {
			ms = append(ms, m)
		}
	}
	older := taxonomy.Restore(tx.Symbols(), kinds, keep(tx.Kept), keep(tx.Derived), ms)
	for i, n := range compiled.Nodes() {
		if id, ok := tx.Symbols().Lookup(n); ok && (i%2 == 0 || drop(id)) {
			nodes = append(nodes, id)
		}
	}
	for i, text := range MentionTexts(tx) {
		if i%2 == 1 {
			mentions = append(mentions, text)
		}
	}
	patched := serving.Patch(serving.Compile(older), tx, nodes, mentions)
	if patched == nil || !patched.HasDelta() {
		t.Fatal("servingtest: Patch over an older state of the taxonomy did not publish a delta")
	}

	im, err := compiled.Image(0)
	if err != nil {
		t.Fatalf("servingtest: Image: %v", err)
	}
	var buf bytes.Buffer
	if _, err := im.WriteTo(&buf); err != nil {
		t.Fatalf("servingtest: WriteTo: %v", err)
	}
	opened, err := serving.OpenImage(buf.Bytes(), 0)
	if err != nil {
		t.Fatalf("servingtest: OpenImage: %v", err)
	}
	return map[string]*serving.View{"compiled": compiled, "patched": patched, "folded": patched.Fold(), "image": opened}
}

// RankedHypernyms reads node's first limit hypernyms (all when limit <=
// 0) in typicality order, with their scores P(hyper | node), through
// the view's one ranked reader, RankedHypernymAt: the name-keyed list
// the string oracles compare. Nil when the view does not know node or
// node has no hypernyms.
func RankedHypernyms(v *serving.View, node string, limit int) []taxonomy.Scored {
	id, ok := v.ID(node, 0)
	if !ok {
		return nil
	}
	n := len(v.HypernymIDsOf(id))
	if limit > 0 {
		n = min(n, limit)
	}
	var out []taxonomy.Scored
	for r := range n {
		h, score := v.RankedHypernymAt(id, r)
		out = append(out, taxonomy.Scored{Node: v.Name(h), Score: score})
	}
	return out
}

// MentionTexts lists the taxonomy's distinct mentions, ascending.
func MentionTexts(tx *taxonomy.Taxonomy) []string {
	var out []string
	for _, m := range tx.Mentions {
		if len(out) == 0 || out[len(out)-1] != m.Text {
			out = append(out, m.Text)
		}
	}
	return out
}
