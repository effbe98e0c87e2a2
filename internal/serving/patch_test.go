package serving_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"cnprobase/internal/conceptualize"
	"cnprobase/internal/core"
	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/qa"
	"cnprobase/internal/serving"
	"cnprobase/internal/serving/servingtest"
	"cnprobase/internal/snapshot"
	"cnprobase/internal/synth"
	"cnprobase/internal/taxonomy"
)

// requireSameAnswers pins got — a view Freeze patched together — to
// want, the full compile of the same taxonomy: every exported query,
// the ID surface the handlers and the application engines read (IDs
// compared through the names they stand for), the engines' answers
// and the serialized image must be indistinguishable.
func requireSameAnswers(t *testing.T, step string, got, want *serving.View, texts []string) {
	t.Helper()
	eq := func(what string, a, b any) {
		t.Helper()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: %s = %v, full compile gives %v", step, what, a, b)
		}
	}
	eq("Nodes", got.Nodes(), want.Nodes())
	eq("Stats", got.Stats(), want.Stats())
	eq("MentionCount", got.MentionCount(), want.MentionCount())
	for _, n := range append([]string{"不存在的节点"}, want.Nodes()...) {
		eq("Kind "+n, got.Kind(n), want.Kind(n))
		eq("Hypernyms "+n, got.Hypernyms(n), want.Hypernyms(n))
		eq("Hyponyms "+n, got.Hyponyms(n, 0), want.Hyponyms(n, 0))
		eq("Hyponyms/3 "+n, got.Hyponyms(n, 3), want.Hyponyms(n, 3))
		eq("RankedHypernyms "+n, servingtest.RankedHypernyms(got, n, 0), servingtest.RankedHypernyms(want, n, 0))
		eq("Lookup "+n, got.Lookup(n), want.Lookup(n))
		for _, h := range want.Hypernyms(n) {
			ge, gok := got.EdgeOf(n, h)
			we, wok := want.EdgeOf(n, h)
			eq("EdgeOf "+n+"→"+h, []any{ge, gok}, []any{we, wok})
		}
	}
	for _, text := range texts {
		eq("FindAll "+text, got.FindAll(text), want.FindAll(text))
		for _, m := range want.FindAll(text) {
			eq("Lookup "+m, got.Lookup(m), want.Lookup(m))
		}
	}
	requireSameIDSurface(t, step, got, want, texts)
	im, err := got.Image(8)
	if err != nil {
		t.Fatalf("%s: Image: %v", step, err)
	}
	var gotImage bytes.Buffer
	if _, err := im.WriteTo(&gotImage); err != nil {
		t.Fatalf("%s: WriteTo: %v", step, err)
	}
	wantImage, err := serving.AppendImageOracle(want, nil, 8)
	if err != nil {
		t.Fatalf("%s: image of the full compile: %v", step, err)
	}
	if gotImage.Len() != im.Len() {
		t.Fatalf("%s: Image.Len = %d, WriteTo wrote %d bytes", step, im.Len(), gotImage.Len())
	}
	if !bytes.Equal(gotImage.Bytes(), wantImage) {
		t.Fatalf("%s: image differs from the full compile's (%d vs %d bytes)", step, gotImage.Len(), len(wantImage))
	}
}

// requireSameIDSurface is requireSameAnswers' half for the ID-native
// reads: every node resolves, and its kind, hypernym and hyponym IDs,
// ranking and evidence total name the same things in both views; a
// text's mention scan finds the same surfaces, whose entities name the
// same nodes; the node names that prefix a text are the same; and the
// conceptualization and QA engines, which read only that surface,
// answer alike.
func requireSameIDSurface(t *testing.T, step string, got, want *serving.View, texts []string) {
	t.Helper()
	eq := func(what string, a, b any) {
		t.Helper()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: %s = %v, full compile gives %v", step, what, a, b)
		}
	}
	named := func(v *serving.View, ids []uint32) []string {
		out := []string{}
		for _, id := range ids {
			out = append(out, v.Name(id))
		}
		return out
	}
	if _, ok := got.ID("不存在的节点", 0); ok {
		t.Fatalf("%s: ID resolves a name that is no node", step)
	}
	for _, n := range want.Nodes() {
		gid, ok := got.ID(n, 0)
		wid, _ := want.ID(n, 0)
		if !ok || got.Name(gid) != n {
			t.Fatalf("%s: ID(%q) = %d, %v (named %q)", step, n, gid, ok, got.Name(gid))
		}
		eq("KindOf "+n, got.KindOf(gid), want.KindOf(wid))
		eq("HypernymIDsOf "+n, named(got, got.HypernymIDsOf(gid)), named(want, want.HypernymIDsOf(wid)))
		eq("HyponymIDsOf "+n, named(got, got.HyponymIDsOf(gid)), named(want, want.HyponymIDsOf(wid)))
		eq("EvidenceTotalOf "+n, got.EvidenceTotalOf(gid), want.EvidenceTotalOf(wid))
		for r := range want.HypernymIDsOf(wid) {
			gh, gs := got.RankedHypernymAt(gid, r)
			wh, ws := want.RankedHypernymAt(wid, r)
			eq(fmt.Sprintf("RankedHypernymAt %s %d", n, r), []any{got.Name(gh), gs}, []any{want.Name(wh), ws})
		}
	}
	found := func(v *serving.View, text string) (out [][]string) {
		for _, f := range v.FindMentionsAppend(nil, text) {
			out = append(out, append([]string{f.Surface}, named(v, v.MentionEntities(f.Row))...))
		}
		return out
	}
	prefixes := func(v *serving.View, text string) (out [][]string) {
		for i := range text {
			out = append(out, named(v, v.NamePrefixesAppend(nil, text[i:], 1, 8)))
		}
		return out
	}
	gotEngine, wantEngine := conceptualize.NewView(got), conceptualize.NewView(want)
	for _, text := range texts {
		eq("FindMentionsAppend "+text, found(got, text), found(want, text))
		eq("NamePrefixesAppend "+text, prefixes(got, text), prefixes(want, text))
		eq("Conceptualize "+text, gotEngine.Conceptualize(text), wantEngine.Conceptualize(text))
		eq("Understand "+text, qa.Understand(text, got), qa.Understand(text, want))
	}
}

// TestFreezePatchesLikeCompile is the one equivalence test of the
// published view: a seeded crawl whose batches between them re-crawl a
// page, retract a previously kept edge, deliver a page after the
// candidates that name it, fail, pile up without a Freeze in between,
// continue on a snapshot-loaded Result, and come small enough that
// their deltas pile up over one base until it is outgrown and folded,
// and once more after a save has folded it. After every step the view
// Freeze returns — a base plus a delta, or a fold — must be
// indistinguishable — in every query, by name and by ID, in the
// engines' answers and byte for byte in its image — from
// serving.Compile of the same taxonomy, whose own answers
// internal/taxonomy's model test holds to the string-keyed oracle — and
// its first-rune filter, which Patch grows from prev's instead of
// rebuilding, must be the one its mention tables give. The crawl must
// publish at least six deltas and fold at least one that outgrew its
// base, as the report of each Freeze says.
func TestFreezePatchesLikeCompile(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.Entities = 1500
	cfg.Seed = 7
	w, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pages := w.Corpus().Pages
	opts := core.DefaultOptions()
	opts.EnableNeural = false
	p := core.New(opts)
	const base, step = 900, 25
	res, err := p.Build(&encyclopedia.Corpus{Pages: pages[:base]})
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for i := 0; i < len(pages); i += 97 {
		texts = append(texts, pages[i].Abstract, pages[i].Title+"是谁")
	}
	patched, deltas, folds := 0, 0, 0
	check := func(name string) {
		t.Helper()
		v := res.Freeze()
		if !res.Report.Publish.FullCompile {
			patched++
		}
		t.Logf("%s: %+v", name, res.Report.Publish)
		switch pub := res.Report.Publish; {
		case pub.Folded:
			folds++
		case pub.DeltaNodes > 0:
			deltas++
		}
		if pub := res.Report.Publish; pub.TouchedNodes > 0 && v.HasDelta() != (pub.DeltaNodes > 0) {
			t.Fatalf("%s: the view has a delta %v, but the report reads %+v", name, v.HasDelta(), res.Report.Publish)
		}
		requireSameAnswers(t, name, v, serving.Compile(res.Taxonomy), texts)
		if !serving.FilterMatchesTable(v) {
			t.Fatalf("%s: the view's first-rune filter is not the one its mention table gives", name)
		}
	}
	next := base
	batchOf := func(n int, extra ...encyclopedia.Page) *encyclopedia.Corpus {
		c := &encyclopedia.Corpus{Pages: append(append([]encyclopedia.Page(nil), pages[next:next+n]...), extra...)}
		next += n
		return c
	}
	batch := func(extra ...encyclopedia.Page) *encyclopedia.Corpus { return batchOf(step, extra...) }
	update := func(name string, delta *encyclopedia.Corpus) {
		t.Helper()
		if _, err := p.Update(res, delta); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	check("first freeze (full compile)")
	if !res.Report.Publish.FullCompile {
		t.Fatal("the first Freeze of a Result must compile in full")
	}
	update("plain batch", batch())
	check("plain batch")
	if again := res.Freeze(); again != res.Freeze() {
		t.Fatal("Freeze with nothing written in between must return the same view")
	}
	check("freeze twice")

	// A page crawled again, with a different infobox and tag set.
	recrawled := pages[3]
	recrawled.Tags = append([]string{"再版标签"}, recrawled.Tags[:len(recrawled.Tags)/2]...)
	recrawled.Infobox = append(recrawled.Infobox[:len(recrawled.Infobox)/2:len(recrawled.Infobox)/2],
		encyclopedia.Triple{Subject: recrawled.Title, Predicate: "别名", Object: "再版别名"})
	update("re-crawled page", batch(recrawled))
	check("re-crawled page")

	// A rare concept — one or two hyponyms — turns out to be a page
	// title: its taxonomy NE support jumps, the hypernym is rejected as
	// a named entity, and the edges under it that earlier batches kept
	// are retracted. The page also arrives after the candidates that
	// name it (as a hypernym).
	rare, now := "", serving.Compile(res.Taxonomy)
	for i, n := range now.Nodes() {
		if now.Kind(n) == taxonomy.KindConcept && len(now.HyponymIDsOf(uint32(i))) == 1 && len(now.Hypernyms(n)) == 0 {
			rare = n
			break
		}
	}
	if rare == "" {
		t.Fatal("no single-hyponym concept to turn into a page title")
	}
	victim := now.Hyponyms(rare, 1)[0]
	late := encyclopedia.Page{Title: rare, Abstract: rare + "是一部作品。", Tags: []string{"人物", "作品", "机构", "地点"}}
	keptBefore := len(res.Kept)
	update("late page retracts an edge", batch(late))
	if _, ok := res.Taxonomy.EdgeOf(victim, rare); ok {
		t.Fatalf("expected %s isA %s to be retracted once %s became a page title (kept %d → %d)", victim, rare, rare, keptBefore, len(res.Kept))
	}
	check("late page retracts an edge")

	// A failing Update leaves everything as it was.
	broken := *res
	broken.Evidence = nil
	if _, err := p.Update(&broken, batch()); err == nil {
		t.Fatal("Update without evidence must fail")
	}
	next -= step
	check("failed update")

	// Two updates, one freeze: the change set accumulates.
	update("first of two", batch())
	update("second of two", batch())
	check("two updates, one freeze")
	update("plain batch 2", batch())
	check("plain batch 2")

	// Through a snapshot: a loaded Result compiles in full once, then
	// patches like any other.
	var buf bytes.Buffer
	err = snapshot.Save(&buf, &snapshot.State{Taxonomy: res.Taxonomy, View: res.PublishedView(),
		Meta: snapshot.Meta{Pages: res.Report.Pages}, Evidence: res.Evidence, Stats: res.Stats}, snapshot.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := snapshot.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	res = &core.Result{Taxonomy: st.Taxonomy, Evidence: st.Evidence, Stats: st.Stats,
		Report: &core.Report{Pages: st.Meta.Pages, SelectedPredicates: res.Report.SelectedPredicates}}
	check("snapshot-loaded")
	if !res.Report.Publish.FullCompile {
		t.Fatal("a snapshot-loaded Result has no view to patch")
	}
	update("loaded, batch 1", batch())
	check("loaded, batch 1")
	update("loaded, batch 2", batch())
	check("loaded, batch 2")

	// Small batches: the delta grows across publications until it
	// outgrows its base and is folded.
	for i := range 8 {
		update(fmt.Sprint("small batch ", i), batchOf(10))
		check(fmt.Sprint("small batch ", i))
	}
	// A save folds the view it writes, and the next publication lays
	// its delta over the folded base.
	if v := res.PublishedView(); v == nil || v.HasDelta() {
		t.Fatal("PublishedView must hand out the last view, folded")
	}
	update("after a save", batchOf(10))
	check("after a save")

	if patched < 8 {
		t.Fatalf("only %d of the freezes patched a previous view", patched)
	}
	if deltas < 6 || folds < 1 {
		t.Fatalf("%d publications published a delta and %d folded one that outgrew its base; want at least 6 and 1", deltas, folds)
	}
	if next > len(pages) {
		t.Fatal(fmt.Sprint("ran out of pages at ", next))
	}
}
