package core

import (
	"runtime"
	"testing"

	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/synth"
	"cnprobase/internal/taxonomy"
)

// splitWorld builds the first half of a 900-entity world and returns
// the pipeline, the Result, and the pages of both halves.
func splitWorld(t *testing.T) (p *Pipeline, res *Result, first, rest []encyclopedia.Page) {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Entities = 900
	w, err := synth.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	corpus := w.Corpus()
	half := corpus.Len() / 2
	first, rest = corpus.Pages[:half:half], corpus.Pages[half:]
	p = New(fastOptions())
	if res, err = p.Build(&encyclopedia.Corpus{Pages: first}); err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p, res, first, rest
}

// TestFreezeReportsAnUnchangedBatch holds the publication report of a
// batch that writes nothing — its pages re-sent unchanged: Freeze hands
// back the previous view and reports that it re-read no node, not the
// previous batch's figures.
func TestFreezeReportsAnUnchangedBatch(t *testing.T) {
	p, res, _, rest := splitWorld(t)
	res.Freeze()
	batch := &encyclopedia.Corpus{Pages: rest[:30]}
	res, err := p.Update(res, batch)
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	patched := res.Freeze()
	if pub := res.Report.Publish; pub.FullCompile || pub.TouchedNodes == 0 {
		t.Fatalf("a batch of new pages published %+v, want a patch that re-read nodes", pub)
	}
	if res, err = p.Update(res, batch); err != nil {
		t.Fatalf("Update (re-sent): %v", err)
	}
	if again := res.Freeze(); again != patched {
		t.Fatal("re-sent unchanged pages changed the view")
	}
	if pub := res.Report.Publish; pub != (PublishReport{}) {
		t.Errorf("re-sent unchanged pages published %+v, want nothing re-read", pub)
	}
}

// TestMentionEntitiesAreNodes holds what lets a view name a mention's
// entities by node ID with no exceptions: every entity the pipeline
// records a mention for is a node of the taxonomy (a page's entity is
// marked), so no view of a built or updated world carries one as a
// node of unknown kind — after the compile of a build and after the
// patch of an update that adds pages and re-sends built ones.
func TestMentionEntitiesAreNodes(t *testing.T) {
	p, res, first, rest := splitWorld(t)
	requireMentionEntitiesMarked := func(at string, r *Result) {
		t.Helper()
		v := r.Freeze()
		pairs := 0
		for row := 0; row < v.MentionCount(); row++ {
			for _, id := range v.MentionEntities(int32(row)) {
				pairs++
				if v.KindOf(id) == taxonomy.KindUnknown {
					t.Fatalf("%s: mention row %d names %q, a node of unknown kind", at, row, v.Name(id))
				}
			}
		}
		if pairs == 0 {
			t.Fatalf("%s: no mention entities", at)
		}
		if pub := r.Report.Publish; at != "built" && pub.FullCompile {
			t.Fatalf("%s: the view was compiled, not patched", at)
		}
	}
	requireMentionEntitiesMarked("built", res)
	delta := &encyclopedia.Corpus{Pages: append(rest[:len(rest):len(rest)], first[:50]...)}
	res, err := p.Update(res, delta)
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	requireMentionEntitiesMarked("updated", res)
}

// TestPublishAllocationBudget holds publication to the batch, not the
// world: a batch of one page that writes one edge, published by Freeze
// over a freshly compiled view, allocates at most publishBudget bytes
// besides the hyponym list of the concept the edge names, and the same
// publication on a world four times larger within a quarter more. That
// list is the one term that grows with the world: the delta holds the
// concept's row whole, 4 B per hyponym, and a concept that every page
// names (人物) has hyponyms in proportion to the world. A concept whose
// hyponyms do not grow with it (大学) keeps the whole publication within
// the quarter. Freeze used to copy the view's arrays, about 34 B per
// edge of the view, so four times as much on the larger world.
func TestPublishAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are skewed under -race")
	}
	const publishBudget = 12 << 10
	publish := func(entities int, tag string) (bytes, hypoBytes uint64) {
		t.Helper()
		p := New(fastOptions())
		res, err := p.Build(buildSmallWorld(t, entities).Corpus())
		if err != nil {
			t.Fatal(err)
		}
		res.Freeze()
		page := encyclopedia.Page{Title: "预算条目甲", Abstract: "预算条目甲是一个条目。", Tags: []string{tag}}
		if _, err := p.Update(res, &encyclopedia.Corpus{Pages: []encyclopedia.Page{page}}); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v := res.Freeze()
		runtime.ReadMemStats(&after)
		if pub := res.Report.Publish; pub.DeltaNodes == 0 || pub.Folded {
			t.Fatalf("%d entities: the batch published %+v, want a delta", entities, pub)
		}
		id, ok := v.ID(tag, 0)
		if e, _ := v.EdgeOf(page.Title, tag); !ok || e.Sources == 0 {
			t.Fatalf("%d entities: the batch did not write %s isA %s", entities, page.Title, tag)
		}
		return after.TotalAlloc - before.TotalAlloc, 4 * uint64(len(v.HyponymIDsOf(id)))
	}
	for _, tag := range []string{"大学", "人物"} {
		small, smallHypos := publish(1200, tag)
		large, largeHypos := publish(4800, tag)
		t.Logf("%s: %d B (%d B of hyponyms); on the world 4x larger %d B (%d B of hyponyms)", tag, small, smallHypos, large, largeHypos)
		small, large = small-smallHypos, large-largeHypos
		if small > publishBudget || large > publishBudget {
			t.Errorf("%s: a one-edge publication allocates %d B and, on the world 4x larger, %d B besides the concept's hyponyms; budget %d B", tag, small, large, publishBudget)
		}
		if 4*large > 5*small {
			t.Errorf("%s: a one-edge publication allocates %d B besides the concept's hyponyms, and %d B on the world 4x larger: more than a quarter more", tag, small, large)
		}
		if tag == "大学" && 4*(large+largeHypos) > 5*(small+smallHypos) {
			t.Errorf("%s: a one-edge publication allocates %d B, and %d B on the world 4x larger: more than a quarter more", tag, small+smallHypos, large+largeHypos)
		}
	}
}
