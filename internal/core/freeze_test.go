package core

import (
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
