package core

import (
	"slices"

	"cnprobase/internal/serving"
)

// PublishReport describes the last Freeze of a Result: how much of the
// taxonomy the view was brought up to date from.
type PublishReport struct {
	// TouchedNodes is the number of nodes re-read from the taxonomy (0
	// on a full compile, which reads all of them).
	TouchedNodes int
	// FullCompile is true when the view was compiled from the whole
	// taxonomy rather than patched from the previous view.
	FullCompile bool
}

// incremental is the state a Result carries between calls so that
// Update and Freeze cost what changed, not what exists. All of it is
// created by the first Update or Freeze — a Result that is only built
// and saved holds none.
type incremental struct {
	// view is the last view Freeze produced; nodes (symbol IDs) and
	// mentions name what Update has written since.
	view     *serving.View
	nodes    []uint32
	mentions []string
	// named is the taxonomy's NamedWrites as the state last saw it.
	named uint64
	// morph is the head rule's memory and derive the nodes written
	// since it last ran; see deriveSubconcepts.
	morph  map[string]bool
	derive []uint32
}

// wrote hands what an update wrote to the consumers that follow
// Update's diffs: the next patch of the view, if there is a view, and
// the head rule's next pass, if it has a memory to start from.
func (inc *incremental) wrote(nodes []uint32, mentions []string) {
	if inc.view != nil {
		inc.nodes = append(inc.nodes, nodes...)
		inc.mentions = append(inc.mentions, mentions...)
	}
	if inc.morph != nil {
		inc.derive = append(inc.derive, nodes...)
	}
}

// followNamed drops the consumers' state when the taxonomy was written
// through its name-keyed writers, which no diff reports: the next
// Freeze then compiles, and the next derivation scans, in full.
func (r *Result) followNamed() {
	if n := r.NamedWrites(); n != r.inc.named {
		r.inc = incremental{named: n}
	}
}

// Freeze returns an immutable serving.View of the Result's current
// content — the read-optimized structure the HTTP APIs serve from
// (interned node IDs, CSR adjacency, hypernyms ranked by P(concept |
// entity), flat mention table; zero locks and near-zero allocation per
// query). The view is a point-in-time copy: a later Update extends the
// taxonomy, not the view — Freeze again and swap it into the server
// (api.Server.SwapView) to publish the new data.
//
// The first Freeze of a Result compiles the whole taxonomy. Later ones
// patch the previous view: only the nodes and mentions the Updates
// since wrote are re-read and their hypernyms re-ranked, and everything
// else is copied from the previous view's arrays — one sequential copy
// of the arrays plus work proportional to what changed, whatever the
// size of the taxonomy. With nothing written, the previous view itself
// is returned, and the Report's Publish reads zero touched nodes.
// Either way the view answers, and serializes, exactly like
// serving.Compile(r.Taxonomy). Freeze updates the Result's
// bookkeeping, so it must not run concurrently with itself or with
// Update.
func (r *Result) Freeze() *serving.View {
	r.followNamed()
	inc := &r.inc
	slices.Sort(inc.nodes)
	slices.Sort(inc.mentions)
	inc.nodes, inc.mentions = slices.Compact(inc.nodes), slices.Compact(inc.mentions)
	pub := PublishReport{TouchedNodes: len(inc.nodes)}
	switch {
	case inc.view == nil:
	case len(inc.nodes)+len(inc.mentions) == 0:
		// Nothing was written: the view is the last one, and this
		// publication re-read no node (pub is zero).
	default:
		inc.view = serving.Patch(inc.view, r.Taxonomy, inc.nodes, inc.mentions)
	}
	if inc.view == nil {
		inc.view = serving.Compile(r.Taxonomy)
		pub = PublishReport{FullCompile: true}
	}
	inc.nodes, inc.mentions = nil, nil
	if r.Report != nil {
		r.Report.Publish = pub
	}
	return inc.view
}

// PublishedView returns the view the last Freeze produced when it
// still describes the Result exactly — nothing has been written since
// — and nil otherwise. Snapshot compaction serializes it instead of
// compiling the taxonomy a second time.
func (r *Result) PublishedView() *serving.View {
	r.followNamed()
	if r.inc.view == nil || len(r.inc.nodes)+len(r.inc.mentions) > 0 {
		return nil
	}
	return r.inc.view
}
