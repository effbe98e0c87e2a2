package core

import (
	"slices"

	"cnprobase/internal/serving"
)

// PublishReport describes the last Freeze of a Result: how much of the
// taxonomy the view was brought up to date from, and what it publishes.
type PublishReport struct {
	// TouchedNodes is the number of nodes re-read from the taxonomy (0
	// on a full compile, which reads all of them).
	TouchedNodes int
	// FullCompile is true when the view was compiled from the whole
	// taxonomy rather than built on the previous view.
	FullCompile bool
	// Folded is true when the delta outgrew its share of the base
	// (serving.View.Outgrown) and the publication folded it into flat
	// arrays (serving.View.Fold) instead of publishing it.
	Folded bool
	// DeltaNodes and DeltaMentions are the node and mention rows of the
	// delta this publication built — everything written since the base —
	// and 0 when it built none (a flat view, or nothing written).
	DeltaNodes, DeltaMentions int
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
// Update's diffs: the next delta of the view, if there is a view, and
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
// publish the last flat view — the base — plus a delta: the rows of the
// nodes and mentions the Updates since the base wrote, the ones written
// since the previous Freeze re-read and ranked, the rest carried over
// from the previous view. Nothing of the base is copied, so a
// publication costs what was written since the base, whatever the size
// of the taxonomy. The flat arrays are rebuilt (folded) only when the
// delta outgrows a fixed share of the base, and when the view is saved
// (PublishedView). With nothing written, the previous view itself is
// returned, and the Report's Publish reads zero touched nodes. Either
// way the view answers, and serializes, exactly like
// serving.Compile(r.Taxonomy). Freeze updates the Result's bookkeeping,
// so it must not run concurrently with itself or with Update.
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
		if inc.view.Outgrown() {
			inc.view, pub.Folded = inc.view.Fold(), true
		}
		pub.DeltaNodes, pub.DeltaMentions = inc.view.DeltaRows()
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

// PublishedView returns the view the last Freeze produced, folded flat,
// when it still describes the Result exactly — nothing has been
// written since — and nil otherwise. Snapshot compaction serializes it
// instead of compiling the taxonomy a second time. The folded view
// answers like the published one and becomes the base the next Freeze
// builds on, so a compaction is also where the delta is folded.
func (r *Result) PublishedView() *serving.View {
	r.followNamed()
	if r.inc.view == nil || len(r.inc.nodes)+len(r.inc.mentions) > 0 {
		return nil
	}
	r.inc.view = r.inc.view.Fold()
	return r.inc.view
}
