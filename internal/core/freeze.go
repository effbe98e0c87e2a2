package core

import (
	"slices"

	"cnprobase/internal/serving"
)

// PublishReport describes the last Freeze of a Result: how much of the
// store the view was brought up to date from.
type PublishReport struct {
	// TouchedNodes is the number of nodes re-read from the store (0 on
	// a full compile, which reads all of them).
	TouchedNodes int
	// FullCompile is true when the view was compiled from the whole
	// store rather than patched from the previous view.
	FullCompile bool
}

// incremental is the state a Result carries between calls so that
// Update and Freeze cost what changed, not what exists. All of it is
// created by the first Update or Freeze — a Result that is only built
// and saved holds none.
type incremental struct {
	// view is the last view Freeze produced; nodes and mentions name
	// what the store and the mention index have had written since.
	view            *serving.View
	nodes, mentions []string
	// taxToken and menToken chain the ChangesSince reads.
	taxToken, menToken uint64
	// morph is the head rule's memory and derive the nodes written
	// since it last ran; see deriveSubconcepts.
	morph  map[string]bool
	derive []string
}

// takeChanges drains the store's and the mention index's change logs
// into the pending lists of both consumers — the view patch and the
// head rule. A broken chain (first read, or someone else read in
// between) leaves no way to know what changed: the consumer state is
// dropped and the next Freeze compiles, the next derivation scans, in
// full.
func (r *Result) takeChanges() {
	inc := &r.inc
	nodes, next, ok := r.Taxonomy.ChangesSince(inc.taxToken)
	inc.taxToken = next
	if !ok {
		inc.view, inc.morph = nil, nil
	}
	if r.Mentions != nil {
		mentions, next, ok := r.Mentions.ChangesSince(inc.menToken)
		inc.menToken = next
		if !ok {
			inc.view = nil
		}
		inc.mentions = append(inc.mentions, mentions...)
	}
	inc.nodes = append(inc.nodes, nodes...)
	inc.derive = append(inc.derive, nodes...)
	if inc.view == nil {
		inc.nodes, inc.mentions = nil, nil
	}
	if inc.morph == nil {
		inc.derive = nil
	}
}

// Freeze returns an immutable serving.View of the Result's current
// content — the read-optimized structure the HTTP APIs serve from
// (interned node IDs, CSR adjacency, hypernyms ranked by P(concept |
// entity), flat mention table; zero locks and near-zero allocation per
// query). The
// view is a point-in-time copy: a later Update extends the mutable
// store, not the view — Freeze again and swap it into the server
// (api.Server.SwapView) to publish the new data.
//
// The first Freeze of a Result compiles the whole store. Later ones
// patch the previous view: the store and the mention index log which
// nodes and mentions were written since, only those are re-read and
// their hypernyms re-ranked, and everything else is copied from the previous view's
// arrays — one sequential copy of the arrays plus work proportional to
// what changed, whatever the size of the taxonomy. With nothing
// written, the previous view itself is returned, and the Report's
// Publish reads zero touched nodes. Either way the view
// answers, and serializes, exactly like serving.Compile(r.Taxonomy,
// r.Mentions). Freeze updates the Result's bookkeeping, so it must not
// run concurrently with itself or with Update.
func (r *Result) Freeze() *serving.View {
	r.takeChanges()
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
		inc.view = serving.Patch(inc.view, r.Taxonomy, r.Mentions, inc.nodes, inc.mentions)
	}
	if inc.view == nil {
		inc.view = serving.Compile(r.Taxonomy, r.Mentions)
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
// compiling the store a second time.
func (r *Result) PublishedView() *serving.View {
	if r.inc.view == nil {
		return nil // never frozen: do not start logging changes for a view nobody holds
	}
	r.takeChanges()
	if len(r.inc.nodes)+len(r.inc.mentions) > 0 {
		return nil
	}
	return r.inc.view
}
