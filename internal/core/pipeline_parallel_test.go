package core

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/par"
	"cnprobase/internal/snapshot"
	"cnprobase/internal/taxonomy"
)

// TestParallelBuildMatchesSequential is the determinism contract of the
// concurrent pipeline: a Workers=8 build must
// produce a taxonomy identical to the Workers=1 sequential reference —
// same edge set (with sources, scores and counts), same node kinds,
// same stats, same kept candidates, same verification report.
func TestParallelBuildMatchesSequential(t *testing.T) {
	w := buildSmallWorld(t, 900)

	seqOpts := testOptions()
	seqOpts.Workers = 1
	seq, err := New(seqOpts).Build(w.Corpus())
	if err != nil {
		t.Fatalf("sequential Build: %v", err)
	}

	parOpts := testOptions()
	parOpts.Workers = 8
	par, err := New(parOpts).Build(w.Corpus())
	if err != nil {
		t.Fatalf("parallel Build: %v", err)
	}

	if par.Report.Workers != 8 {
		t.Errorf("report workers = %d, want 8", par.Report.Workers)
	}

	// Edge sets, including provenance.
	seqEdges, parEdges := seq.Taxonomy.Edges(), par.Taxonomy.Edges()
	if len(seqEdges) != len(parEdges) {
		t.Fatalf("edge count: parallel %d, sequential %d", len(parEdges), len(seqEdges))
	}
	for i := range seqEdges {
		if seqEdges[i] != parEdges[i] {
			t.Fatalf("edge[%d]: parallel %+v, sequential %+v", i, parEdges[i], seqEdges[i])
		}
	}

	// Node sets and kinds, the derived and the mention lists.
	seqNodes, parNodes := seq.Taxonomy.Nodes(), par.Taxonomy.Nodes()
	if !slices.Equal(seqNodes, parNodes) {
		t.Fatalf("node lists differ: parallel %d nodes, sequential %d", len(parNodes), len(seqNodes))
	}
	for _, id := range seqNodes {
		if a, b := seq.KindOf(id), par.KindOf(id); a != b {
			t.Fatalf("node %s: parallel kind %v, sequential %v", seq.Names()[id], b, a)
		}
	}
	if !reflect.DeepEqual(seq.Derived, par.Derived) || !reflect.DeepEqual(seq.Mentions, par.Mentions) {
		t.Fatalf("derived or mention lists differ: parallel %d/%d, sequential %d/%d", len(par.Derived), len(par.Mentions), len(seq.Derived), len(seq.Mentions))
	}

	// The same symbol IDs: hypernyms are interned in merge order, not
	// in the order the generators finish.
	if !slices.Equal(seq.Names(), par.Names()) {
		t.Errorf("symbol tables differ: parallel %d names, sequential %d", len(par.Names()), len(seq.Names()))
	}

	if seq.Report.Stats != par.Report.Stats {
		t.Errorf("stats: parallel %+v, sequential %+v", par.Report.Stats, seq.Report.Stats)
	}

	// Kept candidates (order included: chunked filtering must preserve it).
	if len(seq.Kept) != len(par.Kept) {
		t.Fatalf("kept count: parallel %d, sequential %d", len(par.Kept), len(seq.Kept))
	}
	for i := range seq.Kept {
		if seq.Kept[i] != par.Kept[i] {
			t.Fatalf("kept[%d]: parallel %+v, sequential %+v", i, par.Kept[i], seq.Kept[i])
		}
	}

	// Verification report.
	sv, pv := seq.Report.Verification, par.Report.Verification
	if sv.Input != pv.Input || sv.Kept != pv.Kept || sv.IncompatiblePairs != pv.IncompatiblePairs {
		t.Errorf("verification: parallel %+v, sequential %+v", pv, sv)
	}
	for r, n := range sv.Rejected {
		if pv.Rejected[r] != n {
			t.Errorf("rejected[%s]: parallel %d, sequential %d", r, pv.Rejected[r], n)
		}
	}
}

// TestParallelUpdateMatchesSequential extends a built taxonomy with a
// crawl batch under both worker counts and compares the results.
func TestParallelUpdateMatchesSequential(t *testing.T) {
	w := buildSmallWorld(t, 700)
	corpus := w.Corpus()
	half := corpus.Len() / 2

	run := func(workers int) *Result {
		opts := testOptions()
		opts.EnableNeural = false
		opts.Workers = workers
		first := corpusSlice(corpus, 0, half)
		delta := corpusSlice(corpus, half, corpus.Len())
		p := New(opts)
		res, err := p.Build(first)
		if err != nil {
			t.Fatalf("Build(workers=%d): %v", workers, err)
		}
		res, err = p.Update(res, delta)
		if err != nil {
			t.Fatalf("Update(workers=%d): %v", workers, err)
		}
		return res
	}
	seq, par := run(1), run(8)
	seqEdges, parEdges := seq.Taxonomy.Edges(), par.Taxonomy.Edges()
	if len(seqEdges) != len(parEdges) {
		t.Fatalf("edge count: parallel %d, sequential %d", len(parEdges), len(seqEdges))
	}
	for i := range seqEdges {
		if seqEdges[i] != parEdges[i] {
			t.Fatalf("edge[%d]: parallel %+v, sequential %+v", i, parEdges[i], seqEdges[i])
		}
	}
	// The same symbol IDs: hypernyms are interned in merge order, not
	// in the order the generators finish.
	if !slices.Equal(seq.Names(), par.Names()) {
		t.Errorf("symbol tables differ: parallel %d names, sequential %d", len(par.Names()), len(seq.Names()))
	}

	if seq.Report.Stats != par.Report.Stats {
		t.Errorf("stats: parallel %+v, sequential %+v", par.Report.Stats, seq.Report.Stats)
	}
}

// TestWorkerCountResolution pins the Workers semantics: <= 0 is auto,
// 1 is sequential (nil pool), n > 1 is n.
func TestWorkerCountResolution(t *testing.T) {
	if workerCount(1) != 1 {
		t.Error("workerCount(1) != 1")
	}
	if workerCount(6) != 6 {
		t.Error("workerCount(6) != 6")
	}
	if workerCount(0) < 1 || workerCount(-2) < 1 {
		t.Error("auto worker count < 1")
	}
	if par.NewPool(1) != nil {
		t.Error("NewPool(1) should be nil (sequential)")
	}
	if p := par.NewPool(4); p == nil || p.Size() != 4 {
		t.Error("NewPool(4) misconfigured")
	}
}

func corpusSlice(c *encyclopedia.Corpus, lo, hi int) *encyclopedia.Corpus {
	return &encyclopedia.Corpus{Pages: append([]encyclopedia.Page(nil), c.Pages[lo:hi]...)}
}

// TestBuildIndependentOfArrivalOrder hands the merge the four generator
// sets in every order they could arrive in. Merging a set interns its
// hypernyms, so an ID that depended on arrival would show here as a
// different kept list (which is sorted by ID), a different symbol
// table, different store edges or different snapshot bytes.
func TestBuildIndependentOfArrivalOrder(t *testing.T) {
	w := buildSmallWorld(t, 300)
	opts := testOptions()
	opts.Workers = 2
	opts.NeuralMaxSamples = 100
	var want *Result
	var wantSnap []byte
	var permute func(order, rest []taxonomy.Source)
	permute = func(order, rest []taxonomy.Source) {
		if len(rest) > 0 {
			for i := range rest {
				next := append(slices.Clone(rest[:i]), rest[i+1:]...)
				permute(append(slices.Clone(order), rest[i]), next)
			}
			return
		}
		p := New(opts)
		p.arrive = arrivingIn(order)
		res, err := p.Build(w.Corpus())
		if err != nil {
			t.Fatalf("arrival %v: Build: %v", order, err)
		}
		var snap bytes.Buffer
		st := &snapshot.State{Taxonomy: res.Taxonomy, Evidence: res.Evidence, Stats: res.Stats}
		if err := snapshot.Save(&snap, st, snapshot.Options{Workers: 1}); err != nil {
			t.Fatalf("arrival %v: Save: %v", order, err)
		}
		if want == nil {
			if res.Report.PerSource[taxonomy.SourceAbstract] == nil {
				t.Fatal("the neural generator proposed nothing: the test would not permute four sets")
			}
			want, wantSnap = res, snap.Bytes()
			return
		}
		switch {
		case !slices.Equal(res.Kept, want.Kept):
			t.Fatalf("arrival %v: kept list differs (%d vs %d pairs)", order, len(res.Kept), len(want.Kept))
		case !slices.Equal(res.Candidates, want.Candidates):
			t.Fatalf("arrival %v: candidate list differs", order)
		case !slices.Equal(res.Names(), want.Names()):
			t.Fatalf("arrival %v: symbol table differs", order)
		case !reflect.DeepEqual(res.Taxonomy.Edges(), want.Taxonomy.Edges()):
			t.Fatalf("arrival %v: store edges differ", order)
		case !bytes.Equal(snap.Bytes(), wantSnap):
			t.Fatalf("arrival %v: snapshot bytes differ", order)
		}
	}
	permute(nil, generators[:])
}
