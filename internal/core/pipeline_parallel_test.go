package core

import (
	"reflect"
	"testing"

	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/par"
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

	if par.Report.Workers != 8 || par.Report.Shards != 0 {
		t.Errorf("report knobs = workers %d shards %d, want 8/0",
			par.Report.Workers, par.Report.Shards)
	}

	// Edge sets, including provenance and evidence counts.
	seqEdges, parEdges := seq.Taxonomy.Edges(), par.Taxonomy.Edges()
	if len(seqEdges) != len(parEdges) {
		t.Fatalf("edge count: parallel %d, sequential %d", len(parEdges), len(seqEdges))
	}
	for i := range seqEdges {
		if seqEdges[i] != parEdges[i] {
			t.Fatalf("edge[%d]: parallel %+v, sequential %+v", i, parEdges[i], seqEdges[i])
		}
	}

	// Node sets, kinds and canonical adjacency.
	seqNodes, parNodes := seq.Taxonomy.ReadAll(), par.Taxonomy.ReadAll()
	if !reflect.DeepEqual(seqNodes, parNodes) {
		t.Fatalf("canonical reads differ: parallel %d nodes, sequential %d", len(parNodes.Names), len(seqNodes.Names))
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
