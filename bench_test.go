package cnprobase

// Benchmarks regenerating the paper's evaluation artifacts, one per
// table/figure (DESIGN.md Section 4). Custom metrics report the
// quantities the paper reports — precision, coverage, counts — so the
// bench output doubles as the reproduction record:
//
//	go test -bench=. -benchmem
//
// Shared suites are built once per benchmark and the construction cost
// is excluded via b.ResetTimer where the benchmark measures queries.
import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"

	"cnprobase/internal/core"
	"cnprobase/internal/experiments"
)

const benchEntities = 2500

var (
	suiteOnce sync.Once
	suiteVal  *experiments.Suite
	suiteErr  error
)

// benchSuite builds (once) the world + CN-Probase used by all
// benchmarks.
func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		opts := core.DefaultOptions()
		opts.NeuralEpochs = 1
		opts.NeuralMaxSamples = 1500
		suiteVal, suiteErr = experiments.NewSuite(benchEntities, opts)
	})
	if suiteErr != nil {
		b.Fatalf("building suite: %v", suiteErr)
	}
	return suiteVal
}

// BenchmarkPipelineEndToEnd measures the full Figure 2 pipeline:
// generation (all four sources) + verification + assembly.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	s := benchSuite(b)
	opts := core.DefaultOptions()
	opts.EnableNeural = false // keep per-iteration cost deterministic
	corpus := s.World.Corpus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.New(opts).Build(corpus)
		if err != nil {
			b.Fatal(err)
		}
		if res.Taxonomy.ComputeStats().IsARelations == 0 {
			b.Fatal("empty taxonomy")
		}
	}
	b.ReportMetric(float64(corpus.Len())/b.Elapsed().Seconds()*float64(b.N), "pages/s")
}

// benchBuild runs one pipeline build at a fixed worker count, reporting
// pages/s so the sequential-vs-parallel speedup reads directly off the
// bench output:
//
//	go test -bench='BenchmarkBuildEndToEnd' -benchmem
//
// On a multi-core runner the full-width sub-benchmark should beat
// Workers1 by roughly the core count (the
// generation and verification stages dominate and parallelize); both
// produce the identical taxonomy (enforced by the determinism test in
// internal/core).
func benchBuild(b *testing.B, workers int) {
	s := benchSuite(b)
	opts := core.DefaultOptions()
	opts.EnableNeural = false
	opts.Workers = workers
	corpus := s.World.Corpus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.New(opts).Build(corpus)
		if err != nil {
			b.Fatal(err)
		}
		if res.Taxonomy.ComputeStats().IsARelations == 0 {
			b.Fatal("empty taxonomy")
		}
	}
	b.ReportMetric(float64(corpus.Len())/b.Elapsed().Seconds()*float64(b.N), "pages/s")
}

// BenchmarkBuildEndToEnd is the build-throughput harness: the complete
// pipeline (generation + verification + assembly, neural off) at the
// sequential reference width and at full width, reporting pages/s.
// Together with BenchmarkSegmentThroughput (internal/segment) and
// BenchmarkTrieMatchesFrom (internal/trie) it pins the build-side perf
// trajectory; the bench/ harness's build workload reports the same
// quantities (core.build_seq_s, core.build_par_s, segment.runes_per_s).
// (BenchmarkBuildEndToEnd subsumes the former
// BenchmarkPipelineBuildSequential/Parallel pair, which measured the
// same two builds under different names — CI runs every benchmark
// once per push, so duplicates cost real wall-clock.)
func BenchmarkBuildEndToEnd(b *testing.B) {
	b.Run("Workers1", func(b *testing.B) { benchBuild(b, 1) })
	b.Run(fmt.Sprintf("Workers%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		benchBuild(b, runtime.GOMAXPROCS(0))
	})
}

// BenchmarkTableI regenerates Table I: all four taxonomies and their
// sampled precision.
func BenchmarkTableI(b *testing.B) {
	s := benchSuite(b)
	var rows []struct {
		name string
		prec float64
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, r := s.Table1()
		rows = rows[:0]
		for _, row := range r {
			rows = append(rows, struct {
				name string
				prec float64
			}{row.Name, row.Precision})
		}
	}
	b.StopTimer()
	_, r := s.Table1()
	for _, row := range r {
		b.ReportMetric(row.Precision*100, fmt.Sprintf("prec-%%-%s", shortName(row.Name)))
	}
}

func shortName(n string) string {
	switch n {
	case "Chinese WikiTaxonomy":
		return "wikitax"
	case "Bigcilin":
		return "bigcilin"
	case "Probase-Tran":
		return "probasetran"
	default:
		return "cnprobase"
	}
}

// BenchmarkTableII runs the API workload mix over HTTP and reports the
// observed call counts (Table II shape).
func BenchmarkTableII(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	var calls float64
	for i := 0; i < b.N; i++ {
		_, stats, err := s.Table2(2000)
		if err != nil {
			b.Fatal(err)
		}
		calls = float64(stats.Men2Ent + stats.GetConcept + stats.GetEntity)
	}
	b.ReportMetric(calls/b.Elapsed().Seconds()*float64(b.N), "calls/s")
}

// BenchmarkFigure3Separation measures the separation algorithm itself
// (Figure 3): brackets per second through segmentation + PMI trees.
func BenchmarkFigure3Separation(b *testing.B) {
	s := benchSuite(b)
	brackets := make([]string, 0, 1024)
	for _, p := range s.World.Corpus().Pages {
		if p.Bracket != "" {
			brackets = append(brackets, p.Bracket)
		}
	}
	if len(brackets) == 0 {
		b.Fatal("no brackets")
	}
	demo := s.SeparationDemo(brackets[:1]) // warm the path
	_ = demo
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.SeparationDemo([]string{brackets[i%len(brackets)]})
	}
}

// BenchmarkPerSource regenerates the in-text per-source precision
// numbers (bracket 96.2%, tag 97.4% in the paper).
func BenchmarkPerSource(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	var rows []experiments.SourceRow
	for i := 0; i < b.N; i++ {
		_, rows = s.PerSource()
	}
	b.StopTimer()
	for _, r := range rows {
		b.ReportMetric(r.PrecisionKept*100, "prec-%-"+r.Source.String())
	}
}

// BenchmarkPredicateDiscovery regenerates E6 (341 candidates → 12
// curated in the paper) by re-running the pipeline's discovery stage.
func BenchmarkPredicateDiscovery(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	var nCand, nSel int
	for i := 0; i < b.N; i++ {
		_, cands, sel := s.Predicates()
		nCand, nSel = len(cands), len(sel)
	}
	b.StopTimer()
	b.ReportMetric(float64(nCand), "candidates")
	b.ReportMetric(float64(nSel), "curated")
}

// BenchmarkQACoverage regenerates E5: coverage of the taxonomy over the
// generated question set (91.68% over 23,472 questions in the paper).
func BenchmarkQACoverage(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	var cov, avg float64
	for i := 0; i < b.N; i++ {
		_, res := s.QA(23472)
		cov, avg = res.Coverage(), res.AvgConceptsPerEntity
	}
	b.StopTimer()
	b.ReportMetric(cov*100, "coverage-%")
	b.ReportMetric(avg, "concepts/entity")
}

// BenchmarkNeuralGeneration regenerates E7: the copy-mechanism
// ablation (exact-match accuracy with and without copying).
func BenchmarkNeuralGeneration(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	var res experiments.NeuralResult
	for i := 0; i < b.N; i++ {
		var err error
		_, res, err = s.Neural(800, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.AccCopy*100, "acc-copy-%")
	b.ReportMetric(res.AccNoCopy*100, "acc-nocopy-%")
}

// BenchmarkAblationVerification regenerates A1: the pipeline with each
// verification strategy toggled (the design-choice ablation DESIGN.md
// calls out).
func BenchmarkAblationVerification(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	var rows []experiments.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		_, rows, err = s.Ablation()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, r := range rows {
		b.ReportMetric(r.Precision*100, "prec-%-"+sanitize(r.Name))
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// BenchmarkMentionLookup measures men2ent resolution.
func BenchmarkMentionLookup(b *testing.B) {
	s := benchSuite(b)
	pages := s.World.Corpus().Pages
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Result.Mentions.Lookup(pages[i%len(pages)].Title)
	}
}

// BenchmarkAblationSeparation compares the PMI separation algorithm
// against the naive suffix heuristic on bracket extraction (the A2
// design-choice ablation).
func BenchmarkAblationSeparation(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	var rows []experiments.SeparationVsSuffixRow
	for i := 0; i < b.N; i++ {
		_, rows = s.SeparationVsSuffix()
	}
	b.StopTimer()
	for _, r := range rows {
		b.ReportMetric(r.Precision*100, "prec-%-"+sanitize(r.Name))
	}
}

// BenchmarkConceptualize measures the short-text conceptualization
// application layer (mention finding + disambiguation + concept
// aggregation per text).
func BenchmarkConceptualize(b *testing.B) {
	s := benchSuite(b)
	engine := NewViewConceptualizer(s.Result.Freeze())
	texts := make([]string, 0, 256)
	for _, e := range s.World.Entities[:256] {
		texts = append(texts, e.Title+"的代表作品有哪些？")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = engine.Conceptualize(texts[i%len(texts)])
	}
}

// snapshotBytes saves the suite's serving state once, for the
// snapshot benchmarks.
func snapshotBytes(b *testing.B) []byte {
	b.Helper()
	s := benchSuite(b)
	var buf bytes.Buffer
	if err := SaveSnapshot(&buf, s.Result); err != nil {
		b.Fatalf("SaveSnapshot: %v", err)
	}
	return buf.Bytes()
}

// BenchmarkSnapshotSave measures writing the binary serving snapshot
// (stripe-parallel encode + CRC); MB/s reads off the -benchmem output.
func BenchmarkSnapshotSave(b *testing.B) {
	s := benchSuite(b)
	size := len(snapshotBytes(b))
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SaveSnapshot(io.Discard, s.Result); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotLoad measures reassembling the full serving state —
// taxonomy store, mention index, evidence — from a snapshot.
func BenchmarkSnapshotLoad(b *testing.B) {
	data := snapshotBytes(b)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := LoadSnapshot(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if res.Taxonomy.ComputeStats().IsARelations == 0 {
			b.Fatal("empty taxonomy")
		}
	}
}

// BenchmarkLoadVsRebuild is the serving-startup comparison the
// snapshot exists for: sub-benchmark Load starts a server from the
// snapshot, Rebuild re-runs the generation + verification pipeline
// (neural stage off, its cheapest configuration) — the only option
// before snapshots existed. The ns/op ratio is the startup speedup.
func BenchmarkLoadVsRebuild(b *testing.B) {
	s := benchSuite(b)
	data := snapshotBytes(b)
	b.Run("Load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := LoadSnapshot(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			if res.Taxonomy.ComputeStats().IsARelations == 0 {
				b.Fatal("empty taxonomy")
			}
		}
	})
	b.Run("Rebuild", func(b *testing.B) {
		opts := core.DefaultOptions()
		opts.EnableNeural = false
		corpus := s.World.Corpus()
		for i := 0; i < b.N; i++ {
			res, err := core.New(opts).Build(corpus)
			if err != nil {
				b.Fatal(err)
			}
			if res.Taxonomy.ComputeStats().IsARelations == 0 {
				b.Fatal("empty taxonomy")
			}
		}
	})
}

// BenchmarkIncrementalUpdate measures the never-ending-extraction mode:
// extending a built taxonomy with a fresh crawl batch.
func BenchmarkIncrementalUpdate(b *testing.B) {
	s := benchSuite(b)
	corpus := s.World.Corpus()
	half := corpus.Len() / 2
	opts := core.DefaultOptions()
	opts.EnableNeural = false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		first := &Corpus{Pages: corpus.Pages[:half]}
		delta := &Corpus{Pages: corpus.Pages[half:]}
		p := core.New(opts)
		res, err := p.Build(first)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := p.Update(res, delta); err != nil {
			b.Fatal(err)
		}
	}
}
