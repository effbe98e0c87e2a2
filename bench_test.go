package cnprobase

// Benchmarks regenerating the paper's evaluation artifacts, one per
// table/figure (the experiment index is internal/experiments' package
// doc). Custom metrics report the
// quantities the paper reports — precision, coverage, counts — so the
// bench output doubles as the reproduction record:
//
//	go test -bench=. -benchmem
//
// Shared suites are built once per benchmark and the construction cost
// is excluded via b.ResetTimer where the benchmark measures queries.
// The speed of building, updating, snapshotting and serving is measured
// by the bench/ harness (bash bench/run.sh), not here.
import (
	"fmt"
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
// verification strategy toggled (see internal/experiments' index).
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
