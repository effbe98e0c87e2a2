package cnprobase

// Benchmarks of the paper's evaluation artifacts that no
// internal/experiments test runs (the experiment index is that
// package's doc): the separation algorithm's own speed (Figure 3), the
// copy-mechanism ablation (E7) and the verification ablation (A1).
// Custom metrics report the quantities the paper reports, so the bench
// output doubles as the reproduction record:
//
//	go test -bench=. -benchmem
//
// Tables I and II, the per-source precision, predicate discovery, QA
// coverage and the separation-vs-suffix ablation are run by the
// internal/experiments tests, which hold their bands. The shared suite
// is built once and its construction cost is excluded via
// b.ResetTimer. The speed of building, updating, snapshotting and
// serving is measured by the bench/ harness (bash bench/run.sh), not
// here.
import (
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
