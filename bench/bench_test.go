package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// The harness re-executes its own binary for each workload; under
// `go test` that binary is the test binary, so a -child invocation is
// handed to main.
func TestMain(m *testing.M) {
	if slices.Contains(os.Args[1:], "-child") {
		main()
		return
	}
	os.Exit(m.Run())
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

// TestSmoke runs all four workloads, untraced and traced, on a tiny
// configuration, and checks that every metric BENCHMARK.json names
// comes out, finite and with its unit, that nothing failed, and that
// every trace parses with every parent resolving. It asserts no time.
func TestSmoke(t *testing.T) {
	var bm benchmarkFile
	if err := readJSON("../BENCHMARK.json", &bm); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bm.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, workloadNames)
	}
	sameDefs := func(kind string, file []benchmarkMetric, defs []metricDef) {
		if len(file) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json names %d metrics, harness %d", kind, len(file), len(defs))
		}
		for i, d := range defs {
			if got := (metricDef{file[i].Name, file[i].Unit, file[i].Better, file[i].Bound}); got != d {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, harness %+v", kind, i, got, d)
			}
		}
	}
	sameDefs("end_to_end", bm.EndToEnd, endToEnd)
	sameDefs("per_layer", bm.PerLayer, perLayer)

	out := t.TempDir()
	cfg := config{seed: 1, seconds: time.Second, entities: 800, out: out}
	runs, err := runAll(context.Background(), cfg, workloadNames, []bool{false, true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2*len(workloadNames) {
		t.Fatalf("%d runs, want %d", len(runs), 2*len(workloadNames))
	}
	for _, r := range runs {
		defs := bm.EndToEnd
		if r.Trace == 1 {
			defs = bm.PerLayer
		}
		if r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s trace=%d: attempted %d, failed %d", r.Workload, r.Trace, r.Attempted, r.Failed)
		}
		if len(r.Metrics) != len(defs) {
			t.Errorf("%s trace=%d: %d metrics, want %d", r.Workload, r.Trace, len(r.Metrics), len(defs))
		}
		for _, d := range defs {
			v, ok := r.Metrics[d.Name]
			if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s trace=%d: metric %s = %+v (present %t), want a finite value in %s", r.Workload, r.Trace, d.Name, v, ok, d.Unit)
			}
			if r.Trace == 0 && v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", r.Workload, d.Name, v.Value)
			}
		}
	}
	for _, w := range workloadNames {
		var tf traceFile
		if err := readJSON(filepath.Join(out, "trace-"+w+".json"), &tf); err != nil {
			t.Fatal(err)
		}
		if tf.Workload != w || len(tf.Spans) == 0 {
			t.Errorf("trace-%s.json: workload %q, %d spans", w, tf.Workload, len(tf.Spans))
		}
		for i, s := range tf.Spans {
			if s.ID != i+1 || s.Parent < 0 || s.Parent > len(tf.Spans) || s.Parent == s.ID || s.End < s.Start || s.Name == "" {
				t.Fatalf("trace-%s.json: bad span %+v", w, s)
			}
		}
	}
	if entries, err := os.ReadDir(out); err != nil || len(entries) != len(workloadNames) {
		t.Errorf("scratch files left behind in %s: %v (err %v)", out, entries, err)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{"p50_ms", "ms", "lower", 0.10}
	higher := metricDef{"ops_per_s", "1/s", "higher", 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	noisy := []float64{100, 130, 80, 95, 120}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{120, 121, 119}, "worse"},
		{lower, steady, []float64{80, 81, 79}, "improved"},
		{lower, steady, []float64{104, 105, 103}, "unchanged"},
		{lower, steady, noisy, "unresolved"},
		{higher, steady, []float64{80, 81, 79}, "worse"},
		{higher, steady, []float64{120, 121, 119}, "improved"},
	} {
		if got, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s a=%v b=%v: %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
	// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}
