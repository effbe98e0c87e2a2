package main

import (
	"fmt"
	"io"
	"math"
)

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(math.Floor(pos))
		i = min(max(i, 1), len(s)-1)
		frac := pos - float64(i)
		return s[i-1] + frac*(s[i]-s[i-1])
	}
	return at(0.25), at(0.75)
}

// spread is the distance between the quartiles as a share of the
// median; it is unknown (0) below four runs.
func spread(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// valuesOf collects a metric's values over a file's runs of one
// workload and trace mode.
func valuesOf(f *resultFile, workload string, trace int, name string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == trace {
			if v, ok := r.Metrics[name]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// verdict judges b against a for one end-to-end metric: worse or
// improved when the medians differ by more than the bound, unresolved
// when they do not but either side's spread is wider than the bound.
func verdict(d metricDef, a, b []float64) (string, float64) {
	ma, mb := median(a), median(b)
	change := (mb - ma) / math.Abs(ma)
	worse := change
	if d.Better == "higher" {
		worse = -change
	}
	switch {
	case worse > d.Bound:
		return "worse", change
	case worse < -d.Bound:
		return "improved", change
	case max(spread(a), spread(b)) > d.Bound:
		return "unresolved", change
	}
	return "unchanged", change
}

// compareFiles prints one row per workload and end-to-end metric, then
// the per-layer medians side by side, and reports whether any row is
// worse.
func compareFiles(w io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	var a, b resultFile
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a: %s  commit %s  %s  %d cpus (%s)  seed %d  %d entities  %gs\n", pathA, a.Env.Commit, a.Env.GoVersion, a.Env.NumCPU, a.Env.CPUModel, a.Env.Seed, a.Env.Entities, a.Env.Seconds)
	fmt.Fprintf(w, "b: %s  commit %s  %s  %d cpus (%s)  seed %d  %d entities  %gs\n\n", pathB, b.Env.Commit, b.Env.GoVersion, b.Env.NumCPU, b.Env.CPUModel, b.Env.Seed, b.Env.Entities, b.Env.Seconds)
	fmt.Fprintf(w, "%-8s %-16s %14s %14s %8s %6s %8s %8s  %s\n", "workload", "metric", "a median", "b median", "change", "bound", "a spread", "b spread", "verdict")
	for _, wl := range workloadNames {
		for _, d := range endToEnd {
			va, vb := valuesOf(&a, wl, 0, d.Name), valuesOf(&b, wl, 0, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, change := verdict(d, va, vb)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-8s %-16s %14.4f %14.4f %+7.1f%% %5.0f%% %7.1f%% %7.1f%%  %s\n",
				wl, d.Name, median(va), median(vb), 100*change, 100*d.Bound, 100*spread(va), 100*spread(vb), v)
		}
	}
	fmt.Fprintf(w, "\n%-8s %-32s %16s %16s %8s\n", "workload", "layer metric", "a median", "b median", "change")
	for _, wl := range workloadNames {
		for _, d := range perLayer {
			va, vb := valuesOf(&a, wl, 1, d.Name), valuesOf(&b, wl, 1, d.Name)
			if len(va) == 0 || len(vb) == 0 || (median(va) == 0 && median(vb) == 0) {
				continue
			}
			fmt.Fprintf(w, "%-8s %-32s %16.4f %16.4f %+7.1f%%\n", wl, d.Name, median(va), median(vb), 100*(median(vb)-median(va))/math.Abs(median(va)))
		}
	}
	return anyWorse, nil
}
