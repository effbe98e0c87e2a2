package api

import (
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"cnprobase/internal/serving"
	"cnprobase/internal/taxonomy"
)

// benchWorld builds a workload-ready server usable from both tests and
// benchmarks.
func benchWorld(tb testing.TB) (*Server, *httptest.Server) {
	tb.Helper()
	tax := taxonomy.New()
	tax.MarkEntity("刘德华（演员）")
	tax.MarkEntity("刘德华（作家）")
	for _, e := range [][2]string{
		{"刘德华（演员）", "演员"},
		{"刘德华（演员）", "歌手"},
		{"刘德华（作家）", "作家"},
	} {
		if err := tax.AddIsA(e[0], e[1], taxonomy.SourceTag); err != nil {
			tb.Fatal(err)
		}
	}
	tax.AddMention("刘德华", "刘德华（演员）")
	tax.AddMention("刘德华", "刘德华（作家）")
	srv := NewViewServer(serving.Compile(tax))
	ts := httptest.NewServer(srv.Handler())
	tb.Cleanup(ts.Close)
	return srv, ts
}

// mixedWorkloadConfig extends the paper's mix with the application
// endpoints at a minority share and Zipfian argument skew, so the
// generator's conceptualize/qa branches and its sampler are exercised.
func mixedWorkloadConfig() WorkloadConfig {
	cfg := DefaultWorkloadConfig()
	cfg.Weights[3], cfg.Weights[4] = 15000000, 8000000
	cfg.ZipfS, cfg.ZipfV = 1.2, 1
	return cfg
}

// TestMixedWorkload drives the extended generator: all five endpoints
// must receive traffic, the server's counters must match what the
// client issued, and Zipfian sampling must actually skew toward head
// nodes.
func TestMixedWorkload(t *testing.T) {
	srv, ts := benchWorld(t)
	cfg := mixedWorkloadConfig()
	cfg.Calls = 2000
	issued, err := RunWorkload(NewClient(ts.URL), srv.View(), cfg)
	if err != nil {
		t.Fatalf("RunWorkload: %v", err)
	}
	if issued.Men2Ent == 0 || issued.GetConcept == 0 || issued.GetEntity == 0 ||
		issued.Conceptualize == 0 || issued.QA == 0 {
		t.Fatalf("issued = %+v, want traffic on all five endpoints", issued)
	}
	total := issued.Men2Ent + issued.GetConcept + issued.GetEntity + issued.Conceptualize + issued.QA
	if total != int64(cfg.Calls) {
		t.Errorf("issued %d calls, want %d", total, cfg.Calls)
	}
	got := srv.Counters()
	// Conceptualize on the server side counts batch-expanded texts too,
	// but the generator only uses the single-shot endpoint, so the
	// counters must match exactly.
	if got.Conceptualize != issued.Conceptualize || got.QA != issued.QA {
		t.Errorf("server counters %+v != issued %+v", got, issued)
	}
	// Every endpoint shows up in the latency report.
	report := srv.LatencyReport()
	seen := map[string]bool{}
	for _, row := range report {
		seen[row.Endpoint] = true
	}
	for _, ep := range []string{"men2ent", "getConcept", "getEntity", "conceptualize", "qa"} {
		if !seen[ep] {
			t.Errorf("latency report missing %s: %+v", ep, report)
		}
	}
}

// TestWorkloadZipfSkew checks the sampler shape directly: with s > 1
// the head node must absorb far more picks than a uniform sampler
// would give it.
func TestWorkloadZipfSkew(t *testing.T) {
	cfg := mixedWorkloadConfig()
	rngPicks := func(zipf bool) []int {
		c := cfg
		if !zipf {
			c.ZipfS = 0
		}
		s := newSampler(rand.New(rand.NewSource(7)), c, 100)
		counts := make([]int, 100)
		for i := 0; i < 5000; i++ {
			counts[s.pick()]++
		}
		return counts
	}
	zipf := rngPicks(true)
	uniform := rngPicks(false)
	if zipf[0] < 3*uniform[0] {
		t.Errorf("zipf head picks = %d, uniform = %d; want strong head skew", zipf[0], uniform[0])
	}
}

// BenchmarkMixedWorkload runs the extended five-endpoint workload
// end-to-end over HTTP and reports request throughput plus the
// server-observed p50/p99 — the serving-load smoke CI runs once per
// bench cycle.
func BenchmarkMixedWorkload(b *testing.B) {
	srv, ts := benchWorld(b)
	cfg := mixedWorkloadConfig()
	cfg.Calls = 400
	client := NewClient(ts.URL)
	start := time.Now()
	calls := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := RunWorkload(client, srv.View(), cfg); err != nil {
			b.Fatalf("RunWorkload: %v", err)
		}
		calls += cfg.Calls
	}
	b.StopTimer()
	if sec := time.Since(start).Seconds(); sec > 0 {
		b.ReportMetric(float64(calls)/sec, "req/s")
	}
	for _, row := range srv.LatencyReport() {
		if row.Endpoint == "conceptualize" {
			b.ReportMetric(row.P50Ms, "conceptualize-p50-ms")
			b.ReportMetric(row.P99Ms, "conceptualize-p99-ms")
		}
	}
}
