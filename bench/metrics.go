package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric the harness prints. The two lists below
// are the same lists BENCHMARK.json carries; bench_test.go holds them
// equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the baseline median it may worsen by
}

// endToEnd metrics are defined on every workload and never read 0.
// An "op" is a request on lookup and apps and a page on ingest and
// build; README.md gives the definition per workload. The timing
// bounds are the widest the driver allows: on the shared 2-core box
// the same commit's medians drift by 10-17% between two sets of ten
// runs. Tail latency drifted by 21% and is a per-layer metric for that
// reason (trace.client_p99_us, probe.p99_us).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"heap_mb", "MiB", "lower", 0.05},
	{"rss_peak_mb", "MiB", "lower", 0.15},
	{"precision", "ratio", "higher", 0.05},
	{"qa_coverage", "ratio", "higher", 0.05},
}

// perLayer metrics come from the traced run. A workload reports 0 for
// a layer it does not exercise (the wal does no work on lookup).
var perLayer = []metricDef{
	// query ladder (lookup, apps)
	{"snapshot.open_mapped_ms", "ms", "lower", 0},
	{"serving.lookup_ns", "ns", "lower", 0},
	{"serving.hypernyms_ns", "ns", "lower", 0},
	{"serving.hyponyms_ns", "ns", "lower", 0},
	{"serving.allocs_per_op", "count", "lower", 0},
	{"serving.findall_ns", "ns", "lower", 0},
	{"conceptualize.text_ns", "ns", "lower", 0},
	{"conceptualize.allocs_per_text", "count", "lower", 0},
	{"qa.understand_ns", "ns", "lower", 0},
	{"api.handler_ns", "ns", "lower", 0},
	{"api.handler_allocs_per_op", "count", "lower", 0},
	{"api.resp_bytes_per_op", "B", "lower", 0},
	{"resilience.guard_ns", "ns", "lower", 0},
	{"resilience.guard_allocs_per_op", "count", "lower", 0},
	{"nethttp.loopback_ns", "ns", "lower", 0},
	{"api.shed", "count", "lower", 0},
	{"api.timeouts", "count", "lower", 0},
	{"api.panics", "count", "lower", 0},
	{"trace.client_p50_us", "us", "lower", 0},
	{"trace.client_p99_us", "us", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.reconstructed_pct", "%", "higher", 0},
	// ingest ladder
	{"snapshot.load_store_ms", "ms", "lower", 0},
	{"wal.open_replay_ms", "ms", "lower", 0},
	{"serving.compile_ms", "ms", "lower", 0},
	{"encyclopedia.decode_ms", "ms", "lower", 0},
	{"wal.append_ms", "ms", "lower", 0},
	{"wal.bytes_per_user_byte", "ratio", "lower", 0},
	{"core.update_ms", "ms", "lower", 0},
	{"core.reverified_per_batch", "count", "lower", 0},
	{"core.candidate_union", "count", "lower", 0},
	{"api.swap_us", "us", "lower", 0},
	{"api.ack_p50_ms", "ms", "lower", 0},
	{"api.ack_p90_ms", "ms", "lower", 0},
	{"api.ingest_http_ms", "ms", "lower", 0},
	{"trace.stage_share_pct", "%", "higher", 0},
	{"api.compact_ms", "ms", "lower", 0},
	{"snapshot.bytes", "B", "lower", 0},
	{"snapshot.bytes_per_isa", "B", "lower", 0},
	{"runtime.alloc_mb_per_batch", "MiB", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"probe.p50_us", "us", "lower", 0},
	{"probe.p99_us", "us", "lower", 0},
	{"probe.send_lag_p99_us", "us", "lower", 0},
	// build ladder
	{"encyclopedia.read_jsonl_ms", "ms", "lower", 0},
	{"segment.runes_per_s", "1/s", "higher", 0},
	{"segment.allocs_per_cut", "count", "lower", 0},
	{"core.build_seq_s", "s", "lower", 0},
	{"core.build_par_s", "s", "lower", 0},
	{"core.parallel_speedup", "ratio", "higher", 0},
	{"core.candidates_generated", "count", "higher", 0},
	{"core.candidates_kept", "count", "higher", 0},
	{"runtime.alloc_mb_per_build", "MiB", "lower", 0},
	{"snapshot.save_ms", "ms", "lower", 0},
	{"copynet.neural_extra_s", "s", "lower", 0},
	// harness health
	{"synth.generate_s", "s", "lower", 0},
}

var workloadNames = []string{"lookup", "apps", "ingest", "build"}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload prints as its last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// tally collects a workload's measurements and check outcomes. The
// workload's process prints it; the parent adds what only it can know
// (fixture cost, quality against ground truth) and shapes the result.
type tally struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errs      []string           `json:"errs,omitempty"`
	Vals      map[string]float64 `json:"vals"`
	// Facts are exact counts the parent checks against its own.
	Facts map[string]float64 `json:"facts"`
}

func newTally() *tally {
	return &tally{Vals: map[string]float64{}, Facts: map[string]float64{}}
}

func (t *tally) set(name string, v float64) { t.Vals[name] = v }

// check counts one verified output; a false ok is a failed operation.
func (t *tally) check(ok bool, format string, args ...any) {
	t.Attempted++
	if !ok {
		t.fail(format, args...)
	}
}

// count adds operations that were checked in bulk.
func (t *tally) count(attempted, failed int, what string) {
	t.Attempted += attempted
	if failed > 0 {
		t.fail("%d of %d %s", failed, attempted, what)
		t.Failed += failed - 1
	}
}

func (t *tally) fail(format string, args ...any) {
	t.Failed++
	if len(t.Errs) < 10 {
		t.Errs = append(t.Errs, fmt.Sprintf(format, args...))
	}
}

// result shapes the tally into the printed form, holding exactly the
// metrics of defs. A metric the workload did not set reads 0; a value
// that is not finite fails the run.
func (t *tally) result(defs []metricDef) result {
	r := result{Attempted: max(t.Attempted, 1), Metrics: make(map[string]value, len(defs))}
	for _, d := range defs {
		v := t.Vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.fail("metric %s is not finite", d.Name)
			v = 0
		}
		r.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	r.Failed = t.Failed
	r.Correct = t.Failed == 0
	return r
}

// ---- order statistics ----

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank quantile of xs (q in [0,1]).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func durs(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// ---- process accounting ----

// cpuTime is the user+system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB is HeapAlloc after a forced collection. Callers pass the
// system under test so it is still reachable when the collection runs;
// the harness's own tables are dead by then.
func liveHeapMB(keep ...any) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// rssPeakMB reads the process's high-water resident set from /proc.
func rssPeakMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
