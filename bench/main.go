// Command bench is the repository's benchmark harness: from one
// command it generates seeded fixtures, runs the four workloads
// (lookup, apps, ingest, build) untraced for the end-to-end metrics
// and traced for the per-layer metrics, checks the outputs, and prints
// every metric by name. README.md describes the workloads and metrics.
//
//	bash bench/run.sh                               # everything, into bench/out/result.json
//	bash bench/run.sh -workload lookup -trace 0     # one run; last line is its JSON result
//	bash bench/run.sh -compare a.json b.json        # judge b against a with BENCHMARK.json's bounds
//
// -seed, -seconds and -entities are inputs of the harness only: the
// program under test sees none of them except as generated files and
// requests.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"cnprobase"
)

// config is what one run of one workload is told.
type config struct {
	workload string
	trace    bool
	seed     int64
	seconds  time.Duration
	entities int
	out      string // where traces and results go
	fixtures string // the fixture directory (child only)
	work     string // a directory of the run's own (child only)
}

func main() {
	var (
		workload = flag.String("workload", "all", "lookup, apps, ingest, build or all")
		trace    = flag.String("trace", "both", "0 = end-to-end metrics, tracing off; 1 = per-layer metrics from the traced run; both")
		seed     = flag.Int64("seed", 1, "seed of the world and of every request sequence")
		seconds  = flag.Float64("seconds", 15, "measured time per run: three segments of a third each after a warm-up of a tenth")
		entities = flag.Int("entities", 30000, "entities in the synthetic world")
		out      = flag.String("out", "out", "directory for traces, results and scratch files")
		runs     = flag.Int("runs", 1, "with -workload all: repeat every run this many times, seeds seed, seed+1, ...")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		child    = flag.Bool("child", false, "internal: run one workload in this process")
		fixDir   = flag.String("fixtures", "", "internal: fixture directory of the child")
		workDir  = flag.String("work", "", "internal: scratch directory of the child")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: -compare a.json b.json"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	cfg := config{
		workload: *workload, trace: *trace == "1", seed: *seed,
		seconds: time.Duration(*seconds * float64(time.Second)), entities: *entities,
		out: *out, fixtures: *fixDir, work: *workDir,
	}
	if *child {
		runChild(cfg)
		return
	}
	var workloads []string
	for _, w := range workloadNames {
		if *workload == "all" || *workload == w {
			workloads = append(workloads, w)
		}
	}
	var traces []bool
	switch *trace {
	case "0":
		traces = []bool{false}
	case "1":
		traces = []bool{true}
	case "both":
		traces = []bool{false, true}
	}
	if len(workloads) == 0 || len(traces) == 0 || cfg.seconds <= 0 || *runs < 1 {
		fatal(fmt.Errorf("bad -workload %q, -trace %q, -seconds %v or -runs %d", *workload, *trace, *seconds, *runs))
	}
	if err := runParent(cfg, workloads, traces, *runs); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runChild runs one workload in this process and prints its tally. The
// parent starts a fresh process per run so that set-up time, heap and
// peak RSS belong to the workload and not to the fixture generator.
func runChild(cfg config) {
	t := newTally()
	var err error
	switch {
	case cfg.workload == "ingest" && cfg.trace:
		err = traceIngest(cfg, t)
	case cfg.workload == "ingest":
		err = runIngest(cfg, t)
	case cfg.workload == "build" && cfg.trace:
		err = traceBuild(cfg, t)
	case cfg.workload == "build":
		err = runBuild(cfg, t)
	case cfg.trace:
		err = traceQueries(cfg, t)
	default:
		err = runQueries(cfg, t)
	}
	if err != nil {
		t.fail("%s: %v", cfg.workload, err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(t); err != nil {
		fatal(err)
	}
}

// run is one line of a result file.
type run struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	Seed     int64  `json:"seed"`
	result
}

// runParent runs the requested workloads and prints the results: the
// contract's JSON line for a single run, a table and a result file for
// more.
func runParent(cfg config, workloads []string, traces []bool, runs int) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	all, err := runAll(ctx, cfg, workloads, traces, runs)
	if err != nil {
		return err
	}
	if len(all) == 1 {
		if err := json.NewEncoder(os.Stdout).Encode(all[0].result); err != nil {
			return err
		}
	} else {
		printTable(os.Stdout, all)
		path := filepath.Join(cfg.out, "result.json")
		if err := writeResultFile(path, resultFile{Env: environment(cfg), Runs: all}); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", path)
	}
	for _, r := range all {
		if !r.Correct {
			return errors.New("a run failed its checks")
		}
	}
	return nil
}

// runAll generates one set of fixtures per seed and runs each
// requested workload on it, every run in a child process of its own.
// Scratch files live under cfg.out and are gone when it returns.
func runAll(ctx context.Context, cfg config, workloads []string, traces []bool, runs int) ([]run, error) {
	scratch := filepath.Join(cfg.out, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	var all []run
	for i := 0; i < runs; i++ {
		seed := cfg.seed + int64(i)
		fx, err := newFixtures(filepath.Join(scratch, fmt.Sprintf("fixtures-%d", seed)), seed, cfg.entities)
		if err != nil {
			return nil, err
		}
		for _, traced := range traces {
			for _, w := range workloads {
				c := cfg
				c.workload, c.trace, c.seed = w, traced, seed
				c.fixtures = fx.dir
				c.work = filepath.Join(scratch, fmt.Sprintf("%s-%d-%t", w, seed, traced))
				res, err := runOne(ctx, c, fx)
				if err != nil {
					return nil, err
				}
				r := run{Workload: w, Seed: seed, result: res}
				if traced {
					r.Trace = 1
				}
				all = append(all, r)
				if err := os.RemoveAll(c.work); err != nil {
					return nil, err
				}
			}
		}
		if err := os.RemoveAll(fx.dir); err != nil {
			return nil, err
		}
	}
	return all, nil
}

// runOne prepares what the workload needs, runs it in a child process
// and completes its tally with what only the parent can measure.
// Failed checks go to standard error; the result only counts them.
func runOne(ctx context.Context, cfg config, fx *fixtures) (result, error) {
	var none result
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return none, err
	}
	build := fx.baseBuild
	if cfg.workload == "build" {
		build = fx.fullBuild
	}
	b, err := build()
	if err != nil {
		return none, err
	}

	t, err := spawn(ctx, cfg)
	if err != nil {
		return none, err
	}
	defer func() {
		for _, e := range t.Errs {
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", cfg.workload, e)
		}
	}()
	if cfg.trace {
		t.set("synth.generate_s", (fx.worldDur + b.dur).Seconds())
		return t.result(perLayer), nil
	}

	judged := b.res
	switch cfg.workload {
	case "build":
		// The child built the same corpus with the same options, so its
		// counts are the parent's: the parent's taxonomy stands in for it.
		want := map[string]float64{}
		buildFacts(b.res, want)
		for k, v := range want {
			t.check(t.Facts[k] == v, "build is not deterministic: %s is %v in the workload, %v in the parent", k, t.Facts[k], v)
		}
	case "ingest":
		// The last compaction left every acked batch in the snapshot file.
		f, err := os.Open(filepath.Join(cfg.work, "ingest.snap"))
		if err != nil {
			return none, err
		}
		res, lsn, err := cnprobase.LoadSnapshotLSN(f, 0, 0)
		_ = f.Close() // read only
		if err != nil {
			return none, fmt.Errorf("compacted snapshot: %w", err)
		}
		t.check(float64(lsn) == t.Facts["last_lsn"], "compacted snapshot covers LSN %d, last ack carried %v", lsn, t.Facts["last_lsn"])
		judged = res
	}
	precision, qaCoverage := fx.quality(judged)
	t.set("precision", precision)
	t.set("qa_coverage", qaCoverage)
	t.check(precision >= 0.95, "precision %.4f is below 0.95", precision)
	if cfg.workload == "build" {
		// The paper's experiment runs on the whole corpus; the other
		// workloads serve a taxonomy that has not seen the held-out tenth.
		t.check(qaCoverage >= 0.90, "QA coverage %.4f is below 0.90", qaCoverage)
	}
	for _, d := range endToEnd {
		if t.Vals[d.Name] <= 0 {
			t.fail("%s was not measured", d.Name)
		}
	}
	return t.result(endToEnd), nil
}

// spawn re-executes this binary as the workload's process and decodes
// the tally it prints. The child is killed if the parent is
// interrupted or if it outlives the contract's limit for one run.
func spawn(ctx context.Context, cfg config) (*tally, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()
	traceFlag := "0"
	if cfg.trace {
		traceFlag = "1"
	}
	cmd := exec.CommandContext(ctx, self, "-child",
		"-workload", cfg.workload, "-trace", traceFlag,
		"-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds.Seconds()),
		"-entities", fmt.Sprint(cfg.entities),
		"-out", cfg.out, "-fixtures", cfg.fixtures, "-work", cfg.work)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s workload process: %w", cfg.workload, err)
	}
	t := newTally()
	if err := json.Unmarshal(stdout, t); err != nil {
		return nil, fmt.Errorf("%s workload process printed no tally: %w", cfg.workload, err)
	}
	return t, nil
}

// ---- result files ----

// env records where and how a result file was measured.
type env struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Entities   int     `json:"entities"`
	Seconds    float64 `json:"seconds"`
	SegmentS   float64 `json:"segment_s"`
	WarmupS    float64 `json:"warmup_s"`
}

type resultFile struct {
	Env  env   `json:"env"`
	Runs []run `json:"runs"`
}

// writeResultFile writes one run per line, so that a committed
// baseline diffs run by run.
func writeResultFile(path string, rf resultFile) error {
	envRaw, err := json.Marshal(rf.Env)
	if err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "{\n\"env\": %s,\n\"runs\": [\n", envRaw)
	for i, r := range rf.Runs {
		raw, err := json.Marshal(r)
		if err != nil {
			return err
		}
		b.Write(raw)
		if i < len(rf.Runs)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n}\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func environment(cfg config) env {
	e := env{
		Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", Seed: cfg.seed, Entities: cfg.entities,
		Seconds: cfg.seconds.Seconds(), SegmentS: (cfg.seconds / 3).Seconds(), WarmupS: (cfg.seconds / 10).Seconds(),
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// printTable prints every metric of every run by name, with its unit
// and which direction is better.
func printTable(w *os.File, runs []run) {
	for _, r := range runs {
		defs, mode := endToEnd, "end-to-end, tracing off"
		if r.Trace == 1 {
			defs, mode = perLayer, "per-layer, traced"
		}
		fmt.Fprintf(w, "\n%s (seed %d; %s): correct=%t attempted=%d failed=%d\n", r.Workload, r.Seed, mode, r.Correct, r.Attempted, r.Failed)
		for _, d := range defs {
			v := r.Metrics[d.Name]
			fmt.Fprintf(w, "  %-32s %16.4f %-6s (%s is better)\n", d.Name, v.Value, v.Unit, d.Better)
		}
	}
}
