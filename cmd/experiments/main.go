// Command experiments regenerates every table and figure of the
// paper's evaluation over a synthetic encyclopedia world (see
// DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// results).
//
// Usage:
//
//	experiments [-entities N] [-all] [-table1] [-table2] [-sources]
//	            [-predicates] [-qa] [-neural] [-ablation] [-figure3]
//	experiments -bench-build [-entities N] [-bench-out BENCH_BUILD.json]
//	experiments -bench-update [-entities N] [-update-batches K] [-bench-update-out BENCH_UPDATE.json]
//	experiments -bench-recovery [-entities N] [-recovery-batches K] [-bench-recovery-out BENCH_RECOVERY.json]
//	experiments -bench-qa [-entities N] [-questions M] [-bench-qa-out BENCH_QA.json]
//	experiments -bench-serve [-entities N] [-serve-calls K] [-bench-serve-out BENCH_SERVE.json]
//	experiments -bench-startup [-entities N] [-bench-startup-out BENCH_STARTUP.json]
//	experiments -bench-overload [-entities N] [-overload-requests K] [-bench-overload-out BENCH_OVERLOAD.json]
//
// -bench-build skips the evaluation suite and instead measures the
// build-side hot path — steady-state segmentation runes/s, end-to-end
// pipeline pages/s (sequential and parallel), and allocations per cut —
// writing the record to -bench-out as JSON (CI uploads it as the
// BENCH_BUILD.json artifact, one data point per commit).
//
// -bench-update measures incremental-update cost: build over the first
// 1/(K+1) of the world, fold the rest in as K fixed-size delta batches
// through Update, and record per-batch wall time and pages/s against
// the accumulated corpus size in BENCH_UPDATE.json. (At this world size
// the batches are a tenth of the corpus each; the bench/ harness's
// ingest workload is the one that fixes the batch and grows the world.)
//
// -bench-recovery measures durable-ingest cold-start cost: save a base
// snapshot, append K JSONL batches to a real on-disk WAL, and after
// each batch time a full recovery (snapshot load + WAL replay); then
// compact and time the restart the fresh snapshot buys. The emitted
// BENCH_RECOVERY.json documents that replay cost grows with the
// un-compacted tail and compaction collapses it back to snapshot-load
// time.
//
// -bench-qa runs the E5 QA coverage experiment on the immutable
// serving view — the same data path /api/qa serves — and records
// coverage, concepts-per-covered-entity (with the paper's 91.68% /
// 2.14 alongside), ground-truth recall, and question-evaluation
// throughput as BENCH_QA.json.
//
// -bench-serve fires the extended Table II mix (the three lookup APIs
// plus conceptualize and qa, Zipfian argument skew) over real HTTP
// against the serving view and records throughput and the server's
// per-endpoint p50/p99 as BENCH_SERVE.json.
//
// -bench-startup saves the same state in the striped v2 layout and the
// mappable v3 layout at growing world sizes and measures file-to-view
// cold start (LoadView decode vs OpenMapped) plus live-heap growth as
// BENCH_STARTUP.json — the record documenting the O(1) mapped start.
//
// -bench-overload drives closed-loop client populations at 1×/4×/16×
// of the serving plane's admission capacity — once with admission
// control armed, once without — over a real listener, and records
// goodput, client-observed p99 and shed rate per cell as
// BENCH_OVERLOAD.json: the record documenting that overload turns
// into fast clean 429s instead of collapsing goodput.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"cnprobase/internal/core"
	"cnprobase/internal/experiments"
)

// writeJSONFile creates path, streams write into it, and closes it —
// folding a close failure into the result so a full disk or quota hit
// at flush time cannot leave a bench artifact silently truncated.
func writeJSONFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var (
		entities  = flag.Int("entities", 8000, "synthetic world size (entities)")
		all       = flag.Bool("all", false, "run every experiment")
		table1    = flag.Bool("table1", false, "E1: Table I taxonomy comparison")
		table2    = flag.Bool("table2", false, "E2: Table II API workload")
		sources   = flag.Bool("sources", false, "E3/E4: per-source precision")
		preds     = flag.Bool("predicates", false, "E6: predicate discovery")
		qaFlag    = flag.Bool("qa", false, "E5: QA coverage")
		neural    = flag.Bool("neural", false, "E7: copy-mechanism ablation")
		ablation  = flag.Bool("ablation", false, "A1: verification ablation")
		figure3   = flag.Bool("figure3", false, "F3: separation algorithm walkthrough")
		apiCalls  = flag.Int("api-calls", 20000, "Table II workload size")
		questions = flag.Int("questions", 23472, "QA dataset size (paper: 23472)")
		benchB    = flag.Bool("bench-build", false, "measure build throughput and emit JSON instead of running experiments")
		benchOut  = flag.String("bench-out", "BENCH_BUILD.json", "output path for -bench-build")
		benchU    = flag.Bool("bench-update", false, "measure incremental-update cost across batches and emit JSON instead of running experiments")
		benchUOut = flag.String("bench-update-out", "BENCH_UPDATE.json", "output path for -bench-update")
		updateK   = flag.Int("update-batches", 10, "number of fixed-size delta batches for -bench-update")
		benchR    = flag.Bool("bench-recovery", false, "measure snapshot+WAL recovery cost and emit JSON instead of running experiments")
		benchROut = flag.String("bench-recovery-out", "BENCH_RECOVERY.json", "output path for -bench-recovery")
		recoverK  = flag.Int("recovery-batches", 8, "number of WAL batches for -bench-recovery")
		benchQ    = flag.Bool("bench-qa", false, "run QA coverage on the serving view and emit JSON instead of running experiments")
		benchQOut = flag.String("bench-qa-out", "BENCH_QA.json", "output path for -bench-qa")
		benchS    = flag.Bool("bench-serve", false, "measure the mixed HTTP serving workload and emit JSON instead of running experiments")
		benchSOut = flag.String("bench-serve-out", "BENCH_SERVE.json", "output path for -bench-serve")
		serveK    = flag.Int("serve-calls", 20000, "workload size for -bench-serve")
		benchSt   = flag.Bool("bench-startup", false, "measure snapshot cold-start (decode vs mmap) and emit JSON instead of running experiments")
		benchStO  = flag.String("bench-startup-out", "BENCH_STARTUP.json", "output path for -bench-startup")
		benchO    = flag.Bool("bench-overload", false, "measure goodput/p99/shed under 1x/4x/16x overload, with and without admission control, and emit JSON instead of running experiments")
		benchOOut = flag.String("bench-overload-out", "BENCH_OVERLOAD.json", "output path for -bench-overload")
		overloadK = flag.Int("overload-requests", 4000, "requests per load level for -bench-overload")
	)
	flag.Parse()
	if *benchB || *benchU || *benchR || *benchQ || *benchS || *benchSt || *benchO {
		if *benchB {
			runBuildBench(*entities, *benchOut)
		}
		if *benchU {
			runUpdateBench(*entities, *updateK, *benchUOut)
		}
		if *benchR {
			runRecoveryBench(*entities, *recoverK, *benchROut)
		}
		if *benchQ {
			runQABench(*entities, *questions, *benchQOut)
		}
		if *benchS {
			runServeBench(*entities, *serveK, *benchSOut)
		}
		if *benchSt {
			runStartupBench(*entities, *benchStO)
		}
		if *benchO {
			runOverloadBench(*entities, *overloadK, *benchOOut)
		}
		return
	}
	if !*all && !*table1 && !*table2 && !*sources && !*preds && !*qaFlag && !*neural && !*ablation && !*figure3 {
		*all = true
	}

	fmt.Printf("== building suite: %d entities ==\n", *entities)
	suite, err := experiments.NewSuite(*entities, core.DefaultOptions())
	if err != nil {
		log.Fatalf("building suite: %v", err)
	}
	fmt.Print(suite.Summary())

	if *all || *table1 {
		fmt.Println("\n== E1: Table I — comparison with other taxonomies ==")
		out, _ := suite.Table1()
		fmt.Print(out)
	}
	if *all || *table2 {
		fmt.Println("\n== E2: Table II — APIs and usage ==")
		out, _, err := suite.Table2(*apiCalls)
		if err != nil {
			log.Fatalf("table2: %v", err)
		}
		fmt.Print(out)
	}
	if *all || *sources {
		fmt.Println("\n== E3/E4: per-source precision ==")
		out, _ := suite.PerSource()
		fmt.Print(out)
	}
	if *all || *preds {
		fmt.Println("\n== E6: predicate discovery ==")
		out, _, _ := suite.Predicates()
		fmt.Print(out)
	}
	if *all || *qaFlag {
		fmt.Println("\n== E5: QA coverage ==")
		out, _ := suite.QA(*questions)
		fmt.Print(out)
	}
	if *all || *neural {
		fmt.Println("\n== E7: neural generation — copy mechanism ablation ==")
		out, _, err := suite.Neural(3000, 4)
		if err != nil {
			log.Fatalf("neural: %v", err)
		}
		fmt.Print(out)
	}
	if *all || *ablation {
		fmt.Println("\n== A1: verification ablation ==")
		out, _, err := suite.Ablation()
		if err != nil {
			log.Fatalf("ablation: %v", err)
		}
		fmt.Print(out)
	}
	if *all || *figure3 {
		fmt.Println("\n== F3: separation algorithm walkthrough (Figure 3) ==")
		fmt.Print(suite.SeparationDemo([]string{
			"蚂蚁金服首席战略官",
			"中国香港男演员",
			"著名女歌手",
			"清河大学教授",
		}))
		fmt.Println("\n== A2: separation algorithm vs suffix heuristic ==")
		out, _ := suite.SeparationVsSuffix()
		fmt.Print(out)
	}
	os.Exit(0)
}

// runBuildBench measures the build hot path and writes BENCH_BUILD.json.
func runBuildBench(entities int, out string) {
	fmt.Printf("== build throughput bench: %d entities ==\n", entities)
	res, err := experiments.RunBuildBench(entities)
	if err != nil {
		log.Fatalf("bench-build: %v", err)
	}
	if err := writeJSONFile(out, res.WriteJSON); err != nil {
		log.Fatalf("write %s: %v", out, err)
	}
	fmt.Printf("segmentation: %.0f runes/s, %.3f allocs/cut\n", res.RunesPerSec, res.AllocsPerCut)
	fmt.Printf("build: %.1f pages/s (%d workers), %.1f pages/s (sequential)\n",
		res.PagesPerSec, res.Workers, res.PagesPerSecSequential)
	fmt.Printf("wrote %s\n", out)
}

// runUpdateBench measures per-batch incremental-update cost and writes
// BENCH_UPDATE.json.
func runUpdateBench(entities, batches int, out string) {
	fmt.Printf("== incremental update bench: %d entities, %d batches ==\n", entities, batches)
	res, err := experiments.RunUpdateBench(entities, batches)
	if err != nil {
		log.Fatalf("bench-update: %v", err)
	}
	if err := writeJSONFile(out, res.WriteJSON); err != nil {
		log.Fatalf("write %s: %v", out, err)
	}
	for _, b := range res.Batches {
		fmt.Printf("batch %2d: %4d pages in %7.1fms (%.0f pages/s, reverified %d/%d) — corpus now %d pages\n",
			b.Batch, b.Pages, b.Seconds*1000, b.PagesPerSec, b.Reverified, b.CandidateUnion, b.AccumulatedPages)
	}
	fmt.Printf("per-page cost last/first = %.2fx while corpus grew %.1fx\n", res.LastOverFirst, res.GrowthFactor)
	fmt.Printf("wrote %s\n", out)
}

// runRecoveryBench measures snapshot+WAL cold-start cost and writes
// BENCH_RECOVERY.json.
func runRecoveryBench(entities, batches int, out string) {
	fmt.Printf("== recovery bench: %d entities, %d wal batches ==\n", entities, batches)
	res, err := experiments.RunRecoveryBench(entities, batches)
	if err != nil {
		log.Fatalf("bench-recovery: %v", err)
	}
	if err := writeJSONFile(out, res.WriteJSON); err != nil {
		log.Fatalf("write %s: %v", out, err)
	}
	for _, p := range res.Points {
		fmt.Printf("tail %2d batches (%7d wal bytes): load %6.1fms + replay %7.1fms = %7.1fms\n",
			p.Batches, p.WALBytes, p.LoadSeconds*1000, p.ReplaySeconds*1000, p.RecoverySeconds*1000)
	}
	fmt.Printf("compacted restart: %.1fms (%d snapshot bytes) — full tail was %.1fx slower\n",
		res.CompactedRecoverySeconds*1000, res.CompactedSnapshotBytes, res.TailOverCompacted)
	fmt.Printf("wrote %s\n", out)
}

// runQABench runs QA coverage on the serving view and writes
// BENCH_QA.json.
func runQABench(entities, questions int, out string) {
	fmt.Printf("== qa serving bench: %d entities, %d questions ==\n", entities, questions)
	res, err := experiments.RunQABench(entities, questions)
	if err != nil {
		log.Fatalf("bench-qa: %v", err)
	}
	if err := writeJSONFile(out, res.WriteJSON); err != nil {
		log.Fatalf("write %s: %v", out, err)
	}
	fmt.Printf("coverage: %.2f%% (paper: %.2f%%), avg concepts per covered entity: %.2f (paper: %.2f)\n",
		res.Coverage*100, res.PaperCoverage*100, res.AvgConceptsPerCoveredEntity, res.PaperAvgConcepts)
	fmt.Printf("ground truth: entity coverage %.2f%%, pair recall %.2f%%\n",
		res.EntityCoverage*100, res.PairRecall*100)
	fmt.Printf("throughput: %.0f questions/s on the serving view\n", res.QuestionsPerSec)
	fmt.Printf("wrote %s\n", out)
}

// runServeBench fires the mixed HTTP workload at the serving view and
// writes BENCH_SERVE.json.
func runServeBench(entities, calls int, out string) {
	fmt.Printf("== serving workload bench: %d entities, %d calls ==\n", entities, calls)
	res, err := experiments.RunServeBench(entities, calls)
	if err != nil {
		log.Fatalf("bench-serve: %v", err)
	}
	if err := writeJSONFile(out, res.WriteJSON); err != nil {
		log.Fatalf("write %s: %v", out, err)
	}
	fmt.Printf("throughput: %.0f req/s over %d calls (%.1fs)\n", res.ReqPerSec, res.Calls, res.Seconds)
	for _, ep := range res.Endpoints {
		fmt.Printf("latency %-13s calls=%-7d p50=%.3fms p99=%.3fms\n", ep.Endpoint, ep.Count, ep.P50Ms, ep.P99Ms)
	}
	fmt.Printf("wrote %s\n", out)
}

// runOverloadBench measures goodput, p99 and shed rate at growing
// multiples of server capacity and writes BENCH_OVERLOAD.json.
func runOverloadBench(entities, requests int, out string) {
	fmt.Printf("== overload bench: %d entities, %d requests per level ==\n", entities, requests)
	res, err := experiments.RunOverloadBench(entities, requests)
	if err != nil {
		log.Fatalf("bench-overload: %v", err)
	}
	if err := writeJSONFile(out, res.WriteJSON); err != nil {
		log.Fatalf("write %s: %v", out, err)
	}
	fmt.Printf("capacity: %d in-flight slots, %dµs sleep + %dµs burn per request\n", res.MaxInFlight, res.DelayMicros, res.BurnMicros)
	for _, p := range res.Points {
		fmt.Println(p.Describe())
	}
	fmt.Printf("wrote %s\n", out)
}

// runStartupBench measures decode-vs-mmap cold start and writes
// BENCH_STARTUP.json.
func runStartupBench(entities int, out string) {
	fmt.Printf("== snapshot startup bench: base %d entities ==\n", entities)
	res, err := experiments.RunStartupBench(entities)
	if err != nil {
		log.Fatalf("bench-startup: %v", err)
	}
	if err := writeJSONFile(out, res.WriteJSON); err != nil {
		log.Fatalf("write %s: %v", out, err)
	}
	for _, s := range res.Sizes {
		fmt.Printf("%7d entities (%d nodes, %d edges): decode %7.1fms / %5.1f MiB heap — map %6.2fms / %5.2f MiB heap\n",
			s.Entities, s.Nodes, s.Edges,
			s.DecodeMs, float64(s.DecodeHeapBytes)/(1<<20),
			s.MapMs, float64(s.MapHeapBytes)/(1<<20))
	}
	fmt.Printf("largest size: mapped start %.0fx faster; growth over %dx world: decode %.1fx, mapped %.1fx\n",
		res.MapSpeedupAtLargest, len(res.Sizes)+1, res.DecodeGrowth, res.MapGrowth)
	fmt.Printf("wrote %s\n", out)
}
