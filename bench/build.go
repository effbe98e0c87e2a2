package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
	"unicode/utf8"

	"cnprobase"
)

// buildOptions are the options every build in the benchmark runs with:
// the full pipeline minus the neural extractor, default workers.
func buildOptions() cnprobase.Options {
	opts := cnprobase.DefaultOptions()
	opts.EnableNeural = false
	return opts
}

func readCorpus(path string) (*cnprobase.Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return cnprobase.ReadCorpus(f)
}

// saveSnapshot writes res to path and makes it durable, as
// `cnprobase build -save` and the compactor do.
func saveSnapshot(path string, res *cnprobase.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := cnprobase.SaveSnapshot(f, res); err != nil {
		return errors.Join(err, f.Close())
	}
	if err := f.Sync(); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

// buildFacts are the counts of a build that repeat exactly; the parent
// compares them with its own build of the same corpus.
func buildFacts(res *cnprobase.Result, facts map[string]float64) {
	facts["isa"] = float64(res.Report.Stats.IsARelations)
	facts["entities"] = float64(res.Report.Stats.Entities)
	facts["kept"] = float64(len(res.Kept))
}

// runBuild is the untraced run: corpus file to servable snapshot,
// over and over for the window.
func runBuild(cfg config, t *tally) error {
	path := filepath.Join(cfg.fixtures, "corpus.jsonl")
	var (
		corpus *cnprobase.Corpus
		setup  []time.Duration
		err    error
	)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if corpus, err = readCorpus(path); err != nil {
			return err
		}
		setup = append(setup, time.Since(t0))
	}
	snap := filepath.Join(cfg.work, "build.snap")
	var res *cnprobase.Result
	iterate := func() (time.Duration, error) {
		t0 := time.Now()
		var err error
		if res, err = cnprobase.Build(corpus, buildOptions()); err != nil {
			return 0, err
		}
		if err := saveSnapshot(snap, res); err != nil {
			return 0, err
		}
		return time.Since(t0), nil
	}
	// The first iteration pays for page faults and a cold allocator.
	if _, err := iterate(); err != nil {
		return err
	}
	var walls []time.Duration
	cpu0 := cpuTime()
	for start := time.Now(); time.Since(start) < cfg.seconds || len(walls) < 2; {
		d, err := iterate()
		if err != nil {
			return err
		}
		walls = append(walls, d)
		t.check(res.Report.Pages == len(corpus.Pages), "build covered %d of %d pages", res.Report.Pages, len(corpus.Pages))
	}
	cpu := cpuTime() - cpu0
	wallMs := durs(walls, time.Millisecond)
	pages := float64(len(corpus.Pages))
	t.set("setup_s", median(durs(setup, time.Second)))
	t.set("ops_per_s", pages/(median(wallMs)/1000))
	t.set("p50_ms", median(wallMs))
	t.set("cpu_us_per_op", float64(cpu.Microseconds())/(pages*float64(len(walls))))
	t.set("heap_mb", liveHeapMB(res, corpus))
	t.set("rss_peak_mb", rssPeakMB())
	buildFacts(res, t.Facts)
	return nil
}

// neuralEntities sizes the world on which the neural extractor is
// priced: it trains a model, so it gets a small world of its own.
const neuralEntities = 4000

// traceBuild is the traced run: each stage of corpus-to-snapshot as
// its own span, the build once sequential and once parallel, and the
// neural extractor priced on a small world.
func traceBuild(cfg config, t *tally) error {
	tr := newTracer(64)
	var (
		corpus   *cnprobase.Corpus
		par, seq *cnprobase.Result
		err      error
	)
	read := tr.timed("encyclopedia.read_jsonl", 0, 0, func() {
		corpus, err = readCorpus(filepath.Join(cfg.fixtures, "corpus.jsonl"))
	})
	if err != nil {
		return err
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	parWall := tr.timed("core.build_par", 0, 0, func() { par, err = cnprobase.Build(corpus, buildOptions()) })
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	save := tr.timed("snapshot.save", 0, 0, func() { err = saveSnapshot(filepath.Join(cfg.work, "build.snap"), par) })
	if err != nil {
		return err
	}

	// Segmentation alone: every abstract through the built segmenter,
	// one goroutine, after a warm pass.
	var toks []string
	var runes, cuts int
	cut := func() {
		for i := range corpus.Pages {
			if a := corpus.Pages[i].Abstract; a != "" {
				toks = par.Segmenter.CutAppend(toks[:0], a)
			}
		}
	}
	cut()
	for i := range corpus.Pages {
		if a := corpus.Pages[i].Abstract; a != "" {
			runes += utf8.RuneCountInString(a)
			cuts++
		}
	}
	a0 := mallocs()
	segWall := tr.timed("segment.cut_abstracts", 0, 0, cut)
	cutAllocs := mallocs() - a0

	seqOpts := buildOptions()
	seqOpts.Workers = 1
	seqWall := tr.timed("core.build_seq", 0, 0, func() { seq, err = cnprobase.Build(corpus, seqOpts) })
	if err != nil {
		return err
	}
	t.check(len(seq.Kept) == len(par.Kept) && seq.Report.Stats == par.Report.Stats,
		"sequential and parallel builds differ: %+v vs %+v", seq.Report.Stats, par.Report.Stats)

	wcfg := cnprobase.DefaultWorldConfig()
	wcfg.Seed, wcfg.Entities = cfg.seed, min(neuralEntities, cfg.entities)
	small, err := cnprobase.GenerateWorld(wcfg)
	if err != nil {
		return err
	}
	off := tr.timed("core.build_neural_off", 0, 1, func() { _, err = cnprobase.Build(small.Corpus(), buildOptions()) })
	if err != nil {
		return err
	}
	on := tr.timed("core.build_neural_on", 0, 1, func() { _, err = cnprobase.Build(small.Corpus(), cnprobase.DefaultOptions()) })
	if err != nil {
		return err
	}

	generated := 0
	for _, sr := range par.Report.PerSource {
		generated += sr.Generated
	}
	t.set("encyclopedia.read_jsonl_ms", ms(read))
	t.set("segment.runes_per_s", float64(runes)/segWall.Seconds())
	t.set("segment.allocs_per_cut", float64(cutAllocs)/float64(max(cuts, 1)))
	t.set("core.build_seq_s", seqWall.Seconds())
	t.set("core.build_par_s", parWall.Seconds())
	t.set("core.parallel_speedup", seqWall.Seconds()/parWall.Seconds())
	t.set("core.candidates_generated", float64(generated))
	t.set("core.candidates_kept", float64(len(par.Kept)))
	t.set("runtime.alloc_mb_per_build", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	t.set("snapshot.save_ms", ms(save))
	t.set("copynet.neural_extra_s", (on - off).Seconds())
	info, err := os.Stat(filepath.Join(cfg.work, "build.snap"))
	if err != nil {
		return err
	}
	t.set("snapshot.bytes", float64(info.Size()))
	t.set("snapshot.bytes_per_isa", float64(info.Size())/float64(max(par.Report.Stats.IsARelations, 1)))
	buildFacts(par, t.Facts)
	if generated == 0 || len(par.Kept) == 0 {
		return fmt.Errorf("build generated %d candidates and kept %d", generated, len(par.Kept))
	}
	return tr.write(cfg.out, cfg.workload)
}
