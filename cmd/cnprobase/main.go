// Command cnprobase is the pipeline CLI: generate a synthetic
// encyclopedia dump, build a taxonomy from a dump, and query the
// result.
//
// Usage:
//
//	cnprobase gen   -entities 8000 -out corpus.jsonl
//	cnprobase build -in corpus.jsonl -save taxonomy.snap [-no-neural] [-workers 8]
//	cnprobase build -in corpus.jsonl -cpuprofile cpu.pprof -memprofile mem.pprof
//	cnprobase query -load taxonomy.snap -hypernyms 刘德华
//	cnprobase query -load taxonomy.snap -hyponyms 演员 -limit 20
//	cnprobase inspect taxonomy.snap                         # what a snapshot holds, byte by byte
//
// build fans the construction pipeline out over -workers goroutines
// (0 = one per CPU, 1 = sequential); any worker count produces the
// same taxonomy. It writes one file, the snapshot at -save: the
// complete serving state (taxonomy + mention table + build report +
// update evidence) that `cnpserver -load` memory-maps and serves
// without re-running the pipeline. The write is atomic (temp file,
// fsync, rename, directory fsync): rebuilding over a snapshot a live
// server is mapping or SIGHUP-reloading can never expose a torn file.
// The new file keeps the mode of the one it replaces (0644 when new).
// query maps a snapshot the way `cnpserver -load` does and answers from
// that view; a name that is not a node is resolved through the mention
// index, so a bare title or an alias lists the entities it names.
// inspect checks a snapshot as the mapped opener does and prints its
// version, WAL position, metadata counts and the bytes of every section
// and evidence sub-section.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
	"unicode/utf8"

	"cnprobase"
	"cnprobase/internal/atomicfile"
	"cnprobase/internal/snapshot"
	"cnprobase/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cnprobase: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		cmdGen(os.Args[2:])
	case "build":
		cmdBuild(os.Args[2:])
	case "query":
		cmdQuery(os.Args[2:])
	case "inspect":
		cmdInspect(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: cnprobase <gen|build|query> [flags] | cnprobase inspect <snapshot>")
	os.Exit(2)
}

func cmdGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	entities := fs.Int("entities", 8000, "number of entities")
	seed := fs.Int64("seed", 1, "world seed")
	out := fs.String("out", "corpus.jsonl", "output dump path")
	_ = fs.Parse(args)

	cfg := synth.DefaultConfig()
	cfg.Entities = *entities
	cfg.Seed = *seed
	w, err := synth.Generate(cfg)
	if err != nil {
		log.Fatalf("generate: %v", err)
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatalf("create %s: %v", *out, err)
	}
	if err := w.Corpus().WriteJSONL(f); err != nil {
		log.Fatalf("write dump: %v", err)
	}
	if err := f.Close(); err != nil {
		log.Fatalf("close %s: %v", *out, err)
	}
	c := w.Corpus()
	fmt.Printf("wrote %s: %d pages, %d abstracts, %d triples, %d tags\n",
		*out, c.Len(), c.AbstractCount(), c.TripleCount(), c.TagCount())
}

func cmdBuild(args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	in := fs.String("in", "corpus.jsonl", "input dump path")
	save := fs.String("save", "taxonomy.snap", "output snapshot path (for cnpserver -load and query -load)")
	noNeural := fs.Bool("no-neural", false, "skip the neural (abstract) extractor")
	workers := fs.Int("workers", 0, "pipeline worker pool size (0 = one per CPU, 1 = sequential)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the build to this file")
	memProfile := fs.String("memprofile", "", "write a post-build heap profile to this file")
	_ = fs.Parse(args)

	// log.Fatalf skips defers, so the CPU profile is stopped through an
	// idempotent closure every exit path runs — a failing build (often
	// the very run being profiled) still leaves a valid profile.
	stopCPUProfile := func() {}
	fail := func(format string, args ...any) {
		stopCPUProfile()
		log.Fatalf(format, args...)
	}
	if *cpuProfile != "" {
		pf, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("create %s: %v", *cpuProfile, err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			log.Fatalf("start cpu profile: %v", err)
		}
		stopped := false
		stopCPUProfile = func() {
			if !stopped {
				stopped = true
				pprof.StopCPUProfile()
				if err := pf.Close(); err != nil {
					log.Printf("close %s: %v", *cpuProfile, err)
				}
			}
		}
		defer stopCPUProfile()
	}

	f, err := os.Open(*in)
	if err != nil {
		fail("open %s: %v", *in, err)
	}
	corpus, err := cnprobase.ReadCorpus(f)
	f.Close()
	if err != nil {
		fail("read corpus: %v", err)
	}
	opts := cnprobase.DefaultOptions()
	if *noNeural {
		opts.EnableNeural = false
	}
	opts.Workers = *workers
	res, err := cnprobase.Build(corpus, opts)
	if err != nil {
		fail("build: %v", err)
	}
	stopCPUProfile() // the build is what the CPU profile measures
	st := res.Report.Stats
	fmt.Printf("built taxonomy (%d workers): %d entities, %d concepts, %d isA relations\n",
		res.Report.Workers, st.Entities, st.Concepts, st.IsARelations)
	fmt.Printf("verification: kept %d of %d candidates\n",
		res.Report.Verification.Kept, res.Report.Verification.Input)
	fmt.Println("stages (wall clock, ms from the start of the build):")
	for _, s := range res.Report.Stages {
		fmt.Printf("  %-18s %8.1f → %8.1f  (%.1f)\n", s.Name, ms(s.Start), ms(s.End), ms(s.End-s.Start))
	}
	if _, err := atomicfile.Write(*save, func(w io.Writer) error { return cnprobase.SaveSnapshot(w, res) }); err != nil {
		fail("write snapshot: %v", err)
	}
	fmt.Printf("wrote snapshot %s\n", *save)
	if *memProfile != "" {
		mf, err := os.Create(*memProfile)
		if err != nil {
			fail("create %s: %v", *memProfile, err)
		}
		runtime.GC() // settle the heap so the profile shows retained memory
		if err := pprof.WriteHeapProfile(mf); err != nil {
			fail("write heap profile: %v", err)
		}
		if err := mf.Close(); err != nil {
			fail("close %s: %v", *memProfile, err)
		}
		fmt.Printf("wrote heap profile %s\n", *memProfile)
	}
}

func cmdQuery(args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	load := fs.String("load", "taxonomy.snap", "snapshot path (from cnprobase build -save)")
	hypernyms := fs.String("hypernyms", "", "entity/concept, or a title or alias, to list hypernyms of")
	hyponyms := fs.String("hyponyms", "", "concept to list hyponyms of")
	limit := fs.Int("limit", 20, "max hyponyms to print")
	_ = fs.Parse(args)

	// The mapped view is the read path cnpserver -load answers from.
	view, err := cnprobase.OpenSnapshotMapped(*load)
	if err != nil {
		log.Fatalf("load snapshot %s: %v", *load, err)
	}
	switch {
	case *hypernyms != "":
		// A name that is no node with hypernyms may be a bare title or an
		// alias: list the hypernyms of every entity it names.
		if hs := view.Hypernyms(*hypernyms); len(hs) > 0 {
			fmt.Printf("%s → %v\n", *hypernyms, hs)
			return
		}
		for _, id := range view.Lookup(*hypernyms) {
			fmt.Printf("%s → %v\n", id, view.Hypernyms(id))
		}
	case *hyponyms != "":
		for _, h := range view.Hyponyms(*hyponyms, *limit) {
			fmt.Println(h)
		}
	default:
		st := view.Stats()
		fmt.Printf("entities=%d concepts=%d isA=%d\n", st.Entities, st.Concepts, st.IsARelations)
	}
}

func cmdInspect(args []string) {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	if err := inspect(os.Stdout, fs.Arg(0)); err != nil {
		log.Fatal(err)
	}
}

// inspect prints what the snapshot at path holds and a table of where
// its bytes go: the file's parts, which sum to its size, with the
// evidence section's sub-sections indented under it.
func inspect(w io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	info, err := snapshot.Inspect(data)
	if err != nil {
		return err
	}
	st := info.Meta.Stats
	fmt.Fprintf(w, "%s: format version %d, LSN %d\n", path, info.Version, info.Meta.LSN)
	fmt.Fprintf(w, "meta: %d pages; %d entities, %d concepts, %d isA relations (%d subconcept)\n",
		info.Meta.Pages, st.Entities, st.Concepts, st.IsARelations, st.SubConceptIsA)
	if !info.Evidence {
		fmt.Fprintln(w, "evidence: none (saved without the update substrate)")
	}
	var rows []snapshot.Part
	total, width := 0, len("part")
	for _, p := range info.Parts {
		if p.Sub {
			p.Name = "  " + p.Name
		} else {
			total += p.Bytes
		}
		rows = append(rows, p)
		width = max(width, utf8.RuneCountInString(p.Name))
	}
	rows = append(rows, snapshot.Part{Name: "total", Bytes: total})
	fmt.Fprintf(w, "\n%-*s  %9s  %7s\n", width, "part", "bytes", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "%-*s  %9d  %5.1f %%\n", width, r.Name, r.Bytes, 100*float64(r.Bytes)/float64(total))
	}
	return nil
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
