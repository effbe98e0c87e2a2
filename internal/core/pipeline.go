// Package core wires the generation and verification modules into the
// CN-Probase construction pipeline (paper Figure 2): four extractors
// produce candidate isA relations from the encyclopedia's brackets,
// abstracts, infoboxes and tags; candidates merge; three verification
// strategies filter noise; the survivors become the taxonomy, extended
// with derived subconcept-concept edges.
//
// The pipeline is concurrent where the work is. Per-page work
// (segmentation, extraction, NE recognition) fans out in entity batches
// over a bounded worker pool sized by Options.Workers. One symbol table
// (internal/symtab) serves the whole build: the pages' entity IDs are
// interned before the generators start and their hypernyms as the
// per-source candidate sets are merged, in a fixed source order, so
// from the merge on — evidence, verification, the taxonomy — a
// candidate is a pair of IDs and no name is hashed again. The
// NE-evidence pass and the page fold run beside the generators.
// Workers=1 degrades every stage to inline sequential execution — the
// reference path determinism tests compare against — and produces the
// same taxonomy, and the same IDs, as any parallel run.
package core

import (
	"fmt"
	"sync"
	"time"

	"cnprobase/internal/copynet"
	"cnprobase/internal/corpus"
	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/extract"
	"cnprobase/internal/lexicon"
	"cnprobase/internal/ner"
	"cnprobase/internal/par"
	"cnprobase/internal/segment"
	"cnprobase/internal/symtab"
	"cnprobase/internal/taxonomy"
	"cnprobase/internal/verify"
)

// Options configures a pipeline run. Zero value is not useful; start
// from DefaultOptions.
type Options struct {
	// EnableBracket toggles the separation-algorithm extractor.
	EnableBracket bool
	// EnableNeural toggles the abstract extractor (the slowest stage:
	// it trains a model).
	EnableNeural bool
	// EnableInfobox toggles predicate discovery + infobox extraction.
	EnableInfobox bool
	// EnableTags toggles direct tag extraction.
	EnableTags bool

	// Workers bounds the worker pool shared by every parallel stage of
	// the build (substrate statistics, the four generators, the
	// NE-evidence pass and verification filtering). 0 selects one
	// worker per logical CPU; 1 runs fully sequentially (the
	// deterministic reference path). Any worker count produces the same
	// taxonomy.
	Workers int

	// Neural holds the copy-model configuration.
	Neural copynet.Config
	// NeuralEpochs / NeuralLR control distant-supervision training.
	NeuralEpochs int
	NeuralLR     float64
	// NeuralMaxSamples caps the distant-supervision dataset (0 = all).
	NeuralMaxSamples int

	// Predicates configures infobox predicate discovery.
	Predicates extract.PredicateDiscovery

	// Verify holds the verification thresholds and per-strategy
	// toggles; setting all three Enable* fields false reproduces the
	// no-verification ablation.
	Verify verify.Options

	// ForceFullReverify makes Update invalidate every verification
	// cache and re-derive all candidate decisions from the persistent
	// evidence — the O(total) reference path the O(delta) incremental
	// path is equivalence-tested against. Build is unaffected (it is
	// always a full pass).
	ForceFullReverify bool

	// DeriveSubconcepts toggles morphological-head and subsumption
	// derivation of subconcept-concept edges.
	DeriveSubconcepts bool
	// SubsumeMinRatio / SubsumeMinSize control subsumption derivation.
	SubsumeMinRatio float64
	SubsumeMinSize  int

	// ExtraDictionary supplies additional segmenter words.
	ExtraDictionary []string
}

// DefaultOptions returns the full pipeline with calibrated settings and
// auto-sized concurrency (Workers=0: one worker per CPU).
func DefaultOptions() Options {
	return Options{
		EnableBracket:     true,
		EnableNeural:      true,
		EnableInfobox:     true,
		EnableTags:        true,
		Neural:            copynet.DefaultConfig(),
		NeuralEpochs:      3,
		NeuralLR:          0.01,
		NeuralMaxSamples:  4000,
		Predicates:        extract.DefaultPredicateDiscovery(),
		Verify:            verify.DefaultOptions(),
		DeriveSubconcepts: true,
		SubsumeMinRatio:   0.75,
		SubsumeMinSize:    8,
	}
}

// SourceReport counts candidates per generation source before and
// after verification.
type SourceReport struct {
	Generated int
	Kept      int
}

// Report describes one pipeline run.
type Report struct {
	Pages int
	// Workers records the resolved worker count the run used.
	Workers             int
	PerSource           map[taxonomy.Source]*SourceReport
	PredicateCandidates []extract.PredicateStat
	SelectedPredicates  []string
	NeuralSamples       int
	NeuralLoss          []copynet.TrainReport
	Verification        verify.Report
	DerivedSubconcepts  int
	Stats               taxonomy.Stats
	// Publish describes the last Freeze. It is runtime bookkeeping, not
	// part of the build record, so snapshots do not carry it.
	Publish PublishReport `json:"-"`
	// Stages times the steps of the last Build on the wall clock,
	// ordered by start. Like Publish it is runtime bookkeeping: nil
	// after an Update or a snapshot load, and never saved.
	Stages []Stage `json:"-"`
}

// Stage is one timed step of a Build, as offsets from the build's
// start on the wall clock. Steps that run beside one another overlap.
type Stage struct {
	Name       string
	Start, End time.Duration
}

// stageClock records Stages from any goroutine, in the order they
// start.
type stageClock struct {
	t0  time.Time
	mu  sync.Mutex
	out []Stage
}

// run runs f as the named stage.
func (c *stageClock) run(name string, f func()) {
	c.mu.Lock()
	i := len(c.out)
	c.out = append(c.out, Stage{Name: name, Start: time.Since(c.t0)})
	c.mu.Unlock()
	f()
	c.mu.Lock()
	c.out[i].End = time.Since(c.t0)
	c.mu.Unlock()
}

// Result bundles the pipeline outputs. It embeds the taxonomy, the
// write model, so Result.Kept is the taxonomy's kept list itself.
type Result struct {
	// Taxonomy holds the kinds, the kept and derived pairs and the
	// mention pairs. Its Kept — promoted, Result.Kept — holds the
	// post-verification candidates, sorted by (Hypo, Hyper) ID — not by
	// name: a build hands out IDs in page order, then to hypernyms by
	// first appearance, and a snapshot load in name order. Update edits
	// the list in place.
	*taxonomy.Taxonomy
	Report *Report
	// Candidates holds the merged pre-verification candidates of the
	// last run (kept for per-source precision experiments): after Build
	// the whole candidate set, after an Update the delta's own
	// deduplicated candidates — the union with the previously kept
	// pairs is never built. Like Kept, the list is deduplicated, names
	// its pairs by symbol IDs (Names resolves them) and is sorted by
	// (Hypo, Hyper) ID.
	Candidates []extract.Candidate
	// Segmenter and Stats expose the substrates for reuse (QA, APIs,
	// experiments).
	Segmenter *segment.Segmenter
	Stats     *corpus.Stats
	// Evidence is the persistent verification evidence over the kept
	// candidate set. Update folds each delta batch into it and
	// re-verifies only the affected candidates, so incremental cost is
	// proportional to the delta — raw pages are never retained or
	// copied. Snapshots round-trip it, which is what lets a
	// snapshot-loaded Result accept Update.
	Evidence *verify.Evidence

	inc incremental
}

// Names returns the names of the symbol IDs Candidates and Kept use,
// indexed by ID. The slice is read-only; it covers every ID handed out
// before the call.
func (r *Result) Names() []string { return r.Symbols().Names() }

// Pipeline executes the CN-Probase construction.
type Pipeline struct {
	opts Options
	// arrive, when set, is what the generator sets pass through on their
	// way to the merge: tests reorder them there to show the output
	// does not depend on the order they arrive in.
	arrive func(<-chan candidateSet) <-chan candidateSet
}

// New returns a pipeline with the given options.
func New(opts Options) *Pipeline { return &Pipeline{opts: opts} }

// candidateSet is one generator's output, fed to the merge over a
// channel as soon as the generator finishes.
type candidateSet struct {
	source  taxonomy.Source
	batches []extract.Batch
}

// Build runs the full pipeline over the corpus.
func (p *Pipeline) Build(c *encyclopedia.Corpus) (*Result, error) {
	if c == nil || len(c.Pages) == 0 {
		return nil, fmt.Errorf("core: empty corpus")
	}
	workers := workerCount(p.opts.Workers)
	pl := par.NewPool(workers)
	rep := &Report{Pages: len(c.Pages), Workers: workers, PerSource: make(map[taxonomy.Source]*SourceReport)}

	clock := &stageClock{t0: time.Now()}

	// ---- substrate: segmenter + corpus statistics ----
	// Pages are cut in parallel batches; the counts merge in page
	// order. The bootstrap segmenter reads no statistics (its costs are
	// uniform), so cutting has no feedback loop and batching cannot
	// change the merged counts.
	dict := lexicon.BaseDictionary()
	dict = append(dict, p.opts.ExtraDictionary...)
	var stats *corpus.Stats
	clock.run("stats", func() { stats = corpusStats(c, segment.New(dict), pl) })
	seg := segment.New(dict, segment.WithStats(stats))

	// ---- the passes that need only pages, overlapped with generation ----
	// The NE-support pass (on the shared pool) and the page fold — into
	// the evidence, then the taxonomy's entity marks and mention pairs
	// — read the corpus and the segmenter and no candidate, so they run
	// alongside the generators. The NE pass, the longest, starts first.
	// Then every page's entity ID and title are interned, in page
	// order: generators name hyponyms by those IDs, and nothing else
	// interns into the table until the merge.
	rec := ner.New()
	syms := symtab.New()
	ctx := verify.NewEvidence(syms, nil, rec) // its Support is the first pass's result
	tax := taxonomy.NewWithSymbols(syms)
	nePass, fold := &par.Group{Inline: pl == nil}, &par.Group{Inline: pl == nil}
	nePass.Go(func() error {
		clock.run("NE pass", func() { ctx.Support = observeSupport(c, seg, rec, pl) })
		return nil
	})
	var names, hypos []uint32
	clock.run("page IDs", func() { names, hypos = internPages(syms, c.Pages) })
	fold.Go(func() error {
		clock.run("page fold", func() {
			ctx.AddPages(c.Pages, names)
			_, ms := markPages(tax, c.Pages, names)
			tax.AddMentions(ms)
		})
		return nil
	})

	// ---- generation module: fan out, merge in a fixed order ----
	sets := make(chan candidateSet, len(generators))
	gen := &par.Group{Inline: pl == nil}
	p.generate(gen, sets, c, hypos, seg, stats, pl, clock, rep, true)

	// ---- merge, fed by the candidate-set channel ----
	if pl == nil {
		close(sets) // producers ran inline; all sets are buffered
	} else {
		go func() {
			gen.Wait()
			close(sets)
		}()
	}
	// Each set is resolved and deduplicated as it arrives, while the
	// slower generators still run; what is left for afterwards is one
	// merge.
	m := merger{syms: syms, clock: clock}
	arrived := (<-chan candidateSet)(sets)
	if p.arrive != nil {
		arrived = p.arrive(sets)
	}
	for set := range arrived {
		m.add(set)
	}
	merged := m.merged
	if err := gen.Wait(); err != nil {
		return nil, err
	}

	// ---- verification module ----
	// The candidates join the evidence once the pages have (the two
	// folds commute, but share the evidence); the NE pass may still run,
	// as nothing before verification reads its support.
	if err := fold.Wait(); err != nil {
		return nil, err
	}
	clock.run("AddCandidates", func() { ctx.AddCandidates(merged) })
	if err := nePass.Wait(); err != nil {
		return nil, err
	}
	var kept []extract.Candidate
	clock.run("verify", func() { kept, rep.Verification = verify.Verify(merged, ctx, seg, p.opts.Verify, workers) })
	rep.PerSource = perSourceReport(tallySources(merged), tallySources(kept))

	// ---- taxonomy assembly ----
	// Trim the evidence to the surviving candidate set: between crawl
	// batches the persistent evidence always describes kept pairs, so
	// the next Update's verification sees exactly the union of kept
	// and fresh candidates. The kept list becomes the taxonomy's as it
	// stands, so the trim runs beside its bookkeeping.
	clock.run("assemble+trim", func() {
		trim := &par.Group{Inline: pl == nil}
		trim.Go(func() error {
			ctx.RemoveCandidates(diffCandidates(merged, kept))
			return nil
		})
		tax.Kept = kept
		tax.Inserted(kept)
		trim.Wait()
	})
	if p.opts.DeriveSubconcepts {
		clock.run("derive", func() { rep.DerivedSubconcepts, _ = deriveSubconcepts(tax, ctx, p.opts, nil) })
	}
	rep.Stats = tax.ComputeStats()
	rep.Stages = clock.out // every stage has ended

	return &Result{
		Taxonomy:   tax,
		Report:     rep,
		Candidates: merged,
		Segmenter:  seg,
		Stats:      stats,
		Evidence:   ctx,
	}, nil
}

// generators are the four generation sources candidates carry, in the
// order their sets are merged: the neural one, the slowest, last.
var generators = [...]taxonomy.Source{taxonomy.SourceBracket, taxonomy.SourceTag, taxonomy.SourceInfobox, taxonomy.SourceAbstract}

// sourceTally counts candidates per generation source, indexed like
// generators.
type sourceTally [len(generators)]int

// add counts one candidate's source bits sign times.
func (t *sourceTally) add(bits taxonomy.Source, sign int) {
	for i, src := range generators {
		if bits&src != 0 {
			t[i] += sign
		}
	}
}

func tallySources(cands []extract.Candidate) (t sourceTally) {
	for i := range cands {
		t.add(cands[i].Source, 1)
	}
	return t
}

// perSourceReport shapes two tallies — the merged candidate set and
// its verified survivors — as the report's per-source table; sources
// that generated nothing have no row.
func perSourceReport(generated, kept sourceTally) map[taxonomy.Source]*SourceReport {
	out := make(map[taxonomy.Source]*SourceReport)
	for i, src := range generators {
		if generated[i] > 0 {
			out[src] = &SourceReport{Generated: generated[i], Kept: kept[i]}
		}
	}
	return out
}

// generate runs the enabled generators over the corpus on g and sends
// each one's set — empty when it is disabled — on sets, which must
// buffer one per generator, so the inline (Workers=1) path, where every
// producer runs to completion before the merge starts, can never block.
// Predicate discovery aligns against the bracket prior and distant
// supervision comes from the bracket source, so those two wait for it.
// A build discovers the infobox predicates and runs the neural
// extractor; an update reuses rep's curated predicates (the "manual
// selection" does not change per crawl batch) and skips it.
func (p *Pipeline) generate(g *par.Group, sets chan<- candidateSet, c *encyclopedia.Corpus, hypos []uint32,
	seg *segment.Segmenter, stats *corpus.Stats, pl *par.Pool, clock *stageClock, rep *Report, build bool) {
	var bracket []extract.Batch
	bracketReady := make(chan struct{})
	run := func(src taxonomy.Source, enabled bool, stage func() []extract.Batch) {
		g.Go(func() error {
			var batches []extract.Batch
			if enabled {
				if src == taxonomy.SourceInfobox || src == taxonomy.SourceAbstract {
					<-bracketReady
				}
				clock.run("generate "+src.String(), func() { batches = stage() })
			}
			if src == taxonomy.SourceBracket {
				bracket = batches
				close(bracketReady)
			}
			sets <- candidateSet{src, batches}
			return nil
		})
	}
	run(taxonomy.SourceBracket, p.opts.EnableBracket, func() []extract.Batch {
		sep := extract.NewSeparator(seg, stats)
		return emit(pl, len(c.Pages), func(i int, b *extract.Batch) {
			for _, h := range sep.Hypernyms(c.Pages[i].Title, c.Pages[i].Bracket) {
				b.Add(hypos[i], h, taxonomy.SourceBracket)
			}
		})
	})
	run(taxonomy.SourceTag, p.opts.EnableTags, func() []extract.Batch {
		return emit(pl, len(c.Pages), func(i int, b *extract.Batch) { extract.Tags(&c.Pages[i], hypos[i], b) })
	})
	run(taxonomy.SourceInfobox, p.opts.EnableInfobox, func() []extract.Batch {
		if build {
			release := pl.Acquire() // discovery is coordinator-side CPU work
			rep.PredicateCandidates, rep.SelectedPredicates = p.opts.Predicates.Discover(c, hypos, extract.NewPrior(bracket))
			release()
		}
		selected := rep.SelectedPredicates
		return par.MapBatches(pl, len(c.Pages), func(lo, hi int) (b extract.Batch) {
			extract.ExtractInfobox(c.Pages[lo:hi], hypos[lo:hi], selected, &b)
			return b
		})
	})
	run(taxonomy.SourceAbstract, build && p.opts.EnableNeural, func() (batches []extract.Batch) {
		batches, rep.NeuralSamples, rep.NeuralLoss = p.neuralStage(c, hypos, bracket, seg, pl)
		return batches
	})
}

// emit runs a generator over every page in parallel batches; in batch
// order the batches hold the sequential candidate order exactly
// (distant supervision depends on it).
func emit(pl *par.Pool, n int, page func(i int, b *extract.Batch)) []extract.Batch {
	return par.MapBatches(pl, n, func(lo, hi int) (b extract.Batch) {
		for i := lo; i < hi; i++ {
			page(i, &b)
		}
		return b
	})
}

// neuralStage trains the copy model on the distant dataset (sequential:
// SGD order is part of the model) and decodes every abstract in
// parallel batches. Returns no batches when no samples exist.
func (p *Pipeline) neuralStage(c *encyclopedia.Corpus, hypos []uint32, bracket []extract.Batch, seg *segment.Segmenter, pl *par.Pool) (batches []extract.Batch, nSamples int, losses []copynet.TrainReport) {
	release := pl.Acquire() // dataset assembly + SGD are coordinator-side CPU work
	samples := extract.BuildDistantDataset(c, hypos, bracket, seg)
	if p.opts.NeuralMaxSamples > 0 && len(samples) > p.opts.NeuralMaxSamples {
		samples = samples[:p.opts.NeuralMaxSamples]
	}
	nSamples = len(samples)
	if nSamples == 0 {
		release()
		return nil, 0, nil
	}
	neural := extract.TrainNeural(p.opts.Neural, samples, p.opts.NeuralEpochs, p.opts.NeuralLR,
		func(r copynet.TrainReport) { losses = append(losses, r) })
	neural.SetSegmenter(seg)
	release()
	return emit(pl, len(c.Pages), func(i int, b *extract.Batch) { neural.Extract(&c.Pages[i], hypos[i], b) }), nSamples, losses
}
