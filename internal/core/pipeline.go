// Package core wires the generation and verification modules into the
// CN-Probase construction pipeline (paper Figure 2): four extractors
// produce candidate isA relations from the encyclopedia's brackets,
// abstracts, infoboxes and tags; candidates merge; three verification
// strategies filter noise; the survivors become the taxonomy, extended
// with derived subconcept-concept edges.
//
// The pipeline is concurrent where the work is. Per-page work
// (segmentation, extraction, NE recognition) fans out in entity batches
// over a bounded worker pool sized by Options.Workers; the four
// generators feed the verification stage through a channel of
// per-source candidate sets while the NE-evidence pass and the page
// fold run alongside them. What follows verification is a short
// sequential tail on dense IDs: one symbol table (internal/symtab)
// serves the verification evidence and the taxonomy store, so a name
// is interned once per build, and the surviving relations are appended
// to the store's per-ID adjacency in one pass — there is no index to
// finalize. Workers=1 degrades every stage to inline sequential
// execution — the reference path determinism tests compare against —
// and produces the same taxonomy as any parallel run.
package core

import (
	"fmt"

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
	Workers int
	// Shards is always zero: the store is no longer sharded. The field
	// stays because saved build reports carry its JSON key and snapshot
	// bytes must not change.
	Shards              int
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
}

// Result bundles the pipeline outputs.
type Result struct {
	Taxonomy *taxonomy.Taxonomy
	Mentions *taxonomy.MentionIndex
	Report   *Report
	// Candidates holds the merged pre-verification candidates of the
	// last run (kept for per-source precision experiments): after Build
	// the whole candidate set, after an Update the delta's own
	// deduplicated candidates — the union with the previously kept
	// pairs is never built.
	Candidates []extract.Candidate
	// Kept holds the post-verification candidates, sorted by (Hypo,
	// Hyper). Update edits the list in place.
	Kept []extract.Candidate
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

// Pipeline executes the CN-Probase construction.
type Pipeline struct {
	opts Options
}

// New returns a pipeline with the given options.
func New(opts Options) *Pipeline { return &Pipeline{opts: opts} }

// candidateSet is one generator's output, fed to the verification stage
// over a channel as soon as the generator finishes.
type candidateSet struct {
	source taxonomy.Source
	cands  []extract.Candidate
}

// Build runs the full pipeline over the corpus.
func (p *Pipeline) Build(c *encyclopedia.Corpus) (*Result, error) {
	if c == nil || len(c.Pages) == 0 {
		return nil, fmt.Errorf("core: empty corpus")
	}
	workers := workerCount(p.opts.Workers)
	pl := par.NewPool(workers)
	rep := &Report{Pages: len(c.Pages), Workers: workers, PerSource: make(map[taxonomy.Source]*SourceReport)}

	// ---- substrate: segmenter + corpus statistics ----
	// Pages are cut in parallel batches; the counts merge in page
	// order. The bootstrap segmenter reads no statistics (its costs are
	// uniform), so cutting has no feedback loop and batching cannot
	// change the merged counts.
	dict := lexicon.BaseDictionary()
	dict = append(dict, p.opts.ExtraDictionary...)
	boot := segment.New(dict)
	stats := corpusStats(c, boot, pl)
	seg := segment.New(dict, segment.WithStats(stats))

	// ---- the passes that need only pages, overlapped with generation ----
	// The NE-support pass (on the shared pool) and the page fold — into
	// the evidence, then the store's entity marks and the mention index
	// — read the corpus and the segmenter and no candidate, so they run
	// alongside the generators. The fold is one task: evidence and store
	// intern into one symbol table, and a fixed order of arrival keeps
	// the IDs the same in every run.
	rec := ner.New()
	syms := symtab.New()
	ctx := verify.NewEvidence(syms, nil, rec) // its Support is the first pass's result
	tax := taxonomy.NewWithSymbols(syms)
	mentions := taxonomy.NewMentionIndex()
	evidence := &par.Group{Inline: pl == nil}
	evidence.Go(func() error {
		ctx.Support = observeSupport(c, seg, rec, pl)
		return nil
	})
	evidence.Go(func() error {
		ctx.AddPages(c.Pages)
		addPages(tax, mentions, c.Pages)
		return nil
	})

	// ---- generation module: fan out, feed verification a channel ----
	// The buffer covers one send per enabled generator, so the inline
	// (Workers=1) path — where every producer runs to completion before
	// the drain below starts — can never block on a full channel.
	nGen := 0
	for _, enabled := range []bool{p.opts.EnableBracket, p.opts.EnableTags, p.opts.EnableInfobox, p.opts.EnableNeural} {
		if enabled {
			nGen++
		}
	}
	candSetCh := make(chan candidateSet, nGen)
	gen := &par.Group{Inline: pl == nil}
	var bracketCands []extract.Candidate
	bracketReady := make(chan struct{})
	gen.Go(func() error {
		if p.opts.EnableBracket {
			bracketCands = p.bracketStage(c, seg, stats, pl)
		}
		close(bracketReady)
		if p.opts.EnableBracket {
			candSetCh <- candidateSet{source: taxonomy.SourceBracket, cands: bracketCands}
		}
		return nil
	})
	gen.Go(func() error {
		if !p.opts.EnableTags {
			return nil
		}
		candSetCh <- candidateSet{source: taxonomy.SourceTag, cands: p.tagStage(c, pl)}
		return nil
	})
	gen.Go(func() error {
		if !p.opts.EnableInfobox {
			return nil
		}
		<-bracketReady // predicate discovery aligns against the bracket prior
		cands, predStats, selected := p.infoboxStage(c, bracketCands, pl)
		rep.PredicateCandidates = predStats
		rep.SelectedPredicates = selected
		candSetCh <- candidateSet{source: taxonomy.SourceInfobox, cands: cands}
		return nil
	})
	gen.Go(func() error {
		if !p.opts.EnableNeural {
			return nil
		}
		<-bracketReady // distant supervision comes from the bracket source
		cands, nSamples, losses := p.neuralStage(c, bracketCands, seg, pl)
		rep.NeuralSamples = nSamples
		rep.NeuralLoss = losses
		if cands != nil {
			candSetCh <- candidateSet{source: taxonomy.SourceAbstract, cands: cands}
		}
		return nil
	})

	// ---- verification module, fed by the candidate-set channel ----
	if pl == nil {
		close(candSetCh) // producers ran inline; all sets are buffered
	} else {
		go func() {
			gen.Wait()
			close(candSetCh)
		}()
	}
	// Each set is deduplicated as it arrives, while the slower
	// generators still run; what is left for afterwards is one merge.
	var merged []extract.Candidate
	for set := range candSetCh {
		merged = extract.Union(merged, extract.Dedupe(set.cands))
	}
	if err := gen.Wait(); err != nil {
		return nil, err
	}
	if err := evidence.Wait(); err != nil {
		return nil, err
	}
	ctx.AddCandidates(merged)
	vopts := p.opts.Verify
	if vopts.Workers == 0 {
		vopts.Workers = workers // inherit the pipeline pool size by default
	}
	kept, vrep := verify.Verify(merged, ctx, seg, vopts)
	rep.Verification = vrep
	rep.PerSource = perSourceCounts(merged, kept)
	// Trim the evidence to the surviving candidate set: between crawl
	// batches the persistent evidence always describes kept pairs, so
	// the next Update's verification sees exactly the union of kept
	// and fresh candidates. The store does not read the evidence, so
	// the trim runs beside the assembly.
	trim := &par.Group{Inline: pl == nil}
	trim.Go(func() error {
		ctx.RemoveCandidates(diffCandidates(merged, kept))
		return nil
	})

	// ---- taxonomy assembly ----
	err := assembleEdges(tax, kept)
	trim.Wait()
	if err != nil {
		return nil, fmt.Errorf("core: assembling taxonomy: %w", err)
	}
	if p.opts.DeriveSubconcepts {
		rep.DerivedSubconcepts = deriveSubconcepts(tax, ctx, p.opts, nil)
	}
	rep.Stats = tax.ComputeStats()

	return &Result{
		Taxonomy:   tax,
		Mentions:   mentions,
		Report:     rep,
		Candidates: merged,
		Kept:       kept,
		Segmenter:  seg,
		Stats:      stats,
		Evidence:   ctx,
	}, nil
}

// generators are the four generation sources candidates carry.
var generators = [...]taxonomy.Source{taxonomy.SourceBracket, taxonomy.SourceAbstract, taxonomy.SourceInfobox, taxonomy.SourceTag}

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

// perSourceCounts tallies, per generation source, how many candidates
// of the merged set exist and how many survived verification.
func perSourceCounts(merged, kept []extract.Candidate) map[taxonomy.Source]*SourceReport {
	return perSourceReport(tallySources(merged), tallySources(kept))
}

// bracketStage runs the separation algorithm over every page bracket in
// parallel batches; concatenation in batch order reproduces the
// sequential candidate order exactly (distant supervision depends on
// it).
func (p *Pipeline) bracketStage(c *encyclopedia.Corpus, seg *segment.Segmenter, stats *corpus.Stats, pl *par.Pool) []extract.Candidate {
	sep := extract.NewSeparator(seg, stats)
	return par.Concat(par.MapBatches(pl, len(c.Pages), func(lo, hi int) []extract.Candidate {
		var out []extract.Candidate
		for i := lo; i < hi; i++ {
			page := &c.Pages[i]
			out = append(out, sep.Extract(page.Title, page.Bracket)...)
		}
		return out
	}))
}

// tagStage extracts tag candidates in parallel batches.
func (p *Pipeline) tagStage(c *encyclopedia.Corpus, pl *par.Pool) []extract.Candidate {
	return par.Concat(par.MapBatches(pl, len(c.Pages), func(lo, hi int) []extract.Candidate {
		var out []extract.Candidate
		for i := lo; i < hi; i++ {
			out = append(out, extract.Tags(&c.Pages[i])...)
		}
		return out
	}))
}

// infoboxStage discovers isA predicates against the bracket prior
// (sequential: a cheap counting pass) and then harvests matching
// triples in parallel batches.
func (p *Pipeline) infoboxStage(c *encyclopedia.Corpus, bracketCands []extract.Candidate, pl *par.Pool) (cands []extract.Candidate, predStats []extract.PredicateStat, selected []string) {
	release := pl.Acquire() // discovery is coordinator-side CPU work
	prior := extract.NewPrior(bracketCands)
	predStats, selected = p.opts.Predicates.Discover(c, prior)
	release()
	cands = par.Concat(par.MapBatches(pl, len(c.Pages), func(lo, hi int) []extract.Candidate {
		sub := encyclopedia.Corpus{Pages: c.Pages[lo:hi]}
		return extract.ExtractInfobox(&sub, selected)
	}))
	return cands, predStats, selected
}

// neuralStage trains the copy model on the distant dataset (sequential:
// SGD order is part of the model) and decodes every abstract in
// parallel batches. Returns nil candidates when no samples exist.
func (p *Pipeline) neuralStage(c *encyclopedia.Corpus, bracketCands []extract.Candidate, seg *segment.Segmenter, pl *par.Pool) (cands []extract.Candidate, nSamples int, losses []copynet.TrainReport) {
	release := pl.Acquire() // dataset assembly + SGD are coordinator-side CPU work
	samples := extract.BuildDistantDataset(c, bracketCands, seg)
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
	cands = par.Concat(par.MapBatches(pl, len(c.Pages), func(lo, hi int) []extract.Candidate {
		var out []extract.Candidate
		for i := lo; i < hi; i++ {
			out = append(out, neural.Extract(&c.Pages[i])...)
		}
		return out
	}))
	if cands == nil {
		cands = []extract.Candidate{}
	}
	return cands, nSamples, losses
}
