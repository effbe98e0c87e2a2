package core

import (
	"fmt"
	"slices"
	"time"

	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/extract"
	"cnprobase/internal/lexicon"
	"cnprobase/internal/par"
	"cnprobase/internal/segment"
	"cnprobase/internal/taxonomy"
)

// Update performs an incremental build: it extends an existing Result
// with newly crawled pages, the never-ending-extraction mode of the
// CN-DBpedia pipeline CN-Probase sits on. The existing taxonomy is
// extended in place (and also returned).
//
// An Update computes on what the batch touches. It reuses the original
// run's substrates — segmenter, corpus statistics (updated with the new
// text), curated predicate list and symbol table — and folds the batch
// into the persistent verification evidence: only delta abstracts are
// segmented and recognized, and only fresh candidates plus those whose
// evidence changed are re-verified. Per-page work fans out over the
// worker pool Build uses; the neural extractor sits updates out.
//
// Update owns prev.Kept — the taxonomy's kept list — and edits it in
// place by binary searches and block moves within its own, amortised,
// capacity, so a slice of it taken before the call must not be read
// after it. The candidate union (kept plus fresh) is never
// materialised: Report.Verification.Input is its size by arithmetic,
// and Result.Candidates afterwards holds the delta's own candidates.
//
// What the batch wrote — the pairs that joined or left the kept and
// derived lists or gained a source, the pages whose kind changed, the
// mentions that gained an entity — is what the next Freeze re-reads
// into its delta and what subconcept derivation re-tests. No step walks the union, the
// node list or the lists, none allocates in proportion to the kept
// list, and raw pages are never retained.
//
// The first Update of a Result warms what Build does not keep: after a
// snapshot load the verification caches are cold and every candidate
// is re-decided once, the head rule's memory is rebuilt by one scan of
// the concepts, and the segmenter is rebuilt from the dictionary and
// the restored statistics. Options.ForceFullReverify selects the
// O(total) re-verification reference path; both produce identical
// results (pinned by TestUpdateIncrementalMatchesFullReverify).
func (p *Pipeline) Update(prev *Result, delta *encyclopedia.Corpus) (*Result, error) {
	if prev == nil || prev.Taxonomy == nil {
		return nil, fmt.Errorf("core: Update needs a prior Result")
	}
	if delta == nil || len(delta.Pages) == 0 {
		return prev, nil
	}
	if prev.Evidence == nil || prev.Stats == nil {
		return nil, fmt.Errorf("core: prior Result lacks verification evidence; rebuild with this version or load a snapshot that carries it")
	}
	if prev.Segmenter == nil {
		// Snapshot-loaded Results carry statistics but no segmenter;
		// rebuild it the way Build constructs its final segmenter.
		dict := lexicon.BaseDictionary()
		dict = append(dict, p.opts.ExtraDictionary...)
		prev.Segmenter = segment.New(dict, segment.WithStats(prev.Stats))
	}
	prev.followNamed()
	workers := workerCount(p.opts.Workers)
	pl := par.NewPool(workers)

	// Extend corpus statistics with the new text, then refresh the
	// segmenter's precomputed word costs once for the whole batch.
	// Since costs were frozen into the dictionary at construction, the
	// cuts inside this loop all use the pre-delta probabilities (batch
	// granularity: the stats→segmenter feedback applies between crawl
	// batches, not between pages of one batch), which also makes the
	// loop order-free.
	var toks []string // recycled; AddSentence clones first-seen keys
	for i := range delta.Pages {
		page := &delta.Pages[i]
		if page.Abstract != "" {
			toks = prev.Segmenter.CutAppend(toks[:0], page.Abstract)
			prev.Stats.AddSentence(toks)
		}
		if page.Bracket != "" {
			toks = prev.Segmenter.CutAppend(toks[:0], page.Bracket)
			prev.Stats.AddSentence(toks)
		}
	}
	// Everything downstream — delta extraction and delta NE evidence —
	// segments with the delta's counts folded in.
	prev.Segmenter.RefreshCosts()

	// ---- generation over the delta ----
	// The delta's page names are interned first, then the sets are
	// merged in the order Build merges them — the IDs depend on nothing
	// else. The merge drops what the taxonomy would reject (blank page
	// IDs), so a malformed crawl page cannot abort the update after the
	// evidence and statistics have already been extended.
	syms := prev.Symbols()
	names, hypos := internPages(syms, delta.Pages)
	clock := &stageClock{t0: time.Now()} // an update reports no stages
	sets := make(chan candidateSet, len(generators))
	p.generate(&par.Group{Inline: true}, sets, delta, hypos, prev.Segmenter, prev.Stats, pl, clock, prev.Report, false)
	close(sets)
	m := merger{syms: syms, clock: clock}
	for set := range sets {
		m.add(set)
	}
	fresh := m.merged

	// ---- evidence fold: only the delta is segmented and recognized ----
	deltaSupport := observeSupport(delta, prev.Segmenter, prev.Evidence.Recognizer, pl)
	prev.Evidence.FoldSupport(deltaSupport)
	prev.Evidence.AddPages(delta.Pages, names)

	// ---- the candidate union, without building it ----
	// The union is previously kept pairs plus the fresh delta. A fresh
	// pair either is new to the kept list or regenerates a kept pair,
	// whose provenance it then extends where it sits (sources OR-ed —
	// what extract.Dedupe over the concatenation would produce).
	var brandNew []extract.Candidate
	var grown []extract.Candidate // kept pairs the batch added a source to
	generated := keptTally(prev)
	for _, c := range fresh {
		i, ok := taxonomy.Find(prev.Kept, c.Hypo, c.Hyper)
		if !ok {
			brandNew = append(brandNew, c)
			generated.add(c.Source, 1)
			continue
		}
		k := &prev.Kept[i]
		if more := c.Source &^ k.Source; more != 0 {
			generated.add(more, 1)
			k.Source |= c.Source
			grown = append(grown, *k)
		}
	}
	union := len(prev.Kept) + len(brandNew)

	// ---- verification of the affected subset ----
	// Only the fresh pairs enter the evidence (kept pairs are already
	// in it), and the dirty tracking confines re-verification to the
	// affected subset unless the reference path is forced.
	prev.Evidence.AddCandidates(brandNew)
	if p.opts.ForceFullReverify {
		prev.Evidence.MarkAllDirty()
	}
	decided, vrep := prev.Evidence.Reverify(prev.Segmenter, p.opts.Verify, workers)
	// Every pair of the union that was not re-decided is a kept pair
	// with a cached "kept" decision, so the survivors are the union
	// minus the pairs rejected just now: previously kept ones leave the
	// list, brand-new ones never enter it.
	var rejected, retracted []extract.Candidate
	var dropKept, dropNew []int
	survived := generated
	for _, d := range decided {
		if d.Reason == "" {
			continue
		}
		if i, ok := taxonomy.Find(prev.Kept, d.Hypo, d.Hyper); ok {
			dropKept = append(dropKept, i)
			retracted = append(retracted, prev.Kept[i])
			rejected = append(rejected, prev.Kept[i])
		} else if i, ok := taxonomy.Find(brandNew, d.Hypo, d.Hyper); ok {
			dropNew = append(dropNew, i)
			rejected = append(rejected, brandNew[i])
		} else {
			continue // not a pair of the union: nothing to retract
		}
		survived.add(rejected[len(rejected)-1].Source, -1)
	}
	// Between batches the evidence describes the kept set only.
	prev.Evidence.RemoveCandidates(rejected)

	// ---- taxonomy extension ----
	// The pages' entities and mentions, then the kept list: rejected
	// pairs leave it, with any derived part of their edge, and the
	// brand-new kept pairs slot in (a regenerated pair already carries
	// its new sources where it sits). The evidence now indexes the kept
	// list, so it answers which concepts still have a kept hyponym.
	marked, ms := markPages(prev.Taxonomy, delta.Pages, names)
	mentions := prev.AddMentions(ms)
	slices.Sort(dropKept)
	slices.Sort(dropNew)
	added := editCandidates(brandNew, dropNew, nil)
	prev.Kept = editCandidates(prev.Kept, dropKept, added)
	prev.Retracted(retracted, func(id uint32) bool { return prev.Evidence.Hyponyms(id) > 0 })
	prev.Inserted(added)
	touched := marked
	for _, list := range [3][]extract.Candidate{retracted, added, grown} {
		for _, c := range list {
			touched = append(touched, c.Hypo, c.Hyper)
		}
	}
	prev.inc.wrote(touched, mentions)
	if p.opts.DeriveSubconcepts {
		n, derived := deriveSubconcepts(prev.Taxonomy, prev.Evidence, p.opts, &prev.inc)
		prev.Report.DerivedSubconcepts += n
		prev.inc.wrote(derived, nil)
	}

	prev.Candidates = fresh
	prev.Report.Pages += len(delta.Pages)
	prev.Report.Workers = workers
	vrep.Input, vrep.Kept = union, len(prev.Kept)
	prev.Report.Verification = vrep
	prev.Report.PerSource = perSourceReport(generated, survived)
	prev.Report.Stats = prev.ComputeStats()
	return prev, nil
}

// keptTally returns the per-source tally of prev.Kept: the Kept column
// of the previous report, which every Build, Update and snapshot load
// leaves describing exactly that list — or a count, for a Result
// assembled without one.
func keptTally(prev *Result) (t sourceTally) {
	if prev.Report.PerSource == nil {
		return tallySources(prev.Kept)
	}
	for i, src := range generators {
		if r := prev.Report.PerSource[src]; r != nil {
			t[i] = r.Kept
		}
	}
	return t
}
