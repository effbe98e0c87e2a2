// Package experiments regenerates every table and figure of the
// paper's evaluation over a synthetic world (internal/synth). This doc
// is the experiment index; each code names one reproduction:
//
//	E1     Table I, the four taxonomies side by side (Table1)
//	E2     Table II, the API workload served over HTTP (Table2)
//	E3/E4  per-source precision: bracket, abstract, infobox, tag (PerSource)
//	E5     QA coverage over the generated question set (QA)
//	E6     predicate discovery (Predicates)
//	E7     the copy mechanism vs plain seq2seq (Neural)
//	A1     the pipeline with each verification strategy toggled (Ablation)
//	A2     the PMI separation algorithm vs the longest-suffix heuristic
//	       (SeparationVsSuffix)
//	F3     Figure 3's separation example walked through (SeparationDemo)
//
// Both cmd/experiments, which prints every result, and the root
// benchmarks drive this package; no result is recorded in the repo.
package experiments

import (
	"cmp"
	"fmt"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"

	"cnprobase/internal/api"
	"cnprobase/internal/baselines"
	"cnprobase/internal/copynet"
	"cnprobase/internal/core"
	"cnprobase/internal/eval"
	"cnprobase/internal/extract"
	"cnprobase/internal/qa"
	"cnprobase/internal/synth"
	"cnprobase/internal/taxonomy"
)

// Suite holds one world + one CN-Probase build, reused across
// experiments.
type Suite struct {
	World  *synth.World
	Result *core.Result
	Oracle *synth.Oracle
	Opts   core.Options
}

// NewSuite generates a world with `entities` entities and builds
// CN-Probase over it.
func NewSuite(entities int, opts core.Options) (*Suite, error) {
	wcfg := synth.DefaultConfig()
	if entities > 0 {
		wcfg.Entities = entities
	}
	w, err := synth.Generate(wcfg)
	if err != nil {
		return nil, err
	}
	res, err := core.New(opts).Build(w.Corpus())
	if err != nil {
		return nil, err
	}
	return &Suite{World: w, Result: res, Oracle: w.Oracle(), Opts: opts}, nil
}

// sampleSize is the paper's manual-labeling sample size.
const sampleSize = 2000

// Table1 reproduces Table I: the four taxonomies side by side.
func (s *Suite) Table1() (string, []eval.TableRow) {
	wiki := baselines.BuildWikiTaxonomy(s.World.Corpus(), baselines.DefaultWikiTaxonomyConfig())
	big := baselines.BuildBigcilin(s.World.Corpus(), baselines.DefaultBigcilinConfig())
	tran, _ := baselines.BuildProbaseTran(s.World, baselines.DefaultProbaseTranConfig())
	rows := []eval.TableRow{
		eval.RowFor("Chinese WikiTaxonomy", wiki, s.Oracle, sampleSize, 1),
		eval.RowFor("Bigcilin", big, s.Oracle, sampleSize, 1),
		eval.RowFor("Probase-Tran", tran, s.Oracle, sampleSize, 1),
		eval.RowFor("CN-Probase", s.Result.Taxonomy, s.Oracle, sampleSize, 1),
	}
	return eval.FormatTable1(rows), rows
}

// Table2 reproduces Table II by serving the taxonomy over HTTP and
// running the simulated six-month workload mix against it.
func (s *Suite) Table2(calls int) (string, api.Stats, error) {
	v := s.Result.Freeze()
	srv := api.NewViewServer(v)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cfg := api.DefaultWorkloadConfig()
	if calls > 0 {
		cfg.Calls = calls
	}
	if _, err := api.RunWorkload(api.NewClient(ts.URL), v, cfg); err != nil {
		return "", api.Stats{}, err
	}
	got := srv.Counters()
	return api.FormatTable2(got), got, nil
}

// SourceRow is one per-source precision row (E3/E4).
type SourceRow struct {
	Source             taxonomy.Source
	Generated, Kept    int
	PrecisionGenerated float64
	PrecisionKept      float64
}

// PerSource reproduces the in-text per-source numbers: bracket ≈96.2%
// (E3), tag ≈97.4% after verification (E4).
func (s *Suite) PerSource() (string, []SourceRow) {
	srcs := []taxonomy.Source{taxonomy.SourceBracket, taxonomy.SourceAbstract, taxonomy.SourceInfobox, taxonomy.SourceTag}
	var rows []SourceRow
	for _, src := range srcs {
		gen := pairsOf(s.Result.Names(), s.Result.Candidates, src)
		kept := pairsOf(s.Result.Names(), s.Result.Kept, src)
		rows = append(rows, SourceRow{
			Source:             src,
			Generated:          len(gen),
			Kept:               len(kept),
			PrecisionGenerated: eval.SamplePrecision(gen, s.Oracle, sampleSize, 1).Precision(),
			PrecisionKept:      eval.SamplePrecision(kept, s.Oracle, sampleSize, 1).Precision(),
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %10s %16s %12s\n", "source", "generated", "kept", "prec(generated)", "prec(kept)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %10d %10d %15.1f%% %11.1f%%\n",
			r.Source, r.Generated, r.Kept, r.PrecisionGenerated*100, r.PrecisionKept*100)
	}
	return b.String(), rows
}

// pairsOf names the candidates of src (all of them for 0) in name
// order, the order eval's seeded sample is drawn in.
func pairsOf(names []string, cands []extract.Candidate, src taxonomy.Source) []eval.Pair {
	var out []eval.Pair
	for _, c := range cands {
		if src == 0 || c.Source&src != 0 {
			out = append(out, eval.Pair{Hypo: names[c.Hypo], Hyper: names[c.Hyper]})
		}
	}
	slices.SortFunc(out, func(a, b eval.Pair) int {
		return cmp.Or(strings.Compare(a.Hypo, b.Hypo), strings.Compare(a.Hyper, b.Hyper))
	})
	return out
}

// Predicates reproduces E6: the discovered candidate predicates and the
// curated selection (paper: 341 candidates → 12 curated).
func (s *Suite) Predicates() (string, []extract.PredicateStat, []string) {
	cands := s.Result.Report.PredicateCandidates
	selected := s.Result.Report.SelectedPredicates
	var b strings.Builder
	fmt.Fprintf(&b, "candidate predicates: %d, curated: %d\n", len(cands), len(selected))
	fmt.Fprintf(&b, "%-12s %8s %8s %8s\n", "predicate", "total", "aligned", "score")
	for _, c := range cands {
		mark := " "
		for _, sel := range selected {
			if sel == c.Predicate {
				mark = "*"
			}
		}
		fmt.Fprintf(&b, "%-12s %8d %8d %7.2f%s\n", c.Predicate, c.Total, c.Aligned, c.Score(), mark)
	}
	return b.String(), cands, selected
}

// QA reproduces E5: coverage over the generated question set (paper:
// 91.68% over 23,472 questions; 2.14 concepts per covered entity).
func (s *Suite) QA(n int) (string, qa.CoverageResult) {
	cfg := qa.DefaultGeneratorConfig()
	if n > 0 {
		cfg.N = n
	}
	res := qa.EvaluateSource(qa.Generate(s.World, cfg), s.Result.Freeze())
	out := fmt.Sprintf("questions=%d covered=%d coverage=%.2f%% avg-concepts-per-covered-entity=%.2f\n",
		res.Questions, res.Covered, res.Coverage()*100, res.AvgConceptsPerEntity)
	return out, res
}

// AblationRow is one verification-ablation configuration (A1).
type AblationRow struct {
	Name      string
	IsA       int
	Precision float64
}

// Ablation rebuilds the taxonomy with each verification strategy
// disabled in turn, plus all-off (the Bigcilin-like configuration) and
// all-on.
func (s *Suite) Ablation() (string, []AblationRow, error) {
	type cfg struct {
		name   string
		mutate func(*core.Options)
	}
	cfgs := []cfg{
		{"full verification", func(*core.Options) {}},
		{"- incompatible", func(o *core.Options) { o.Verify.EnableIncompatible = false }},
		{"- named-entity", func(o *core.Options) { o.Verify.EnableNE = false }},
		{"- syntax rules", func(o *core.Options) { o.Verify.EnableSyntax = false }},
		{"no verification", func(o *core.Options) {
			o.Verify.EnableIncompatible = false
			o.Verify.EnableNE = false
			o.Verify.EnableSyntax = false
		}},
	}
	var rows []AblationRow
	for _, c := range cfgs {
		opts := s.Opts
		c.mutate(&opts)
		res, err := core.New(opts).Build(s.World.Corpus())
		if err != nil {
			return "", nil, fmt.Errorf("ablation %q: %w", c.name, err)
		}
		pr := eval.SamplePrecision(eval.EdgePairs(res.Taxonomy.Edges(), 0), s.Oracle, sampleSize, 1)
		rows = append(rows, AblationRow{Name: c.name, IsA: res.Taxonomy.ComputeStats().IsARelations, Precision: pr.Precision()})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %10s %10s\n", "configuration", "# isA", "precision")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %10d %9.1f%%\n", r.Name, r.IsA, r.Precision*100)
	}
	return b.String(), rows, nil
}

// NeuralResult summarizes the E7 copy-mechanism ablation.
type NeuralResult struct {
	TrainSamples, TestSamples int
	AccCopy, AccNoCopy        float64
	OOVTargets                int
	OOVAccCopy, OOVAccNoCopy  float64
}

// Neural reproduces E7: the copy mechanism vs the plain seq2seq on the
// distant-supervision task, with the OOV breakdown that motivated
// CopyNet in the paper.
func (s *Suite) Neural(maxSamples, epochs int) (string, NeuralResult, error) {
	// The bracket candidates in name order, each page named by its ID:
	// a batch whose name list is the whole symbol table.
	names, syms := s.Result.Names(), s.Result.Taxonomy.Symbols()
	bracket := candidatesBySource(s.Result.Candidates, taxonomy.SourceBracket)
	slices.SortFunc(bracket, func(a, b extract.Candidate) int {
		return cmp.Or(strings.Compare(names[a.Hypo], names[b.Hypo]), strings.Compare(names[a.Hyper], names[b.Hyper]))
	})
	corpus := s.World.Corpus()
	hypos := make([]uint32, len(corpus.Pages))
	for i := range corpus.Pages {
		hypos[i], _ = syms.Lookup(corpus.Pages[i].ID())
	}
	samples := extract.BuildDistantDataset(corpus, hypos, []extract.Batch{{Cands: bracket, Names: names}}, s.Result.Segmenter)
	if len(samples) < 20 {
		return "", NeuralResult{}, fmt.Errorf("neural ablation: only %d distant samples", len(samples))
	}
	if maxSamples > 0 && len(samples) > maxSamples {
		samples = samples[:maxSamples]
	}
	// Deterministic 90/10 split.
	cut := len(samples) * 9 / 10
	train, test := samples[:cut], samples[cut:]

	run := func(useCopy bool) (float64, float64, int) {
		cfg := copynet.DefaultConfig()
		cfg.UseCopy = useCopy
		// A deliberately small vocabulary makes OOV concepts common —
		// the exact condition the paper adopts CopyNet for ("merely
		// using this basic model suffers from OOV").
		cfg.Vocab = 300
		var seqs [][]string
		for _, smp := range train {
			seqs = append(seqs, smp.Src, smp.Tgt)
		}
		vocab := copynet.BuildVocab(seqs, cfg.Vocab)
		model := copynet.New(cfg, vocab)
		model.Train(train, epochs, 0.01, nil)
		hit, oovHit, oovN := 0, 0, 0
		for _, smp := range test {
			got := strings.Join(model.Generate(smp.Src), "")
			want := strings.Join(smp.Tgt, "")
			oov := false
			for _, t := range smp.Tgt {
				if !vocab.Known(t) {
					oov = true
				}
			}
			if oov {
				oovN++
			}
			if got == want {
				hit++
				if oov {
					oovHit++
				}
			}
		}
		acc := float64(hit) / float64(len(test))
		oovAcc := 0.0
		if oovN > 0 {
			oovAcc = float64(oovHit) / float64(oovN)
		}
		return acc, oovAcc, oovN
	}
	accCopy, oovAccCopy, oovN := run(true)
	accNo, oovAccNo, _ := run(false)
	res := NeuralResult{
		TrainSamples: len(train), TestSamples: len(test),
		AccCopy: accCopy, AccNoCopy: accNo,
		OOVTargets: oovN, OOVAccCopy: oovAccCopy, OOVAccNoCopy: oovAccNo,
	}
	out := fmt.Sprintf("train=%d test=%d | exact-match: copy=%.1f%% no-copy=%.1f%% | OOV targets=%d: copy=%.1f%% no-copy=%.1f%%\n",
		res.TrainSamples, res.TestSamples, res.AccCopy*100, res.AccNoCopy*100,
		res.OOVTargets, res.OOVAccCopy*100, res.OOVAccNoCopy*100)
	return out, res, nil
}

func candidatesBySource(cands []extract.Candidate, src taxonomy.Source) []extract.Candidate {
	var out []extract.Candidate
	for _, c := range cands {
		if c.Source&src != 0 {
			out = append(out, c)
		}
	}
	return out
}

// SeparationVsSuffixRow compares the paper's PMI separation algorithm
// against the naive longest-suffix heuristic (Bigcilin's bracket
// treatment) — ablation A2 of the package index, on E3's bracket
// source.
type SeparationVsSuffixRow struct {
	Name       string
	Candidates int
	Precision  float64
}

// SeparationVsSuffix extracts bracket hypernyms with both algorithms
// over the whole corpus and scores them against the oracle.
func (s *Suite) SeparationVsSuffix() (string, []SeparationVsSuffixRow) {
	sep := extract.NewSeparator(s.Result.Segmenter, s.Result.Stats)
	var pmiPairs, sfxPairs []eval.Pair
	for _, p := range s.World.Corpus().Pages {
		if p.Bracket == "" {
			continue
		}
		id := p.ID()
		for _, h := range sep.Hypernyms(p.Title, p.Bracket) {
			pmiPairs = append(pmiPairs, eval.Pair{Hypo: id, Hyper: h})
		}
		// Naive heuristic: last content word of each compound.
		for _, part := range strings.FieldsFunc(p.Bracket, func(r rune) bool { return r == '、' || r == '，' }) {
			toks := s.Result.Segmenter.Cut(part)
			for i := len(toks) - 1; i >= 0; i-- {
				if len([]rune(toks[i])) >= 2 {
					sfxPairs = append(sfxPairs, eval.Pair{Hypo: id, Hyper: toks[i]})
					break
				}
			}
		}
	}
	rows := []SeparationVsSuffixRow{
		{Name: "PMI separation", Candidates: len(pmiPairs),
			Precision: eval.SamplePrecision(pmiPairs, s.Oracle, sampleSize, 1).Precision()},
		{Name: "suffix heuristic", Candidates: len(sfxPairs),
			Precision: eval.SamplePrecision(sfxPairs, s.Oracle, sampleSize, 1).Precision()},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %12s %10s\n", "algorithm", "candidates", "precision")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %12d %9.1f%%\n", r.Name, r.Candidates, r.Precision*100)
	}
	return b.String(), rows
}

// SeparationDemo walks the paper's Figure 3 example through the
// separation algorithm (for documentation and the separation example).
func (s *Suite) SeparationDemo(compounds []string) string {
	sep := extract.NewSeparator(s.Result.Segmenter, s.Result.Stats)
	var b strings.Builder
	for _, c := range compounds {
		t := sep.Separate(c)
		fmt.Fprintf(&b, "%s → words %v → hypernyms %v\n", c, t.Words, t.Hypernyms)
	}
	return b.String()
}

// Summary prints the headline stats (the paper's abstract numbers),
// including ground-truth coverage — the paper's fifth metric, which a
// synthetic world makes measurable as recall.
func (s *Suite) Summary() string {
	st := s.Result.Report.Stats
	pr := eval.SamplePrecision(eval.EdgePairs(s.Result.Taxonomy.Edges(), 0), s.Oracle, sampleSize, 1)
	ids := make([]string, 0, len(s.World.Entities))
	for _, e := range s.World.Entities {
		ids = append(ids, e.ID)
	}
	cov := eval.CoverageOf(s.Result.Freeze(), s.Oracle, ids)
	keys := make([]string, 0, len(s.Result.Report.PerSource))
	for k := range s.Result.Report.PerSource {
		keys = append(keys, k.String())
	}
	sort.Strings(keys)
	return fmt.Sprintf(
		"pages=%d entities=%d concepts=%d isA=%d (entity-concept=%d, subconcept=%d) precision=%.1f%% entity-coverage=%.1f%% pair-recall=%.1f%% sources=%v\n",
		s.Result.Report.Pages, st.Entities, st.Concepts, st.IsARelations,
		st.EntityConceptIsA, st.SubConceptIsA, pr.Precision()*100,
		cov.EntityCoverage()*100, cov.PairRecall()*100, keys)
}
