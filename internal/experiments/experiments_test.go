package experiments

import (
	"strings"
	"testing"

	"cnprobase/internal/core"
	"cnprobase/internal/eval"
)

func coverageOf(s *Suite, ids []string) eval.CoverageResult {
	return eval.CoverageOf(s.Result.Freeze(), s.Oracle, ids)
}

func testSuite(t *testing.T) *Suite {
	t.Helper()
	opts := core.DefaultOptions()
	opts.NeuralEpochs = 1
	opts.NeuralMaxSamples = 300
	opts.Neural.Vocab = 400
	s, err := NewSuite(1200, opts)
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	return s
}

func TestTable1ShapeMatchesPaper(t *testing.T) {
	s := testSuite(t)
	out, rows := s.Table1()
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	byName := make(map[string]int, len(rows))
	for i, r := range rows {
		byName[r.Name] = i
	}
	wiki := rows[byName["Chinese WikiTaxonomy"]]
	big := rows[byName["Bigcilin"]]
	tran := rows[byName["Probase-Tran"]]
	cn := rows[byName["CN-Probase"]]

	// Ordering claims of the paper's Table I.
	if cn.IsA <= wiki.IsA || cn.IsA <= tran.IsA {
		t.Errorf("CN-Probase must have the most isA: cn=%d wiki=%d tran=%d", cn.IsA, wiki.IsA, tran.IsA)
	}
	if cn.Entities < big.Entities || cn.Entities <= tran.Entities {
		t.Errorf("CN-Probase must have the most entities: %+v", rows)
	}
	if !(wiki.Precision >= cn.Precision && cn.Precision > big.Precision && big.Precision > tran.Precision) {
		t.Errorf("precision ordering broken: wiki=%.3f cn=%.3f big=%.3f tran=%.3f",
			wiki.Precision, cn.Precision, big.Precision, tran.Precision)
	}
	if cn.Precision < 0.90 {
		t.Errorf("CN-Probase precision %.3f below band", cn.Precision)
	}
	if tran.Precision > 0.75 {
		t.Errorf("Probase-Tran precision %.3f too high for the translation story", tran.Precision)
	}
	if !strings.Contains(out, "CN-Probase") {
		t.Error("formatted table missing CN-Probase row")
	}
}

func TestTable2Workload(t *testing.T) {
	s := testSuite(t)
	out, stats, err := s.Table2(600)
	if err != nil {
		t.Fatalf("Table2: %v", err)
	}
	total := stats.Men2Ent + stats.GetConcept + stats.GetEntity
	if total != 600 {
		t.Errorf("total calls = %d, want 600", total)
	}
	if stats.Men2Ent <= stats.GetConcept {
		t.Errorf("men2ent should dominate (paper mix): %+v", stats)
	}
	if !strings.Contains(out, "men2ent") {
		t.Error("formatted table malformed")
	}
}

func TestPerSourceBands(t *testing.T) {
	s := testSuite(t)
	_, rows := s.PerSource()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Kept > r.Generated {
			t.Errorf("source %v kept > generated: %+v", r.Source, r)
		}
		if r.Generated > 0 && r.PrecisionKept < r.PrecisionGenerated-0.02 {
			t.Errorf("source %v: verification reduced precision %.3f → %.3f",
				r.Source, r.PrecisionGenerated, r.PrecisionKept)
		}
	}
}

func TestPredicatesCuration(t *testing.T) {
	s := testSuite(t)
	_, cands, selected := s.Predicates()
	if len(cands) == 0 || len(selected) == 0 {
		t.Fatalf("cands=%d selected=%d", len(cands), len(selected))
	}
	if len(selected) > 12 {
		t.Errorf("curated %d predicates, cap is 12", len(selected))
	}
	if len(selected) >= len(cands) && len(cands) > 8 {
		t.Error("curation should discard the low-score tail")
	}
	// 职业 must always be discovered — it is the paper's flagship
	// example.
	found := false
	for _, sel := range selected {
		if sel == "职业" {
			found = true
		}
	}
	if !found {
		t.Errorf("职业 not curated: %v", selected)
	}
}

func TestQAReproduction(t *testing.T) {
	s := testSuite(t)
	_, res := s.QA(3000)
	if res.Questions != 3000 {
		t.Fatalf("questions = %d", res.Questions)
	}
	if res.Coverage() < 0.80 || res.Coverage() > 0.99 {
		t.Errorf("coverage = %.3f, want in the paper's ~0.92 band", res.Coverage())
	}
	if res.AvgConceptsPerEntity < 1.5 {
		t.Errorf("avg concepts = %.2f, want ≥1.5 (paper: 2.14)", res.AvgConceptsPerEntity)
	}
}

func TestSummaryMentionsEverySource(t *testing.T) {
	s := testSuite(t)
	sum := s.Summary()
	for _, want := range []string{"entities=", "concepts=", "isA=", "precision=", "entity-coverage="} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q: %s", want, sum)
		}
	}
}

func TestSeparationVsSuffix(t *testing.T) {
	s := testSuite(t)
	out, rows := s.SeparationVsSuffix()
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	pmi, sfx := rows[0], rows[1]
	if pmi.Candidates <= sfx.Candidates {
		t.Errorf("PMI separation should recover more hypernyms: pmi=%d suffix=%d",
			pmi.Candidates, sfx.Candidates)
	}
	if pmi.Precision < 0.90 || sfx.Precision < 0.90 {
		t.Errorf("both bracket extractors should be high precision: %+v", rows)
	}
	if !strings.Contains(out, "PMI separation") {
		t.Errorf("output malformed:\n%s", out)
	}
}

func TestGroundTruthCoverageBand(t *testing.T) {
	s := testSuite(t)
	ids := make([]string, 0, len(s.World.Entities))
	for _, e := range s.World.Entities {
		ids = append(ids, e.ID)
	}
	cov := coverageOf(s, ids)
	if cov.EntityCoverage() < 0.9 {
		t.Errorf("entity coverage = %.3f; most entities should have a correct hypernym", cov.EntityCoverage())
	}
	if cov.PairRecall() < 0.5 {
		t.Errorf("pair recall = %.3f; the multi-source design should recover most truth", cov.PairRecall())
	}
}
