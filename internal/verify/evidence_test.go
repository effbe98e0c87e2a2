package verify

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/ner"
	"cnprobase/internal/taxonomy"
)

// evidenceWorld is a deterministic generator of pages + candidates in
// typed clusters, so strategy III-A has real incompatibilities to find.
type evidenceWorld struct {
	rng *rand.Rand
	n   int
}

var evidenceConcepts = map[string][]string{
	"演员": {"职业", "出生日期", "国籍"},
	"歌手": {"职业", "出生日期", "唱片公司"},
	"图书": {"出版社", "页数", "作者"},
	"城市": {"人口", "面积", "邮编"},
}

func (w *evidenceWorld) concept() string {
	keys := []string{"演员", "歌手", "图书", "城市"}
	return keys[w.rng.Intn(len(keys))]
}

// page fabricates one typed page plus its candidate claims; about one
// in six pages gets an extra claim from a foreign cluster, the
// conflict III-A resolves.
func (w *evidenceWorld) page() (encyclopedia.Page, []named) {
	w.n++
	typ := w.concept()
	title := fmt.Sprintf("实体%s%03d", typ, w.n)
	p := encyclopedia.Page{Title: title}
	for _, pred := range evidenceConcepts[typ] {
		if w.rng.Intn(4) > 0 {
			p.Infobox = append(p.Infobox, encyclopedia.Triple{Subject: title, Predicate: pred, Object: "值"})
		}
	}
	cands := []named{{Hypo: p.ID(), Hyper: typ, Source: taxonomy.SourceTag}}
	if w.rng.Intn(6) == 0 {
		other := w.concept()
		if other != typ {
			cands = append(cands, named{Hypo: p.ID(), Hyper: other, Source: taxonomy.SourceBracket})
		}
	}
	return p, cands
}

// normalizedConceptAttrs reads v_att(c) for every concept out of the
// running sums.
func normalizedConceptAttrs(v evidenceView) map[string]map[string]float64 {
	out := make(map[string]map[string]float64, len(v.ConceptSums))
	for c, sum := range v.ConceptSums {
		d := make(map[string]float64, len(sum))
		for k, w := range sum {
			d[k] = w
		}
		normalize(d)
		out[c] = d
	}
	return out
}

// naiveConceptAttrs is the reference aggregation: sum the attribute
// distributions of each concept's attribute-bearing hyponyms and
// normalize, skipping concepts that have none.
func naiveConceptAttrs(v evidenceView) map[string]map[string]float64 {
	out := make(map[string]map[string]float64)
	for c, hypos := range v.Hyponyms {
		agg := make(map[string]float64)
		n := 0
		for h := range hypos {
			if d, ok := v.EntityAttrs[h]; ok {
				for k, v := range d {
					agg[k] += v
				}
				n++
			}
		}
		if n > 0 {
			normalize(agg)
			out[c] = agg
		}
	}
	return out
}

// TestEvidenceMatchesOracle is the incremental-vs-oracle property: a
// sequence of crawl batches folded forward through AddPages /
// FoldSupport / AddCandidates / VerifyDelta / RemoveCandidates must
// leave exactly the evidence, decisions and report that a from-scratch
// NewContext + Verify over the accumulated state produces.
func TestEvidenceMatchesOracle(t *testing.T) {
	opts := Options{
		EnableIncompatible: true,
		JaccardMax:         0.3,
		CosineMax:          0.7,
		MinConceptSupport:  3,
		EnableNE:           true,
		NEThreshold:        0.5,
		EnableSyntax:       true,
	}
	seg := testSeg()
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			w := &evidenceWorld{rng: rand.New(rand.NewSource(seed))}
			inc := NewEvidence(nil, ner.NewSupport(), ner.New())
			oracleSup := ner.NewSupport()
			var allPages []encyclopedia.Page
			var kept []named
			for batch := 0; batch < 5; batch++ {
				var pages []encyclopedia.Page
				var fresh []named
				for i := 0; i < 20; i++ {
					p, cs := w.page()
					pages = append(pages, p)
					fresh = append(fresh, cs...)
				}
				// A candidate whose hyponym's page only arrives next
				// batch: titleEdges must late-bind identically.
				future := fmt.Sprintf("实体演员%03d", w.n+1)
				fresh = append(fresh, named{Hypo: future, Hyper: "演员", Source: taxonomy.SourceTag})
				// Delta NE observations drift s1 between batches.
				deltaSup := ner.NewSupport()
				for i := 0; i < 5; i++ {
					deltaSup.ObserveWord(w.concept(), w.rng.Intn(10) == 0)
				}
				deltaSup.ObserveWord("李明", true)

				// ---- incremental path ----
				inc.FoldSupport(deltaSup)
				inc.AddPages(pages, pageIDs(inc.syms, pages))
				merged := dedupeNamed(append(append([]named(nil), kept...), fresh...))
				inc.AddCandidates(onIDs(inc.syms, merged))
				keptInc, repInc := verifyDeltaNamed(merged, inc, seg, opts)

				// ---- oracle: from scratch over the accumulated state ----
				allPages = append(allPages, pages...)
				oracleSup.Merge(deltaSup)
				oracle := newContext(&encyclopedia.Corpus{Pages: allPages}, merged, oracleSup, ner.New())
				keptOra, repOra := verifyNamed(merged, oracle, seg, opts)

				if !reflect.DeepEqual(keptInc, keptOra) {
					t.Fatalf("batch %d: kept diverged: incremental %d vs oracle %d", batch, len(keptInc), len(keptOra))
				}
				if repInc.Input != repOra.Input || repInc.Kept != repOra.Kept ||
					repInc.IncompatiblePairs != repOra.IncompatiblePairs ||
					!reflect.DeepEqual(repInc.Rejected, repOra.Rejected) {
					t.Fatalf("batch %d: reports diverged: %+v vs %+v", batch, repInc, repOra)
				}
				// The incrementally folded evidence and the from-scratch one
				// hold the same tables and the same decisions.
				vInc, vOra := viewOf(t, inc), viewOf(t, oracle)
				if err := diffViews(vInc, vOra); err != nil {
					t.Fatalf("batch %d: incremental vs oracle: %v", batch, err)
				}
				// The running per-concept sums, folded in and out one
				// entity at a time across batches, must describe the
				// distributions a naive re-aggregation produces.
				if err := attrsClose(normalizedConceptAttrs(vInc), naiveConceptAttrs(vInc)); err != nil {
					t.Fatalf("batch %d: concept attributes: %v", batch, err)
				}

				// Retract the rejected pairs; the next batch verifies
				// over kept ∪ fresh, exactly like core.Update.
				keptSet := make(map[edgeKey]bool, len(keptInc))
				for _, c := range keptInc {
					keptSet[edgeKey{c.Hypo, c.Hyper}] = true
				}
				var rejected []named
				for _, c := range merged {
					if !keptSet[edgeKey{c.Hypo, c.Hyper}] {
						rejected = append(rejected, c)
					}
				}
				inc.RemoveCandidates(onIDs(inc.syms, rejected))
				kept = keptInc
			}
		})
	}
}

// TestVerifyDeltaSkipsUntouchedClusters pins the O(delta) claim at the
// verify level: a batch that only touches one cluster of the evidence
// re-verifies that cluster's candidates, not the whole set.
func TestVerifyDeltaSkipsUntouchedClusters(t *testing.T) {
	ev := NewEvidence(nil, ner.NewSupport(), ner.New())
	var pages []encyclopedia.Page
	var cands []named
	for i := 0; i < 10; i++ {
		a := encyclopedia.Page{Title: fmt.Sprintf("演员实体%02d", i)}
		b := encyclopedia.Page{Title: fmt.Sprintf("图书实体%02d", i)}
		pages = append(pages, a, b)
		cands = append(cands,
			named{Hypo: a.ID(), Hyper: "演员", Source: taxonomy.SourceTag},
			named{Hypo: b.ID(), Hyper: "图书", Source: taxonomy.SourceTag})
	}
	cands = dedupeNamed(cands)
	ev.AddPages(pages, pageIDs(ev.syms, pages))
	ev.AddCandidates(onIDs(ev.syms, cands))
	opts := DefaultOptions()
	seg := testSeg()
	kept, rep := verifyDeltaNamed(cands, ev, seg, opts)
	if rep.Reverified != len(cands) {
		t.Fatalf("cold pass reverified %d of %d", rep.Reverified, len(cands))
	}

	// Second batch: one fresh page claiming 图书 only.
	p := encyclopedia.Page{Title: "图书实体99"}
	fresh := named{Hypo: p.ID(), Hyper: "图书", Source: taxonomy.SourceTag}
	ev.AddPages([]encyclopedia.Page{p}, pageIDs(ev.syms, []encyclopedia.Page{p}))
	merged := dedupeNamed(append(kept, fresh))
	ev.AddCandidates(onIDs(ev.syms, merged))
	_, rep = verifyDeltaNamed(merged, ev, seg, opts)
	if rep.Reverified == 0 || rep.Reverified >= rep.Input {
		t.Fatalf("incremental pass reverified %d of %d, want a strict subset covering the touched cluster", rep.Reverified, rep.Input)
	}
	for _, c := range merged {
		if c.Hyper == "演员" {
			// 演员 cluster untouched: its pairs must not be in the
			// affected set (11 图书 pairs were).
			if rep.Reverified > 11 {
				t.Fatalf("reverified %d pairs, want ≤ 11 (the 图书 cluster)", rep.Reverified)
			}
			break
		}
	}
}
