package verify

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/ner"
	"cnprobase/internal/symtab"
	"cnprobase/internal/taxonomy"
)

// evidenceView is what an evidence holds, at string level: the form in
// which the dense Evidence and the map-based reference are compared.
type evidenceView struct {
	Claims     map[string]map[string]bool // hypo → hypers
	Hyponyms   map[string]map[string]bool // hyper → hypos
	Extents    map[string]map[string]bool // hyper → hypos that are pages
	TitleByID  map[string]string
	Titles     map[string]bool
	TitleEdges map[string]int
	Cooc       map[pairKey]int // shared hyponyms
	EntityCooc map[pairKey]int
	Partners   map[string]map[string]bool
	EntPartner map[string]map[string]bool

	EntityAttrs  map[string]map[string]float64
	ConceptSums  map[string]map[string]float64
	Contributors map[string]int

	Decisions    map[edgeKey]Reason
	Killed       map[edgeKey]bool
	Incompatible map[pairKey]bool
}

func addTo(m map[string]map[string]bool, k, v string) {
	if m[k] == nil {
		m[k] = make(map[string]bool)
	}
	m[k][v] = true
}

// viewOf reads the dense evidence out through its tables, checking on
// the way every stored position and counter the swap-deletes rely on.
func viewOf(t testing.TB, ev *Evidence) evidenceView {
	t.Helper()
	v := evidenceView{
		Claims: map[string]map[string]bool{}, Hyponyms: map[string]map[string]bool{}, Extents: map[string]map[string]bool{},
		TitleByID: map[string]string{}, Titles: map[string]bool{}, TitleEdges: map[string]int{},
		Cooc: map[pairKey]int{}, EntityCooc: map[pairKey]int{},
		Partners: map[string]map[string]bool{}, EntPartner: map[string]map[string]bool{},
		EntityAttrs: map[string]map[string]float64{}, ConceptSums: map[string]map[string]float64{}, Contributors: map[string]int{},
		Decisions: map[edgeKey]Reason{}, Killed: map[edgeKey]bool{}, Incompatible: map[pairKey]bool{},
	}
	names, preds := ev.syms.Names(), ev.preds.Names()
	name := func(id uint32) string { return names[id] }
	if len(ev.nodes) > len(names) {
		t.Fatalf("symbol table out of step: %d nodes, %d names", len(ev.nodes), len(names))
	}
	concepts := 0
	for i := range ev.nodes {
		id, n := uint32(i), &ev.nodes[i]
		if n.title != 0 {
			v.TitleByID[name(id)] = name(n.title - 1)
		}
		if n.flags&flagTitle != 0 {
			v.Titles[name(id)] = true
		}
		if n.titleEdges != 0 {
			v.TitleEdges[name(id)] = int(n.titleEdges)
		}
		if n.flags&flagKill != 0 {
			t.Fatalf("%s: kill mark left behind", name(id))
		}
		if n.attrs != nil {
			d := map[string]float64{}
			for j, a := range n.attrs {
				if j > 0 && n.attrs[j-1].pred >= a.pred {
					t.Fatalf("%s: attribute vector not sorted", name(id))
				}
				d[preds[a.pred]] = a.w
			}
			v.EntityAttrs[name(id)] = d
		}
		for _, cl := range n.claims {
			addTo(v.Claims, name(id), name(cl.hyper))
			con := ev.nodes[cl.hyper].con
			if con == nil || int(cl.pos) >= len(con.hypos) || con.hypos[cl.pos] != id {
				t.Fatalf("claim %s→%s: stored position %d does not hold the hyponym", name(id), name(cl.hyper), cl.pos)
			}
			if cl.queued {
				t.Fatalf("claim %s→%s: queued mark left behind", name(id), name(cl.hyper))
			}
			v.Decisions[edgeKey{name(id), name(cl.hyper)}] = reasons[cl.reason]
			if cl.killed {
				v.Killed[edgeKey{name(id), name(cl.hyper)}] = true
			}
		}
		con := n.con
		if con == nil {
			continue
		}
		concepts++
		if con.id != id || int(con.pos) >= len(ev.concepts) || ev.concepts[con.pos] != con {
			t.Fatalf("concept %s: record not at its position", name(id))
		}
		if len(con.hypos) == 0 {
			t.Fatalf("concept %s: record outlived its last hyponym", name(id))
		}
		pages := 0
		for _, h := range con.hypos {
			addTo(v.Hyponyms, name(id), name(h))
			if ev.nodes[h].title != 0 {
				addTo(v.Extents, name(id), name(h))
				pages++
			}
			if ev.findClaim(h, id) < 0 {
				t.Fatalf("concept %s lists %s, which does not claim it", name(id), name(h))
			}
		}
		if pages != con.pages {
			t.Fatalf("concept %s: page counter %d, extent holds %d pages", name(id), con.pages, pages)
		}
		for at, p := range con.partners {
			key, side := packPair(id, p)
			e, ok := ev.cooc[key]
			if !ok || int(e.pos[side]) != at {
				t.Fatalf("concept %s: partner %s at %d, pair entry says %v (present %v)", name(id), name(p), at, e.pos, ok)
			}
			addTo(v.Partners, name(id), name(p))
			if e.pages > 0 {
				addTo(v.EntPartner, name(id), name(p))
			}
		}
		if con.nAttr > 0 {
			d := map[string]float64{}
			for _, a := range con.sum {
				d[preds[a.pred]] = a.w
			}
			v.ConceptSums[name(id)], v.Contributors[name(id)] = d, con.nAttr
		} else if len(con.sum) != 0 {
			t.Fatalf("concept %s: attribute mass without contributors", name(id))
		}
	}
	if concepts != len(ev.concepts) {
		t.Fatalf("%d concept records reachable, %d listed", concepts, len(ev.concepts))
	}
	for key, e := range ev.cooc {
		a, b := name(uint32(key>>32)), name(uint32(key))
		if e.shared == 0 || e.pages > e.shared {
			t.Fatalf("pair %s/%s: counts %+v", a, b, e)
		}
		v.Cooc[orderedPair(a, b)] = int(e.shared)
		if e.pages > 0 {
			v.EntityCooc[orderedPair(a, b)] = int(e.pages)
		}
		if !v.Partners[a][b] || !v.Partners[b][a] {
			t.Fatalf("pair %s/%s missing from a partner list", a, b)
		}
	}
	for key := range ev.incompatible {
		v.Incompatible[orderedPair(name(uint32(key>>32)), name(uint32(key)))] = true
	}
	return v
}

// viewOfMap is the reference evidence's own tables.
func viewOfMap(m *mapEvidence) evidenceView {
	v := evidenceView{
		Claims: m.byHypo, Hyponyms: m.Hyponyms, Extents: m.entityHypos,
		TitleByID: m.titleByID, Titles: m.EntityTitles, TitleEdges: m.titleEdges,
		Cooc: m.cooc, EntityCooc: m.entityCooc,
		Partners: m.coocPartners, EntPartner: m.entityCoocPartners,
		EntityAttrs: m.EntityAttrs, ConceptSums: map[string]map[string]float64{}, Contributors: map[string]int{},
		Decisions: m.decisions, Killed: m.killed, Incompatible: m.incompatible,
	}
	for c, a := range m.conceptAttrs {
		v.ConceptSums[c], v.Contributors[c] = a.sum, a.n
	}
	return v
}

// diffViews names the first table on which two views differ; attribute
// values are compared within 1e-9 (the two sum in different orders).
func diffViews(got, want evidenceView) error {
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		name := g.Type().Field(i).Name
		if a, ok := g.Field(i).Interface().(map[string]map[string]float64); ok {
			if err := attrsClose(a, w.Field(i).Interface().(map[string]map[string]float64)); err != nil {
				return fmt.Errorf("%s: %v", name, err)
			}
			continue
		}
		// An empty inner set and a missing one are the same set.
		if g.Field(i).Len() == 0 && w.Field(i).Len() == 0 {
			continue
		}
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			return fmt.Errorf("%s:\n dense     %v\n reference %v", name, g.Field(i).Interface(), w.Field(i).Interface())
		}
	}
	return nil
}

func attrsClose(a, b map[string]map[string]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("map sizes %d != %d", len(a), len(b))
	}
	for k, da := range a {
		db, ok := b[k]
		if !ok || len(da) != len(db) {
			return fmt.Errorf("entry %q mismatch: %v vs %v", k, da, db)
		}
		for p, va := range da {
			if math.Abs(va-db[p]) > 1e-9 {
				return fmt.Errorf("entry %q attr %q: %v != %v", k, p, va, db[p])
			}
		}
	}
	return nil
}

func sortedDecisions(ds []namedDecision) []namedDecision {
	out := append([]namedDecision(nil), ds...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hypo != out[j].Hypo {
			return out[i].Hypo < out[j].Hypo
		}
		return out[i].Hyper < out[j].Hyper
	})
	return out
}

// modelWorld draws the operations of TestEvidenceModel: typed pages
// whose infoboxes give strategy III-A real conflicts, hypernyms that
// are page titles (s2), hyponyms that carry their hypernym's head in a
// non-head position (III-C), and s1 observations on both.
type modelWorld struct {
	rng   *rand.Rand
	pairs []named // pairs added and not yet retracted
}

var modelTypes = []struct {
	concept string
	preds   []string
}{
	{"演员", []string{"职业", "出生日期", "国籍", "代表作品"}},
	{"歌手", []string{"职业", "出生日期", "唱片公司"}},
	{"图书", []string{"出版社", "页数", "作者"}},
	{"城市", []string{"人口", "面积", "邮编"}},
	{"教育机构", []string{"校长", "地址"}},
	{"教育", nil},
	{"音乐", nil},     // thematic
	{"实体演员甲戊", nil}, // page 4's title, as a hypernym
}

// hanNum spells i in two Han digits, so names stay all-Han and the
// syntax rules apply to them.
func hanNum(i int) string {
	digits := []rune("甲乙丙丁戊己庚辛壬癸")
	return string([]rune{digits[i/10%10], digits[i%10]})
}

func (w *modelWorld) title(i int) string {
	if i%7 == 0 {
		return "演员工会" + hanNum(i) // head of 演员 in a non-head position
	}
	return "实体" + modelTypes[i%4].concept + hanNum(i)
}

// page fabricates (or re-crawls) page i with a random infobox, which
// may be empty.
func (w *modelWorld) page(i int) encyclopedia.Page {
	p := encyclopedia.Page{Title: w.title(i)}
	if i%5 == 0 {
		p.Bracket = modelTypes[i%4].concept
	}
	for _, pred := range modelTypes[w.rng.Intn(5)].preds {
		for n := w.rng.Intn(3); n > 0; n-- {
			p.Infobox = append(p.Infobox, encyclopedia.Triple{Subject: p.Title, Predicate: pred, Object: "值"})
		}
	}
	return p
}

func (w *modelWorld) candidate() named {
	i := w.rng.Intn(60)
	p := encyclopedia.Page{Title: w.title(i)}
	if i%5 == 0 {
		p.Bracket = modelTypes[i%4].concept
	}
	hypo := p.ID()
	if w.rng.Intn(8) == 0 {
		hypo = modelTypes[w.rng.Intn(len(modelTypes))].concept // concept under concept
	}
	hyper := modelTypes[i%4].concept
	if w.rng.Intn(3) == 0 {
		hyper = modelTypes[w.rng.Intn(len(modelTypes))].concept
	}
	return named{Hypo: hypo, Hyper: hyper, Source: taxonomy.SourceTag}
}

// TestEvidenceModel drives the dense Evidence and the map-based
// reference through the same random interleaving of every mutation —
// pages before and after their candidates, re-crawls with changed or
// emptied infoboxes, candidates added, retracted down to nothing and
// added back, support folds, forced cold passes, threshold changes —
// each followed by a verification pass, and requires after every step
// that the two hold the same evidence, re-decided the same pairs and
// reached the same decisions.
func TestEvidenceModel(t *testing.T) {
	variants := []Options{
		{EnableIncompatible: true, JaccardMax: 0.3, CosineMax: 0.7, MinConceptSupport: 3, EnableNE: true, NEThreshold: 0.5, EnableSyntax: true},
		{EnableIncompatible: true, JaccardMax: 0.5, CosineMax: 0.9, MinConceptSupport: 2, EnableNE: true, NEThreshold: 0.3, EnableSyntax: true},
		{EnableIncompatible: true, JaccardMax: 0.3, CosineMax: 0.7, MinConceptSupport: 3},
		{EnableNE: true, NEThreshold: 0.5, EnableSyntax: true},
	}
	seg := testSeg()
	seen := map[Reason]int{} // decisions reached, over all seeds
	defer func() {
		for _, r := range []Reason{"", ReasonIncompatible, ReasonNE, ReasonThematic, ReasonHeadPosition} {
			if seen[r] == 0 && !t.Failed() {
				t.Errorf("no pair was ever decided %q: the model does not exercise that strategy", r)
			}
		}
	}()
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			w := &modelWorld{rng: rand.New(rand.NewSource(seed))}
			// The dense evidence shares its symbol table with a second
			// owner, as it does with the build's store: names it never
			// sees, and names it sees only later, get IDs behind its back.
			syms := symtab.New()
			dense := NewEvidence(syms, ner.NewSupport(), ner.New())
			ref := newMapEvidence(ner.NewSupport(), ner.New())
			opts := variants[0]
			present := func(c named) bool { return ref.byHypo[c.Hypo][c.Hyper] }
			for step := 0; step < 300; step++ {
				if w.rng.Intn(4) == 0 {
					syms.Intern(fmt.Sprintf("外来名%d", w.rng.Intn(40)))
					syms.Intern(w.candidate().Hypo)
					syms.Intern(modelTypes[w.rng.Intn(len(modelTypes))].concept)
				}
				var op string
				switch k := w.rng.Intn(20); {
				case k < 5: // pages, new or re-crawled
					var pages []encyclopedia.Page
					for n := 1 + w.rng.Intn(4); n > 0; n-- {
						pages = append(pages, w.page(w.rng.Intn(60)))
					}
					op = fmt.Sprintf("AddPages(%d)", len(pages))
					dense.AddPages(pages, pageIDs(syms, pages))
					ref.AddPages(pages)
				case k < 10:
					var cands []named
					for n := 1 + w.rng.Intn(6); n > 0; n-- {
						cands = append(cands, w.candidate())
					}
					cands = dedupeNamed(cands)
					op = fmt.Sprintf("AddCandidates(%d)", len(cands))
					if a, b := dense.AddCandidates(onIDs(syms, cands)), ref.AddCandidates(cands); a != b {
						t.Fatalf("step %d %s: added %d, reference %d", step, op, a, b)
					}
					w.pairs = append(w.pairs, cands...)
				case k < 14: // retract some pairs, a stranger among them
					var gone []named
					rest := w.pairs[:0]
					for _, c := range dedupeNamed(w.pairs) {
						if present(c) && w.rng.Intn(4) == 0 {
							gone = append(gone, c)
						} else if present(c) {
							rest = append(rest, c)
						}
					}
					w.pairs = rest
					gone = append(gone, named{Hypo: "无此实体", Hyper: "演员"})
					op = fmt.Sprintf("RemoveCandidates(%d)", len(gone))
					dense.RemoveCandidates(onIDs(syms, gone))
					ref.RemoveCandidates(gone)
				case k < 15: // retract everything
					all := dedupeNamed(w.pairs)
					w.pairs = w.pairs[:0]
					op = fmt.Sprintf("RemoveCandidates(all %d)", len(all))
					dense.RemoveCandidates(onIDs(syms, all))
					ref.RemoveCandidates(all)
				case k < 17:
					delta := func() *ner.Support {
						s := ner.NewSupport()
						r := rand.New(rand.NewSource(seed*1000 + int64(step)))
						for n := 0; n < 6; n++ {
							s.ObserveWord(modelTypes[r.Intn(len(modelTypes))].concept, r.Intn(3) == 0)
						}
						s.ObserveWord("未见词", true)
						return s
					}
					op = "FoldSupport"
					dense.FoldSupport(delta())
					ref.FoldSupport(delta())
				case k < 18:
					op = "MarkAllDirty"
					dense.MarkAllDirty()
					ref.MarkAllDirty()
				case k < 19:
					opts = variants[w.rng.Intn(len(variants))]
					op = "change thresholds"
				default:
					// The subsumption frontier, unfiltered or through a
					// size-gap filter: dirty concepts × page-sharing
					// partners, both orders, with the counters.
					op = "TakeExtentPairs"
					gap := w.rng.Intn(3)
					keep := func(n1, n2 int) bool { return n2 >= gap*n1 }
					got := dense.TakeExtentPairs(keep)
					var want []ExtentPair
					for a := range ref.TakeEntityDirtyConcepts() {
						for b := range ref.EntityPartners(a) {
							na, nb, shared := len(ref.EntityHyponyms(a)), len(ref.EntityHyponyms(b)), ref.EntityOverlap(a, b)
							if keep(na, nb) {
								want = append(want, ExtentPair{a, b, na, shared})
							}
							if keep(nb, na) {
								want = append(want, ExtentPair{b, a, nb, shared})
							}
						}
					}
					byNames := func(a, b ExtentPair) int {
						return cmp.Or(strings.Compare(a.Sub, b.Sub), strings.Compare(a.Super, b.Super))
					}
					slices.SortFunc(got, byNames)
					slices.SortFunc(want, byNames)
					if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d %s (gap %d): %v, reference %v", step, op, gap, got, want)
					}
					if again := dense.TakeExtentPairs(keep); len(again) != 0 {
						t.Fatalf("step %d %s: the frontier was not cleared: %v", step, op, again)
					}
				}

				ids, gotRep := dense.Reverify(seg, opts, 1)
				gotDec := decisionsByName(syms, ids)
				wantDec, wantRep := ref.Reverify(seg, opts)
				if !reflect.DeepEqual(sortedDecisions(gotDec), sortedDecisions(wantDec)) {
					t.Fatalf("step %d %s: re-decided\n dense     %v\n reference %v", step, op, sortedDecisions(gotDec), sortedDecisions(wantDec))
				}
				for _, d := range gotDec {
					seen[d.Reason]++
				}
				if !reflect.DeepEqual(gotRep, wantRep) {
					t.Fatalf("step %d %s: report %+v, reference %+v", step, op, gotRep, wantRep)
				}
				if err := diffViews(viewOf(t, dense), viewOfMap(ref)); err != nil {
					t.Fatalf("step %d %s: %v", step, op, err)
				}
				for _, typ := range modelTypes {
					c := typ.concept
					if got, want := dense.S2(c), ref.S2(c); got != want {
						t.Fatalf("step %d %s: S2(%s) = %v, reference %v", step, op, c, got, want)
					}
					con := (*concept)(nil)
					if id, ok := dense.lookup(c); ok {
						con = dense.nodes[id].con
					}
					if head, ok := ref.heads[c]; ok && opts.EnableSyntax && (con == nil || !con.headKnown || con.head != head) {
						t.Fatalf("step %d %s: head of %s not cached as %q", step, op, c, head)
					}
					if ne, ok := ref.neVerdict[c]; ok && opts.EnableNE && (con == nil || !con.neKnown || con.ne != ne) {
						t.Fatalf("step %d %s: NE verdict of %s not cached as %v", step, op, c, ne)
					}
					extent, partners := 0, map[string]bool{}
					if con != nil {
						extent = con.pages
						for _, p := range con.partners {
							key, _ := packPair(con.id, p)
							shared, name := int(dense.cooc[key].pages), dense.syms.Names()[p]
							if shared == 0 {
								continue
							}
							partners[name] = true
							if want := ref.EntityOverlap(c, name); shared != want {
								t.Fatalf("step %d %s: pages shared by %s and %s = %d, reference %d", step, op, c, name, shared, want)
							}
						}
					}
					if want := len(ref.EntityHyponyms(c)); extent != want {
						t.Fatalf("step %d %s: page extent of %s = %d, reference %d", step, op, c, extent, want)
					}
					if want := ref.EntityPartners(c); len(partners)+len(want) > 0 && !reflect.DeepEqual(partners, want) {
						t.Fatalf("step %d %s: page-sharing partners of %s = %v, reference %v", step, op, c, partners, want)
					}
				}
			}

			// What a snapshot carries — the exported pages and the pairs —
			// rebuilds the same evidence in a fresh ID space, and a cold
			// pass over it reaches the same decisions.
			// The index walks the pages along a name table; this one holds
			// every other page's entity, so the pages off the table are
			// walked too.
			loaded := NewEvidence(nil, dense.Support, ner.New())
			exported := exportEntitiesOracle(dense)
			var table []string
			for i, e := range exported {
				if i%2 == 0 {
					table = append(table, e.ID)
				}
			}
			pages := dense.PagesAlong(len(table), func(i uint32) string { return table[i] })
			if pages.Len() != len(exported) || pages.OnTable() != len(table) {
				t.Fatalf("PagesAlong: %d pages, %d on the table; want %d and %d", pages.Len(), pages.OnTable(), len(exported), len(table))
			}
			predIDs := loaded.InternPredicates(pages.Preds)
			var attrs []Attr
			for i := 0; i < pages.Len(); i++ {
				// On the table in table order, then the rest in name order:
				// the exported order, evens first.
				var want entityEvidence
				if i < len(table) {
					want = exported[2*i]
					if pages.Node(i) != uint32(i) {
						t.Fatalf("PagesAlong: page %d on table row %d, want %d", i, pages.Node(i), i)
					}
				} else {
					want = exported[2*(i-len(table))+1]
				}
				attrs = pages.AppendAttrs(attrs[:0], i)
				named := make([]oracleAttr, len(attrs))
				for j, a := range attrs {
					named[j] = oracleAttr{pages.Preds[a.Pred], a.Weight}
				}
				if want.ID != pages.Entity(i) || want.Title != pages.Title(i) || len(want.Attrs)+len(named) > 0 && !reflect.DeepEqual(want.Attrs, named) {
					t.Fatalf("PagesAlong: page %d = %s %s %v, materialize-and-sort gives %+v", i, pages.Entity(i), pages.Title(i), named, want)
				}
				for j := range attrs {
					attrs[j].Pred = predIDs[attrs[j].Pred]
				}
				loaded.ImportPage(loaded.syms.Intern(pages.Entity(i)), loaded.syms.Intern(pages.Title(i)), attrs)
			}
			var pairs []named
			for hypo, hypers := range ref.byHypo {
				for hyper := range hypers {
					pairs = append(pairs, named{Hypo: hypo, Hyper: hyper})
				}
			}
			loaded.AddCandidates(onIDs(loaded.syms, dedupeNamed(pairs)))
			loaded.Reverify(seg, opts, 1)
			if err := diffViews(viewOf(t, loaded), viewOf(t, dense)); err != nil {
				t.Fatalf("export → import: %v", err)
			}
		})
	}
}
