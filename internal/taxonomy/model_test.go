package taxonomy_test

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cnprobase/internal/serving"
	"cnprobase/internal/serving/servingtest"
	"cnprobase/internal/symtab"
	"cnprobase/internal/taxonomy"
)

// model is the oracle of TestTaxonomyModel: the taxonomy's documented
// rules applied to string-keyed maps, with every read computed from
// scratch.
type model struct {
	kinds    map[string]taxonomy.NodeKind
	edges    map[[2]string]taxonomy.Source
	mentions map[string]map[string]bool
}

func newModel() *model {
	return &model{kinds: map[string]taxonomy.NodeKind{}, edges: map[[2]string]taxonomy.Source{}, mentions: map[string]map[string]bool{}}
}

func (m *model) mark(n string, k taxonomy.NodeKind) {
	if n != "" && m.kinds[n] == taxonomy.KindUnknown {
		m.kinds[n] = k
	}
}

func (m *model) MarkEntity(n string)  { m.mark(n, taxonomy.KindEntity) }
func (m *model) MarkConcept(n string) { m.mark(n, taxonomy.KindConcept) }

func (m *model) AddIsA(a, b string, src taxonomy.Source) error {
	if a == "" || b == "" || a == b {
		return fmt.Errorf("rejected")
	}
	k := [2]string{a, b}
	if _, ok := m.edges[k]; !ok {
		m.mark(b, taxonomy.KindConcept)
	}
	m.edges[k] |= src
	return nil
}

// RemoveIsA drops the edge; a concept at either end left without any
// edge loses its kind.
func (m *model) RemoveIsA(a, b string) bool {
	if _, ok := m.edges[[2]string{a, b}]; !ok {
		return false
	}
	delete(m.edges, [2]string{a, b})
	for _, n := range []string{b, a} {
		if m.kinds[n] != taxonomy.KindConcept {
			continue
		}
		touches := false
		for k := range m.edges {
			touches = touches || k[0] == n || k[1] == n
		}
		if !touches {
			delete(m.kinds, n)
		}
	}
	return true
}

func (m *model) AddMention(text, entity string) {
	if text == "" || entity == "" {
		return
	}
	if m.mentions[text] == nil {
		m.mentions[text] = map[string]bool{}
	}
	m.mentions[text][entity] = true
}

func (m *model) nodes() []string {
	var out []string
	for n := range m.kinds {
		out = append(out, n)
	}
	for k := range m.edges {
		out = append(out, k[0], k[1])
	}
	slices.Sort(out)
	return slices.Compact(out)
}

func (m *model) edgeList() []taxonomy.Edge {
	var out []taxonomy.Edge
	for k, src := range m.edges {
		out = append(out, taxonomy.Edge{Hypo: k[0], Hyper: k[1], Sources: src})
	}
	slices.SortFunc(out, func(a, b taxonomy.Edge) int {
		return cmp.Or(cmp.Compare(a.Hypo, b.Hypo), cmp.Compare(a.Hyper, b.Hyper))
	})
	return out
}

func (m *model) stats() taxonomy.Stats {
	var s taxonomy.Stats
	for _, k := range m.kinds {
		switch k {
		case taxonomy.KindEntity:
			s.Entities++
		case taxonomy.KindConcept:
			s.Concepts++
		}
	}
	with := map[string]bool{}
	for k := range m.edges {
		s.IsARelations++
		with[k[0]] = true
		if m.kinds[k[0]] == taxonomy.KindConcept {
			s.SubConceptIsA++
		} else {
			s.EntityConceptIsA++
		}
	}
	s.NodesWithHypernym = len(with)
	return s
}

func (m *model) hypernyms(n string) []string {
	var out []string
	for k := range m.edges {
		if k[0] == n {
			out = append(out, k[1])
		}
	}
	slices.Sort(out)
	return out
}

func (m *model) hyponyms(n string, limit int) []string {
	var out []string
	for k := range m.edges {
		if k[1] == n {
			out = append(out, k[0])
		}
	}
	slices.Sort(out)
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// ancestors walks breadth-first, each node's hypernyms in name order,
// the start excluded.
func (m *model) ancestors(n string) []string {
	seen := map[string]bool{n: true}
	var out []string
	queue := m.hypernyms(n)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		out = append(out, cur)
		queue = append(queue, m.hypernyms(cur)...)
	}
	return out
}

// ranked lists n's hypernyms by evidence count descending, then name,
// each with its share of n's total.
func (m *model) ranked(n string) []taxonomy.Scored {
	hypers, total := m.hypernyms(n), 0
	for _, h := range hypers {
		total += m.edges[[2]string{n, h}].Evidence()
	}
	slices.SortStableFunc(hypers, func(a, b string) int {
		return cmp.Compare(m.edges[[2]string{n, b}].Evidence(), m.edges[[2]string{n, a}].Evidence())
	})
	var out []taxonomy.Scored
	for _, h := range hypers {
		score := 0.0
		if total > 0 {
			score = float64(m.edges[[2]string{n, h}].Evidence()) / float64(total)
		}
		out = append(out, taxonomy.Scored{Node: h, Score: score})
	}
	return out
}

func (m *model) lookup(text string) []string {
	var out []string
	for e := range m.mentions[text] {
		out = append(out, e)
	}
	slices.Sort(out)
	return out
}

// modelOp is one write of the random sequences, applicable to the
// taxonomy and to the model alike.
type modelOp struct {
	kind int
	a, b string
	src  taxonomy.Source
}

// byName is the taxonomy's write surface with retraction by name, as
// the pipeline retracts a rejected pair: out of Kept, then Retracted.
type byName struct{ *taxonomy.Taxonomy }

func (s byName) RemoveIsA(hypo, hyper string) bool {
	a, ok := s.Symbols().Lookup(hypo)
	b, ok2 := s.Symbols().Lookup(hyper)
	if !ok || !ok2 {
		return false
	}
	if _, ok := s.SourcesOf(a, b); !ok {
		return false
	}
	if i, kept := taxonomy.Find(s.Kept, a, b); kept {
		s.Kept = slices.Delete(s.Kept, i, i+1)
	}
	s.Retracted([]taxonomy.Pair{{Hypo: a, Hyper: b}}, func(id uint32) bool {
		return slices.ContainsFunc(s.Kept, func(p taxonomy.Pair) bool { return p.Hyper == id })
	})
	return true
}

// writer is the write surface the taxonomy and its model share.
type writer interface {
	MarkEntity(string)
	MarkConcept(string)
	AddIsA(hypo, hyper string, src taxonomy.Source) error
	RemoveIsA(hypo, hyper string) bool
	AddMention(text, entity string)
}

func randomOp(rng *rand.Rand, names int) modelOp {
	name := func() string {
		if rng.Intn(60) == 0 {
			return "" // rejected by every write
		}
		return fmt.Sprintf("节点%02d", rng.Intn(names))
	}
	return modelOp{
		kind: rng.Intn(9), a: name(), b: name(),
		src: taxonomy.Source(1 << rng.Intn(6)),
	}
}

// apply performs op and returns what the write reported.
func (op modelOp) apply(w writer) string {
	switch op.kind {
	case 0:
		w.MarkEntity(op.a)
	case 1:
		w.MarkConcept(op.a)
	case 2, 3, 4:
		return fmt.Sprint(w.AddIsA(op.a, op.b, op.src) == nil)
	case 5:
		w.AddMention("称呼"+op.b, op.a)
	default:
		return fmt.Sprint(w.RemoveIsA(op.a, op.b))
	}
	return ""
}

// same is DeepEqual that does not tell a nil slice from an empty one.
func same(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if va.Kind() == reflect.Slice && va.Len() == 0 && vb.Len() == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// requireSameAnswers holds the taxonomy's reads and every query of the
// view compiled from it to the model, over the whole name universe plus
// names neither has seen, and returns the view. Every edge's provenance
// is compared, not a sample. The view's nodes are the model's plus
// every mention's entities: one the taxonomy holds no node for is a
// node of unknown kind with no edge, which answers every other query as
// a name the model does not know.
func requireSameAnswers(t *testing.T, at string, rng *rand.Rand, names int, tx *taxonomy.Taxonomy, ref *model) *serving.View {
	t.Helper()
	check := func(what string, got, want any) {
		t.Helper()
		if !same(got, want) {
			t.Fatalf("%s: %s = %v, model %v", at, what, got, want)
		}
	}
	v := serving.Compile(tx)
	nodes, edges := ref.nodes(), ref.edgeList()
	viewNodes := slices.Clone(nodes)
	for _, ents := range ref.mentions {
		for e := range ents {
			viewNodes = append(viewNodes, e)
		}
	}
	slices.Sort(viewNodes)
	viewNodes = slices.Compact(viewNodes)
	check("Edges", tx.Edges(), edges)
	check("ComputeStats", tx.ComputeStats(), ref.stats())
	check("view Nodes", v.Nodes(), viewNodes)
	check("view Stats", v.Stats(), ref.stats())
	check("view EdgeCount", v.EdgeCount(), len(edges))
	var txNodes []string
	for _, id := range tx.Nodes() {
		txNodes = append(txNodes, tx.Symbols().Names()[id])
	}
	check("Nodes", txNodes, viewNodes)

	var concepts []string
	universe := []string{"", "无此节点"}
	for i := 0; i < names; i++ {
		universe = append(universe, fmt.Sprintf("节点%02d", i))
	}
	for _, n := range universe {
		if ref.kinds[n] == taxonomy.KindConcept {
			concepts = append(concepts, n)
		}
		limit := 1 + rng.Intn(3)
		check("Kind "+n, tx.Kind(n), ref.kinds[n])
		check("view Kind "+n, v.Kind(n), ref.kinds[n])
		check("view Hypernyms "+n, v.Hypernyms(n), ref.hypernyms(n))
		check("view Hyponyms "+n, v.Hyponyms(n, 0), ref.hyponyms(n, 0))
		check("view Hyponyms(limit) "+n, v.Hyponyms(n, limit), ref.hyponyms(n, limit))
		check("view Ancestors "+n, v.Ancestors(n), ref.ancestors(n))
		id, ok := v.ID(n, 0)
		if _, known := slices.BinarySearch(viewNodes, n); ok != known {
			t.Fatalf("%s: view ID(%q) ok = %v, the model or mentions know it: %v", at, n, ok, known)
		}
		if !ok {
			continue
		}
		check("view ID from a neighbour "+n, fmt.Sprint(v.ID(n, id-min(id, 3))), fmt.Sprint(id, true))
		check("view Name "+n, v.Name(id), n)
		check("view KindOf "+n, v.KindOf(id), ref.kinds[n])
		check("view HyponymIDsOf "+n, len(v.HyponymIDsOf(id)), len(ref.hyponyms(n, 0)))
		check("view RankedHypernymAt "+n, servingtest.RankedHypernyms(v, n, 0), ref.ranked(n))
		var hypers []string
		total := int64(0)
		for _, h := range v.HypernymIDsOf(id) {
			hypers = append(hypers, v.Name(h))
			total += int64(ref.edges[[2]string{n, v.Name(h)}].Evidence())
		}
		check("view HypernymIDsOf "+n, hypers, ref.hypernyms(n))
		check("view EvidenceTotalOf "+n, v.EvidenceTotalOf(id), total)
	}
	check("Concepts", tx.Concepts(), concepts)
	for text := range ref.mentions {
		check("view Lookup "+text, v.Lookup(text), ref.lookup(text))
	}
	check("view Lookup of a stranger", v.Lookup("无此称呼"), ref.lookup("无此称呼"))

	var pairs [][2]string
	for _, e := range edges {
		pairs = append(pairs, [2]string{e.Hypo, e.Hyper})
	}
	for i := 0; i < 8 && len(edges) > 0; i++ { // pairs that are edges, the wrong way round
		e := edges[rng.Intn(len(edges))]
		pairs = append(pairs, [2]string{e.Hyper, e.Hypo})
	}
	for i := 0; i < 12; i++ {
		pairs = append(pairs, [2]string{universe[rng.Intn(len(universe))], universe[rng.Intn(len(universe))]})
	}
	for _, p := range pairs {
		src, ok := ref.edges[p]
		want := taxonomy.Edge{}
		if ok {
			want = taxonomy.Edge{Hypo: p[0], Hyper: p[1], Sources: src}
		}
		if ge, gok := tx.EdgeOf(p[0], p[1]); ge != want || gok != ok {
			t.Fatalf("%s: EdgeOf %v = %+v %v, model %+v %v", at, p, ge, gok, want, ok)
		}
		if ve, vok := v.EdgeOf(p[0], p[1]); ve != want || vok != ok {
			t.Fatalf("%s: view EdgeOf %v = %+v %v, model %+v %v", at, p, ve, vok, want, ok)
		}
		a, aok := tx.Symbols().Lookup(p[0])
		b, bok := tx.Symbols().Lookup(p[1])
		if got, want := aok && bok && tx.IsAncestor(a, b), p[0] != p[1] && slices.Contains(ref.ancestors(p[0]), p[1]); got != want {
			t.Fatalf("%s: IsAncestor %v = %v, model %v", at, p, got, want)
		}
	}
	return v
}

func imageOf(t *testing.T, v *serving.View) []byte {
	t.Helper()
	im, err := v.Image(0)
	if err != nil {
		t.Fatalf("Image: %v", err)
	}
	var buf bytes.Buffer
	if _, err := im.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

// requireSameImage holds a view patched along the writes to the full
// compile: its answers — a patched view is the compile's base plus a
// delta — and the bytes it folds to, which must load.
func requireSameImage(t *testing.T, at string, patched, compiled *serving.View) {
	t.Helper()
	same := func(what string, a, b any) {
		t.Helper()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: patched view %s = %v, compiled %v", at, what, a, b)
		}
	}
	same("Nodes", patched.Nodes(), compiled.Nodes())
	same("counts", []int{patched.NodeCount(), patched.EdgeCount(), patched.MentionCount()},
		[]int{compiled.NodeCount(), compiled.EdgeCount(), compiled.MentionCount()})
	same("Stats", patched.Stats(), compiled.Stats())
	for _, n := range compiled.Nodes() {
		same("Kind "+n, patched.Kind(n), compiled.Kind(n))
		same("Hypernyms "+n, patched.Hypernyms(n), compiled.Hypernyms(n))
		same("Hyponyms "+n, patched.Hyponyms(n, 0), compiled.Hyponyms(n, 0))
		same("Lookup "+n, patched.Lookup("称呼"+n), compiled.Lookup("称呼"+n))
	}
	got, want := imageOf(t, patched), imageOf(t, compiled)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: patched image differs from the compiled one (%d vs %d bytes)", at, len(got), len(want))
	}
	if _, err := serving.DecodeImage(want, 0); err != nil {
		t.Fatalf("%s: the image does not load: %v", at, err)
	}
}

// TestTaxonomyModel drives random write sequences through the
// taxonomy and through its string-keyed model, and after every step
// holds to the model what every write reported, the taxonomy's reads,
// and every query of the view compiled from it — the one read model.
// A view patched along the writes — the ends of every edge written and
// every node marked, the mentions added — which is how the ingest path
// publishes, must serialize byte for byte like the full compile. Every
// third publication folds the patched view, as a publication whose delta
// outgrew its base does, so later writes — retractions among them — are
// patched over a base whose fold dropped the dead nodes. The taxonomy
// shares its symbol table with a second owner that interns behind its
// back, as the verification evidence does in a build.
func TestTaxonomyModel(t *testing.T) {
	const names = 24
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			syms := symtab.New()
			tx := taxonomy.NewWithSymbols(syms)
			ref := newModel()
			var patched *serving.View
			publications := 0
			var nodes []uint32
			var mentions []string
			for step := 0; step < 250; step++ {
				at := fmt.Sprintf("step %d", step)
				publish := false
				switch k := rng.Intn(14); {
				case k == 0: // another owner of the symbol table
					syms.Intern(fmt.Sprintf("外来名%d", rng.Intn(50)))
					syms.Intern(fmt.Sprintf("节点%02d", rng.Intn(names)))
				case k == 1: // the view is brought up to date
					if patched != nil {
						if patched = serving.Patch(patched, tx, nodes, mentions); patched == nil {
							t.Fatalf("%s: Patch could not cover the writes to %v", at, nodes)
						}
						if publications++; publications%3 == 0 {
							if patched = patched.Fold(); patched == nil {
								t.Fatalf("%s: Fold returned nil", at)
							}
						}
					} else {
						patched = serving.Compile(tx)
					}
					nodes, mentions = nil, nil
					publish = true
				default:
					op := randomOp(rng, names)
					at = fmt.Sprintf("step %d %+v", step, op)
					if got, want := op.apply(byName{tx}), op.apply(ref); got != want {
						t.Fatalf("%s: reported %s, model %s", at, got, want)
					}
					for _, n := range []string{op.a, op.b} {
						if id, ok := syms.Lookup(n); ok {
							nodes = append(nodes, id)
						}
					}
					if op.kind == 5 {
						mentions = append(mentions, "称呼"+op.b)
					}
				}
				v := requireSameAnswers(t, at, rng, names, tx, ref)
				if publish {
					requireSameImage(t, at, patched, v)
				}
			}
		})
	}
}
