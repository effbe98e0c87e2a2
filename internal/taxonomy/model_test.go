package taxonomy_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"cnprobase/internal/serving"
	"cnprobase/internal/serving/servingtest"
	"cnprobase/internal/symtab"
	"cnprobase/internal/taxonomy"
)

// modelOp is one write of the model's random sequences, applicable to
// the store and to the reference alike.
type modelOp struct {
	kind int
	a, b string
	src  taxonomy.Source
}

// byName is the store's write surface with removal by name, as the
// oracle has it.
type byName struct{ *taxonomy.Taxonomy }

func (s byName) RemoveIsA(hypo, hyper string) bool {
	a, ok := s.Symbols().Lookup(hypo)
	b, ok2 := s.Symbols().Lookup(hyper)
	return ok && ok2 && s.RemoveIsAID(a, b)
}

// writer is the write surface the store and its oracle share.
type writer interface {
	MarkEntity(string)
	MarkConcept(string)
	AddIsA(hypo, hyper string, src taxonomy.Source) error
	RemoveIsA(hypo, hyper string) bool
}

func randomOp(rng *rand.Rand, names int) modelOp {
	name := func() string {
		if rng.Intn(60) == 0 {
			return "" // rejected by every write
		}
		return fmt.Sprintf("节点%02d", rng.Intn(names))
	}
	return modelOp{
		kind: rng.Intn(8), a: name(), b: name(),
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

// requireSameAnswers holds the store's reads and every query of the
// view compiled from it to the (finalized) reference, over the whole
// name universe plus names neither has seen, and returns the view.
// Every edge's provenance is compared, not a sample. The view's nodes
// are the reference's plus every mention's entities: one the store
// holds no node for is a node of unknown kind with no edge, which
// answers every other query as a name the reference does not know.
func requireSameAnswers(t *testing.T, at string, rng *rand.Rand, names int, dense *taxonomy.Taxonomy, ref *taxonomy.Reference, mentions *taxonomy.MentionIndex) *serving.View {
	t.Helper()
	check := func(what string, got, want any) {
		if !same(got, want) {
			t.Fatalf("%s: %s = %v, reference %v", at, what, got, want)
		}
	}
	v := serving.Compile(dense, mentions)
	nodes, edges := ref.Nodes(), ref.Edges()
	viewNodes := slices.Clone(nodes)
	for _, e := range mentions.Sorted() {
		viewNodes = append(viewNodes, e.IDs...)
	}
	slices.Sort(viewNodes)
	viewNodes = slices.Compact(viewNodes)
	check("Edges", dense.Edges(), edges)
	check("ComputeStats", dense.ComputeStats(), ref.ComputeStats())
	check("view Nodes", v.Nodes(), viewNodes)
	check("view Stats", v.Stats(), ref.ComputeStats())
	check("view EdgeCount", v.EdgeCount(), len(edges))
	requireSameNodeSet(t, at, dense.ReadAll(), nodes, ref, true)
	var sub []string
	universe := []string{"", "无此节点"}
	for i := 0; i < names; i++ {
		universe = append(universe, fmt.Sprintf("节点%02d", i))
		if rng.Intn(3) == 0 {
			sub = append(sub, universe[len(universe)-1])
		}
	}
	requireSameNodeSet(t, at, dense.ReadNodes(append(sub, "非节点")), append(sub, "非节点"), ref, false)

	var concepts []string
	for _, n := range universe {
		if ref.Kind(n) == taxonomy.KindConcept {
			concepts = append(concepts, n)
		}
		limit := 1 + rng.Intn(3)
		check("Kind "+n, dense.Kind(n), ref.Kind(n))
		check("HyponymCount "+n, dense.HyponymCount(n), ref.HyponymCount(n))
		check("view Kind "+n, v.Kind(n), ref.Kind(n))
		check("view Hypernyms "+n, v.Hypernyms(n), ref.Hypernyms(n))
		check("view Hyponyms "+n, v.Hyponyms(n, 0), ref.Hyponyms(n, 0))
		check("view Hyponyms(limit) "+n, v.Hyponyms(n, limit), ref.Hyponyms(n, limit))
		check("view Ancestors "+n, v.Ancestors(n), ref.Ancestors(n))
		id, ok := v.ID(n, 0)
		if _, known := slices.BinarySearch(viewNodes, n); ok != known {
			t.Fatalf("%s: view ID(%q) ok = %v, reference or mentions know it: %v", at, n, ok, known)
		}
		if !ok {
			continue
		}
		check("view ID from a neighbour "+n, fmt.Sprint(v.ID(n, id-min(id, 3))), fmt.Sprint(id, true))
		check("view Name "+n, v.Name(id), n)
		check("view KindOf "+n, v.KindOf(id), ref.Kind(n))
		check("view HyponymIDsOf "+n, len(v.HyponymIDsOf(id)), ref.HyponymCount(n))
		check("view RankedHypernymAt "+n, servingtest.RankedHypernyms(v, n, 0), ref.RankedHypernyms(n, 0))
		var hypers []string
		total := int64(0)
		for _, h := range v.HypernymIDsOf(id) {
			hypers = append(hypers, v.Name(h))
			e, _ := ref.EdgeOf(n, v.Name(h))
			total += int64(e.Sources.Evidence())
		}
		check("view HypernymIDsOf "+n, hypers, ref.Hypernyms(n))
		check("view EvidenceTotalOf "+n, v.EvidenceTotalOf(id), total)
	}
	check("Concepts", dense.Concepts(), concepts)
	for _, e := range mentions.Sorted() {
		check("view Lookup "+e.Mention, v.Lookup(e.Mention), mentions.Lookup(e.Mention))
	}
	check("view Lookup of a stranger", v.Lookup("无此称呼"), mentions.Lookup("无此称呼"))

	for _, e := range edges {
		requireSamePair(t, at, e.Hypo, e.Hyper, dense, v, ref, false)
	}
	var pairs [][2]string
	for i := 0; i < 8 && len(edges) > 0; i++ { // pairs that are edges, both ways round
		e := edges[rng.Intn(len(edges))]
		pairs = append(pairs, [2]string{e.Hypo, e.Hyper}, [2]string{e.Hyper, e.Hypo})
	}
	for i := 0; i < 12; i++ {
		pairs = append(pairs, [2]string{universe[rng.Intn(len(universe))], universe[rng.Intn(len(universe))]})
	}
	for _, p := range pairs {
		requireSamePair(t, at, p[0], p[1], dense, v, ref, true)
	}
	return v
}

// requireSamePair holds the pairwise reads of the store and the view to
// the reference: the edge, and with paths also the store's
// reachability.
func requireSamePair(t *testing.T, at, a, b string, dense *taxonomy.Taxonomy, v *serving.View, ref *taxonomy.Reference, paths bool) {
	t.Helper()
	pair := a + "→" + b
	check := func(what string, got, want any) {
		if !same(got, want) {
			t.Fatalf("%s: %s %s = %v, reference %v", at, what, pair, got, want)
		}
	}
	we, wok := ref.EdgeOf(a, b)
	if ge, gok := dense.EdgeOf(a, b); ge != we || gok != wok {
		t.Fatalf("%s: EdgeOf %s = %+v %v, reference %+v %v", at, pair, ge, gok, we, wok)
	}
	if ve, vok := v.EdgeOf(a, b); ve != we || vok != wok {
		t.Fatalf("%s: view EdgeOf %s = %+v %v, reference %+v %v", at, pair, ve, vok, we, wok)
	}
	if paths {
		check("IsAncestor", dense.IsAncestor(a, b), ref.IsAncestor(a, b))
	}
}

// requireSameNodeSet holds a canonical read of the named nodes to the
// reference: existence, kind, and the outgoing edges in hypernym order,
// resolved to their positions when the read resolves them.
func requireSameNodeSet(t *testing.T, at string, set *taxonomy.NodeSet, names []string, ref *taxonomy.Reference, resolved bool) {
	t.Helper()
	all := ref.Nodes()
	if !slices.Equal(set.Names, names) || len(set.EdgeOff) != len(names)+1 {
		t.Fatalf("%s: read names %v, want %v", at, set.Names, names)
	}
	for i, n := range names {
		_, exists := slices.BinarySearch(all, n)
		if absent := set.Absent != nil && set.Absent[i]; absent == exists {
			t.Fatalf("%s: read %s absent = %v", at, n, absent)
		}
		var got []taxonomy.Edge
		for _, e := range set.Edges[set.EdgeOff[i]:set.EdgeOff[i+1]] {
			if (e.At >= 0) != resolved || (resolved && names[e.At] != e.Hyper) {
				t.Fatalf("%s: read edge %s→%s resolved to %d", at, n, e.Hyper, e.At)
			}
			got = append(got, taxonomy.Edge{Hypo: n, Hyper: e.Hyper, Sources: e.Sources})
		}
		var want []taxonomy.Edge
		for _, h := range ref.Hypernyms(n) {
			e, _ := ref.EdgeOf(n, h)
			want = append(want, e)
		}
		if set.Kinds[i] != ref.Kind(n) || !same(got, want) {
			t.Fatalf("%s: read %s = %v %v, reference %v %v", at, n, set.Kinds[i], got, ref.Kind(n), want)
		}
	}
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

// requireSameImage holds a view patched along the change log to the
// bytes of the full compile, which must load.
func requireSameImage(t *testing.T, at string, patched, compiled *serving.View) {
	t.Helper()
	got, want := imageOf(t, patched), imageOf(t, compiled)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: patched image differs from the compiled one (%d vs %d bytes)", at, len(got), len(want))
	}
	if _, err := serving.DecodeImage(want, 0); err != nil {
		t.Fatalf("%s: the image does not load: %v", at, err)
	}
}

// TestTaxonomyModel drives random write sequences through the dense-ID
// store and through the sharded string-map store it replaced
// (reference_test.go), and after every step holds to the reference
// what every write reported, the store's reads and its change log, and
// every query of the view compiled from the store — the one read model.
// A view patched along the change log, which is how the ingest path
// reads the store, must serialize byte for byte like the full compile.
// The store shares its symbol table with a second owner that interns
// behind its back, as the verification evidence does in a build.
func TestTaxonomyModel(t *testing.T) {
	const names = 24
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			syms := symtab.New()
			dense := taxonomy.NewWithSymbols(syms)
			ref := taxonomy.NewReference(1 + rng.Intn(6))
			mentions := taxonomy.NewMentionIndex()
			var denseTok, refTok, menTok uint64
			var patched *serving.View // patched along from the first log read on
			for step := 0; step < 250; step++ {
				at := fmt.Sprintf("step %d", step)
				logRead := false
				switch k := rng.Intn(14); {
				case k == 0: // another owner of the symbol table
					syms.Intern(fmt.Sprintf("外来名%d", rng.Intn(50)))
					syms.Intern(fmt.Sprintf("节点%02d", rng.Intn(names)))
				case k == 1:
					mentions.Add(fmt.Sprintf("称呼%d", rng.Intn(12)), fmt.Sprintf("节点%02d", rng.Intn(names)))
				case k == 2: // the consumer reads the log
					token := denseTok
					if rng.Intn(8) == 0 && token > 0 {
						token-- // stale: both must refuse it
					}
					got, gnext, gok := dense.ChangesSince(token)
					want, wnext, wok := ref.ChangesSince(refTok - (denseTok - token))
					changed, mnext, mok := mentions.ChangesSince(menTok)
					if gok != wok || !same(got, want) {
						t.Fatalf("%s: ChangesSince = %v %v, reference %v %v", at, got, gok, want, wok)
					}
					denseTok, refTok, menTok = gnext, wnext, mnext
					if gok && mok && patched != nil {
						if patched = serving.Patch(patched, dense, mentions, got, changed); patched == nil {
							t.Fatalf("%s: Patch could not cover changes %v", at, got)
						}
					} else {
						patched = serving.Compile(dense, mentions)
					}
					logRead = true
				default:
					op := randomOp(rng, names)
					at = fmt.Sprintf("step %d %+v", step, op)
					if got, want := op.apply(byName{dense}), op.apply(ref); got != want {
						t.Fatalf("%s: reported %s, reference %s", at, got, want)
					}
				}
				ref.Finalize()
				v := requireSameAnswers(t, at, rng, names, dense, ref, mentions)
				if logRead {
					requireSameImage(t, at, patched, v)
				}
			}
			// The patched view has followed every logged change.
			nodes, _, ok := dense.ChangesSince(denseTok)
			changed, _, mok := mentions.ChangesSince(menTok)
			if patched != nil && ok && mok {
				if patched = serving.Patch(patched, dense, mentions, nodes, changed); patched == nil {
					t.Fatal("the last Patch could not cover the logged changes")
				}
				requireSameImage(t, "view patched along the change log", patched, serving.Compile(dense, mentions))
			}
		})
	}

	// Readers of every kind run against a writer and against a second
	// owner of the symbol table; under -race this certifies the locking.
	// Whatever a reader sees is internally consistent, and the end state
	// is the reference's.
	t.Run("concurrent", func(t *testing.T) {
		rng := rand.New(rand.NewSource(99))
		ops := make([]modelOp, 3000)
		for i := range ops {
			ops[i] = randomOp(rng, names)
		}
		syms := symtab.New()
		dense := taxonomy.NewWithSymbols(syms)
		dense.ChangesSince(0) // log from the start: readers race the recording too
		done := make(chan struct{})
		var readers sync.WaitGroup
		for g := 0; g < 4; g++ {
			readers.Add(1)
			go func(g int) {
				defer readers.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				for i := 0; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					n, m := fmt.Sprintf("节点%02d", rng.Intn(names)), fmt.Sprintf("节点%02d", rng.Intn(names))
					if cs := dense.Concepts(); !slices.IsSorted(cs) {
						t.Errorf("Concepts not ascending: %v", cs)
						return
					}
					_ = dense.Kind(n)
					_ = dense.HyponymCount(n)
					_ = dense.IsAncestor(n, m)
					_, _ = dense.EdgeOf(n, m)
					_ = dense.ComputeStats()
					syms.Intern(fmt.Sprintf("外来名%d", i%200))
					if i%7 == 0 {
						set := dense.ReadAll()
						if !slices.IsSorted(set.Names) || len(set.Edges) != int(set.EdgeOff[len(set.Names)]) {
							t.Errorf("ReadAll inconsistent: %d names, %d edges, offsets end at %d", len(set.Names), len(set.Edges), set.EdgeOff[len(set.Names)])
							return
						}
						for i := range set.Names {
							for _, e := range set.Edges[set.EdgeOff[i]:set.EdgeOff[i+1]] {
								if set.Names[e.At] != e.Hyper {
									t.Errorf("ReadAll: edge of %s resolves %s to %s", set.Names[i], e.Hyper, set.Names[e.At])
									return
								}
							}
						}
						_ = serving.Compile(dense, nil).Stats()
						_ = dense.ReadNodes([]string{min(n, m), max(n, m) + "尾"})
						_ = dense.Edges()
					}
				}
			}(g)
		}
		for _, op := range ops {
			op.apply(byName{dense})
		}
		close(done)
		readers.Wait()
		ref := taxonomy.NewReference(4)
		for _, op := range ops {
			op.apply(ref)
		}
		ref.Finalize()
		requireSameAnswers(t, "after the concurrent run", rng, names, dense, ref, taxonomy.NewMentionIndex())
		logged, _, ok := dense.ChangesSince(1)
		if !ok || !slices.IsSorted(logged) || strings.Join(logged, ",") == "" {
			t.Fatalf("change log after the concurrent run: %v %v", logged, ok)
		}
	})
}
