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
	"cnprobase/internal/symtab"
	"cnprobase/internal/taxonomy"
)

// modelOp is one write of the model's random sequences, applicable to
// the store and to the reference alike.
type modelOp struct {
	kind  int
	a, b  string
	src   taxonomy.Source
	score float64
	count int
	nk    taxonomy.NodeKind
}

// writer is the write surface the store and its oracle share.
type writer interface {
	MarkEntity(string)
	MarkConcept(string)
	ImportKind(string, taxonomy.NodeKind)
	AddIsA(hypo, hyper string, src taxonomy.Source, score float64) error
	InsertEdge(taxonomy.Edge) error
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
		kind: rng.Intn(10), a: name(), b: name(),
		src: taxonomy.Source(1 << rng.Intn(6)), score: rng.Float64(), count: 1 + rng.Intn(5),
		nk: taxonomy.NodeKind(rng.Intn(3)),
	}
}

// apply performs op and returns what the write reported.
func (op modelOp) apply(w writer) string {
	switch op.kind {
	case 0:
		w.MarkEntity(op.a)
	case 1:
		w.MarkConcept(op.a)
	case 2:
		w.ImportKind(op.a, op.nk)
	case 3, 4, 5:
		return fmt.Sprint(w.AddIsA(op.a, op.b, op.src, op.score) == nil)
	case 6:
		return fmt.Sprint(w.InsertEdge(taxonomy.Edge{Hypo: op.a, Hyper: op.b, Sources: op.src, Score: op.score, Count: op.count}) == nil)
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

// requireSameAnswers holds every query method of the store to the
// (finalized) reference, over the whole name universe plus a name
// neither has seen.
func requireSameAnswers(t *testing.T, at string, rng *rand.Rand, names int, dense *taxonomy.Taxonomy, ref *taxonomy.Reference) {
	t.Helper()
	check := func(what string, got, want any) {
		t.Helper()
		if !same(got, want) {
			t.Fatalf("%s: %s = %v, reference %v", at, what, got, want)
		}
	}
	check("Nodes", dense.Nodes(), ref.Nodes())
	check("Edges", dense.Edges(), ref.Edges())
	check("EdgeCount", dense.EdgeCount(), ref.EdgeCount())
	check("ComputeStats", dense.ComputeStats(), ref.ComputeStats())
	var concepts []string
	universe := []string{"无此节点", ""}
	for i := 0; i < names; i++ {
		universe = append(universe, fmt.Sprintf("节点%02d", i))
	}
	for _, n := range universe {
		if ref.Kind(n) == taxonomy.KindConcept {
			concepts = append(concepts, n)
		}
		limit := 1 + rng.Intn(3)
		check("Kind "+n, dense.Kind(n), ref.Kind(n))
		check("Hypernyms "+n, dense.Hypernyms(n), ref.Hypernyms(n))
		check("Hyponyms "+n, dense.Hyponyms(n, 0), ref.Hyponyms(n, 0))
		check("Hyponyms(limit) "+n, dense.Hyponyms(n, limit), ref.Hyponyms(n, limit))
		check("HyponymCount "+n, dense.HyponymCount(n), ref.HyponymCount(n))
		check("Ancestors "+n, dense.Ancestors(n), ref.Ancestors(n))
		check("RankedHypernyms "+n, dense.RankedHypernyms(n, 0), ref.RankedHypernyms(n, 0))
		check("RankedHyponyms "+n, dense.RankedHyponyms(n, limit), ref.RankedHyponyms(n, limit))
	}
	check("Concepts", dense.Concepts(), concepts)
	pairs := [][2]string{}
	if edges := ref.Edges(); len(edges) > 0 {
		for i := 0; i < 12; i++ { // pairs that are edges, both ways round
			e := edges[rng.Intn(len(edges))]
			pairs = append(pairs, [2]string{e.Hypo, e.Hyper}, [2]string{e.Hyper, e.Hypo})
		}
	}
	for i := 0; i < 20; i++ {
		pairs = append(pairs, [2]string{universe[rng.Intn(len(universe))], universe[rng.Intn(len(universe))]})
	}
	for _, p := range pairs {
		a, b := p[0], p[1]
		pair := a + "→" + b
		check("HasIsA "+pair, dense.HasIsA(a, b), ref.HasIsA(a, b))
		ge, gok := dense.EdgeOf(a, b)
		we, wok := ref.EdgeOf(a, b)
		check("EdgeOf "+pair, fmt.Sprint(ge, gok), fmt.Sprint(we, wok))
		check("IsAncestor "+pair, dense.IsAncestor(a, b), ref.IsAncestor(a, b))
		check("TypicalityOfConcept "+pair, dense.TypicalityOfConcept(a, b), ref.TypicalityOfConcept(a, b))
		check("TypicalityOfInstance "+pair, dense.TypicalityOfInstance(b, a), ref.TypicalityOfInstance(b, a))
		check("PathToAncestor "+pair, dense.PathToAncestor(a, b), ref.PathToAncestor(a, b))
		check("CommonAncestors "+pair, dense.CommonAncestors(a, b), ref.CommonAncestors(a, b))
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

// referenceImage serializes the view a Builder compiles from what the
// reference holds: a path that never touches the dense store.
func referenceImage(t *testing.T, ref *taxonomy.Reference, mentions *taxonomy.MentionIndex) []byte {
	t.Helper()
	b := serving.NewBuilder()
	for _, n := range ref.Nodes() {
		b.ImportKind(n, ref.Kind(n))
	}
	for _, e := range ref.Edges() {
		if err := b.InsertEdge(e); err != nil {
			t.Fatalf("InsertEdge: %v", err)
		}
	}
	for _, e := range mentions.Sorted() {
		b.AddMentionEntry(e)
	}
	return imageOf(t, b.Build())
}

// requireSameImage holds an image compiled (or patched) from the dense
// store to the one compiled from the reference's content.
func requireSameImage(t *testing.T, at string, got []byte, ref *taxonomy.Reference, mentions *taxonomy.MentionIndex) {
	t.Helper()
	if want := referenceImage(t, ref, mentions); !bytes.Equal(got, want) {
		t.Fatalf("%s: image differs from the reference's (%d vs %d bytes)", at, len(got), len(want))
	}
	if _, err := serving.DecodeImage(got, 0); err != nil {
		t.Fatalf("%s: the image does not load: %v", at, err)
	}
}

// TestTaxonomyModel drives random write sequences through the dense-ID
// store and through the sharded string-map store it replaced
// (reference_test.go), and after every step holds the store to the
// reference: every query method, the stats, the change log, and the
// bytes of the view compiled from it — and of the view patched along
// from the change log, which is how the ingest path reads the store.
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
			var view *serving.View // patched along from the first log read on
			for step := 0; step < 250; step++ {
				at := fmt.Sprintf("step %d", step)
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
					if gok && mok && view != nil {
						if view = serving.Patch(view, dense, mentions, got, changed); view == nil {
							t.Fatalf("%s: Patch could not cover changes %v", at, got)
						}
					} else {
						view = serving.Compile(dense, mentions)
					}
				default:
					op := randomOp(rng, names)
					at = fmt.Sprintf("step %d %+v", step, op)
					if got, want := op.apply(dense), op.apply(ref); got != want {
						t.Fatalf("%s: reported %s, reference %s", at, got, want)
					}
				}
				ref.Finalize()
				requireSameAnswers(t, at, rng, names, dense, ref)
				requireSameImage(t, at, imageOf(t, serving.Compile(dense, mentions)), ref, mentions)
			}
			// The patched view has followed every logged change.
			nodes, _, ok := dense.ChangesSince(denseTok)
			changed, _, mok := mentions.ChangesSince(menTok)
			if view != nil && ok && mok {
				if view = serving.Patch(view, dense, mentions, nodes, changed); view == nil {
					t.Fatal("the last Patch could not cover the logged changes")
				}
				requireSameImage(t, "view patched along the change log", imageOf(t, view), ref, mentions)
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
					if hs := dense.Hypernyms(n); !slices.IsSorted(hs) {
						t.Errorf("Hypernyms(%s) not ascending: %v", n, hs)
						return
					}
					_ = dense.Hyponyms(n, 3)
					_ = dense.Ancestors(n)
					_ = dense.IsAncestor(n, m)
					_ = dense.RankedHyponyms(n, 2)
					_ = dense.TypicalityOfInstance(n, m)
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
					}
				}
			}(g)
		}
		for _, op := range ops {
			op.apply(dense)
		}
		close(done)
		readers.Wait()
		ref := taxonomy.NewReference(4)
		for _, op := range ops {
			op.apply(ref)
		}
		ref.Finalize()
		requireSameAnswers(t, "after the concurrent run", rng, names, dense, ref)
		logged, _, ok := dense.ChangesSince(1)
		if !ok || !slices.IsSorted(logged) || strings.Join(logged, ",") == "" {
			t.Fatalf("change log after the concurrent run: %v %v", logged, ok)
		}
	})
}
