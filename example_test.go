package cnprobase_test

// Runnable godoc examples for the public API. `go test` executes them,
// so the documented flow — generate a world, build the taxonomy, freeze
// it into a serving view and query that — is exercised on every run.

import (
	"bytes"
	"fmt"

	"cnprobase"
)

// ExampleBuild shows the three-call flow from the package comment:
// generate (or load) a corpus, build, query. Workers=1 selects the
// sequential reference path; any worker count produces the same
// taxonomy.
func ExampleBuild() {
	wcfg := cnprobase.DefaultWorldConfig()
	wcfg.Entities = 300
	w, err := cnprobase.GenerateWorld(wcfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	opts := cnprobase.DefaultOptions()
	opts.EnableNeural = false // skip model training in the example
	opts.Workers = 1
	res, err := cnprobase.Build(w.Corpus(), opts)
	if err != nil {
		fmt.Println(err)
		return
	}
	st := res.Report.Stats
	fmt.Println(st.Entities > 0, st.Concepts > 0, st.IsARelations > 0)
	// Output: true true true
}

// ExampleServingView_Hypernyms queries the direct hypernyms of a
// disambiguated entity — the paper's getConcept API — on the view a
// build result freezes into; the taxonomy itself answers no queries.
func ExampleServingView_Hypernyms() {
	tax := cnprobase.NewTaxonomy()
	tax.MarkEntity("刘德华（歌手）")
	if err := tax.AddIsA("刘德华（歌手）", "歌手", cnprobase.SourceBracket); err != nil {
		fmt.Println(err)
		return
	}
	if err := tax.AddIsA("刘德华（歌手）", "演员", cnprobase.SourceTag); err != nil {
		fmt.Println(err)
		return
	}
	view := (&cnprobase.Result{Taxonomy: tax}).Freeze()
	fmt.Println(view.Hypernyms("刘德华（歌手）"))
	// Output: [歌手 演员]
}

// ExampleSaveSnapshot shows the build-once / serve-many flow: build
// the taxonomy (expensive, offline), save the complete serving state
// as a binary snapshot, load it back (milliseconds — what
// `cnpserver -load` does on startup) and serve queries from the loaded
// copy. The loaded taxonomy answers every query exactly like the
// freshly built one.
func ExampleSaveSnapshot() {
	wcfg := cnprobase.DefaultWorldConfig()
	wcfg.Entities = 300
	w, err := cnprobase.GenerateWorld(wcfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	opts := cnprobase.DefaultOptions()
	opts.EnableNeural = false
	opts.Workers = 1
	res, err := cnprobase.Build(w.Corpus(), opts)
	if err != nil {
		fmt.Println(err)
		return
	}

	var snap bytes.Buffer // a file in production: cnprobase build -save
	if err := cnprobase.SaveSnapshot(&snap, res); err != nil {
		fmt.Println(err)
		return
	}
	loaded, err := cnprobase.LoadSnapshot(&snap)
	if err != nil {
		fmt.Println(err)
		return
	}

	sameEdges := loaded.Taxonomy.ComputeStats() == res.Taxonomy.ComputeStats()
	sameMentions := len(loaded.Mentions) == len(res.Mentions)
	sameAnswers := true
	built, served := res.Freeze(), loaded.Freeze()
	for _, e := range w.Entities {
		if fmt.Sprint(served.Hypernyms(e.ID)) != fmt.Sprint(built.Hypernyms(e.ID)) {
			sameAnswers = false
		}
	}
	fmt.Println(sameEdges, sameMentions, sameAnswers)
	// Output: true true true
}

// ExampleResult_Freeze shows the build/serve split: freeze the build
// result into an immutable serving view (interned IDs, CSR adjacency,
// pre-ranked typicality — zero locks per query) and answer the
// paper's APIs from it. Servers hold the view in an atomic pointer
// and swap in a freshly frozen one to publish updates (what cnpserver
// does on SIGHUP).
func ExampleResult_Freeze() {
	tax := cnprobase.NewTaxonomy()
	tax.MarkEntity("刘德华（歌手）")
	for _, hyper := range []string{"歌手", "演员"} {
		if err := tax.AddIsA("刘德华（歌手）", hyper, cnprobase.SourceTag); err != nil {
			fmt.Println(err)
			return
		}
	}
	res := &cnprobase.Result{Taxonomy: tax}
	view := res.Freeze()
	fmt.Println(view.Hypernyms("刘德华（歌手）"))
	fmt.Println(view.Lookup("刘德华"), view.Stats().Entities)
	// Output:
	// [歌手 演员]
	// [] 1
}
