// Quickstart: generate a small synthetic encyclopedia, build the
// CN-Probase taxonomy over it, and query hypernyms/hyponyms — the
// minimal end-to-end tour of the public API.
package main

import (
	"fmt"
	"log"

	"cnprobase"
)

func main() {
	log.SetFlags(0)

	// 1. A corpus. Normally ReadCorpus on a CN-DBpedia-style JSONL
	// dump; here the synthetic world (internal/synth's package doc)
	// stands in.
	wcfg := cnprobase.DefaultWorldConfig()
	wcfg.Entities = 2000
	world, err := cnprobase.GenerateWorld(wcfg)
	if err != nil {
		log.Fatalf("generate world: %v", err)
	}
	fmt.Printf("corpus: %d pages, %d infobox triples, %d tags\n",
		world.Corpus().Len(), world.Corpus().TripleCount(), world.Corpus().TagCount())

	// 2. Build the taxonomy: four generation algorithms + three
	// verification strategies (paper, Figure 2).
	res, err := cnprobase.Build(world.Corpus(), cnprobase.DefaultOptions())
	if err != nil {
		log.Fatalf("build: %v", err)
	}
	st := res.Report.Stats
	fmt.Printf("taxonomy: %d entities, %d concepts, %d isA relations\n",
		st.Entities, st.Concepts, st.IsARelations)
	fmt.Printf("verification kept %d of %d candidates\n",
		res.Report.Verification.Kept, res.Report.Verification.Input)

	// 3. Query the serving view frozen from the build. Pick a person
	// with hypernyms and walk upward.
	view := res.Freeze()
	for _, e := range world.Entities {
		hs := view.Hypernyms(e.ID)
		if len(hs) < 2 {
			continue
		}
		fmt.Printf("\ngetConcept(%s) = %v\n", e.ID, hs)
		fmt.Printf("ancestors = %v\n", view.Ancestors(e.ID))
		if len(hs) > 0 {
			hypos := view.Hyponyms(hs[0], 5)
			fmt.Printf("getEntity(%s, limit=5) = %v\n", hs[0], hypos)
		}
		// men2ent on the bare title.
		fmt.Printf("men2ent(%s) = %v\n", e.Title, view.Lookup(e.Title))
		break
	}

	// 4. Score against the ground truth (the paper samples 2000 pairs
	// for manual labeling; the oracle knows the truth exactly).
	p := cnprobase.SamplePrecision(res.Taxonomy, world.Oracle(), 2000, 1)
	fmt.Printf("\nsampled precision: %.1f%% (paper reports 95%%)\n", p*100)
}
