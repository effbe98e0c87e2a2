// Incremental: the never-ending-extraction mode. Build the taxonomy
// over an initial crawl, then feed later crawl batches through
// cnprobase.Update — new entities become queryable, statistics extend,
// and union-wide verification can even retract earlier edges that new
// evidence contradicts.
package main

import (
	"fmt"
	"log"

	"cnprobase"
)

func main() {
	log.SetFlags(0)
	wcfg := cnprobase.DefaultWorldConfig()
	wcfg.Entities = 3000
	world, err := cnprobase.GenerateWorld(wcfg)
	if err != nil {
		log.Fatalf("generate world: %v", err)
	}
	all := world.Corpus()
	third := all.Len() / 3
	batch := func(lo, hi int) *cnprobase.Corpus {
		c := &cnprobase.Corpus{}
		c.Pages = append(c.Pages, all.Pages[lo:hi]...)
		return c
	}

	opts := cnprobase.DefaultOptions()
	opts.EnableNeural = false // updates skip the neural stage anyway

	res, err := cnprobase.Build(batch(0, third), opts)
	if err != nil {
		log.Fatalf("initial build: %v", err)
	}
	report := func(stage string) {
		st := res.Report.Stats
		p := cnprobase.SamplePrecision(res.Taxonomy, world.Oracle(), 2000, 1)
		fmt.Printf("%-16s pages=%5d entities=%5d concepts=%4d isA=%6d precision=%.1f%%\n",
			stage, res.Report.Pages, st.Entities, st.Concepts, st.IsARelations, p*100)
	}
	report("initial crawl")

	if res, err = cnprobase.Update(res, batch(third, 2*third), opts); err != nil {
		log.Fatalf("update 1: %v", err)
	}
	report("after batch 2")

	if res, err = cnprobase.Update(res, batch(2*third, all.Len()), opts); err != nil {
		log.Fatalf("update 2: %v", err)
	}
	report("after batch 3")

	// A page from the last batch is fully integrated.
	last := all.Pages[all.Len()-1]
	fmt.Printf("\nnew page %s → hypernyms %v\n", last.ID(), res.Freeze().Hypernyms(last.ID()))
}
