// Separation: a walkthrough of the paper's Figure 3 — the PMI-driven
// separation algorithm that extracts hypernyms from disambiguation
// brackets (蚂蚁金服首席战略官 → 首席战略官, 战略官).
//
// The example builds corpus statistics from a generated world so the
// PMI landscape is real, then separates a handful of brackets and
// prints the word sequences and right-spine hypernyms.
package main

import (
	"fmt"
	"log"

	"cnprobase"
	"cnprobase/internal/extract"
)

func main() {
	log.SetFlags(0)
	wcfg := cnprobase.DefaultWorldConfig()
	wcfg.Entities = 3000
	world, err := cnprobase.GenerateWorld(wcfg)
	if err != nil {
		log.Fatalf("generate world: %v", err)
	}
	opts := cnprobase.DefaultOptions()
	opts.EnableNeural = false // this example only needs the substrates
	res, err := cnprobase.Build(world.Corpus(), opts)
	if err != nil {
		log.Fatalf("build: %v", err)
	}

	sep := extract.NewSeparator(res.Segmenter, res.Stats)
	fmt.Println("Figure 3 — separation algorithm walkthrough")
	fmt.Println()
	compounds := []string{
		"蚂蚁金服首席战略官", // the paper's running example
		"中国香港男演员",
		"著名女歌手",
		"清河大学教授",
		"演员",
	}
	for _, c := range compounds {
		t := sep.Separate(c)
		fmt.Printf("compound   %s\n", c)
		fmt.Printf("  words     %v\n", t.Words)
		fmt.Printf("  hypernyms %v\n", t.Hypernyms)
		fmt.Println()
	}

	// And on real generated brackets, with candidates:
	fmt.Println("on generated pages:")
	shown := 0
	for _, p := range world.Corpus().Pages {
		if p.Bracket == "" {
			continue
		}
		hypernyms := sep.Hypernyms(p.Title, p.Bracket)
		if len(hypernyms) == 0 {
			continue
		}
		fmt.Printf("  %s（%s）", p.Title, p.Bracket)
		for _, h := range hypernyms {
			fmt.Printf(" → %s", h)
		}
		fmt.Println()
		if shown++; shown == 5 {
			break
		}
	}
}
