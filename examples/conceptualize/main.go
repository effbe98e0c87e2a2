// Conceptualize: short-text understanding with the taxonomy — the
// application the paper motivates (Section IV's QA-coverage experiment
// and the short-text classification citation).
//
// Given a sentence, the example finds entity mentions (men2ent),
// resolves them to disambiguated entities, looks up their concepts
// (getConcept) and prints a conceptualized reading of the text.
package main

import (
	"fmt"
	"log"
	"strings"

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
	res, err := cnprobase.Build(world.Corpus(), cnprobase.DefaultOptions())
	if err != nil {
		log.Fatalf("build: %v", err)
	}

	// Every read goes through the serving view.
	view := res.Freeze()

	// Compose questions that mention generated entities.
	var texts []string
	count := 0
	for _, e := range world.Entities {
		if len(view.Hypernyms(e.ID)) == 0 {
			continue
		}
		texts = append(texts,
			fmt.Sprintf("%s的代表作品有哪些？", e.Title),
			fmt.Sprintf("请介绍一下%s。", e.Title),
		)
		if count++; count == 3 {
			break
		}
	}
	texts = append(texts, "今天天气怎么样？") // uncovered distractor

	for _, text := range texts {
		fmt.Printf("text: %s\n", text)
		mentions := view.FindAll(text)
		if len(mentions) == 0 {
			fmt.Println("  (no taxonomy mention — uncovered)")
			fmt.Println()
			continue
		}
		for _, m := range mentions {
			ids := view.Lookup(m)
			fmt.Printf("  mention %q → %d entit%s\n", m, len(ids), plural(len(ids)))
			for _, id := range ids {
				concepts := view.Hypernyms(id)
				if len(concepts) == 0 {
					continue
				}
				fmt.Printf("    %s isA %s\n", id, strings.Join(concepts, "、"))
			}
		}
		fmt.Println()
	}

	cov, avg := cnprobase.QACoverageView(world, view, 5000)
	fmt.Printf("QA coverage over 5000 generated questions: %.2f%% (paper: 91.68%%)\n", cov*100)
	fmt.Printf("avg concepts per covered entity: %.2f (paper: 2.14)\n", avg)
}

func plural(n int) string {
	if n == 1 {
		return "y"
	}
	return "ies"
}
