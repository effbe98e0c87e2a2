// Command experiments regenerates every table and figure of the
// paper's evaluation over a synthetic encyclopedia world and prints the
// results. The experiment codes (E1…E7, A1, A2, F3) are indexed in the
// package doc of internal/experiments.
//
// Usage:
//
//	experiments [-entities N] [-all] [-table1] [-table2] [-sources]
//	            [-predicates] [-qa] [-neural] [-ablation] [-figure3]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"cnprobase/internal/core"
	"cnprobase/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var (
		entities  = flag.Int("entities", 8000, "synthetic world size (entities)")
		all       = flag.Bool("all", false, "run every experiment")
		table1    = flag.Bool("table1", false, "E1: Table I taxonomy comparison")
		table2    = flag.Bool("table2", false, "E2: Table II API workload")
		sources   = flag.Bool("sources", false, "E3/E4: per-source precision")
		preds     = flag.Bool("predicates", false, "E6: predicate discovery")
		qaFlag    = flag.Bool("qa", false, "E5: QA coverage")
		neural    = flag.Bool("neural", false, "E7: copy-mechanism ablation")
		ablation  = flag.Bool("ablation", false, "A1: verification ablation")
		figure3   = flag.Bool("figure3", false, "F3: separation algorithm walkthrough")
		apiCalls  = flag.Int("api-calls", 20000, "Table II workload size")
		questions = flag.Int("questions", 23472, "QA dataset size (paper: 23472)")
	)
	flag.Parse()
	if !*all && !*table1 && !*table2 && !*sources && !*preds && !*qaFlag && !*neural && !*ablation && !*figure3 {
		*all = true
	}

	fmt.Printf("== building suite: %d entities ==\n", *entities)
	suite, err := experiments.NewSuite(*entities, core.DefaultOptions())
	if err != nil {
		log.Fatalf("building suite: %v", err)
	}
	fmt.Print(suite.Summary())

	if *all || *table1 {
		fmt.Println("\n== E1: Table I — comparison with other taxonomies ==")
		out, _ := suite.Table1()
		fmt.Print(out)
	}
	if *all || *table2 {
		fmt.Println("\n== E2: Table II — APIs and usage ==")
		out, _, err := suite.Table2(*apiCalls)
		if err != nil {
			log.Fatalf("table2: %v", err)
		}
		fmt.Print(out)
	}
	if *all || *sources {
		fmt.Println("\n== E3/E4: per-source precision ==")
		out, _ := suite.PerSource()
		fmt.Print(out)
	}
	if *all || *preds {
		fmt.Println("\n== E6: predicate discovery ==")
		out, _, _ := suite.Predicates()
		fmt.Print(out)
	}
	if *all || *qaFlag {
		fmt.Println("\n== E5: QA coverage ==")
		out, _ := suite.QA(*questions)
		fmt.Print(out)
	}
	if *all || *neural {
		fmt.Println("\n== E7: neural generation — copy mechanism ablation ==")
		out, _, err := suite.Neural(3000, 4)
		if err != nil {
			log.Fatalf("neural: %v", err)
		}
		fmt.Print(out)
	}
	if *all || *ablation {
		fmt.Println("\n== A1: verification ablation ==")
		out, _, err := suite.Ablation()
		if err != nil {
			log.Fatalf("ablation: %v", err)
		}
		fmt.Print(out)
	}
	if *all || *figure3 {
		fmt.Println("\n== F3: separation algorithm walkthrough (Figure 3) ==")
		fmt.Print(suite.SeparationDemo([]string{
			"蚂蚁金服首席战略官",
			"中国香港男演员",
			"著名女歌手",
			"清河大学教授",
		}))
		fmt.Println("\n== A2: separation algorithm vs suffix heuristic ==")
		out, _ := suite.SeparationVsSuffix()
		fmt.Print(out)
	}
	os.Exit(0)
}
