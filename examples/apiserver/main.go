// APIServer: build a taxonomy, serve the paper's three APIs over HTTP
// (Table II: men2ent / getConcept / getEntity), exercise them with the
// paper's observed workload mix, and print the usage table.
package main

import (
	"fmt"
	"log"
	"net/http/httptest"

	"cnprobase"
	"cnprobase/internal/api"
)

func main() {
	log.SetFlags(0)
	wcfg := cnprobase.DefaultWorldConfig()
	wcfg.Entities = 2000
	world, err := cnprobase.GenerateWorld(wcfg)
	if err != nil {
		log.Fatalf("generate world: %v", err)
	}
	res, err := cnprobase.Build(world.Corpus(), cnprobase.DefaultOptions())
	if err != nil {
		log.Fatalf("build: %v", err)
	}

	view := res.Freeze()
	srv := cnprobase.NewViewServer(view)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Printf("serving taxonomy at %s\n", ts.URL)

	client := api.NewClient(ts.URL)
	// A few hand-driven calls first.
	someTitle := world.Entities[0].Title
	if err := client.Men2Ent(someTitle); err != nil {
		log.Fatalf("men2ent: %v", err)
	}
	if err := client.GetConcept(world.Entities[0].ID); err != nil {
		log.Fatalf("getConcept: %v", err)
	}
	if err := client.GetEntity("演员"); err != nil {
		log.Fatalf("getEntity: %v", err)
	}

	// Then the paper's six-month mix, scaled down.
	cfg := api.DefaultWorkloadConfig()
	cfg.Calls = 10000
	if _, err := api.RunWorkload(client, view, cfg); err != nil {
		log.Fatalf("workload: %v", err)
	}
	fmt.Println("\nTable II — APIs and their usage (simulated workload):")
	fmt.Print(api.FormatTable2(srv.Counters()))
}
