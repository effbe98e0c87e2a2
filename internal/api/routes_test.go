package api

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"cnprobase/internal/serving"
	"cnprobase/internal/taxonomy"
)

// TestRoutesMatchDocs is the docs contract: every route the mux
// serves (the /api endpoints plus the /healthz and /readyz probes)
// must be documented in docs/API.md, and every such route the docs
// mention must exist on the mux. Adding an endpoint without
// documenting it (or documenting one that does not exist) fails here.
// So does adding a field to the /api/stats blocks an operator reads —
// `resilience` and `ingest` — without naming it in the docs.
func TestRoutesMatchDocs(t *testing.T) {
	doc, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatalf("read docs/API.md: %v", err)
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile(`/api/[A-Za-z0-9]+|/healthz|/readyz`).FindAllString(string(doc), -1) {
		documented[m] = true
	}

	srv := NewViewServer(serving.Compile(taxonomy.New(), nil))
	served := map[string]bool{}
	for path := range srv.routes() {
		served[path] = true
	}

	for path := range served {
		if !documented[path] {
			t.Errorf("route %s is served but not documented in docs/API.md", path)
		}
	}
	for path := range documented {
		if !served[path] {
			t.Errorf("route %s is documented in docs/API.md but not served", path)
		}
	}

	for block, v := range map[string]any{"resilience": ResilienceStats{InFlight: 1, Shed: map[string]int64{"x": 1}}, "ingest": IngestStats{}} {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(doc, []byte("`"+block+"`")) {
			t.Errorf("/api/stats block %q is not documented in docs/API.md", block)
		}
		for field := range fields {
			if !bytes.Contains(doc, []byte("`"+field+"`")) {
				t.Errorf("/api/stats field %s.%s is not documented in docs/API.md", block, field)
			}
		}
	}
}
