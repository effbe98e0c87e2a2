package api

import (
	"bytes"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
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

	srv := NewViewServer(serving.Compile(taxonomy.New()))
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

// TestEveryRouteCountsAndTimes holds every row of the route table to
// serve's accounting: one request adds exactly 1 to the route's call
// count and 1 to its latency count, a batch also adds its item count to
// the endpoint its items count toward, a 400 is counted and timed like
// a 200, and /api/stats and the probes count nothing.
func TestEveryRouteCountsAndTimes(t *testing.T) {
	type call struct {
		query, body string // a GET of query when body is empty, a POST of body otherwise
		status      int
		items       int64
	}
	oversized := func(n int) string { return "[" + strings.Repeat(`"",`, n) + `""]` }
	cases := map[string][]call{
		"men2ent": {{query: "?mention=刘德华", status: 200}, {status: 400}},
		"men2entBatch": {
			{body: `["刘德华","未知提及"]`, status: 200, items: 2},
			{body: oversized(MaxBatchMentions), status: 400},
			{body: `{"not":"an array"}`, status: 400},
		},
		"getConcept": {{query: "?entity=刘德华（演员）&ranked=1", status: 200}, {status: 400}},
		"getEntity":  {{query: "?concept=演员&limit=1", status: 200}, {query: "?concept=演员&limit=-1", status: 400}},
		"conceptualize": {
			{body: `{"text":"刘德华是演员"}`, status: 200},
			{body: `{"text":`, status: 400},
		},
		"conceptualizeBatch": {
			{body: `["刘德华","演员","未知内容"]`, status: 200, items: 3},
			{body: oversized(MaxBatchTexts), status: 400},
		},
		"qa": {{body: `{"question":"刘德华是哪个演员？"}`, status: 200}, {body: `"x"`, status: 400}},
	}
	srv, _ := testServer(t)
	routes := srv.routes()
	latencies := func() map[string]int64 {
		m := map[string]int64{}
		for _, row := range srv.LatencyReport() {
			m[row.Endpoint] = row.Count
		}
		return m
	}
	serve := func(path string, c call) int {
		req := httptest.NewRequest(http.MethodGet, path+c.query, nil)
		if c.body != "" {
			req = httptest.NewRequest(http.MethodPost, path, strings.NewReader(c.body))
		}
		w := httptest.NewRecorder()
		routes[path](w, req)
		return w.Code
	}
	if len(cases) != len(srv.endpoints) {
		t.Errorf("%d routes have cases, the table has %d", len(cases), len(srv.endpoints))
	}
	for _, e := range srv.endpoints {
		if len(cases[e.name]) == 0 {
			t.Errorf("route %s has no case", e.name)
		}
		for _, c := range cases[e.name] {
			counts, lat := srv.Counters(), latencies()
			*e.stat(&counts)++
			lat[e.name]++
			if e.items != nil {
				*e.items.stat(&counts) += c.items
			}
			if code := serve(e.path(), c); code != c.status {
				t.Errorf("%s %s%s: status %d, want %d", e.name, c.query, c.body, code, c.status)
			}
			if got := srv.Counters(); got != counts {
				t.Errorf("%s %s%.40s: counters %+v, want %+v", e.name, c.query, c.body, got, counts)
			}
			if got := latencies(); !maps.Equal(got, lat) {
				t.Errorf("%s %s%.40s: latency counts %v, want %v", e.name, c.query, c.body, got, lat)
			}
		}
	}
	counts, lat := srv.Counters(), latencies()
	for _, path := range []string{"/api/stats", "/healthz", "/readyz"} {
		if code := serve(path, call{}); code != http.StatusOK {
			t.Errorf("%s: status %d", path, code)
		}
	}
	if got := srv.Counters(); got != counts {
		t.Errorf("stats and probes changed the counters: %+v, want %+v", got, counts)
	}
	if got := latencies(); !maps.Equal(got, lat) {
		t.Errorf("stats and probes changed the latency counts: %v, want %v", got, lat)
	}
}
