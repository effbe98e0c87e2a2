package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cnprobase/internal/serving"
	"cnprobase/internal/taxonomy"
)

// probe is one request of a golden transcript: a GET of path when body
// is nil, a POST of body otherwise.
type probe struct {
	path string
	body []byte
}

// transcript replays probes against the server at base and records
// each request with the status, Content-Type and body of its response,
// in the layout of testdata/*.golden.
func transcript(t *testing.T, base string, probes []probe) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, p := range probes {
		var resp *http.Response
		var err error
		if p.body == nil {
			fmt.Fprintf(&out, "GET %s\n", p.path)
			resp, err = http.Get(base + p.path)
		} else {
			fmt.Fprintf(&out, "POST %s %q\n", p.path, p.body)
			resp, err = http.Post(base+p.path, "application/json", bytes.NewReader(p.body))
		}
		if err != nil {
			t.Fatalf("%s: %v", p.path, err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%d %s %s", resp.StatusCode, resp.Header.Get("Content-Type"), raw)
	}
	return out.Bytes()
}

// requireGolden holds a transcript to testdata/<name>.golden, line by
// line.
func requireGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s.golden line %d:\ngot:  %s\nwant: %s", name, i+1, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s.golden: got %d lines, want %d", name, len(gotLines), len(wantLines))
	}
}

// equivFixture assembles a store with the response shapes
// that must survive the freeze: multi-hypernym entities with uneven
// evidence counts (non-trivial typicality), subconcept chains,
// ambiguous mentions, and nodes with no hypernyms at all.
func equivFixture(tb testing.TB) *taxonomy.Taxonomy {
	tb.Helper()
	tax := taxonomy.New()
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("实体%02d（人物）", i)
		tax.MarkEntity(id)
		if err := tax.AddIsA(id, fmt.Sprintf("概念%d", i%7), taxonomy.SourceBracket); err != nil {
			tb.Fatal(err)
		}
		if i%3 == 0 {
			if err := tax.AddIsA(id, fmt.Sprintf("概念%d", i%7), taxonomy.SourceTag); err != nil {
				tb.Fatal(err)
			}
		}
		if i%4 == 0 {
			if err := tax.AddIsA(id, fmt.Sprintf("概念%d", (i+2)%7), taxonomy.SourceAbstract); err != nil {
				tb.Fatal(err)
			}
		}
		tax.AddMention(fmt.Sprintf("实体%02d", i), id)
		tax.AddMention(id, id)
	}
	tax.AddMention("实体00", "实体07（人物）")
	for i := 0; i < 7; i++ {
		if err := tax.AddIsA(fmt.Sprintf("概念%d", i), "顶层概念", taxonomy.SourceMorph); err != nil {
			tb.Fatal(err)
		}
	}
	return tax
}

// TestLookupGolden pins the three lookup APIs byte for byte: for every
// node of the fixture, plus unknown and missing-parameter probes, the
// view-backed server answers exactly what testdata/lookup.golden holds
// — the responses recorded when the same queries were still served
// from the mutable store as well, and the two agreed.
func TestLookupGolden(t *testing.T) {
	tax := equivFixture(t)
	v := serving.Compile(tax)
	ts := httptest.NewServer(NewViewServer(v).Handler())
	defer ts.Close()
	var probes []probe
	for _, n := range append(slices.Clone(v.Nodes()), "未知节点", "实体00", "实体13") {
		q := url.QueryEscape(n)
		for _, path := range []string{"/api/men2ent?mention=", "/api/getConcept?entity=", "/api/getConcept?ranked=1&entity=", "/api/getEntity?concept=", "/api/getEntity?limit=3&concept="} {
			probes = append(probes, probe{path: path + q})
		}
	}
	for _, path := range []string{"/api/men2ent", "/api/getConcept", "/api/getEntity"} {
		probes = append(probes, probe{path: path})
	}
	requireGolden(t, "lookup", transcript(t, ts.URL, probes))
}

func TestMen2EntBatch(t *testing.T) {
	srv, ts := testServer(t)
	body, _ := json.Marshal([]string{"刘德华", "未知提及"})
	resp, err := http.Post(ts.URL+"/api/men2entBatch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out []Men2EntResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d results, want 2", len(out))
	}
	if len(out[0].Entities) != 2 {
		t.Errorf("batch[0] = %+v, want both 刘德华 senses", out[0])
	}
	if out[1].Mention != "未知提及" || len(out[1].Entities) != 0 {
		t.Errorf("batch[1] = %+v, want empty resolution", out[1])
	}
	// Each batched mention counts as one men2ent resolution, and the
	// batch request itself is counted separately.
	got := srv.Counters()
	if got.Men2Ent != 2 || got.Men2EntBatch != 1 {
		t.Errorf("counters = %+v, want Men2Ent=2 Men2EntBatch=1", got)
	}
	// Batch answers must match the single-shot API element-wise.
	var single Men2EntResponse
	getJSON(t, ts.URL+"/api/men2ent?mention=刘德华", &single)
	if fmt.Sprint(single.Entities) != fmt.Sprint(out[0].Entities) {
		t.Errorf("batch %v != single %v", out[0].Entities, single.Entities)
	}
}

func TestMen2EntBatchErrors(t *testing.T) {
	_, ts := testServer(t)
	// Wrong method.
	resp, err := http.Get(ts.URL + "/api/men2entBatch")
	if err != nil {
		t.Fatal(err)
	}
	checkJSONError(t, resp, http.StatusMethodNotAllowed)
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Errorf("Allow = %q, want POST", allow)
	}
	// Malformed body.
	resp, err = http.Post(ts.URL+"/api/men2entBatch", "application/json", bytes.NewReader([]byte(`{"not":"an array"}`)))
	if err != nil {
		t.Fatal(err)
	}
	checkJSONError(t, resp, http.StatusBadRequest)
	// Oversized batch.
	huge, _ := json.Marshal(make([]string, MaxBatchMentions+1))
	resp, err = http.Post(ts.URL+"/api/men2entBatch", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	checkJSONError(t, resp, http.StatusBadRequest)
	// Oversized body: rejected while reading (MaxBytesReader), not
	// after being decoded into memory.
	fat := append([]byte(`["`), bytes.Repeat([]byte("长"), MaxBatchBytes)...)
	fat = append(fat, []byte(`"]`)...)
	resp, err = http.Post(ts.URL+"/api/men2entBatch", "application/json", bytes.NewReader(fat))
	if err != nil {
		t.Fatal(err)
	}
	checkJSONError(t, resp, http.StatusBadRequest)
}

// TestErrorResponsesAreJSON is the regression test for the plain-text
// http.Error bodies the handlers used to send: every parameter error
// must be a JSON object with the JSON Content-Type.
func TestErrorResponsesAreJSON(t *testing.T) {
	_, ts := testServer(t)
	for _, path := range []string{
		"/api/men2ent",
		"/api/getConcept",
		"/api/getEntity",
		"/api/getEntity?concept=演员&limit=-1",
		"/api/getEntity?concept=演员&limit=abc",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		checkJSONError(t, resp, http.StatusBadRequest)
	}
}

// TestStatsMethodNotAllowed pins the /api/stats method contract: like
// men2entBatch, a wrong method gets a JSON 405 with an Allow header
// rather than being silently served.
func TestStatsMethodNotAllowed(t *testing.T) {
	_, ts := testServer(t)
	for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
		req, err := http.NewRequest(method, ts.URL+"/api/stats", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		checkJSONError(t, resp, http.StatusMethodNotAllowed)
		if allow := resp.Header.Get("Allow"); allow != http.MethodGet {
			t.Errorf("%s: Allow = %q, want GET", method, allow)
		}
	}
	// GET still works.
	resp, err := http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /api/stats status = %d, want 200", resp.StatusCode)
	}
}

// checkJSONError asserts status, JSON Content-Type, and a non-empty
// {"error": ...} body, then closes the response.
func checkJSONError(t *testing.T, resp *http.Response, wantStatus int) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Errorf("%s: status = %d, want %d", resp.Request.URL, resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("%s: Content-Type = %q, want JSON", resp.Request.URL, ct)
	}
	var body ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Errorf("%s: error body is not JSON: %v", resp.Request.URL, err)
	} else if body.Error == "" {
		t.Errorf("%s: error body has empty message", resp.Request.URL)
	}
}

// TestSwapView pins the hot-reload semantics: writes to the build
// store are invisible until a freshly compiled view is swapped in.
func TestSwapView(t *testing.T) {
	tax := equivFixture(t)
	srv := NewViewServer(serving.Compile(tax))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if err := tax.AddIsA("新实体（测试）", "概念0", taxonomy.SourceTag); err != nil {
		t.Fatal(err)
	}
	var out ConceptResponse
	getJSON(t, ts.URL+"/api/getConcept?entity="+url.QueryEscape("新实体（测试）"), &out)
	if len(out.Hypernyms) != 0 {
		t.Fatalf("store write visible before SwapView: %v", out.Hypernyms)
	}
	old := srv.SwapView(serving.Compile(tax))
	if old == nil {
		t.Fatal("SwapView returned nil previous view")
	}
	getJSON(t, ts.URL+"/api/getConcept?entity="+url.QueryEscape("新实体（测试）"), &out)
	if len(out.Hypernyms) != 1 || out.Hypernyms[0] != "概念0" {
		t.Fatalf("hypernyms after swap = %v, want [概念0]", out.Hypernyms)
	}
	// The old view still answers (in-flight requests keep working).
	if old.Hypernyms("实体00（人物）") == nil {
		t.Error("previous view unusable after swap")
	}
}

// TestStatsLatency checks the /api/stats latency summaries: served
// endpoints report counts and sane quantiles, unserved ones are
// omitted.
func TestStatsLatency(t *testing.T) {
	_, ts := testServer(t)
	for i := 0; i < 5; i++ {
		resp, err := http.Get(ts.URL + "/api/men2ent?mention=刘德华")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	var stats struct {
		Latency []EndpointLatency `json:"latency"`
	}
	getJSON(t, ts.URL+"/api/stats", &stats)
	if len(stats.Latency) != 1 {
		t.Fatalf("latency = %+v, want exactly the men2ent row", stats.Latency)
	}
	row := stats.Latency[0]
	if row.Endpoint != "men2ent" || row.Count != 5 {
		t.Errorf("latency row = %+v, want men2ent count=5", row)
	}
	if row.P50Ms <= 0 || row.P99Ms < row.P50Ms {
		t.Errorf("quantiles implausible: %+v", row)
	}
}
