package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cnprobase/internal/serving"
	"cnprobase/internal/taxonomy"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	tax := taxonomy.New()
	tax.MarkEntity("刘德华（演员）")
	tax.MarkEntity("刘德华（作家）")
	for _, e := range [][2]string{
		{"刘德华（演员）", "演员"},
		{"刘德华（演员）", "歌手"},
		{"刘德华（作家）", "作家"},
	} {
		if err := tax.AddIsA(e[0], e[1], taxonomy.SourceTag); err != nil {
			t.Fatal(err)
		}
	}
	tax.AddMention("刘德华", "刘德华（演员）")
	tax.AddMention("刘德华", "刘德华（作家）")
	srv := NewViewServer(serving.Compile(tax))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func TestMen2Ent(t *testing.T) {
	_, ts := testServer(t)
	var out Men2EntResponse
	resp := getJSON(t, ts.URL+"/api/men2ent?mention=刘德华", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(out.Entities) != 2 {
		t.Fatalf("entities = %v, want both senses", out.Entities)
	}
}

func TestMen2EntMissingParam(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/api/men2ent")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

func TestGetConcept(t *testing.T) {
	_, ts := testServer(t)
	var out ConceptResponse
	getJSON(t, ts.URL+"/api/getConcept?entity="+escape("刘德华（演员）"), &out)
	if len(out.Hypernyms) != 2 {
		t.Fatalf("hypernyms = %v", out.Hypernyms)
	}
	if out.Ranked != nil {
		t.Error("Ranked filled without ?ranked=1")
	}
}

func TestGetConceptRanked(t *testing.T) {
	_, ts := testServer(t)
	var out ConceptResponse
	getJSON(t, ts.URL+"/api/getConcept?ranked=1&entity="+escape("刘德华（演员）"), &out)
	if len(out.Ranked) != 2 {
		t.Fatalf("ranked = %v", out.Ranked)
	}
	if out.Ranked[0].Score < out.Ranked[1].Score {
		t.Errorf("ranked not sorted: %v", out.Ranked)
	}
	sum := out.Ranked[0].Score + out.Ranked[1].Score
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("typicality sums to %v", sum)
	}
}

func TestGetEntity(t *testing.T) {
	_, ts := testServer(t)
	var out EntityResponse
	getJSON(t, ts.URL+"/api/getEntity?concept=演员", &out)
	if len(out.Hyponyms) != 1 || out.Hyponyms[0] != "刘德华（演员）" {
		t.Fatalf("hyponyms = %v", out.Hyponyms)
	}
	// limit=0 means all; bad limit is a 400.
	resp, err := http.Get(ts.URL + "/api/getEntity?concept=演员&limit=-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad limit status = %d, want 400", resp.StatusCode)
	}
}

func TestCountersAndStats(t *testing.T) {
	srv, ts := testServer(t)
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/api/men2ent?mention=刘德华")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/api/getConcept?entity=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := srv.Counters()
	if got.Men2Ent != 3 || got.GetConcept != 1 || got.GetEntity != 0 {
		t.Fatalf("counters = %+v", got)
	}
	var viaHTTP Stats
	getJSON(t, ts.URL+"/api/stats", &viaHTTP)
	if viaHTTP.Men2Ent != 3 {
		t.Errorf("stats endpoint = %+v", viaHTTP)
	}
}

func TestWorkloadMix(t *testing.T) {
	srv, ts := testServer(t)
	cfg := WorkloadConfig{Calls: 3000, Weights: [5]float64{43896044, 13815076, 25793372, 0, 0}, Seed: 1}
	issued, err := RunWorkload(NewClient(ts.URL), srv.View(), cfg)
	if err != nil {
		t.Fatalf("RunWorkload: %v", err)
	}
	total := issued.Men2Ent + issued.GetConcept + issued.GetEntity
	if total != 3000 {
		t.Fatalf("issued %d calls, want 3000", total)
	}
	// The mix must approximate the paper's ratios: men2ent ≈ 52.6%,
	// getConcept ≈ 16.6%, getEntity ≈ 30.9%.
	frac := func(n int64) float64 { return float64(n) / float64(total) }
	if f := frac(issued.Men2Ent); f < 0.48 || f > 0.58 {
		t.Errorf("men2ent fraction = %.3f, want ≈0.526", f)
	}
	if f := frac(issued.GetConcept); f < 0.12 || f > 0.21 {
		t.Errorf("getConcept fraction = %.3f, want ≈0.166", f)
	}
	if f := frac(issued.GetEntity); f < 0.26 || f > 0.36 {
		t.Errorf("getEntity fraction = %.3f, want ≈0.309", f)
	}
	// Server observed what the client issued.
	if got := srv.Counters(); got.Men2Ent != issued.Men2Ent || got.GetEntity != issued.GetEntity {
		t.Errorf("server counters %+v != issued %+v", got, issued)
	}
}

func TestWorkloadRejectsEmptyTaxonomy(t *testing.T) {
	_, ts := testServer(t)
	if _, err := RunWorkload(NewClient(ts.URL), serving.Compile(taxonomy.New()), DefaultWorkloadConfig()); err == nil {
		t.Fatal("workload over empty taxonomy should fail")
	}
}

func TestFormatTable2(t *testing.T) {
	out := FormatTable2(Stats{Men2Ent: 10, GetConcept: 5, GetEntity: 7})
	for _, want := range []string{"men2ent", "getConcept", "getEntity", "hypernym list", "10", "5", "7"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatTable2 missing %q:\n%s", want, out)
		}
	}
}

func escape(s string) string {
	return strings.ReplaceAll(strings.ReplaceAll(s, "（", "%EF%BC%88"), "）", "%EF%BC%89")
}
