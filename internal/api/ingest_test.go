package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"cnprobase/internal/core"
	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/synth"
)

// ingestFixture builds a small world, serves it, and wires an Ingester
// over the build Result.
func ingestFixture(t *testing.T) (*core.Result, *Server, *Ingester, *httptest.Server, *httptest.Server) {
	t.Helper()
	wcfg := synth.DefaultConfig()
	wcfg.Entities = 300
	w, err := synth.Generate(wcfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	opts := core.DefaultOptions()
	opts.EnableNeural = false
	pipeline := core.New(opts)
	res, err := pipeline.Build(w.Corpus())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	srv := NewViewServer(res.Freeze())
	ing, err := NewIngester(res, pipeline, srv)
	if err != nil {
		t.Fatalf("NewIngester: %v", err)
	}
	t.Cleanup(ing.Close)
	apiTS := httptest.NewServer(srv.Handler())
	t.Cleanup(apiTS.Close)
	ingTS := httptest.NewServer(ing.Handler())
	t.Cleanup(ingTS.Close)
	return res, srv, ing, apiTS, ingTS
}

// postJSONL posts pages as a JSONL body to the ingest endpoint.
func postJSONL(t *testing.T, ingURL string, pages []encyclopedia.Page) *http.Response {
	t.Helper()
	var body bytes.Buffer
	c := encyclopedia.Corpus{Pages: pages}
	if err := c.WriteJSONL(&body); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	resp, err := http.Post(ingURL+"/ingest", "application/x-ndjson", &body)
	if err != nil {
		t.Fatalf("POST /ingest: %v", err)
	}
	return resp
}

// TestIngestSwapsServingView drives the whole loop in-process: a
// posted batch becomes queryable through the API server without any
// restart, and the response reports the post-update shape.
func TestIngestSwapsServingView(t *testing.T) {
	res, _, _, apiTS, ingTS := ingestFixture(t)
	concept := res.Names()[res.Kept[0].Hyper]
	newTitle := "热更新测试实体"

	// Not visible before ingestion.
	var before ConceptResponse
	getJSON(t, apiTS.URL+"/api/getConcept?entity="+url.QueryEscape(newTitle), &before)
	if len(before.Hypernyms) != 0 {
		t.Fatalf("new entity visible before ingest: %v", before.Hypernyms)
	}

	resp := postJSONL(t, ingTS.URL, []encyclopedia.Page{{Title: newTitle, Tags: []string{concept}}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	var rep IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("decode ingest response: %v", err)
	}
	if rep.Pages != 1 || rep.Entities == 0 || rep.IsARelations == 0 {
		t.Errorf("ingest response implausible: %+v", rep)
	}
	// The fixture froze the Result once already, so this batch's view is
	// a patch of that one, re-reading just the new page's neighbourhood;
	// the stage times are parts of the whole. They are whole microseconds
	// sent as milliseconds, so they are summed as microseconds: 0.446 +
	// 0.515 exceeds 0.961 in float64.
	us := func(ms float64) int64 { return int64(math.Round(ms * 1000)) }
	if rep.FullCompile || rep.TouchedNodes == 0 || rep.TouchedNodes > rep.Entities/4 ||
		rep.UpdateMs <= 0 || rep.PublishMs <= 0 || us(rep.UpdateMs)+us(rep.PublishMs) > us(rep.TookMs) {
		t.Errorf("ingest response does not describe a patched publication: %+v", rep)
	}

	// The swap happened before the response: the edge serves now.
	var after ConceptResponse
	getJSON(t, apiTS.URL+"/api/getConcept?entity="+url.QueryEscape(newTitle), &after)
	found := false
	for _, h := range after.Hypernyms {
		if h == concept {
			found = true
		}
	}
	if !found {
		t.Fatalf("getConcept(%q) = %v after ingest, want %q", newTitle, after.Hypernyms, concept)
	}
	var men Men2EntResponse
	getJSON(t, apiTS.URL+"/api/men2ent?mention="+url.QueryEscape(newTitle), &men)
	if len(men.Entities) == 0 {
		t.Errorf("men2ent(%q) empty after ingest", newTitle)
	}
}

// TestIngestReportsFolds posts small batches until a publication's
// delta outgrows its base: the response reads folded on that batch,
// which leaves the server a flat view, and on no other, each of which
// leaves a delta that has not outgrown its base.
func TestIngestReportsFolds(t *testing.T) {
	res, srv, _, _, ingTS := ingestFixture(t)
	folds := 0
	for i := 0; i < 80 && folds == 0; i++ {
		var pages []encyclopedia.Page
		for k := 0; k < 2; k++ {
			concept := res.Names()[res.Kept[(7*i+k)%len(res.Kept)].Hyper]
			pages = append(pages, encyclopedia.Page{Title: fmt.Sprintf("折叠测试实体%02d%d", i, k), Tags: []string{concept}})
		}
		resp := postJSONL(t, ingTS.URL, pages)
		var rep IngestResponse
		err := json.NewDecoder(resp.Body).Decode(&rep)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: status %d, %v", i, resp.StatusCode, err)
		}
		v := srv.View()
		switch {
		case rep.Folded:
			folds++
			t.Logf("batch %d folded: %+v", i, rep)
			if i < 2 || v.HasDelta() {
				t.Fatalf("batch %d reads folded, and the view it left has a delta %v", i, v.HasDelta())
			}
		case !v.HasDelta() || v.Outgrown():
			t.Fatalf("batch %d does not read folded, and the view it left has a delta %v (outgrown %v)", i, v.HasDelta(), v.Outgrown())
		}
	}
	if folds == 0 {
		t.Fatal("no batch outgrew its base")
	}
}

// TestIngestErrors covers the endpoint contract: wrong method gets a
// JSON 405 with Allow, garbage and empty bodies get JSON 400s, and a
// closed ingester answers 503.
func TestIngestErrors(t *testing.T) {
	_, _, ing, _, ingTS := ingestFixture(t)

	resp, err := http.Get(ingTS.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	checkJSONError(t, resp, http.StatusMethodNotAllowed)
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Errorf("Allow = %q, want POST", allow)
	}

	resp, err = http.Post(ingTS.URL+"/ingest", "application/x-ndjson", strings.NewReader("not json\n"))
	if err != nil {
		t.Fatal(err)
	}
	checkJSONError(t, resp, http.StatusBadRequest)

	resp, err = http.Post(ingTS.URL+"/ingest", "application/x-ndjson", strings.NewReader("\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	checkJSONError(t, resp, http.StatusBadRequest)

	// A page with a blank title would generate empty-node candidates;
	// it must be rejected before the update starts, and a good batch
	// afterwards must still succeed (no half-applied state).
	resp = postJSONL(t, ingTS.URL, []encyclopedia.Page{{Title: "  ", Tags: []string{"演员"}}})
	checkJSONError(t, resp, http.StatusBadRequest)
	resp = postJSONL(t, ingTS.URL, []encyclopedia.Page{{Title: "合法实体"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid batch after rejected batch: status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	ing.Close()
	resp = postJSONL(t, ingTS.URL, []encyclopedia.Page{{Title: "迟到实体"}})
	checkJSONError(t, resp, http.StatusServiceUnavailable)
}

// TestIngestSerializesConcurrentBatches hammers the endpoint from
// several goroutines while queries run — the single updater goroutine
// must serialize every batch (this is the -race coverage for the
// updater).
func TestIngestSerializesConcurrentBatches(t *testing.T) {
	res, srv, _, apiTS, ingTS := ingestFixture(t)
	concept := res.Names()[res.Kept[0].Hyper]
	baseline := srv.View().Stats().Entities

	const writers, batches = 4, 3
	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				title := "并发实体" + string(rune('甲'+wr)) + string(rune('子'+b))
				resp := postJSONL(t, ingTS.URL, []encyclopedia.Page{{Title: title, Tags: []string{concept}}})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("ingest %q status = %d", title, resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(wr)
	}
	// Readers during ingestion: the API must answer throughout.
	for rd := 0; rd < 2; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, err := http.Get(apiTS.URL + "/api/getEntity?concept=" + url.QueryEscape(concept))
				if err != nil {
					t.Errorf("query during ingest: %v", err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query during ingest status = %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	if got := srv.View().Stats().Entities; got != baseline+writers*batches {
		t.Errorf("entities = %d, want %d after %d ingested pages", got, baseline+writers*batches, writers*batches)
	}
}
