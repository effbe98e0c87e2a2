package api

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/serving"
	"cnprobase/internal/snapshot"
	"cnprobase/internal/taxonomy"
)

// postJSON posts v as JSON and decodes a 200 response into out.
func postJSON(t *testing.T, url string, v, out any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func TestConceptualizeEndpoint(t *testing.T) {
	srv, ts := testServer(t)
	var out ConceptualizeResponse
	resp := postJSON(t, ts.URL+"/api/conceptualize", ConceptualizeRequest{Text: "刘德华的新电影"}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !out.Covered || len(out.Mentions) != 1 {
		t.Fatalf("response = %+v, want covered with one mention", out)
	}
	m := out.Mentions[0]
	if m.Surface != "刘德华" || m.Candidates != 2 || m.Entity != "刘德华（演员）" {
		t.Errorf("mention = %+v, want the higher-evidence actor sense of 刘德华", m)
	}
	if len(out.Concepts) == 0 {
		t.Error("no aggregated concepts")
	}
	if got := srv.Counters(); got.Conceptualize != 1 || got.ConceptualizeBatch != 0 {
		t.Errorf("counters = %+v, want Conceptualize=1", got)
	}
	// Empty and uncovered texts are valid requests, not errors.
	for _, text := range []string{"", "今天天气怎么样？"} {
		var empty ConceptualizeResponse
		resp := postJSON(t, ts.URL+"/api/conceptualize", ConceptualizeRequest{Text: text}, &empty)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("text %q: status = %d, want 200", text, resp.StatusCode)
		}
		if empty.Covered || empty.Concepts == nil || len(empty.Concepts) != 0 {
			t.Errorf("text %q: response = %+v, want uncovered with empty concepts array", text, empty)
		}
	}
}

func TestConceptualizeBatchEndpoint(t *testing.T) {
	srv, ts := testServer(t)
	texts := []string{"刘德华的新电影", "", "无关文本"}
	var out []ConceptualizeResponse
	resp := postJSON(t, ts.URL+"/api/conceptualizeBatch", texts, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(out) != len(texts) {
		t.Fatalf("got %d results, want %d", len(out), len(texts))
	}
	// Element-wise identical to the single-shot endpoint.
	for i, text := range texts {
		var single ConceptualizeResponse
		postJSON(t, ts.URL+"/api/conceptualize", ConceptualizeRequest{Text: text}, &single)
		a, _ := json.Marshal(single)
		b, _ := json.Marshal(out[i])
		if !bytes.Equal(a, b) {
			t.Errorf("batch[%d] = %s, single = %s", i, b, a)
		}
	}
	// Each text counts as one conceptualization; the batch request is
	// counted separately (mirroring men2entBatch). The single-shot
	// probes above added 3 more.
	if got := srv.Counters(); got.Conceptualize != 6 || got.ConceptualizeBatch != 1 {
		t.Errorf("counters = %+v, want Conceptualize=6 ConceptualizeBatch=1", got)
	}
}

func TestQAEndpoint(t *testing.T) {
	srv, ts := testServer(t)
	var out QAResponse
	resp := postJSON(t, ts.URL+"/api/qa", QARequest{Question: "刘德华是谁？"}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !out.Covered || len(out.Mentions) != 1 || out.Mentions[0].Surface != "刘德华" {
		t.Fatalf("response = %+v, want covered via the 刘德华 mention", out)
	}
	if len(out.Mentions[0].Entities) != 2 {
		t.Errorf("entities = %v, want both senses", out.Mentions[0].Entities)
	}
	var dis QAResponse
	postJSON(t, ts.URL+"/api/qa", QARequest{Question: "一加一等于几？"}, &dis)
	if dis.Covered || dis.Mentions != nil {
		t.Errorf("distractor = %+v, want uncovered", dis)
	}
	if got := srv.Counters(); got.QA != 2 {
		t.Errorf("counters = %+v, want QA=2", got)
	}
}

// TestApplicationEndpointErrors pins the error contract on the three
// new endpoints: JSON 405 with Allow on wrong method, JSON 400 on
// malformed bodies, oversized batches, and oversized payloads.
func TestApplicationEndpointErrors(t *testing.T) {
	_, ts := testServer(t)
	endpoints := []string{"/api/conceptualize", "/api/conceptualizeBatch", "/api/qa"}
	for _, ep := range endpoints {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		checkJSONError(t, resp, http.StatusMethodNotAllowed)
		if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
			t.Errorf("%s: Allow = %q, want POST", ep, allow)
		}
		resp, err = http.Post(ts.URL+ep, "application/json", bytes.NewReader([]byte(`{bad json`)))
		if err != nil {
			t.Fatal(err)
		}
		checkJSONError(t, resp, http.StatusBadRequest)
		// Oversized body: rejected while reading via MaxBytesReader.
		fat := append([]byte(`{"text":"`), bytes.Repeat([]byte("长"), MaxBatchBytes)...)
		fat = append(fat, []byte(`"}`)...)
		resp, err = http.Post(ts.URL+ep, "application/json", bytes.NewReader(fat))
		if err != nil {
			t.Fatal(err)
		}
		checkJSONError(t, resp, http.StatusBadRequest)
	}
	// Type mismatch: the batch endpoint wants an array, the others an
	// object.
	resp, err := http.Post(ts.URL+"/api/conceptualizeBatch", "application/json", bytes.NewReader([]byte(`{"text":"x"}`)))
	if err != nil {
		t.Fatal(err)
	}
	checkJSONError(t, resp, http.StatusBadRequest)
	// Oversized batch count.
	huge, _ := json.Marshal(make([]string, MaxBatchTexts+1))
	resp, err = http.Post(ts.URL+"/api/conceptualizeBatch", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	checkJSONError(t, resp, http.StatusBadRequest)
}

// TestApplicationEndpointsInvalidUTF8 posts raw bodies whose JSON
// strings carry invalid UTF-8 bytes: the decoder coerces them to
// U+FFFD, so the endpoints must answer 200 with valid JSON — never a
// 500.
func TestApplicationEndpointsInvalidUTF8(t *testing.T) {
	_, ts := testServer(t)
	bodies := map[string][]byte{
		"/api/conceptualize":      append(append([]byte(`{"text":"`), 0xff, 0xfe), []byte("刘德华\xff"+`"}`)...),
		"/api/conceptualizeBatch": append(append([]byte(`["`), 0xff), []byte("刘德华"+`"]`)...),
		"/api/qa":                 append(append([]byte(`{"question":"`), 0xff, 0xfe), []byte("刘德华是谁\xff"+`"}`)...),
	}
	for ep, body := range bodies {
		resp, err := http.Post(ts.URL+ep, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s with invalid UTF-8: status = %d, body %s", ep, resp.StatusCode, raw)
			continue
		}
		if !json.Valid(raw) {
			t.Errorf("%s: response is not valid JSON: %s", ep, raw)
		}
	}
}

// applicationProbes is the request set the golden tests replay:
// ambiguous mentions, multi-mention texts, unknown text, empty text,
// raw invalid UTF-8, and batches.
func applicationProbes() []probe {
	texts := []string{
		"",
		"实体00的资料",
		"实体00和实体13有什么关系？",
		"实体07（人物）是谁？",
		"未知内容完全不在库里",
		"实体01实体01实体01",
		"有哪些著名的概念3？",
	}
	var probes []probe
	for _, text := range texts {
		b, _ := json.Marshal(ConceptualizeRequest{Text: text})
		q, _ := json.Marshal(QARequest{Question: text})
		probes = append(probes, probe{"/api/conceptualize", b}, probe{"/api/qa", q})
	}
	batch, _ := json.Marshal(texts)
	return append(probes,
		probe{"/api/conceptualizeBatch", batch},
		// Raw invalid UTF-8 inside the JSON string, sent verbatim.
		probe{"/api/conceptualize", []byte("{\"text\":\"\xff\xfe实体00\xff\"}")},
		probe{"/api/qa", []byte("{\"question\":\"\xff实体13是谁\"}")},
	)
}

// TestApplicationGolden pins the application endpoints byte for byte:
// the view-backed server answers the probes exactly as
// testdata/application.golden holds — the responses recorded when the
// string-keyed reference still answered them from the mutable store as
// well, and the two agreed.
func TestApplicationGolden(t *testing.T) {
	tax := equivFixture(t)
	ts := httptest.NewServer(NewViewServer(serving.Compile(tax)).Handler())
	defer ts.Close()
	requireGolden(t, "application", transcript(t, ts.URL, applicationProbes()))
}

// TestApplicationGoldenSnapshotRoundtrip pins the other axis: a server
// over a snapshot's mapped view answers the application endpoints with
// the same bytes.
func TestApplicationGoldenSnapshotRoundtrip(t *testing.T) {
	tax := equivFixture(t)
	var buf bytes.Buffer
	err := snapshot.Save(&buf, &snapshot.State{Taxonomy: tax}, snapshot.Options{})
	if err != nil {
		t.Fatalf("snapshot.Save: %v", err)
	}
	path := filepath.Join(t.TempDir(), "fixture.snap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := snapshot.OpenMapped(path)
	if err != nil {
		t.Fatalf("snapshot.OpenMapped: %v", err)
	}
	loadedTS := httptest.NewServer(NewViewServer(loaded).Handler())
	defer loadedTS.Close()
	requireGolden(t, "application", transcript(t, loadedTS.URL, applicationProbes()))
}

// TestConcurrentConceptualizeDuringIngest is the -race coverage for
// the application endpoints: conceptualize and qa requests hammer the
// server while ingest batches swap the hot view underneath them. Every
// request must succeed on a consistent view.
func TestConcurrentConceptualizeDuringIngest(t *testing.T) {
	res, srv, _, apiTS, ingTS := ingestFixture(t)
	concept := res.Names()[res.Kept[0].Hyper]
	entity := res.Names()[res.Kept[0].Hypo]

	const writers, batches = 3, 3
	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				title := "并发概念化" + string(rune('甲'+wr)) + string(rune('子'+b))
				resp := postJSONL(t, ingTS.URL, []encyclopedia.Page{{Title: title, Tags: []string{concept}}})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("ingest %q status = %d", title, resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(wr)
	}
	texts := []string{entity + "的资料", "有哪些著名的" + concept + "？", "完全无关的文本"}
	for rd := 0; rd < 3; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				text := texts[(rd+i)%len(texts)]
				body, _ := json.Marshal(ConceptualizeRequest{Text: text})
				resp, err := http.Post(apiTS.URL+"/api/conceptualize", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("conceptualize during ingest: %v", err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("conceptualize during ingest status = %d", resp.StatusCode)
				}
				resp.Body.Close()
				qbody, _ := json.Marshal(QARequest{Question: text})
				resp, err = http.Post(apiTS.URL+"/api/qa", "application/json", bytes.NewReader(qbody))
				if err != nil {
					t.Errorf("qa during ingest: %v", err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("qa during ingest status = %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(rd)
	}
	wg.Wait()
	// After all swaps, the entity still conceptualizes on the final view.
	var out ConceptualizeResponse
	postJSON(t, apiTS.URL+"/api/conceptualize", ConceptualizeRequest{Text: entity}, &out)
	if !out.Covered {
		t.Errorf("%q uncovered after ingest churn: %+v", entity, out)
	}
	// SwapView also composes directly with the application endpoints.
	var swapped ConceptualizeResponse
	srv.SwapView(serving.Compile(taxonomy.New()))
	postJSON(t, apiTS.URL+"/api/conceptualize", ConceptualizeRequest{Text: entity}, &swapped)
	if swapped.Covered {
		t.Errorf("empty view still conceptualizes: %+v", swapped)
	}
	var unq QAResponse
	postJSON(t, apiTS.URL+"/api/qa", QARequest{Question: entity + "是谁？"}, &unq)
	if unq.Covered {
		t.Errorf("empty view still understands: %+v", unq)
	}
}
