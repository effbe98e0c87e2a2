package api

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"cnprobase/internal/conceptualize"
	"cnprobase/internal/qa"
	"cnprobase/internal/serving"
	"cnprobase/internal/serving/servingtest"
	"cnprobase/internal/taxonomy"
)

// marshalLine is what Encoder.Encode writes for v: false when it
// refuses v.
func marshalLine(v any) ([]byte, bool) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, false
	}
	return append(b, '\n'), true
}

// requireEncoded holds one encoder's output to encoding/json's.
func requireEncoded(t *testing.T, name string, got []byte, ok bool, v any) {
	t.Helper()
	want, wantOK := marshalLine(v)
	if ok != wantOK || (ok && !bytes.Equal(append(got, '\n'), want)) {
		t.Fatalf("%s(%+v):\n got  %v %q\n want %v %q", name, v, ok, got, wantOK, want)
	}
}

// FuzzResponseEncoding holds every response encoder to encoding/json
// byte for byte, over arbitrary strings (invalid UTF-8, control bytes,
// <>&, U+2028/9), arbitrary floats (NaN and ±Inf must be refused), and
// nil, empty and filled slices.
func FuzzResponseEncoding(f *testing.F) {
	for _, seed := range []struct {
		a, b string
		x, y float64
	}{
		{"刘德华", "演员", 0.667, 0.333},
		{"<a&b>", "  \x00\x1f\x7f", 1e-7, 1e21},
		{"\xff\xfe实体", "\"\\\b\f\n\r\t", math.Copysign(0, -1), 5e-324},
		{"", "e", 1e-6, 123456789.125},
		{"x", "y", math.NaN(), math.Inf(-1)},
	} {
		f.Add(seed.a, seed.b, seed.x, seed.y, uint8(0xff))
	}
	tax := equivFixture(f)
	v := serving.Compile(tax)
	f.Fuzz(func(t *testing.T, a, b string, x, y float64, shape uint8) {
		lists := [][]string{nil, {}, {a}, {a, b}}
		scoreds := [][]taxonomy.Scored{nil, {}, {{Node: a, Score: x}}, {{Node: b, Score: y}, {Node: a, Score: x}}}
		strs, other := lists[shape&3], lists[shape>>2&3]
		scored := scoreds[shape>>4&3]

		requireEncoded(t, "appendStrings", appendStrings(nil, strs), true, strs)
		// appendMen2Ent, appendConcept and appendEntity read their
		// answers from the view: for a, almost always unknown, and for a
		// node picked by shape, which is a mention too.
		for _, node := range []string{a, v.Name(uint32(int(shape) % v.NodeCount()))} {
			requireEncoded(t, "appendMen2Ent", appendMen2Ent(nil, v, node, mentionEntities(v, node)), true,
				Men2EntResponse{Mention: node, Entities: v.Lookup(node)})
			ranked := shape&1 != 0
			want := ConceptResponse{Entity: node, Hypernyms: v.Hypernyms(node)}
			if ranked {
				want.Ranked = servingtest.RankedHypernyms(v, node, 0)
			}
			id, hypernyms := hypernymIDs(v, node)
			requireEncoded(t, "appendConcept", appendConcept(nil, v, node, id, hypernyms, ranked), true, want)
			limit := int(shape >> 6)
			requireEncoded(t, "appendEntity", appendEntity(nil, v, node, hyponymIDs(v, node, limit)), true,
				EntityResponse{Concept: node, Hyponyms: v.Hyponyms(node, limit)})
		}

		var mentions []conceptualize.Mention
		if shape&0x40 != 0 {
			mentions = []conceptualize.Mention{{Surface: a, Entity: b, Candidates: int(shape), Concepts: scored}, {Surface: b, Concepts: scoreds[shape&3]}}
		}
		res := conceptualize.Result{Mentions: mentions, Concepts: scoreds[shape>>2&3]}
		got, ok := appendConceptualize(nil, b, &res)
		requireEncoded(t, "appendConceptualize", got, ok,
			ConceptualizeResponse{Text: b, Covered: res.Covered(), Mentions: res.Mentions, Concepts: res.Concepts})

		u := qa.Understanding{Covered: shape&0x80 != 0, Concepts: other}
		if shape&0x40 != 0 {
			u.Mentions = []qa.EntityMention{{Surface: b, Entities: strs, Concepts: other}, {Surface: a}}
		}
		requireEncoded(t, "appendQA", appendQA(nil, a, &u), true,
			QAResponse{Question: a, Covered: u.Covered, Mentions: u.Mentions, Concepts: u.Concepts})
	})
}

// TestNamesByIDMatchStrings holds what the lookup handlers encode off
// the view by ID — hypernymIDs and hyponymIDs through appendNames — to
// the view's string answers through appendStrings, on every backing:
// an unknown node and a node with no edges are null, and a hyponym list
// is cut at every limit from none to past its end.
func TestNamesByIDMatchStrings(t *testing.T) {
	tax := equivFixture(t)
	tax.MarkConcept("孤岛概念") // no edges at all
	for backing, v := range servingtest.Backings(t, tax) {
		for _, n := range append([]string{"不存在的节点", "孤岛概念"}, v.Nodes()...) {
			_, hypernyms := hypernymIDs(v, n)
			if got, want := appendNames(nil, v, hypernyms), appendStrings(nil, v.Hypernyms(n)); !bytes.Equal(got, want) {
				t.Fatalf("%s: hypernyms of %s encode as %s, want %s", backing, n, got, want)
			}
			for limit := 0; limit <= len(v.Hyponyms(n, 0))+1; limit++ {
				if got, want := appendNames(nil, v, hyponymIDs(v, n, limit)), appendStrings(nil, v.Hyponyms(n, limit)); !bytes.Equal(got, want) {
					t.Fatalf("%s: hyponyms of %s, limit %d, encode as %s, want %s", backing, n, limit, got, want)
				}
			}
		}
		for _, n := range []string{"不存在的节点", "孤岛概念"} {
			_, hypernyms := hypernymIDs(v, n)
			if hypers, hypos := appendNames(nil, v, hypernyms), appendNames(nil, v, hyponymIDs(v, n, 0)); string(hypers) != "null" || string(hypos) != "null" {
				t.Fatalf("%s: %s encodes hypernyms %s and hyponyms %s, want null and null", backing, n, hypers, hypos)
			}
		}
	}
}

// FuzzRequestDecoding holds the request side to what it replaced. The
// scanners may accept only bodies encoding/json decodes to the same
// value; every POST endpoint, scanner or fallback, answers a body
// exactly as decoding it with encoding/json and marshalling the answer
// would; and queryValue is url.ParseQuery(raw).Get.
func FuzzRequestDecoding(f *testing.F) {
	tax := equivFixture(f)
	v := serving.Compile(tax)
	handler := NewViewServer(v).Handler()
	engine := conceptualize.NewView(v)
	for _, seed := range []struct{ body, query string }{
		{`["实体00","未知提及"]`, "mention=%E5%AE%9E%E4%BD%9300&x=1"},
		{" [ ]\n", "a=1;b=2&mention=x"},
		{`{"text":"实体00和实体13"}`, "mention=%zz&mention=b"},
		{`{"question":"实体07（人物）是谁？"}`, "mention=a+b%2B&mention=c"},
		{`{"text":"a\"b"}`, "=&&mention&mention=2"},
		{`{"TEXT":"x"}`, "ranked=1&entity=%E5"},
		{`{"text":"x","text":"y"}`, "limit=3&concept=a%3Bb"},
		{`["a",]`, "%6Dention=k"},
		{"null", ";mention=1"},
		{"[\"\xff\"]", "mention"},
		{`{"text":"a"} trailing`, "mention=&mention=2"},
		{"", ""},
	} {
		f.Add([]byte(seed.body), seed.query)
	}
	f.Fuzz(func(t *testing.T, body []byte, raw string) {
		if got, ok := scanStrings(nil, string(body)); ok {
			var want []string
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&want); err != nil || !slices.Equal(got, want) {
				t.Fatalf("scanStrings(%q) = %q; encoding/json: %q, %v", body, got, want, err)
			}
		}
		if got, ok := scanField(string(body), "text"); ok {
			var want ConceptualizeRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&want); err != nil || got != want.Text {
				t.Fatalf("scanField(%q, text) = %q; encoding/json: %q, %v", body, got, want.Text, err)
			}
		}
		if got, ok := scanField(string(body), "question"); ok {
			var want QARequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&want); err != nil || got != want.Question {
				t.Fatalf("scanField(%q, question) = %q; encoding/json: %q, %v", body, got, want.Question, err)
			}
		}

		post := func(path string, dst any, answer func() any) {
			t.Helper()
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			code, want := http.StatusOK, []byte(nil)
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(dst); err != nil {
				code, want = http.StatusBadRequest, mustMarshalLine(t, ErrorResponse{Error: "bad JSON body: " + err.Error()})
			} else if a := answer(); a == nil {
				return // a batch over its limit
			} else {
				want, _ = marshalLine(a)
			}
			if rec.Code != code || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("POST %s %q = %d %q\nwant %d %q", path, body, rec.Code, rec.Body, code, want)
			}
		}
		conceptualized := func(text string) ConceptualizeResponse {
			res := engine.Conceptualize(text)
			return ConceptualizeResponse{Text: text, Covered: res.Covered(), Mentions: res.Mentions, Concepts: res.Concepts}
		}
		var batch []string
		post("/api/men2entBatch", &batch, func() any {
			if len(batch) > MaxBatchMentions {
				return nil
			}
			out := make([]Men2EntResponse, len(batch))
			for i, m := range batch {
				out[i] = Men2EntResponse{Mention: m, Entities: v.Lookup(m)}
			}
			return out
		})
		var texts []string
		post("/api/conceptualizeBatch", &texts, func() any {
			if len(texts) > MaxBatchTexts {
				return nil
			}
			out := make([]ConceptualizeResponse, len(texts))
			for i, text := range texts {
				out[i] = conceptualized(text)
			}
			return out
		})
		var creq ConceptualizeRequest
		post("/api/conceptualize", &creq, func() any { return conceptualized(creq.Text) })
		var qreq QARequest
		post("/api/qa", &qreq, func() any {
			u := qa.Understand(qreq.Question, v)
			return QAResponse{Question: qreq.Question, Covered: u.Covered, Mentions: u.Mentions, Concepts: u.Concepts}
		})

		values, _ := url.ParseQuery(raw)
		for _, key := range []string{"mention", "entity", "ranked", "limit", "", string(body)} {
			if got, want := queryValue(raw, key), values.Get(key); got != want {
				t.Fatalf("queryValue(%q, %q) = %q, url.ParseQuery: %q", raw, key, got, want)
			}
		}
	})
}

func mustMarshalLine(t *testing.T, v any) []byte {
	t.Helper()
	b, ok := marshalLine(v)
	if !ok {
		t.Fatalf("cannot marshal %+v", v)
	}
	return b
}

// discardWriter is a ResponseWriter that allocates nothing per
// response: it keeps the header map and counts the body.
type discardWriter struct {
	header http.Header
	code   int
	n      int
}

func (d *discardWriter) Header() http.Header { return d.header }
func (d *discardWriter) WriteHeader(code int) {
	if d.code == 0 {
		d.code = code
	}
}
func (d *discardWriter) Write(p []byte) (int, error) {
	d.WriteHeader(http.StatusOK)
	d.n += len(p)
	return len(p), nil
}

// TestHandlerAllocations pins the heap allocations of each bare query
// handler (no resilience stack) per request. What is left: an escaped
// query value's unescaping; a POST body's http.MaxBytesReader and its
// one string; the conceptualize.Result a request fills (itself and its
// two arrays, once per batch); and qa.Understand's answer.
func TestHandlerAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	tax := equivFixture(t)
	s := NewViewServerConfig(serving.Compile(tax), ResilienceConfig{})
	esc := url.QueryEscape
	for _, c := range []struct {
		path, query, body string
		max               float64
	}{
		{"/api/men2ent", "mention=" + esc("实体00"), "", 1},
		{"/api/getConcept", "entity=" + esc("实体03（人物）"), "", 1},
		{"/api/getConcept", "ranked=1&entity=" + esc("实体03（人物）"), "", 1},
		{"/api/getEntity", "limit=3&concept=" + esc("概念3"), "", 1},
		{"/api/men2entBatch", "", `["实体00","实体13","未知提及"]`, 2},
		{"/api/conceptualize", "", `{"text":"实体00和实体13有什么关系？"}`, 5},
		{"/api/conceptualizeBatch", "", `["实体00的资料","实体01实体01","未知内容"]`, 5},
		{"/api/qa", "", `{"question":"实体07（人物）是谁？"}`, 4},
	} {
		h := s.routes()[c.path]
		body := bytes.NewReader(nil)
		req := httptest.NewRequest(http.MethodGet, c.path+"?"+c.query, nil)
		if c.body != "" {
			req = httptest.NewRequest(http.MethodPost, c.path, body)
			req.ContentLength = int64(len(c.body))
		}
		w := &discardWriter{header: make(http.Header)}
		allocs := testing.AllocsPerRun(100, func() {
			body.Reset([]byte(c.body))
			w.code, w.n = 0, 0
			h(w, req)
		})
		if w.code != http.StatusOK || w.n == 0 {
			t.Fatalf("%s %s: status %d, %d bytes", c.path, c.query, w.code, w.n)
		}
		if allocs > c.max {
			t.Errorf("%s %s: %.1f allocs/op, want <= %.0f", c.path, c.query, allocs, c.max)
		}
	}
}

// TestBodyBufferFollowsBytesRead holds the POST body buffer to the bytes
// that arrive, not to the Content-Length a client declares: a request
// that promises just under MaxBatchBytes and sends a few bytes must not
// cost a MaxBatchBytes allocation.
func TestBodyBufferFollowsBytesRead(t *testing.T) {
	tax := equivFixture(t)
	h := NewViewServerConfig(serving.Compile(tax), ResilienceConfig{}).routes()["/api/men2entBatch"]
	body := bytes.NewReader(nil)
	req := httptest.NewRequest(http.MethodPost, "/api/men2entBatch", body)
	req.ContentLength = MaxBatchBytes - 1
	w := &discardWriter{header: make(http.Header)}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		body.Reset([]byte(`["实体00"]`))
		w.code, w.n = 0, 0
		h(w, req)
	}
	runtime.ReadMemStats(&after)
	if w.code != http.StatusOK || w.n == 0 {
		t.Fatalf("status %d, %d bytes", w.code, w.n)
	}
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > 64<<10 {
		t.Errorf("a %d-byte body declared as %d bytes allocates %d bytes/op", body.Size(), req.ContentLength, perOp)
	}
}

// TestResponsesCarryContentLength holds the guarded query plane, over a
// real listener, to Content-Length framing: a response over net/http's
// 2 KiB chunking buffer too goes out with its length, not chunked.
func TestResponsesCarryContentLength(t *testing.T) {
	tax := equivFixture(t)
	ts := httptest.NewServer(NewViewServer(serving.Compile(tax)).Handler())
	defer ts.Close()
	texts := make([]string, 40)
	for i := range texts {
		texts[i] = "实体" + strconv.Itoa(10+i%30) + "和实体00有什么关系？"
	}
	batch, _ := json.Marshal(texts)
	for _, p := range []probe{
		{path: "/api/men2ent?mention=" + url.QueryEscape("实体00")},
		{path: "/api/conceptualizeBatch", body: batch},
	} {
		var resp *http.Response
		var err error
		if p.body == nil {
			resp, err = http.Get(ts.URL + p.path)
		} else {
			resp, err = http.Post(ts.URL+p.path, "application/json", bytes.NewReader(p.body))
		}
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(raw)) {
			t.Errorf("%s: status %d, Transfer-Encoding %q, Content-Length %d, body %d bytes",
				p.path, resp.StatusCode, resp.TransferEncoding, resp.ContentLength, len(raw))
		}
		if p.body != nil && len(raw) <= 2<<10 {
			t.Errorf("%s: a %d-byte body does not exercise the chunking threshold", p.path, len(raw))
		}
	}
}
