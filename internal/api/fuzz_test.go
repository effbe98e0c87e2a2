package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"cnprobase/internal/conceptualize"
	"cnprobase/internal/qa"
	"cnprobase/internal/serving/servingtest"
)

// FuzzApplicationEngines throws arbitrary text bytes at the application
// engines and their endpoints over a small fixed world served, as in
// production, from image bytes (sorted tables behind the first-rune
// filter, no hash, no trie). The engines must answer exactly like the
// string-keyed reference over the compiled view, on the raw bytes; the
// handlers must answer 200 with the reference's JSON for the text the
// JSON decoder hands them (invalid bytes coerced to U+FFFD), and never
// panic.
func FuzzApplicationEngines(f *testing.F) {
	tax := equivFixture(f)
	tax.MarkEntity("无概念实体")
	tax.AddMention("无概念", "无概念实体")
	tax.AddMention("孤词", "不是节点的实体")
	tax.AddMention("𠀀实体", "实体03（人物）") // starts beyond the BMP
	tax.AddMention("�实体", "实体05（人物）") // starts with a literal U+FFFD
	tax.AddMention("实体0", "实体11（人物）") // a prefix of other surfaces
	backings := servingtest.Backings(f, tax)
	ref := reference{view: backings["compiled"]}
	v := backings["image"]
	engine := conceptualize.NewView(v)
	handler := NewViewServer(v).Handler()

	for _, seed := range []string{
		"", "实体00和实体13有什么关系？", "实体07（人物）是谁？", "有哪些著名的概念3？",
		"孤词无概念实体01实体0", "𠀀实体与�实体", "\xff实体05\xfe", "\xe5\xae实体", "顶层概念概念1概念",
	} {
		f.Add([]byte(seed))
	}
	post := func(t *testing.T, path string, req, want any) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		wantBody, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.TrimSpace(rec.Body.Bytes()); rec.Code != http.StatusOK || !bytes.Equal(got, wantBody) {
			t.Fatalf("POST %s %s = %d %s\nreference: %s", path, body, rec.Code, got, wantBody)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		text := string(raw)
		want := ref.conceptualize(text)
		res := engine.Conceptualize(text)
		if got := (ConceptualizeResponse{Text: text, Covered: res.Covered(), Mentions: res.Mentions, Concepts: res.Concepts}); !reflect.DeepEqual(got, want) {
			t.Fatalf("Conceptualize(%q):\n  engine    = %+v\n  reference = %+v", text, got, want)
		}
		wantQA := ref.understand(text)
		u := qa.Understand(text, v)
		if got := (QAResponse{Question: text, Covered: u.Covered, Mentions: u.Mentions, Concepts: u.Concepts}); !reflect.DeepEqual(got, wantQA) {
			t.Fatalf("Understand(%q):\n  engine    = %+v\n  reference = %+v", text, got, wantQA)
		}

		// What the endpoints see: the text after one trip through JSON.
		var wire string
		b, _ := json.Marshal(text)
		if err := json.Unmarshal(b, &wire); err != nil {
			t.Fatal(err)
		}
		post(t, "/api/conceptualize", ConceptualizeRequest{Text: text}, ref.conceptualize(wire))
		post(t, "/api/conceptualizeBatch", []string{text, "实体00"}, []ConceptualizeResponse{ref.conceptualize(wire), ref.conceptualize("实体00")})
		post(t, "/api/qa", QARequest{Question: text}, ref.understand(wire))
	})
}
