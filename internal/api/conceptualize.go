package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"cnprobase/internal/conceptualize"
	"cnprobase/internal/qa"
	"cnprobase/internal/taxonomy"
)

// The application endpoints: conceptualization and question
// understanding, served — like every other handler — from the
// immutable view in the atomic pointer, never the build store. A batch
// resolves every text against the one view loaded at its start, so a
// concurrent SwapView can never split a batch across taxonomy
// versions.

// ConceptualizeRequest is the body of /api/conceptualize.
type ConceptualizeRequest struct {
	Text string `json:"text"`
}

// ConceptualizeResponse is the payload of /api/conceptualize (and one
// element of the /api/conceptualizeBatch response array).
type ConceptualizeResponse struct {
	Text    string `json:"text"`
	Covered bool   `json:"covered"`
	// Mentions are the resolved entity mentions of the text.
	Mentions []conceptualize.Mention `json:"mentions,omitempty"`
	// Concepts is the text's aggregated ranked concept vector.
	Concepts []taxonomy.Scored `json:"concepts"`
}

func conceptualizeOne(e *conceptualize.Engine, text string) ConceptualizeResponse {
	res := e.Conceptualize(text)
	return ConceptualizeResponse{
		Text:     text,
		Covered:  res.Covered(),
		Mentions: res.Mentions,
		Concepts: res.Concepts,
	}
}

// decodePost enforces the shared POST contract: POST only (405 with
// Allow otherwise), body capped at MaxBatchBytes, JSON decoded into
// dst. A malformed or oversized body yields a JSON 400; the reply to
// the caller is true only when dst was filled.
func decodePost(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, r.URL.Path+" requires POST with a JSON body")
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBatchBytes)).Decode(dst); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON body: "+err.Error())
		return false
	}
	return true
}

func (s *Server) handleConceptualize(w http.ResponseWriter, r *http.Request) {
	defer s.conceptualizeLat.since(time.Now())
	s.conceptualizeCalls.Add(1)
	var req ConceptualizeRequest
	if !decodePost(w, r, &req) {
		return
	}
	v := s.View()
	writeJSON(w, conceptualizeOne(conceptualize.NewView(v), req.Text))
	runtime.KeepAlive(v)
}

func (s *Server) handleConceptualizeBatch(w http.ResponseWriter, r *http.Request) {
	defer s.conceptualizeBatchLat.since(time.Now())
	s.conceptualizeBatchCall.Add(1)
	var batch []string
	if !decodePost(w, r, &batch) {
		return
	}
	if len(batch) > MaxBatchTexts {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d texts exceeds the limit of %d", len(batch), MaxBatchTexts))
		return
	}
	s.conceptualizeCalls.Add(int64(len(batch))) // each text counts as one conceptualization
	v := s.View()                               // one consistent view for the whole batch
	e := conceptualize.NewView(v)
	out := make([]ConceptualizeResponse, len(batch))
	for i, text := range batch {
		out[i] = conceptualizeOne(e, text)
	}
	writeJSON(w, out)
	runtime.KeepAlive(v)
}

// QARequest is the body of /api/qa.
type QARequest struct {
	Question string `json:"question"`
}

// QAResponse is the payload of /api/qa: whether the taxonomy
// understands the question (the coverage predicate of the paper's QA
// experiment), plus what it resolved.
type QAResponse struct {
	Question string `json:"question"`
	Covered  bool   `json:"covered"`
	// Mentions are the entity mentions found in the question.
	Mentions []qa.EntityMention `json:"mentions,omitempty"`
	// Concepts are taxonomy concepts appearing verbatim in the question.
	Concepts []string `json:"concepts,omitempty"`
}

func (s *Server) handleQA(w http.ResponseWriter, r *http.Request) {
	defer s.qaLat.since(time.Now())
	s.qaCalls.Add(1)
	var req QARequest
	if !decodePost(w, r, &req) {
		return
	}
	v := s.View()
	u := qa.Understand(req.Question, v)
	writeJSON(w, QAResponse{
		Question: req.Question,
		Covered:  u.Covered,
		Mentions: u.Mentions,
		Concepts: u.Concepts,
	})
	runtime.KeepAlive(v)
}
