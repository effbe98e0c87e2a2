package api

import (
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

func (s *Server) handleConceptualize(w http.ResponseWriter, r *http.Request) {
	defer s.conceptualizeLat.since(time.Now())
	s.conceptualizeCalls.Add(1)
	sc := getScratch()
	text, ok := postField[ConceptualizeRequest](sc, w, r)
	if !ok {
		return
	}
	v := s.View()
	var res conceptualize.Result
	conceptualize.NewView(v).ConceptualizeInto(&res, text)
	jsonHeader(w)
	sc.out, ok = appendConceptualize(sc.out, text, &res)
	sc.respond(w, ok)
	runtime.KeepAlive(v)
}

// handleConceptualizeBatch encodes each text's answer as soon as the
// engine has filled the one Result the batch recycles.
func (s *Server) handleConceptualizeBatch(w http.ResponseWriter, r *http.Request) {
	defer s.conceptualizeBatchLat.since(time.Now())
	s.conceptualizeBatchCall.Add(1)
	sc := getScratch()
	batch, ok := sc.postStrings(w, r)
	if !ok {
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
	jsonHeader(w)
	var res conceptualize.Result
	sc.out = append(sc.out, '[')
	for i, text := range batch {
		if i > 0 {
			sc.out = append(sc.out, ',')
		}
		e.ConceptualizeInto(&res, text)
		if sc.out, ok = appendConceptualize(sc.out, text, &res); !ok {
			break
		}
	}
	sc.out = append(sc.out, ']')
	sc.respond(w, ok)
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
	sc := getScratch()
	question, ok := postField[QARequest](sc, w, r)
	if !ok {
		return
	}
	v := s.View()
	u := qa.Understand(question, v)
	jsonHeader(w)
	sc.out = appendQA(sc.out, question, &u)
	sc.respond(w, true)
	runtime.KeepAlive(v)
}
