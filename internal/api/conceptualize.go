package api

import (
	"fmt"
	"net/http"

	"cnprobase/internal/conceptualize"
	"cnprobase/internal/qa"
	"cnprobase/internal/serving"
	"cnprobase/internal/taxonomy"
)

// The application endpoints: conceptualization and question
// understanding, served — like every other handler — from the view
// serve hands them, never the taxonomy's write model. A batch resolves every text
// against that one view, so a concurrent SwapView can never split a
// batch across taxonomy versions.

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

func handleConceptualize(v *serving.View, sc *scratch, _ *http.Request) (int, error) {
	text, err := postField[ConceptualizeRequest](sc)
	if err != nil {
		return 0, err
	}
	var res conceptualize.Result
	conceptualize.NewView(v).ConceptualizeInto(&res, text)
	var ok bool
	if sc.out, ok = appendConceptualize(sc.out, text, &res); !ok {
		return 0, errUnencodable
	}
	return 0, nil
}

// handleConceptualizeBatch encodes each text's answer as soon as the
// engine has filled the one Result the batch recycles.
func handleConceptualizeBatch(v *serving.View, sc *scratch, _ *http.Request) (int, error) {
	batch, err := sc.postStrings()
	if err != nil {
		return 0, err
	}
	if len(batch) > MaxBatchTexts {
		return 0, badRequest(fmt.Sprintf("batch of %d texts exceeds the limit of %d", len(batch), MaxBatchTexts))
	}
	e := conceptualize.NewView(v)
	var res conceptualize.Result
	sc.out = append(sc.out, '[')
	for i, text := range batch {
		if i > 0 {
			sc.out = append(sc.out, ',')
		}
		e.ConceptualizeInto(&res, text)
		var ok bool
		if sc.out, ok = appendConceptualize(sc.out, text, &res); !ok {
			return len(batch), errUnencodable
		}
	}
	sc.out = append(sc.out, ']')
	return len(batch), nil
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

func handleQA(v *serving.View, sc *scratch, _ *http.Request) (int, error) {
	question, err := postField[QARequest](sc)
	if err != nil {
		return 0, err
	}
	u := qa.Understand(question, v)
	sc.out = appendQA(sc.out, question, &u)
	return 0, nil
}
