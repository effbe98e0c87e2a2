// Package qa reproduces the paper's text-understanding experiment: the
// coverage of the taxonomy over a question-answering dataset
// (NLPCC-2016 QA, 23,472 questions, in the paper). A question is
// covered when it contains at least one taxonomy entity or concept; the
// paper additionally reports the average number of concepts per covered
// entity (2.14).
//
// The dataset substitute is a template question generator over the
// synthetic world, mixed with out-of-taxonomy distractor questions
// (chitchat, arithmetic, unknown entities) at a calibrated rate.
//
// Evaluation and the /api/qa endpoint read one model, the immutable
// serving.View, through its ID-native surface: mentions come back from
// the text scan with their table rows, whose candidate entities are
// node IDs, a mention's concept union is built from its candidates'
// ascending hypernym-ID segments, and the
// 2–6-rune concept windows of a start position are one prefix narrowing
// over the sorted name table. A taxonomy is evaluated by compiling it
// first (serving.Compile); the string-keyed algorithm this replaced
// is the oracle in reference_test.go.
package qa

import (
	"fmt"
	"math/rand"
	"slices"
	"unicode/utf8"

	"cnprobase/internal/serving"
	"cnprobase/internal/synth"
	"cnprobase/internal/taxonomy"
)

// Question is one generated QA item.
type Question struct {
	Text string
	// AboutEntity is the entity the question targets ("" for
	// distractors).
	AboutEntity string
}

// GeneratorConfig tunes the dataset.
type GeneratorConfig struct {
	// N is the number of questions (paper: 23,472).
	N int
	// DistractorRate is the fraction of questions with no taxonomy
	// mention (NLPCC has chitchat/math/out-of-KB questions; coverage
	// was 91.68%, so ≈8% of questions are uncoverable).
	DistractorRate float64
	Seed           int64
}

// DefaultGeneratorConfig mirrors the paper's dataset size.
func DefaultGeneratorConfig() GeneratorConfig {
	return GeneratorConfig{N: 23472, DistractorRate: 0.08, Seed: 5}
}

var entityTemplates = []string{
	"%s的出生地是哪里？",
	"%s是谁？",
	"%s的代表作品有哪些？",
	"%s毕业于哪所大学？",
	"%s是哪一年成立的？",
	"请介绍一下%s。",
	"%s位于哪个地区？",
	"%s的主要成就是什么？",
}

var conceptTemplates = []string{
	"有哪些著名的%s？",
	"中国最有名的%s是谁？",
	"%s一般需要什么条件？",
	"如何成为一名%s？",
}

var distractors = []string{
	"今天天气怎么样？",
	"一加一等于几？",
	"现在几点了？",
	"你叫什么名字？",
	"怎么坐地铁去机场？",
	"明天会下雨吗？",
	"帮我定一个闹钟。",
	"讲个笑话吧。",
}

// Generate produces the question set from the world.
func Generate(w *synth.World, cfg GeneratorConfig) []Question {
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]Question, 0, cfg.N)
	concepts := w.ConceptOrder
	for len(out) < cfg.N {
		r := rng.Float64()
		switch {
		case r < cfg.DistractorRate:
			out = append(out, Question{Text: distractors[rng.Intn(len(distractors))]})
		case r < cfg.DistractorRate+0.15:
			c := concepts[rng.Intn(len(concepts))]
			out = append(out, Question{Text: fmt.Sprintf(conceptTemplates[rng.Intn(len(conceptTemplates))], c)})
		default:
			e := w.Entities[rng.Intn(len(w.Entities))]
			out = append(out, Question{
				Text:        fmt.Sprintf(entityTemplates[rng.Intn(len(entityTemplates))], e.Title),
				AboutEntity: e.ID,
			})
		}
	}
	return out
}

// CoverageResult reports the experiment's metrics.
type CoverageResult struct {
	Questions int
	Covered   int
	// AvgConceptsPerEntity is the mean number of direct concepts of the
	// entities mentioned in covered questions (paper: 2.14).
	AvgConceptsPerEntity float64
}

// Coverage returns the fraction of covered questions.
func (r CoverageResult) Coverage() float64 {
	if r.Questions == 0 {
		return 0
	}
	return float64(r.Covered) / float64(r.Questions)
}

// EvaluateSource measures taxonomy coverage over the question set on a
// serving view: a question counts as covered when the mention scan
// finds an entity mention with concepts or the text contains a taxonomy
// concept.
func EvaluateSource(questions []Question, v *serving.View) CoverageResult {
	res := CoverageResult{Questions: len(questions)}
	conceptHits := 0
	conceptSum := 0
	var buf [8]serving.Found
	found := buf[:0]
	for _, q := range questions {
		found = v.FindMentionsAppend(found[:0], q.Text)
		n := firstConceptCount(v, found)
		if n > 0 {
			conceptHits++
			conceptSum += n
		}
		// Concept mention: any taxonomy concept inside the text.
		if n > 0 || containsConcept(q.Text, v) {
			res.Covered++
		}
	}
	if conceptHits > 0 {
		res.AvgConceptsPerEntity = float64(conceptSum) / float64(conceptHits)
	}
	return res
}

// firstConceptCount returns the number of direct concepts of the first
// candidate entity, in mention order, that has any — 0 when no mention
// resolves to an entity with concepts.
//
//cnp:noalloc
func firstConceptCount(v *serving.View, found []serving.Found) int {
	for i := range found {
		for _, id := range v.MentionEntities(found[i].Row) {
			if n := len(v.HypernymIDsOf(id)); n > 0 {
				return n
			}
		}
	}
	return 0
}

// EntityMention is one resolved surface inside an understood question.
type EntityMention struct {
	Surface string `json:"surface"`
	// Entities are the candidate entity IDs of the surface, sorted.
	Entities []string `json:"entities"`
	// Concepts is the sorted union of the candidates' direct concepts.
	Concepts []string `json:"concepts"`
}

// Understanding is the per-question serving answer of the /api/qa
// endpoint: whether the taxonomy understands the question, which
// entity mentions it resolved, and which bare concepts it spotted.
type Understanding struct {
	// Covered matches EvaluateSource's predicate exactly: at least one
	// mention resolves to an entity with concepts, or the text contains
	// a taxonomy concept.
	Covered bool `json:"covered"`
	// Mentions are the entity mentions found in the question.
	Mentions []EntityMention `json:"mentions,omitempty"`
	// Concepts are distinct taxonomy concepts appearing verbatim in the
	// question, in first-occurrence order.
	Concepts []string `json:"concepts,omitempty"`
}

// Understand analyzes one question on a serving view. Its Covered field
// agrees with EvaluateSource question by question — the endpoint and
// the batch experiment cannot drift apart. The scan and the concept
// union run in stack buffers an ordinary question fits, so only the
// returned slices are allocated: the mention list, and per mention one
// array behind its Entities and Concepts.
func Understand(text string, v *serving.View) Understanding {
	var u Understanding
	var foundBuf [8]serving.Found
	var idBuf [64]uint32
	for _, f := range v.FindMentionsAppend(foundBuf[:0], text) {
		ents := v.MentionEntities(f.Row)
		// Each candidate's hypernym IDs are in name order, so the sorted
		// union of the candidates' concepts is their segments merged in
		// the view's ID order.
		ids := idBuf[:0]
		for _, id := range ents {
			ids = append(ids, v.HypernymIDsOf(id)...)
		}
		v.SortIDs(ids)
		ids = slices.Compact(ids)
		if len(ids) > 0 {
			u.Covered = true
		}
		// One array holds the mention's entity names, then its concepts'.
		names := make([]string, 0, len(ents)+len(ids))
		for _, id := range ents {
			names = append(names, v.Name(id))
		}
		for _, id := range ids {
			names = append(names, v.Name(id))
		}
		u.Mentions = append(u.Mentions, EntityMention{
			Surface:  f.Surface,
			Entities: names[:len(ents):len(ents)],
			Concepts: names[len(ents):],
		})
	}
	u.Concepts = conceptWindows(text, v)
	if len(u.Concepts) > 0 {
		u.Covered = true
	}
	return u
}

// validText returns text with every invalid byte re-encoded as U+FFFD —
// the text the rune windows of the reference see. Valid text, the
// common case, is returned as is.
func validText(text string) string {
	if utf8.ValidString(text) {
		return text
	}
	return string([]rune(text))
}

// minConceptWindow and maxConceptWindow bound, in runes, the windows
// scanned for bare concepts.
const minConceptWindow, maxConceptWindow = 2, 6

// containsConcept reports whether any window of the question is a
// concept node of the taxonomy.
func containsConcept(text string, v *serving.View) bool {
	text = validText(text)
	var buf [maxConceptWindow]uint32
	for i := range text {
		for _, id := range v.NamePrefixesAppend(buf[:0], text[i:], minConceptWindow, maxConceptWindow) {
			if v.KindOf(id) == taxonomy.KindConcept {
				return true
			}
		}
	}
	return false
}

// conceptWindows returns the distinct concept nodes appearing verbatim
// in text (the windows containsConcept scans), in first-occurrence
// order.
func conceptWindows(text string, v *serving.View) []string {
	text = validText(text)
	var out []string
	var buf [maxConceptWindow]uint32
	for i := range text {
		for _, id := range v.NamePrefixesAppend(buf[:0], text[i:], minConceptWindow, maxConceptWindow) {
			if w := v.Name(id); v.KindOf(id) == taxonomy.KindConcept && !slices.Contains(out, w) {
				out = append(out, w)
			}
		}
	}
	return out
}
