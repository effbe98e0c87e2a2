// Package api serves the taxonomy over HTTP with the paper's three
// public APIs (Table II), mounted under /api:
//
//	/api/men2ent      — mention → disambiguated entities
//	/api/getConcept   — entity → hypernym list (?ranked=1 adds typicality scores)
//	/api/getEntity    — concept → hyponym list (?limit=N caps it)
//	/api/men2entBatch — POST a JSON array of mentions, resolve them all at once
//
// and the application layer the paper motivates on top of them:
//
//	/api/conceptualize      — POST a text, get its ranked concept vector
//	/api/conceptualizeBatch — POST a JSON array of texts, conceptualize all at once
//	/api/qa                 — POST a question, get its taxonomy understanding
//
// plus /api/stats exposing per-API call counters and latency
// summaries, which the Table II workload experiment reads back, and
// the orchestration probes /healthz (liveness) and /readyz
// (readiness).
//
// The seven query routes are one table (newEndpoints). A row declares
// its stats name, whether it is a POST (which also sets its deadline
// class), the endpoint its batch items count toward, and a handler: a
// plain function of the view, the request's pooled scratch and the
// request. One wrapper, serve, does the rest for every row: it counts
// and times the request, 400s included; reads a POST body; loads the
// served view once and hands it to the handler; writes the answer; and
// keeps that view reachable until the response is written. A handler
// has no Server to load another view from, so no handler can forget the
// pin. The counters and latency histograms behind /api/stats, the
// per-route shed counts and the mux are loops over the same table.
//
// Handlers never touch the taxonomy's write model: every request is
// served from an immutable serving.View held in an atomic pointer —
// zero locks, near-zero allocation per query — and SwapView atomically
// replaces the whole view to pick up new data (cnpserver wires this to
// SIGHUP for hot snapshot reload). Answers are encoded, and the
// canonical request forms decoded, without reflection but byte for byte
// as encoding/json would (encode.go, decode.go). Errors are JSON bodies
// ({"error": "..."}) with the right Content-Type. Handlers are safe
// for concurrent use; request/response schemas are documented in
// docs/API.md.
//
// Every query endpoint runs behind the resilience stack (see
// internal/resilience), on one path: the handler runs on its serving
// goroutine after admission control, which sheds excess load with 429
// + Retry-After instead of queueing without bound, and under panic
// isolation, which turns a handler panic into a JSON 500 on that one
// request. The per-request deadline bounds only the injected chaos
// delay (JSON 503 when the delay reaches it): a handler that has
// started is never preempted, and none needs to be — each is a bounded
// view read on a capped body. /api/stats and the health probes bypass
// admission so observability survives overload. ResilienceConfig
// tunes all of it.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"cnprobase/internal/resilience"
	"cnprobase/internal/serving"
	"cnprobase/internal/taxonomy"
)

// MaxBatchMentions caps the number of mentions one /api/men2entBatch
// request may carry; MaxBatchTexts caps the texts per
// /api/conceptualizeBatch request (texts are heavier than mentions);
// MaxBatchBytes caps every POST body itself, so an oversized payload
// is rejected while reading rather than after being fully decoded
// into memory.
const (
	MaxBatchMentions = 10000
	MaxBatchTexts    = 1000
	MaxBatchBytes    = 4 << 20
)

// ResilienceConfig tunes the overload-safety stack wrapped around the
// query endpoints. The zero value disables every layer (panic
// isolation stays on — it has no knob); DefaultResilience returns the
// production defaults NewViewServer applies.
type ResilienceConfig struct {
	// MaxInFlight caps concurrently executing query-plane requests;
	// beyond it (after AdmitWait) requests are shed with 429 +
	// Retry-After. <= 0 disables admission control.
	MaxInFlight int
	// AdmitWait is how long an arriving request may wait for an
	// admission slot before being shed — long enough to ride out a
	// micro-burst, far too short to build a queue.
	AdmitWait time.Duration
	// LookupTimeout is the per-request deadline for the cheap GET
	// lookups (men2ent, getConcept, getEntity); BatchTimeout covers
	// the heavier POST endpoints (men2entBatch, conceptualize,
	// conceptualizeBatch, qa). The deadline bounds only HandlerDelay:
	// a delay that reaches it is cut there and answered with a JSON
	// 503, while a handler that has started always runs to completion.
	// 0 disables the deadline for that class.
	LookupTimeout time.Duration
	BatchTimeout  time.Duration
	// HandlerDelay is a chaos knob: an artificial sleep injected inside
	// the admission slot, before the handler, on every query-plane
	// request. Drain drills and overload tests use it to make handler
	// cost controllable; zero in production.
	HandlerDelay time.Duration
}

// DefaultResilience is the production default: admission wide enough
// that only true overload sheds, and deadlines far above any drill's
// injected delay.
func DefaultResilience() ResilienceConfig {
	return ResilienceConfig{
		MaxInFlight:   64 * runtime.GOMAXPROCS(0),
		AdmitWait:     10 * time.Millisecond,
		LookupTimeout: 5 * time.Second,
		BatchTimeout:  30 * time.Second,
	}
}

// Server hosts the APIs over an immutable serving view.
type Server struct {
	view atomic.Pointer[serving.View]

	rc      ResilienceConfig
	limiter *resilience.Limiter
	metrics resilience.Metrics
	health  resilience.Health
	// endpoints is the query plane's route table, each row holding its
	// route's counters.
	endpoints []*endpoint
	// ingester is the ingest plane publishing to this server, if any;
	// /api/stats reports its state.
	ingester atomic.Pointer[Ingester]
}

// NewViewServer builds a Server over a serving view — compiled from a
// build (core.Result.Freeze), or mapped from a snapshot — with the
// default resilience stack. To publish later writes to the store,
// freeze a new view and SwapView it.
func NewViewServer(v *serving.View) *Server {
	return NewViewServerConfig(v, DefaultResilience())
}

// NewViewServerConfig is NewViewServer with an explicit resilience
// configuration (admission cap, deadlines, chaos delay). The server
// starts ready: by construction its serving view is loaded.
func NewViewServerConfig(v *serving.View, rc ResilienceConfig) *Server {
	s := &Server{rc: rc, limiter: resilience.NewLimiter(rc.MaxInFlight, rc.AdmitWait), endpoints: newEndpoints()}
	s.view.Store(v)
	s.health.SetReady(true)
	return s
}

// Health exposes the probe state behind /healthz and /readyz, so the
// serving process can flip readiness off when it starts draining and
// the ingest plane can mark itself wedged after an isolated panic.
func (s *Server) Health() *resilience.Health { return &s.health }

// SwapView atomically replaces the serving view and returns the
// previous one. In-flight requests finish on the view they started
// with; new requests see the new data. Safe to call at any time.
func (s *Server) SwapView(v *serving.View) *serving.View {
	return s.view.Swap(v)
}

// View returns the view currently being served.
func (s *Server) View() *serving.View { return s.view.Load() }

// A queryHandler answers one query request from v: it reads its
// arguments from r's URL or from the POST body serve has read into sc,
// appends the JSON answer to sc.out, and returns how many items a batch
// carried. A badRequest error is the request's 400; errUnencodable is a
// 200 with no body. It gets no Server, so v is the only view it can
// read.
type queryHandler func(v *serving.View, sc *scratch, r *http.Request) (items int, err error)

// endpoint is one row of the query plane's route table: what the route
// declares, and the route's counters.
type endpoint struct {
	lat   histogram
	calls atomic.Int64
	shed  atomic.Int64 // requests admission control refused
	// name is the stats key; the route is /api/<name>.
	name   string
	handle queryHandler
	// stat picks the route's column of Stats.
	stat func(*Stats) *int64
	// items, when set, is the endpoint each item of a batch counts as
	// one call of.
	items *endpoint
	// post marks a POST route, which reads a JSON body, answers any
	// other method with 405, and has the BatchTimeout deadline; a GET
	// route has LookupTimeout. Every row is behind admission control:
	// only /api/stats and the probes, which are not rows, bypass it.
	post bool
}

func (e *endpoint) path() string { return "/api/" + e.name }

// newEndpoints is the route table of the query plane.
func newEndpoints() []*endpoint {
	men2ent := &endpoint{name: "men2ent", handle: handleMen2Ent,
		stat: func(c *Stats) *int64 { return &c.Men2Ent }}
	conceptualizeText := &endpoint{name: "conceptualize", post: true, handle: handleConceptualize,
		stat: func(c *Stats) *int64 { return &c.Conceptualize }}
	return []*endpoint{
		men2ent,
		{name: "men2entBatch", post: true, items: men2ent, handle: handleMen2EntBatch,
			stat: func(c *Stats) *int64 { return &c.Men2EntBatch }},
		{name: "getConcept", handle: handleGetConcept,
			stat: func(c *Stats) *int64 { return &c.GetConcept }},
		{name: "getEntity", handle: handleGetEntity,
			stat: func(c *Stats) *int64 { return &c.GetEntity }},
		conceptualizeText,
		{name: "conceptualizeBatch", post: true, items: conceptualizeText, handle: handleConceptualizeBatch,
			stat: func(c *Stats) *int64 { return &c.ConceptualizeBatch }},
		{name: "qa", post: true, handle: handleQA,
			stat: func(c *Stats) *int64 { return &c.QA }},
	}
}

// serve is the one path of every query request. It counts and times
// the request, a 400 included; answers 405 to anything but a POST on a
// POST route and reads a POST body into the scratch; loads the served
// view once and runs the route's handler on it; and writes the answer.
// The view stays reachable until the response is written: a mapped
// view's answers are strings inside the mapping, which a finalizer
// releases once the view is unreachable, and after a SwapView nothing
// but this request holds it.
func (s *Server) serve(e *endpoint, w http.ResponseWriter, r *http.Request) {
	defer e.lat.since(time.Now())
	e.calls.Add(1)
	sc := getScratch()
	if e.post {
		if !requirePost(w, r) {
			return
		}
		sc.readBody(w, r)
	}
	v := s.view.Load()
	items, err := e.handle(v, sc, r)
	if err != nil && err != errUnencodable {
		writeError(w, http.StatusBadRequest, err.Error()) // drops sc
		return
	}
	if e.items != nil {
		e.items.calls.Add(int64(items))
	}
	jsonHeader(w)
	sc.respond(w, err == nil)
	runtime.KeepAlive(v)
}

// badRequest is a query handler's 400; its text is the error message.
type badRequest string

func (e badRequest) Error() string { return string(e) }

// errUnencodable reports an answer holding a NaN or infinite score,
// which gets a 200 with no body, as Encoder.Encode's error left it.
var errUnencodable = errors.New("api: answer holds a non-finite score")

// routes is the full endpoint table — the query routes, each served by
// serve without the resilience stack, plus /api/stats and the probes —
// the single source the mux is built from, and the surface docs/API.md
// is contract-tested against.
func (s *Server) routes() map[string]http.HandlerFunc {
	m := map[string]http.HandlerFunc{
		"/api/stats": s.handleStats,
		"/healthz":   s.health.ServeLiveness,
		"/readyz":    s.health.ServeReadiness,
	}
	for _, e := range s.endpoints {
		m[e.path()] = func(w http.ResponseWriter, r *http.Request) { s.serve(e, w, r) }
	}
	return m
}

// Handler returns the HTTP mux with all endpoints registered, each
// behind its slice of the resilience stack: query endpoints get
// admission control + a per-class deadline + panic isolation, while
// stats and the health probes get panic isolation only (they must
// answer while the rest of the plane sheds).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	routes := s.routes()
	for _, e := range s.endpoints {
		g := resilience.Guard{Limiter: s.limiter, Metrics: &s.metrics, Delay: s.rc.HandlerDelay, Timeout: s.rc.LookupTimeout}
		if e.post {
			g.Timeout = s.rc.BatchTimeout
		}
		mux.Handle(e.path(), g.Wrap(routes[e.path()], &e.shed))
		delete(routes, e.path())
	}
	for path, h := range routes {
		g := resilience.Guard{Metrics: &s.metrics} // recover-only
		mux.Handle(path, g.Wrap(h, nil))
	}
	return mux
}

// Men2EntResponse is the payload of /api/men2ent (and one element of
// the /api/men2entBatch response array).
type Men2EntResponse struct {
	Mention  string   `json:"mention"`
	Entities []string `json:"entities"`
}

func handleMen2Ent(v *serving.View, sc *scratch, r *http.Request) (int, error) {
	mention := queryValue(r.URL.RawQuery, "mention")
	if mention == "" {
		return 0, badRequest("missing ?mention=")
	}
	sc.out = appendMen2Ent(sc.out, v, mention, mentionEntities(v, mention))
	return 0, nil
}

// mentionEntities is the entities of mention in v as node IDs — what
// v.Lookup names — nil when v does not know the mention.
//
//cnp:noalloc
func mentionEntities(v *serving.View, mention string) []uint32 {
	row, ok := v.MentionRow(strings.TrimSpace(mention), 0)
	if !ok {
		return nil
	}
	return v.MentionEntities(int32(row))
}

// handleMen2EntBatch resolves every mention against the one view serve
// loaded, so a concurrent SwapView can never split a batch across
// taxonomy versions.
func handleMen2EntBatch(v *serving.View, sc *scratch, _ *http.Request) (int, error) {
	batch, err := sc.postStrings()
	if err != nil {
		return 0, err
	}
	if len(batch) > MaxBatchMentions {
		return 0, badRequest(fmt.Sprintf("batch of %d mentions exceeds the limit of %d", len(batch), MaxBatchMentions))
	}
	sc.out = append(sc.out, '[')
	for i, m := range batch {
		if i > 0 {
			sc.out = append(sc.out, ',')
		}
		sc.out = appendMen2Ent(sc.out, v, m, mentionEntities(v, m))
	}
	sc.out = append(sc.out, ']')
	return len(batch), nil
}

// ConceptResponse is the payload of /api/getConcept. Ranked is filled
// when the client asks for typicality-scored hypernyms (?ranked=1),
// the Probase-style probabilistic reading.
type ConceptResponse struct {
	Entity    string            `json:"entity"`
	Hypernyms []string          `json:"hypernyms"`
	Ranked    []taxonomy.Scored `json:"ranked,omitempty"`
}

func handleGetConcept(v *serving.View, sc *scratch, r *http.Request) (int, error) {
	entity := queryValue(r.URL.RawQuery, "entity")
	if entity == "" {
		return 0, badRequest("missing ?entity=")
	}
	id, hypernyms := hypernymIDs(v, entity)
	ranked := queryValue(r.URL.RawQuery, "ranked") == "1"
	sc.out = appendConcept(sc.out, v, entity, id, hypernyms, ranked)
	return 0, nil
}

// EntityResponse is the payload of /api/getEntity.
type EntityResponse struct {
	Concept  string   `json:"concept"`
	Hyponyms []string `json:"hyponyms"`
}

func handleGetEntity(v *serving.View, sc *scratch, r *http.Request) (int, error) {
	concept := queryValue(r.URL.RawQuery, "concept")
	if concept == "" {
		return 0, badRequest("missing ?concept=")
	}
	limit := 0
	if arg := queryValue(r.URL.RawQuery, "limit"); arg != "" {
		n, err := strconv.Atoi(arg)
		if err != nil || n < 0 {
			return 0, badRequest("bad ?limit=")
		}
		limit = n
	}
	sc.out = appendEntity(sc.out, v, concept, hyponymIDs(v, concept, limit))
	return 0, nil
}

// hypernymIDs resolves entity in v once, to its ID and its hypernyms'
// IDs; the list is nil when v does not know entity.
//
//cnp:noalloc
func hypernymIDs(v *serving.View, entity string) (uint32, []uint32) {
	id, ok := v.ID(entity, 0)
	if !ok {
		return 0, nil
	}
	return id, v.HypernymIDsOf(id)
}

// hyponymIDs is the IDs of up to limit hyponyms of concept in v, all of
// them when limit <= 0; nil when v does not know concept.
//
//cnp:noalloc
func hyponymIDs(v *serving.View, concept string, limit int) []uint32 {
	id, ok := v.ID(concept, 0)
	if !ok {
		return nil
	}
	ids := v.HyponymIDsOf(id)
	if limit > 0 && limit < len(ids) {
		ids = ids[:limit]
	}
	return ids
}

// Stats mirrors the call-count columns of the paper's Table II, plus
// the application endpoints. Men2EntBatch counts batch *requests*;
// each mention inside a batch also increments Men2Ent — and likewise
// ConceptualizeBatch requests increment Conceptualize per text. The
// application counters use omitempty so deployments that never call
// them keep the original Table II payload shape.
type Stats struct {
	Men2Ent            int64 `json:"men2ent"`
	GetConcept         int64 `json:"getConcept"`
	GetEntity          int64 `json:"getEntity"`
	Men2EntBatch       int64 `json:"men2entBatch,omitempty"`
	Conceptualize      int64 `json:"conceptualize,omitempty"`
	ConceptualizeBatch int64 `json:"conceptualizeBatch,omitempty"`
	QA                 int64 `json:"qa,omitempty"`
}

// Counters returns a snapshot of the per-API call counts.
func (s *Server) Counters() Stats {
	var st Stats
	for _, e := range s.endpoints {
		*e.stat(&st) = e.calls.Load()
	}
	return st
}

// ResilienceStats reports the overload stack: the admission slots held
// right now (a gauge; the exempt endpoints, this one included, hold
// none), and the failure-path counters — panics isolated (handler or
// ingest updater), deadlines expired, and, per endpoint, requests shed
// by admission control.
type ResilienceStats struct {
	InFlight int              `json:"in_flight,omitempty"`
	Panics   int64            `json:"panics"`
	Timeouts int64            `json:"timeouts"`
	Shed     map[string]int64 `json:"shed,omitempty"`
}

// ResilienceReport snapshots the overload stack, or nil when nothing
// is in flight and every counter is zero (so the legacy /api/stats
// payload shape is preserved on an idle server that never absorbed
// anything).
func (s *Server) ResilienceReport() *ResilienceStats {
	rs := &ResilienceStats{
		InFlight: s.limiter.InFlight(),
		Panics:   s.metrics.Panics.Load(),
		Timeouts: s.metrics.Timeouts.Load(),
	}
	for _, e := range s.endpoints {
		if n := e.shed.Load(); n > 0 {
			if rs.Shed == nil {
				rs.Shed = make(map[string]int64)
			}
			rs.Shed[e.name] = n
		}
	}
	if rs.InFlight == 0 && rs.Panics == 0 && rs.Timeouts == 0 && rs.Shed == nil {
		return nil
	}
	return rs
}

// statsResponse is the /api/stats payload: the Table II counters plus
// per-endpoint latency summaries, the overload stack's gauge and
// failure-path counters once there is anything to report, and the
// ingest plane's state when an ingester is attached.
type statsResponse struct {
	Stats
	Latency    []EndpointLatency `json:"latency,omitempty"`
	Resilience *ResilienceStats  `json:"resilience,omitempty"`
	Ingest     *IngestStats      `json:"ingest,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "stats requires GET")
		return
	}
	resp := statsResponse{Stats: s.Counters(), Latency: s.LatencyReport(), Resilience: s.ResilienceReport()}
	if ing := s.ingester.Load(); ing != nil {
		resp.Ingest = ing.Stats()
	}
	writeJSON(w, resp)
}

func (h *histogram) since(start time.Time) { h.observe(time.Since(start)) }

// writeJSON encodes v by reflection. Only /api/stats, which is not on
// the query path, still answers through it.
func writeJSON(w http.ResponseWriter, v any) {
	jsonHeader(w)
	// Encoding to the client can fail only on connection loss; nothing
	// actionable remains at that point.
	_ = json.NewEncoder(w).Encode(v)
}

// ErrorResponse is the body of every non-200 API response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// writeError sends a JSON error body with the right Content-Type —
// clients always parse one schema, success or failure. It delegates to
// resilience.WriteJSONError, the single place allowed to write raw
// error responses (enforced by the jsonerr analyzer).
func writeError(w http.ResponseWriter, code int, msg string) {
	resilience.WriteJSONError(w, code, msg)
}
