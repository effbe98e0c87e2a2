package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"cnprobase"
	"cnprobase/internal/resilience"
	"cnprobase/internal/taxonomy"
)

// ---- listeners ----

// listener is one http.Server of the system under test on a port the
// kernel chose, built from a resilience preset as cnpserver builds its
// own.
type listener struct {
	hs   *http.Server
	addr string
	errc chan error
}

func listen(cfg resilience.ServerConfig, h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{hs: cfg.Server(h), addr: ln.Addr().String(), errc: make(chan error, 1)}
	go func() { l.errc <- l.hs.Serve(ln) }()
	return l, nil
}

// close drains the server and waits for its accept loop to end.
func (l *listener) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	if serr := <-l.errc; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// ---- client ----

// conn is one keep-alive HTTP/1.1 connection. Requests are written as
// prebuilt bytes so that the client's share of the process's CPU stays
// small beside the server's; responses are parsed by net/http.
type conn struct {
	c  net.Conn
	br *bufio.Reader
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { _ = c.c.Close() } // read side only; nothing buffered to lose

// roundTrip sends one request and reads the whole response. The body
// goes to dst when dst is non-nil and is counted either way.
func (c *conn) roundTrip(wire []byte, dst io.Writer) (status int, n int64, err error) {
	if _, err := c.c.Write(wire); err != nil {
		return 0, 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, 0, err
	}
	if dst == nil {
		dst = io.Discard
	}
	n, err = io.Copy(dst, resp.Body)
	_ = resp.Body.Close() // fully read above
	return resp.StatusCode, n, err
}

// ---- requests ----

type kind uint8

const (
	kMen2Ent kind = iota
	kGetConcept
	kGetEntity
	kConceptualize
	kQA
	kBatch
)

// batchTexts is the size of one /api/conceptualizeBatch request.
const batchTexts = 32

// request is one generated API call: what it asks, for the checks, and
// the bytes that go on the wire.
type request struct {
	kind   kind
	arg    string   // mention, entity, concept, text or question
	texts  []string // kBatch only
	method string
	target string
	body   []byte
	wire   []byte
}

func newGet(k kind, path, param, arg string) request {
	r := request{kind: k, arg: arg, method: http.MethodGet, target: path + "?" + param + "=" + url.QueryEscape(arg)}
	if k == kGetEntity {
		r.target += "&limit=50"
	}
	r.wire = r.wireWith("")
	return r
}

func newPost(k kind, path string, payload any) request {
	body, err := json.Marshal(payload)
	if err != nil {
		panic(err) // strings and string slices always marshal
	}
	r := request{kind: k, method: http.MethodPost, target: path, body: body}
	r.wire = r.wireWith("")
	r.body = r.wire[len(r.wire)-len(body):] // one copy of the body, not two
	return r
}

// wireWith serializes the request with one extra header line (or none).
func (r *request) wireWith(header string) []byte {
	var b bytes.Buffer
	b.WriteString(r.method + " " + r.target + " HTTP/1.1\r\nHost: bench\r\n")
	if header != "" {
		b.WriteString(header + "\r\n")
	}
	if r.method == http.MethodPost {
		b.WriteString("Content-Type: application/json\r\nContent-Length: " + strconv.Itoa(len(r.body)) + "\r\n")
	}
	b.WriteString("\r\n")
	b.Write(r.body)
	return b.Bytes()
}

// names are the node names requests are built from. Every string is
// cloned: a mapped view's strings alias the mapping, which is released
// once the view is unreachable, and a request table outlives views.
type names struct {
	entities []string
	concepts []string
}

func namesOf(v *cnprobase.ServingView) names {
	var nm names
	for _, n := range v.Nodes() {
		switch v.Kind(n) {
		case taxonomy.KindEntity:
			nm.entities = append(nm.entities, strings.Clone(n))
		case taxonomy.KindConcept:
			nm.concepts = append(nm.concepts, strings.Clone(n))
		}
	}
	return nm
}

// mentionOf is the surface form a user types for an entity: its title
// without the disambiguation bracket.
func mentionOf(entity string) string {
	title, _, _ := strings.Cut(entity, "（")
	return title
}

var qaTemplates = []string{"%s是谁？", "%s的代表作品有哪些？", "请介绍一下%s。"}

// The paper's six-month call counts (Table II).
const (
	men2entCalls    = 43896044
	getConceptCalls = 13815076
	getEntityCalls  = 25793372
)

// generate builds the workload's request sequence from the seed.
// Arguments are Zipf(s=1.2) over the sorted node lists: real traffic
// concentrates on head entities.
func generate(workload string, nm names, seed int64, n int) ([]request, error) {
	if len(nm.entities) < 2 || len(nm.concepts) < 2 {
		return nil, fmt.Errorf("view has %d entities and %d concepts; need at least 2 of each", len(nm.entities), len(nm.concepts))
	}
	rng := rand.New(rand.NewSource(seed))
	ez := rand.NewZipf(rng, 1.2, 1, uint64(len(nm.entities)-1))
	cz := rand.NewZipf(rng, 1.2, 1, uint64(len(nm.concepts)-1))
	entity := func() string { return nm.entities[ez.Uint64()] }
	text := func() string {
		t := mentionOf(entity()) + "的相关资料"
		if rng.Intn(2) == 0 {
			t += "，以及" + mentionOf(entity())
		}
		return t
	}
	reqs := make([]request, n)
	for i := range reqs {
		switch workload {
		case "lookup", "ingest":
			switch x := rng.Int63n(men2entCalls + getConceptCalls + getEntityCalls); {
			case x < men2entCalls:
				reqs[i] = newGet(kMen2Ent, "/api/men2ent", "mention", mentionOf(entity()))
			case x < men2entCalls+getConceptCalls:
				reqs[i] = newGet(kGetConcept, "/api/getConcept", "entity", entity())
			default:
				reqs[i] = newGet(kGetEntity, "/api/getEntity", "concept", nm.concepts[cz.Uint64()])
			}
		case "apps":
			switch x := rng.Intn(10); {
			case x < 4:
				t := text()
				reqs[i] = newPost(kConceptualize, "/api/conceptualize", map[string]string{"text": t})
				reqs[i].arg = t
			case x < 7:
				q := fmt.Sprintf(qaTemplates[rng.Intn(len(qaTemplates))], mentionOf(entity()))
				reqs[i] = newPost(kQA, "/api/qa", map[string]string{"question": q})
				reqs[i].arg = q
			default:
				texts := make([]string, batchTexts)
				for j := range texts {
					texts[j] = text()
				}
				reqs[i] = newPost(kBatch, "/api/conceptualizeBatch", texts)
				reqs[i].texts = texts
			}
		default:
			return nil, fmt.Errorf("workload %q sends no queries", workload)
		}
	}
	return reqs, nil
}

// ---- expected answers ----

// normalize round-trips v through JSON, so that an expected answer
// built from Go values compares equal to a decoded response body.
func normalize(v any) (any, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var out any
	err = json.Unmarshal(raw, &out)
	return out, err
}

func conceptualized(e *cnprobase.Conceptualizer, text string) map[string]any {
	res := e.Conceptualize(text)
	m := map[string]any{"text": text, "covered": res.Covered(), "concepts": res.Concepts}
	if len(res.Mentions) > 0 {
		m["mentions"] = res.Mentions
	}
	return m
}

// expected is the answer docs/API.md promises for r, computed by
// calling the view and the engines directly.
func expected(v *cnprobase.ServingView, r *request) any {
	switch r.kind {
	case kMen2Ent:
		return map[string]any{"mention": r.arg, "entities": v.Lookup(r.arg)}
	case kGetConcept:
		return map[string]any{"entity": r.arg, "hypernyms": v.Hypernyms(r.arg)}
	case kGetEntity:
		return map[string]any{"concept": r.arg, "hyponyms": v.Hyponyms(r.arg, 50)}
	case kConceptualize:
		return conceptualized(cnprobase.NewViewConceptualizer(v), r.arg)
	case kBatch:
		e := cnprobase.NewViewConceptualizer(v)
		out := make([]any, len(r.texts))
		for i, t := range r.texts {
			out[i] = conceptualized(e, t)
		}
		return out
	default: // kQA
		u := cnprobase.Understand(r.arg, v)
		m := map[string]any{"question": r.arg, "covered": u.Covered}
		if len(u.Mentions) > 0 {
			m["mentions"] = u.Mentions
		}
		if len(u.Concepts) > 0 {
			m["concepts"] = u.Concepts
		}
		return m
	}
}
