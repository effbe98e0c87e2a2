package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"

	"cnprobase/internal/serving"
	"cnprobase/internal/taxonomy"
)

// WorkloadConfig drives the Table II reproduction: a simulated client
// population issuing calls in the mix the paper observed over six
// months on Aliyun (43.9M men2ent : 13.8M getConcept : 25.8M
// getEntity), optionally extended with the application endpoints.
type WorkloadConfig struct {
	// Calls is the total number of API calls to issue.
	Calls int
	// Weights are the relative call frequencies, in the order men2ent,
	// getConcept, getEntity, conceptualize, qa. The paper's observed
	// counts fill the first three by default; a zero weight disables an
	// endpoint.
	Weights [5]float64
	// ZipfS/ZipfV skew argument sampling toward popular nodes with a
	// Zipf(s, v) distribution over the node list — real serving traffic
	// concentrates on head entities. ZipfS <= 1 keeps sampling uniform
	// (Zipf requires s > 1).
	ZipfS float64
	ZipfV float64
	Seed  int64
}

// DefaultWorkloadConfig uses the paper's observed six-month mix over
// the three public APIs, with uniform argument sampling — the exact
// Table II reproduction.
func DefaultWorkloadConfig() WorkloadConfig {
	return WorkloadConfig{
		Calls:   20000,
		Weights: [5]float64{43896044, 13815076, 25793372, 0, 0},
		Seed:    3,
	}
}

// Client calls the APIs over HTTP.
type Client struct {
	Base string
	HTTP *http.Client
}

// NewClient returns a client for the server at base (e.g.
// "http://127.0.0.1:8080").
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/"), HTTP: http.DefaultClient}
}

func (c *Client) get(path string, params url.Values) error {
	resp, err := c.HTTP.Get(c.Base + path + "?" + params.Encode())
	if err != nil {
		return fmt.Errorf("api client: %w", err)
	}
	return drain(resp, path)
}

func (c *Client) post(path string, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("api client: marshal: %w", err)
	}
	resp, err := c.HTTP.Post(c.Base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("api client: %w", err)
	}
	return drain(resp, path)
}

func drain(resp *http.Response, path string) error {
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("api client: drain: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("api client: %s: status %d", path, resp.StatusCode)
	}
	return nil
}

// Men2Ent issues a men2ent call.
func (c *Client) Men2Ent(mention string) error {
	return c.get("/api/men2ent", url.Values{"mention": {mention}})
}

// GetConcept issues a getConcept call.
func (c *Client) GetConcept(entity string) error {
	return c.get("/api/getConcept", url.Values{"entity": {entity}})
}

// GetEntity issues a getEntity call.
func (c *Client) GetEntity(concept string) error {
	return c.get("/api/getEntity", url.Values{"concept": {concept}, "limit": {"50"}})
}

// Conceptualize issues a conceptualize call.
func (c *Client) Conceptualize(text string) error {
	return c.post("/api/conceptualize", ConceptualizeRequest{Text: text})
}

// QA issues a qa call.
func (c *Client) QA(question string) error {
	return c.post("/api/qa", QARequest{Question: question})
}

// sampler picks node indexes — uniform, or Zipfian when the config
// asks for skew, so a few head nodes absorb most of the traffic.
type sampler struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	n    int
}

func newSampler(rng *rand.Rand, cfg WorkloadConfig, n int) *sampler {
	s := &sampler{rng: rng, n: n}
	if cfg.ZipfS > 1 && n > 0 {
		v := cfg.ZipfV
		if v < 1 {
			v = 1
		}
		s.zipf = rand.NewZipf(rng, cfg.ZipfS, v, uint64(n-1))
	}
	return s
}

func (s *sampler) pick() int {
	if s.zipf != nil {
		return int(s.zipf.Uint64())
	}
	return s.rng.Intn(s.n)
}

// qaWorkloadTemplates shape the application-endpoint texts around the
// sampled mention.
var qaWorkloadTemplates = []string{"%s是谁？", "%s的代表作品有哪些？", "请介绍一下%s。"}

// RunWorkload fires cfg.Calls requests against the client, sampling
// API and argument per the weights from the nodes of v (the view the
// server answers from, or one of the same content), and returns the
// issued counts in Table II order.
func RunWorkload(c *Client, v *serving.View, cfg WorkloadConfig) (Stats, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	entities, concepts := splitNodes(v)
	if len(entities) == 0 || len(concepts) == 0 {
		return Stats{}, fmt.Errorf("api workload: taxonomy has no entities or no concepts")
	}
	var total float64
	for _, w := range cfg.Weights {
		if w < 0 {
			return Stats{}, fmt.Errorf("api workload: negative weight")
		}
		total += w
	}
	if total <= 0 {
		return Stats{}, fmt.Errorf("api workload: weights must be positive")
	}
	entPick := newSampler(rng, cfg, len(entities))
	conPick := newSampler(rng, cfg, len(concepts))
	mentionOf := func(ent string) string {
		if t := strings.Split(ent, "（"); len(t) > 0 {
			return t[0]
		}
		return ent
	}
	var issued Stats
	for i := 0; i < cfg.Calls; i++ {
		r := rng.Float64() * total
		var err error
		switch {
		case r < cfg.Weights[0]:
			err = c.Men2Ent(mentionOf(entities[entPick.pick()]))
			issued.Men2Ent++
		case r < cfg.Weights[0]+cfg.Weights[1]:
			err = c.GetConcept(entities[entPick.pick()])
			issued.GetConcept++
		case r < cfg.Weights[0]+cfg.Weights[1]+cfg.Weights[2]:
			err = c.GetEntity(concepts[conPick.pick()])
			issued.GetEntity++
		case r < cfg.Weights[0]+cfg.Weights[1]+cfg.Weights[2]+cfg.Weights[3]:
			// Short text around one or two sampled mentions.
			text := mentionOf(entities[entPick.pick()]) + "的相关资料"
			if rng.Intn(2) == 0 {
				text += "，以及" + mentionOf(entities[entPick.pick()])
			}
			err = c.Conceptualize(text)
			issued.Conceptualize++
		default:
			q := fmt.Sprintf(qaWorkloadTemplates[rng.Intn(len(qaWorkloadTemplates))],
				mentionOf(entities[entPick.pick()]))
			err = c.QA(q)
			issued.QA++
		}
		if err != nil {
			return issued, err
		}
	}
	return issued, nil
}

func splitNodes(v *serving.View) (entities, concepts []string) {
	for _, n := range v.Nodes() {
		switch v.Kind(n) {
		case taxonomy.KindEntity:
			entities = append(entities, n)
		case taxonomy.KindConcept:
			concepts = append(concepts, n)
		}
	}
	return entities, concepts
}

// FormatTable2 renders API usage in the layout of the paper's Table II.
func FormatTable2(s Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-10s %-16s %12s\n", "API name", "Given", "Return", "Count")
	fmt.Fprintf(&b, "%-12s %-10s %-16s %12d\n", "men2ent", "mention", "entity", s.Men2Ent)
	fmt.Fprintf(&b, "%-12s %-10s %-16s %12d\n", "getConcept", "entity", "hypernym list", s.GetConcept)
	fmt.Fprintf(&b, "%-12s %-10s %-16s %12d\n", "getEntity", "concept", "hyponym list", s.GetEntity)
	return b.String()
}
