// Package cnprobase is the public API of the CN-Probase reproduction:
// a generation + verification pipeline that builds a large-scale
// Chinese conceptual taxonomy from an encyclopedia corpus (Chen et al.,
// "CN-Probase: A Data-driven Approach for Large-scale Chinese Taxonomy
// Construction", ICDE 2019).
//
// The typical flow is three calls:
//
//	world, _ := cnprobase.GenerateWorld(cnprobase.DefaultWorldConfig()) // or ReadCorpus
//	res, _ := cnprobase.Build(world.Corpus(), cnprobase.DefaultOptions())
//	hypernyms := res.Freeze().Hypernyms(entityID)
//
// Build runs the four generation algorithms (bracket separation, neural
// generation from abstracts, infobox predicate discovery, tag
// extraction), merges candidates, applies the three verification
// strategies (incompatible concepts, named-entity hypernyms, syntax
// rules) and assembles the taxonomy with derived subconcept edges.
//
// The pipeline is concurrent: Options.Workers sizes the bounded worker
// pool every per-page stage fans out over (0 = one worker per CPU, 1 =
// fully sequential). Any worker count produces the same taxonomy, so
// parallelism is a pure throughput knob.
package cnprobase

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"cnprobase/internal/api"
	"cnprobase/internal/baselines"
	"cnprobase/internal/conceptualize"
	"cnprobase/internal/core"
	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/eval"
	"cnprobase/internal/qa"
	"cnprobase/internal/serving"
	"cnprobase/internal/snapshot"
	"cnprobase/internal/synth"
	"cnprobase/internal/taxonomy"
	"cnprobase/internal/wal"
)

// Re-exported types. Aliases keep the internal packages unimportable
// while making the full API usable through this package.
type (
	// Taxonomy is the constructed isA graph.
	Taxonomy = taxonomy.Taxonomy
	// Edge is one isA relation with provenance.
	Edge = taxonomy.Edge
	// Source tags which algorithm generated an edge.
	Source = taxonomy.Source
	// TaxonomyStats summarizes a taxonomy (Table I row shape).
	TaxonomyStats = taxonomy.Stats
	// Mention is one surface mention of an entity (men2ent's table).
	Mention = taxonomy.Mention

	// Corpus is an in-memory encyclopedia dump.
	Corpus = encyclopedia.Corpus
	// Page is one encyclopedia page (bracket, abstract, infobox, tags).
	Page = encyclopedia.Page
	// Triple is one infobox SPO triple.
	Triple = encyclopedia.Triple

	// Options configures the construction pipeline.
	Options = core.Options
	// Result bundles the pipeline outputs.
	Result = core.Result
	// Report describes a pipeline run.
	Report = core.Report

	// WorldConfig sizes the synthetic encyclopedia generator.
	WorldConfig = synth.Config
	// World is a generated ground-truth universe.
	World = synth.World
	// Oracle judges isA pairs against the world's ground truth.
	Oracle = synth.Oracle

	// APIServer serves men2ent/getConcept/getEntity over HTTP.
	APIServer = api.Server

	// ServingView is the immutable, read-optimized serving view the
	// HTTP APIs answer from: interned node IDs, CSR adjacency, each
	// node's hypernyms ranked by P(concept | entity), flat sorted
	// mention table — zero locks and near-zero allocation per query.
	// Obtain one with Result.Freeze (from a build) or
	// OpenSnapshotMapped (from a file).
	ServingView = serving.View

	// Conceptualizer turns short text into a ranked concept vector.
	Conceptualizer = conceptualize.Engine
	// Conceptualization is the result of conceptualizing one text.
	Conceptualization = conceptualize.Result
	// Understanding is the QA text-understanding result: whether the
	// taxonomy covers the text, plus each recognized mention with its
	// candidate entities and their concepts.
	Understanding = qa.Understanding
	// Scored couples a taxonomy node with a typicality score.
	Scored = taxonomy.Scored
)

// Source bits, re-exported.
const (
	SourceBracket     = taxonomy.SourceBracket
	SourceAbstract    = taxonomy.SourceAbstract
	SourceInfobox     = taxonomy.SourceInfobox
	SourceTag         = taxonomy.SourceTag
	SourceMorph       = taxonomy.SourceMorph
	SourceSubsume     = taxonomy.SourceSubsume
	SourceTranslation = taxonomy.SourceTranslation
)

// DefaultOptions returns the calibrated full-pipeline configuration.
func DefaultOptions() Options { return core.DefaultOptions() }

// Build constructs the taxonomy from an encyclopedia corpus.
func Build(c *Corpus, opts Options) (*Result, error) {
	return core.New(opts).Build(c)
}

// Update incrementally extends a prior Build result with newly crawled
// pages (the never-ending extraction mode of the substrate the paper's
// system runs on). The prior taxonomy is extended in place. An Update
// computes on what the batch touches: only new text is segmented and
// recognized, the persistent verification evidence on the Result folds
// forward, only fresh candidates plus those whose evidence changed are
// re-verified, and the taxonomy's kept, derived and mention lists are
// edited where the batch reaches them. Result.Kept and
// Result.Candidates are []extract.Candidate of pairs of symbol IDs —
// Result.Names resolves them — deduplicated and sorted by (Hypo, Hyper)
// ID, which is not name order. Update owns prev.Kept: the sorted list
// is edited in place (regenerated pairs updated where they sit,
// rejected pairs closed over, new pairs slid into its own amortised
// capacity), so a slice of it taken before the call is stale after it;
// the candidate union is never built — Report.Verification.Input is its
// size by arithmetic and Result.Candidates holds the delta's own
// candidates afterwards. The delta's names join the Result's symbol
// table, and a page with a blank title and no bracket names no entity:
// its candidates are dropped, as Build drops them. The incremental
// state lives on the Result (and its
// evidence and taxonomy), not on the pipeline, so each call may bring its
// own Options. Result.Freeze then publishes the change as a delta over
// the last flat view. Results restored with LoadSnapshot (evidence-carrying
// snapshots) accept Update too; their first Update runs on cold caches
// and re-decides every candidate once.
func Update(prev *Result, delta *Corpus, opts Options) (*Result, error) {
	return core.New(opts).Update(prev, delta)
}

// NewViewConceptualizer builds the short-text conceptualization engine
// — the downstream application layer of Section V, and the engine
// behind /api/conceptualize — over an immutable serving view
// (Result.Freeze, or OpenSnapshotMapped). It reads the view's dense IDs
// on a lock-free, allocation-free path; after an Update, Freeze again
// and build a new engine.
func NewViewConceptualizer(v *ServingView) *Conceptualizer {
	return conceptualize.NewView(v)
}

// Understand runs QA-style text understanding over a serving view —
// the engine behind /api/qa: recognize entity mentions and standalone
// concepts in the question and report whether the taxonomy covers it.
// The covered predicate is exactly the one the E5 coverage experiment
// counts.
func Understand(text string, v *ServingView) Understanding {
	return qa.Understand(text, v)
}

// DefaultWorldConfig returns the calibrated synthetic-world settings.
func DefaultWorldConfig() WorldConfig { return synth.DefaultConfig() }

// GenerateWorld builds a synthetic encyclopedia world with ground
// truth (the substitute for the CN-DBpedia dump; internal/synth's
// package doc describes it).
func GenerateWorld(cfg WorldConfig) (*World, error) { return synth.Generate(cfg) }

// ReadCorpus loads a JSON-Lines encyclopedia dump.
func ReadCorpus(r io.Reader) (*Corpus, error) { return encyclopedia.ReadJSONL(r) }

// NewTaxonomy returns an empty taxonomy for manual assembly.
func NewTaxonomy() *Taxonomy { return taxonomy.New() }

// NewViewServer builds the HTTP server over a serving view: a build's
// Result.Freeze, or OpenSnapshotMapped — the path cnpserver -load uses
// so a snapshot becomes a serving process without ever materializing
// the write model. Later writes to a taxonomy are not served; freeze a
// new view and call APIServer.SwapView to publish them.
func NewViewServer(v *ServingView) *APIServer { return api.NewViewServer(v) }

// ServerResilience tunes the overload-safety stack wrapped around the
// query endpoints: the admission-control cap and bounded wait (beyond
// which requests are shed with 429 + Retry-After), the per-request
// deadlines for the lookup and batch endpoint classes (JSON 503 when
// the injected delay reaches one; a started handler is never cut off),
// and the chaos knob (artificial per-request delay) drain drills
// inject.
type ServerResilience = api.ResilienceConfig

// DefaultServerResilience is the production default resilience
// configuration (the one NewViewServer applies).
func DefaultServerResilience() ServerResilience { return api.DefaultResilience() }

// NewViewServerResilient is NewViewServer with an explicit resilience
// configuration — cnpserver builds its server through this so the
// admission cap, deadlines and chaos delay are flag-tunable.
func NewViewServerResilient(v *ServingView, rc ServerResilience) *APIServer {
	return api.NewViewServerConfig(v, rc)
}

// Ingester is the continuous-ingestion admin endpoint: POST JSONL
// pages to /ingest and a single updater goroutine folds each batch
// into the taxonomy via Update, freezes the result and swaps the
// serving view atomically — zero-downtime never-ending extraction.
// Serve its Handler on a dedicated listener (cnpserver -ingest), never
// the public API port.
type Ingester = api.Ingester

// NewIngester starts the updater goroutine over a mutable build Result
// (a fresh Build, or a snapshot loaded with LoadSnapshot whose
// evidence section is present) publishing to srv. opts configures the
// incremental update passes exactly like Update. Ingestion through
// this constructor is volatile — accepted batches live only in process
// memory until the next SaveSnapshot; use NewDurableIngester for
// crash-safe ingestion.
func NewIngester(res *Result, opts Options, srv *APIServer) (*Ingester, error) {
	return api.NewIngester(res, core.New(opts), srv)
}

// WAL is the segmented, checksummed, fsync-on-commit write-ahead log
// durable ingestion runs on (docs/WAL.md specifies the format).
type WAL = wal.Log

// ReplayStats summarizes a WAL replay (batches applied and skipped,
// last log position reached).
type ReplayStats = api.ReplayStats

// OpenWAL opens (creating if needed) the write-ahead log directory and
// repairs a torn tail left by a crash mid-append.
func OpenWAL(dir string) (*WAL, error) {
	return wal.Open(dir, wal.Options{})
}

// ReplayWAL folds the log's records past `after` — the LSN the loaded
// snapshot covers (LoadSnapshotLSN returns it) — into res, recovering
// the exact state the crashed process had acknowledged. opts
// configures the update passes exactly like Update.
func ReplayWAL(res *Result, l *WAL, after uint64, opts Options) (*Result, ReplayStats, error) {
	return api.ReplayWAL(res, core.New(opts), l, after)
}

// DurableIngestConfig configures crash-safe ingestion: the open WAL
// new batches commit to, the snapshot file the background compactor
// rewrites (usually the file the server loaded from), the LSN that
// snapshot already covers, the compaction period (0 disables the
// background compactor) and the queue bound beyond which /ingest
// answers 429 (0 selects the default).
type DurableIngestConfig struct {
	WAL          *WAL
	SnapshotPath string
	SnapshotLSN  uint64
	CompactEvery time.Duration
	Queue        int
}

// NewDurableIngester starts the updater goroutine with a write-ahead
// log: every accepted batch is appended and fsynced before it is
// applied, so a 200 from /ingest survives a crash — restart with
// LoadSnapshotLSN + OpenWAL + ReplayWAL to recover. The ingester owns
// cfg.WAL (Close flushes and closes it) and, when cfg.CompactEvery is
// set, periodically rewrites cfg.SnapshotPath with an LSN-stamped
// snapshot and truncates the log below it.
func NewDurableIngester(res *Result, opts Options, srv *APIServer, cfg DurableIngestConfig) (*Ingester, error) {
	return api.NewDurableIngester(res, core.New(opts), srv, api.IngesterConfig{
		WAL:          cfg.WAL,
		SnapshotPath: cfg.SnapshotPath,
		SnapshotLSN:  cfg.SnapshotLSN,
		CompactEvery: cfg.CompactEvery,
		Queue:        cfg.Queue,
		SaveSnapshot: func(w io.Writer, r *core.Result, lsn uint64) error {
			return saveSnapshotLSN(w, r, lsn)
		},
	})
}

// SaveSnapshot writes the complete serving state of a build — the
// taxonomy with full edge provenance, the mention table, the build
// report, and (when the Result carries it) the persistent update
// substrate: verification evidence, kept candidates and corpus
// statistics — as a versioned, checksummed binary snapshot. A server can
// LoadSnapshot the file and be query-ready in milliseconds instead of
// re-running the pipeline (build once, serve many). The writer sizes
// every section first and then streams it — no copy of the image or of
// the evidence is held, whatever the taxonomy's size — and a write
// error from w is returned as is. The bytes are identical for any
// Workers setting, so snapshots of the same logical taxonomy are
// directly comparable. The on-disk layout is specified in
// docs/SNAPSHOT.md.
func SaveSnapshot(w io.Writer, res *Result) error {
	return saveSnapshotLSN(w, res, 0)
}

// SaveSnapshotLSN is SaveSnapshot with the write-ahead-log position
// stamped into the snapshot metadata: the saved state covers every
// WAL record up to and including lsn, so recovery replays strictly
// after it. An LSN of zero writes byte-identical output to
// SaveSnapshot. The durable ingest plane's compactor saves through
// this path.
func SaveSnapshotLSN(w io.Writer, res *Result, lsn uint64) error {
	return saveSnapshotLSN(w, res, lsn)
}

func saveSnapshotLSN(w io.Writer, res *Result, lsn uint64) error {
	if res == nil || res.Taxonomy == nil {
		return fmt.Errorf("cnprobase: SaveSnapshot needs a Result with a taxonomy")
	}
	var (
		meta    snapshot.Meta
		workers int
	)
	if res.Report != nil {
		rep := *res.Report // normalize the runtime knobs out of the saved report
		rep.Workers = 0
		raw, err := json.Marshal(&rep)
		if err != nil {
			return fmt.Errorf("cnprobase: encode snapshot report: %w", err)
		}
		meta = snapshot.Meta{Pages: rep.Pages, Stats: rep.Stats, Report: raw}
		workers = res.Report.Workers
	} else {
		meta.Stats = res.Taxonomy.ComputeStats()
	}
	meta.LSN = lsn
	st := &snapshot.State{
		Taxonomy: res.Taxonomy,
		Meta:     meta,
		// A Result whose last Freeze is still current — the ingest
		// plane at compaction time — is saved from that view; any other
		// is compiled by Save, and is left without a view attached.
		View:     res.PublishedView(),
		Evidence: res.Evidence,
		Stats:    res.Stats,
	}
	return snapshot.Save(w, st, snapshot.Options{Workers: workers})
}

// LoadSnapshot reads a snapshot written by SaveSnapshot and
// reassembles a Result ready for serving *and* further building:
// taxonomy (every query answers exactly like the freshly built
// original), mention index, the saved build report with Stats
// recomputed from the loaded graph, and — for snapshots saved with the
// evidence section — the persistent verification evidence, kept
// candidate set and corpus statistics, so the Result accepts
// incremental Update (the segmenter is rebuilt from the dictionary and
// the restored statistics on first use). A snapshot saved without
// evidence loads into a Result that serves queries but refuses Update.
// Files in a format older than version 6 are refused with an error
// that says to rebuild them (`cnprobase build -save`).
func LoadSnapshot(r io.Reader) (*Result, error) {
	res, _, err := LoadSnapshotLSN(r, 0, 0)
	return res, err
}

// LoadSnapshotLSN is LoadSnapshot returning, in addition, the
// write-ahead-log position the snapshot covers (zero for snapshots
// saved outside the durable ingest plane). Recovery passes that LSN
// to ReplayWAL so only the batches the snapshot missed are re-applied.
// workers and shards are both ignored — loading is one sequential pass
// and the store is not sharded — and remain only because the signature
// is frozen.
func LoadSnapshotLSN(r io.Reader, workers, shards int) (*Result, uint64, error) {
	st, err := snapshot.Load(r)
	if err != nil {
		return nil, 0, err
	}
	rep := &Report{}
	if len(st.Meta.Report) > 0 {
		if err := json.Unmarshal(st.Meta.Report, rep); err != nil {
			return nil, 0, fmt.Errorf("cnprobase: decode snapshot report: %w", err)
		}
	}
	if rep.Pages == 0 {
		rep.Pages = st.Meta.Pages
	}
	rep.Stats = st.Taxonomy.ComputeStats()
	return &Result{
		Taxonomy: st.Taxonomy,
		Report:   rep,
		Evidence: st.Evidence,
		Stats:    st.Stats,
	}, st.Meta.LSN, nil
}

// OpenSnapshotMapped memory-maps a snapshot file and serves straight
// off the mapping: after header and checksum verification the view's
// arrays alias the file's bytes, so startup cost is independent of
// taxonomy size and replicas share one page-cache copy. The mapping
// is released automatically once the view becomes unreachable (after a
// hot swap, once in-flight queries drain). Answers are byte-identical
// to the freshly built state's (pinned by the mapped
// serving-equivalence tests). Files in a format older than version 6
// are refused, with the same error LoadSnapshot gives.
func OpenSnapshotMapped(path string) (*ServingView, error) {
	v, _, err := snapshot.OpenMapped(path)
	return v, err
}

// SamplePrecision estimates the precision of a taxonomy by sampling
// `sample` isA pairs (the paper samples 2000) and judging them with the
// oracle.
func SamplePrecision(t *Taxonomy, o *Oracle, sample int, seed int64) float64 {
	return eval.SamplePrecision(eval.EdgePairs(t.Edges(), 0), o, sample, seed).Precision()
}

// QACoverageView runs the paper's text-understanding experiment:
// generate n questions from the world and measure the coverage of the
// taxonomy behind v (Result.Freeze), the data path /api/qa answers
// from.
func QACoverageView(w *World, v *ServingView, n int) (coverage, avgConcepts float64) {
	cfg := qa.DefaultGeneratorConfig()
	if n > 0 {
		cfg.N = n
	}
	r := qa.EvaluateSource(qa.Generate(w, cfg), v)
	return r.Coverage(), r.AvgConceptsPerEntity
}

// Baseline configuration types, re-exported.
type (
	// WikiTaxonomyConfig tunes the tag-only baseline.
	WikiTaxonomyConfig = baselines.WikiTaxonomyConfig
	// BigcilinConfig tunes the no-verification baseline.
	BigcilinConfig = baselines.BigcilinConfig
	// ProbaseTranConfig tunes the translation baseline.
	ProbaseTranConfig = baselines.ProbaseTranConfig
)

// Baseline constructors and defaults, re-exported for the comparison
// experiments.
var (
	// BuildWikiTaxonomy is the tag-only high-precision baseline.
	BuildWikiTaxonomy = baselines.BuildWikiTaxonomy
	// BuildBigcilin is the multi-source no-verification baseline.
	BuildBigcilin = baselines.BuildBigcilin
	// BuildProbaseTran is the translate-English-Probase baseline.
	BuildProbaseTran = baselines.BuildProbaseTran
	// DefaultWikiTaxonomyConfig mirrors the paper's Table I row.
	DefaultWikiTaxonomyConfig = baselines.DefaultWikiTaxonomyConfig
	// DefaultBigcilinConfig mirrors the paper's Table I row.
	DefaultBigcilinConfig = baselines.DefaultBigcilinConfig
	// DefaultProbaseTranConfig mirrors the paper's Table I row.
	DefaultProbaseTranConfig = baselines.DefaultProbaseTranConfig
)
