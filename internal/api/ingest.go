// Continuous ingestion: the admin endpoint a live server exposes so
// crawl batches flow into the taxonomy without a restart. POST bodies
// are JSONL pages (the encyclopedia dump format); a single updater
// goroutine serializes batches through core.Update, freezes the
// updated Result into a fresh serving view and swaps it into the API
// server atomically — in-flight queries finish on the old view, new
// queries see the new edges, zero downtime. The endpoint is meant for
// a dedicated listener (cnpserver -ingest), never the public API port.
//
// Ingestion is durable when a write-ahead log is configured
// (cnpserver -wal): each accepted batch is appended to the WAL and
// fsynced *before* the update is applied, so the 200 response means
// the batch survives a crash — restart replays the log tail past the
// last snapshot and reconstructs the exact acknowledged state. A
// background compactor periodically saves a fresh snapshot stamped
// with the last applied LSN and truncates the log below it, keeping
// replay time proportional to the un-snapshotted tail (docs/WAL.md
// specifies the protocol).
//
// The updater queue is bounded: when a crawler outruns Update, excess
// batches are refused with 429 + Retry-After instead of queueing
// without limit, so backpressure reaches the producer before memory
// does.
package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cnprobase/internal/atomicfile"
	"cnprobase/internal/core"
	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/resilience"
	"cnprobase/internal/wal"
)

// MaxIngestBytes caps one /ingest request body, so an oversized batch
// is rejected while reading rather than after being decoded.
const MaxIngestBytes = 64 << 20

// DefaultIngestQueue is the default bound on batches waiting for the
// updater goroutine. Beyond it, /ingest answers 429 + Retry-After.
const DefaultIngestQueue = 16

// ErrIngesterClosed is returned (and mapped to 503) for batches that
// reach the ingester after Close has begun: the WAL is already flushed
// and closed, so the batch was not — and will never be — made durable.
var ErrIngesterClosed = errors.New("api: ingester is closed")

// ErrIngesterWedged is returned (and mapped to a sticky 503) for every
// batch after the updater goroutine has panicked: the panic is
// isolated — the process keeps serving queries from the last good view
// — but the mutable build state can no longer be trusted, so no
// further batch is applied or acknowledged until the replica is
// restarted.
var ErrIngesterWedged = errors.New("api: ingest updater is wedged after a panic; restart the server")

// Updater folds a crawl delta into a build Result — the single method
// of core.Pipeline the ingest plane uses, as an interface so the
// chaos tests can inject failing and panicking updaters.
type Updater interface {
	Update(prev *core.Result, delta *encyclopedia.Corpus) (*core.Result, error)
}

// IngesterConfig configures durability and backpressure. The zero
// value is a volatile, memory-only ingester with the default queue
// bound.
type IngesterConfig struct {
	// WAL, when non-nil, makes ingestion durable: every batch is
	// appended and fsynced before it is applied. The ingester owns the
	// log from then on — Close flushes and closes it.
	WAL *wal.Log
	// SnapshotPath is the snapshot file the compactor rewrites
	// (atomically: temp file + rename). Required for compaction.
	SnapshotPath string
	// SnapshotLSN is the LSN the snapshot at SnapshotPath already
	// covers at startup, so the first compaction cycle knows whether
	// there is anything new to persist.
	SnapshotLSN uint64
	// CompactEvery is the compaction period; 0 disables the
	// background compactor (Compact can still be called manually).
	CompactEvery time.Duration
	// SaveSnapshot writes res as a snapshot covering WAL records up
	// to and including lsn. Injected by the facade so this package
	// does not depend on the snapshot encoder; the facade's saver
	// serializes the view the updater just published
	// (Result.PublishedView) rather than compiling the taxonomy again.
	// Required for compaction.
	SaveSnapshot func(w io.Writer, res *core.Result, lsn uint64) error
	// Queue bounds batches waiting for the updater; 0 selects
	// DefaultIngestQueue.
	Queue int
}

// IngestResponse is the /ingest success payload: the batch size, how
// long settling it took — in total (WAL append included) and split
// into folding the batch in (update_ms) and freezing + swapping the
// new view (publish_ms) — how much of the taxonomy the view was
// brought up to date from (touched_nodes re-read; full_compile when
// the whole taxonomy was; folded when the publication folded a delta
// that outgrew its base into flat arrays), the post-update taxonomy
// shape, and — on a durable ingester — the batch's log sequence number.
type IngestResponse struct {
	Pages        int     `json:"pages"`
	TookMs       float64 `json:"took_ms"`
	UpdateMs     float64 `json:"update_ms"`
	PublishMs    float64 `json:"publish_ms"`
	TouchedNodes int     `json:"touched_nodes"`
	Entities     int     `json:"entities"`
	Concepts     int     `json:"concepts"`
	IsARelations int     `json:"isa_relations"`
	LSN          uint64  `json:"lsn,omitempty"`
	FullCompile  bool    `json:"full_compile"`
	Folded       bool    `json:"folded"`
}

type ingestReply struct {
	resp IngestResponse
	err  error
}

type ingestReq struct {
	raw   []byte // exact request body, the bytes the WAL persists
	delta *encyclopedia.Corpus
	reply chan ingestReply
}

// Ingester owns the single updater goroutine. All mutation of the
// Result — updates, view swaps, compaction snapshots, WAL truncation —
// happens on that goroutine; handlers only enqueue batches and wait
// for the outcome, so concurrent POSTs serialize and the serving view
// is swapped exactly once per batch.
type Ingester struct {
	pipeline Updater
	srv      *Server
	cfg      IngesterConfig
	reqs     chan ingestReq
	compactc chan chan error
	stop     chan struct{}
	done     chan struct{}
	closing  sync.Once

	// wedged flips (permanently) when the updater goroutine panics:
	// the panic is recovered, the half-mutated build state is
	// quarantined, and every subsequent batch gets a sticky 503 while
	// the query plane keeps serving the last published view.
	wedged atomic.Bool

	// lsn is the last LSN settled by the updater (applied, or logged
	// and rejected by Update); compacted is the LSN the latest
	// snapshot covers. atomically read by compaction-lag accounting.
	lsn       atomic.Uint64
	compacted atomic.Uint64
	// compactions counts the snapshots the compactor has written;
	// lastCompactMicros and lastSnapshotBytes describe the latest.
	compactions       atomic.Int64
	lastCompactMicros atomic.Int64
	lastSnapshotBytes atomic.Int64
}

// IngestStats is the ingest plane's state as /api/stats reports it:
// how far the write-ahead log has been applied and how far the
// snapshot covers it (the difference is what a restart replays), what
// the compactor has done, and whether the updater is wedged.
type IngestStats struct {
	AppliedLSN        uint64  `json:"applied_lsn"`
	CompactedLSN      uint64  `json:"compacted_lsn"`
	Compactions       int64   `json:"compactions"`
	LastCompactMs     float64 `json:"last_compact_ms"`
	LastSnapshotBytes int64   `json:"last_snapshot_bytes"`
	Wedged            bool    `json:"wedged"`
}

// Stats snapshots the ingest plane's state.
func (ing *Ingester) Stats() *IngestStats {
	return &IngestStats{
		AppliedLSN:        ing.lsn.Load(),
		CompactedLSN:      ing.compacted.Load(),
		Compactions:       ing.compactions.Load(),
		LastCompactMs:     float64(ing.lastCompactMicros.Load()) / 1000,
		LastSnapshotBytes: ing.lastSnapshotBytes.Load(),
		Wedged:            ing.wedged.Load(),
	}
}

// NewIngester starts a volatile (memory-only) ingester over a mutable
// build Result. The Result must carry the update substrate (evidence
// and statistics — a fresh build, or a snapshot with the evidence
// section); srv is the API server whose view each batch swap publishes
// to.
func NewIngester(res *core.Result, pipeline Updater, srv *Server) (*Ingester, error) {
	return NewDurableIngester(res, pipeline, srv, IngesterConfig{})
}

// NewDurableIngester starts the updater goroutine with explicit
// durability configuration. With cfg.WAL set, the log's existing tail
// must already be replayed into res (see ReplayWAL) — the ingester
// numbers new batches after the log's last LSN.
func NewDurableIngester(res *core.Result, pipeline Updater, srv *Server, cfg IngesterConfig) (*Ingester, error) {
	if res == nil || res.Taxonomy == nil {
		return nil, fmt.Errorf("api: ingester needs a build Result")
	}
	if res.Evidence == nil || res.Stats == nil {
		return nil, fmt.Errorf("api: ingestion needs the update substrate; rebuild, or load a snapshot that carries evidence")
	}
	if cfg.Queue <= 0 {
		cfg.Queue = DefaultIngestQueue
	}
	if cfg.CompactEvery > 0 && (cfg.WAL == nil || cfg.SnapshotPath == "" || cfg.SaveSnapshot == nil) {
		return nil, fmt.Errorf("api: compaction needs a WAL, a snapshot path and a snapshot saver")
	}
	ing := &Ingester{
		pipeline: pipeline,
		srv:      srv,
		cfg:      cfg,
		reqs:     make(chan ingestReq, cfg.Queue),
		compactc: make(chan chan error),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if cfg.WAL != nil {
		ing.lsn.Store(cfg.WAL.LastLSN())
	}
	ing.compacted.Store(cfg.SnapshotLSN)
	srv.ingester.Store(ing)
	go ing.run(res)
	return ing, nil
}

// run is the updater goroutine: one batch at a time through
// WAL-append then Update, then freeze + swap; compaction interleaves
// between batches on the same goroutine, so it always snapshots a
// quiescent Result.
func (ing *Ingester) run(res *core.Result) {
	defer close(ing.done)
	var tickc <-chan time.Time
	if ing.cfg.WAL != nil && ing.cfg.CompactEvery > 0 {
		tick := time.NewTicker(ing.cfg.CompactEvery)
		defer tick.Stop()
		tickc = tick.C
	}
	for {
		select {
		case <-ing.stop:
			ing.shutdown()
			return
		case req := <-ing.reqs:
			if ing.wedged.Load() {
				req.reply <- ingestReply{err: ErrIngesterWedged}
				continue
			}
			res = ing.applySafe(res, req)
		case <-tickc:
			if err := ing.compact(res); err != nil {
				log.Printf("cnprobase: wal compaction: %v", err)
			}
		case c := <-ing.compactc:
			c <- ing.compact(res)
		}
	}
}

// applySafe is apply behind the ingest plane's panic isolation: a
// panic anywhere in the WAL append / Update / freeze / swap path is
// recovered on this goroutine — the process survives — but the build
// state it may have half-mutated is quarantined: the ingester wedges
// permanently (sticky 503 for every later batch, /readyz flips to 503
// so the replica is rotated out) while queries keep serving the last
// view that was published whole.
func (ing *Ingester) applySafe(res *core.Result, req ingestReq) (out *core.Result) {
	defer func() {
		if p := recover(); p != nil {
			ing.srv.metrics.Panics.Add(1)
			ing.wedged.Store(true)
			reason := fmt.Sprintf("update panicked: %v", p)
			ing.srv.Health().Wedge(reason)
			log.Printf("cnprobase: ingest updater panic (ingester wedged, queries unaffected): %v\n%s", p, debug.Stack())
			req.reply <- ingestReply{err: fmt.Errorf("%w (%s)", ErrIngesterWedged, reason)}
			out = res
		}
	}()
	return ing.apply(res, req)
}

// Wedged reports whether the updater has been isolated after a panic.
func (ing *Ingester) Wedged() bool { return ing.wedged.Load() }

// apply settles one batch: make it durable, fold it in, publish the
// new view, answer the caller. The WAL append comes first — only a
// batch that is already on disk may mutate served state, so the
// acknowledged state is always reconstructible.
func (ing *Ingester) apply(res *core.Result, req ingestReq) *core.Result {
	start := time.Now()
	var lsn uint64
	if ing.cfg.WAL != nil {
		var err error
		lsn, err = ing.cfg.WAL.Append(req.raw)
		if err != nil {
			req.reply <- ingestReply{err: fmt.Errorf("write-ahead log append: %w", err)}
			return res
		}
	}
	applied := time.Now()
	updated, err := ing.pipeline.Update(res, req.delta)
	if err != nil {
		// The batch is on disk but rejected; replay hits the same
		// deterministic validation and skips it, so live outcome and
		// recovered outcome agree. The LSN still settles — the
		// snapshot may cover it.
		if lsn != 0 {
			ing.lsn.Store(lsn)
		}
		req.reply <- ingestReply{err: err}
		return res
	}
	folded := time.Now()
	ing.srv.SwapView(updated.Freeze())
	published := time.Now()
	if lsn != 0 {
		ing.lsn.Store(lsn)
	}
	st, pub := updated.Report.Stats, updated.Report.Publish
	req.reply <- ingestReply{resp: IngestResponse{
		Pages:        req.delta.Len(),
		TookMs:       millis(published.Sub(start)),
		UpdateMs:     millis(folded.Sub(applied)),
		PublishMs:    millis(published.Sub(folded)),
		TouchedNodes: pub.TouchedNodes,
		FullCompile:  pub.FullCompile,
		Folded:       pub.Folded,
		Entities:     st.Entities,
		Concepts:     st.Concepts,
		IsARelations: st.IsARelations,
		LSN:          lsn,
	}}
	return updated
}

func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// compact persists res as a fresh snapshot covering everything applied
// so far and prunes the WAL below it. The ordering is the data-loss
// proof: the snapshot is fully durable (temp file, fsync, rename,
// directory fsync) before a single log byte is dropped, and
// TruncateBelow only ever removes whole segments at or below the
// snapshot's LSN — a crash anywhere in between recovers from either
// the old snapshot + full log or the new snapshot + shorter log, both
// complete.
func (ing *Ingester) compact(res *core.Result) error {
	if ing.wedged.Load() {
		// A wedged ingester must never snapshot: res may be half-mutated
		// by the panicked update, and persisting it would replace a good
		// snapshot with a corrupt one.
		return ErrIngesterWedged
	}
	lsn := ing.lsn.Load()
	if ing.cfg.WAL == nil || lsn == ing.compacted.Load() {
		return nil
	}
	start := time.Now()
	size, err := atomicfile.Write(ing.cfg.SnapshotPath, func(w io.Writer) error {
		return ing.cfg.SaveSnapshot(w, res, lsn)
	})
	if err != nil {
		return fmt.Errorf("compaction snapshot: %w", err)
	}
	ing.compacted.Store(lsn)
	ing.compactions.Add(1)
	ing.lastSnapshotBytes.Store(size)
	ing.lastCompactMicros.Store(time.Since(start).Microseconds())
	// Seal the tail so the whole covered range is eligible, then
	// prune. Roll before truncate is what lets the log shrink to a
	// single header-only segment when the snapshot covers everything.
	if err := ing.cfg.WAL.Roll(); err != nil {
		return fmt.Errorf("compaction roll: %w", err)
	}
	if _, err := ing.cfg.WAL.TruncateBelow(lsn); err != nil {
		return fmt.Errorf("compaction truncate: %w", err)
	}
	return nil
}

// Compact runs one compaction cycle on the updater goroutine and
// returns its outcome. Used by tests and operational tooling; the
// periodic compactor calls the same code.
func (ing *Ingester) Compact() error {
	c := make(chan error, 1)
	select {
	case ing.compactc <- c:
		return <-c
	case <-ing.done:
		return ErrIngesterClosed
	}
}

// CompactedLSN returns the LSN the latest compaction snapshot covers.
func (ing *Ingester) CompactedLSN() uint64 { return ing.compacted.Load() }

// AppliedLSN returns the LSN of the last batch the updater settled.
func (ing *Ingester) AppliedLSN() uint64 { return ing.lsn.Load() }

// shutdown finishes the updater goroutine: first flush and fsync the
// WAL — everything acknowledged so far becomes durable before anything
// is refused — then fail whatever is still queued. Those batches were
// never appended, so the 503 is truthful: not durable, not applied.
func (ing *Ingester) shutdown() {
	if ing.cfg.WAL != nil {
		if err := ing.cfg.WAL.Close(); err != nil {
			log.Printf("cnprobase: wal close: %v", err)
		}
	}
	for {
		select {
		case req := <-ing.reqs:
			req.reply <- ingestReply{err: ErrIngesterClosed}
		default:
			return
		}
	}
}

// Close stops the updater goroutine, flushes and closes the WAL, and
// waits for it all to finish. Requests arriving afterwards are
// rejected with 503. Safe to call more than once.
func (ing *Ingester) Close() {
	ing.closing.Do(func() { close(ing.stop) })
	<-ing.done
}

// Handler returns the admin mux with the /ingest endpoint registered
// behind panic isolation (a handler bug yields a JSON 500 on that
// request, never a dropped connection or a dead process). Backpressure
// is the bounded queue itself, so no extra admission layer is stacked.
func (ing *Ingester) Handler() http.Handler {
	g := resilience.Guard{Metrics: &ing.srv.metrics}
	mux := http.NewServeMux()
	mux.Handle("/ingest", g.Wrap(http.HandlerFunc(ing.handleIngest), nil))
	return mux
}

func (ing *Ingester) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "ingest requires POST with JSONL pages")
		return
	}
	if ing.wedged.Load() {
		// Sticky refusal: reject before reading the body so a wedged
		// replica sheds crawler load instantly.
		writeError(w, http.StatusServiceUnavailable, ErrIngesterWedged.Error())
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxIngestBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	delta, err := encyclopedia.ReadJSONL(bytes.NewReader(raw))
	if err != nil {
		writeError(w, http.StatusBadRequest, "body must be JSONL pages: "+err.Error())
		return
	}
	if delta.Len() == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	for i := range delta.Pages {
		if strings.TrimSpace(delta.Pages[i].Title) == "" {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("page %d has a blank title", i+1))
			return
		}
	}
	req := ingestReq{raw: raw, delta: delta, reply: make(chan ingestReply, 1)}
	select {
	case ing.reqs <- req:
	case <-ing.stop:
		writeError(w, http.StatusServiceUnavailable, "ingester is shut down")
		return
	default:
		// The queue is full: the updater is the bottleneck, so tell
		// the crawler to back off instead of buffering without bound.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "ingest queue is full; retry later")
		return
	}
	var rep ingestReply
	select {
	case rep = <-req.reply:
	case <-ing.done:
		// The updater exited while this batch waited. Shutdown drains
		// the queue, so the reply is normally already buffered; if the
		// enqueue raced past the drain, the batch was dropped unlogged.
		select {
		case rep = <-req.reply:
		default:
			rep = ingestReply{err: ErrIngesterClosed}
		}
	}
	if rep.err != nil {
		code := http.StatusInternalServerError
		if errors.Is(rep.err, ErrIngesterClosed) || errors.Is(rep.err, ErrIngesterWedged) || errors.Is(rep.err, wal.ErrClosed) {
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, "update failed: "+rep.err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(rep.resp)
}

// ReplayStats summarizes a WAL replay.
type ReplayStats struct {
	// Applied is the number of batches folded into the Result.
	Applied int
	// Skipped is the number of logged batches Update rejected — the
	// same deterministic validation that failed them with a 500 when
	// they were first submitted, so the recovered state matches the
	// state the live process served.
	Skipped int
	// LastLSN is the LSN of the last replayed record (== after when
	// the log held nothing new).
	LastLSN uint64
}

// ReplayWAL folds the log's records past `after` — the LSN the loaded
// snapshot covers — into res, returning the updated Result. On
// success the Result is byte-for-byte the state the crashed process
// had acknowledged: every logged batch was fsynced before it was
// applied, and Update is deterministic. Payloads that fail to parse
// are an error (the handler validated them before logging, so a
// parse failure means corruption the checksums missed); batches
// Update rejects are counted in Skipped and otherwise ignored,
// mirroring their live 500. After a successful replay the log's
// append position is at least `after`, so a freshly created log
// behind an old snapshot numbers new batches correctly.
func ReplayWAL(res *core.Result, pipeline *core.Pipeline, l *wal.Log, after uint64) (*core.Result, ReplayStats, error) {
	stats := ReplayStats{LastLSN: after}
	if res == nil || res.Taxonomy == nil {
		return nil, stats, fmt.Errorf("api: replay needs a build Result")
	}
	if res.Evidence == nil || res.Stats == nil {
		return nil, stats, fmt.Errorf("api: replay needs the update substrate; load a snapshot that carries evidence")
	}
	err := l.Replay(after, func(lsn uint64, payload []byte) error {
		delta, err := encyclopedia.ReadJSONL(bytes.NewReader(payload))
		if err != nil {
			return fmt.Errorf("record %d does not parse as JSONL pages: %w", lsn, err)
		}
		updated, err := pipeline.Update(res, delta)
		if err != nil {
			stats.Skipped++
			stats.LastLSN = lsn
			return nil
		}
		res = updated
		stats.Applied++
		stats.LastLSN = lsn
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	l.AdvanceTo(after)
	return res, stats, nil
}
