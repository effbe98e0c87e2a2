package api

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cnprobase/internal/core"
	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/snapshot"
	"cnprobase/internal/synth"
	"cnprobase/internal/wal"
)

// ---------------------------------------------------------------------------
// Fixture: one 300-entity build, cloned per test through the snapshot
// codec — the same substrate the durable ingest plane persists with.
// ---------------------------------------------------------------------------

var (
	baseOnce sync.Once
	baseSnap []byte
	baseErr  error
)

// baseSnapshot builds the shared world once and returns it encoded as
// an evidence-carrying snapshot.
func baseSnapshot(t *testing.T) []byte {
	t.Helper()
	baseOnce.Do(func() {
		wcfg := synth.DefaultConfig()
		wcfg.Entities = 300
		w, err := synth.Generate(wcfg)
		if err != nil {
			baseErr = fmt.Errorf("Generate: %w", err)
			return
		}
		opts := core.DefaultOptions()
		opts.EnableNeural = false
		res, err := core.New(opts).Build(w.Corpus())
		if err != nil {
			baseErr = fmt.Errorf("Build: %w", err)
			return
		}
		var buf bytes.Buffer
		baseErr = testSaveSnapshot(&buf, res, 0)
		baseSnap = buf.Bytes()
	})
	if baseErr != nil {
		t.Fatal(baseErr)
	}
	return baseSnap
}

// savedFromView counts the snapshots testSaveSnapshot serialized from
// the ingester's published view instead of compiling the taxonomy.
var savedFromView atomic.Int64

// testSaveSnapshot is the snapshot saver the durable fixtures inject —
// in production the facade provides the equivalent, published view
// included.
func testSaveSnapshot(w io.Writer, res *core.Result, lsn uint64) error {
	view := res.PublishedView()
	if view != nil {
		savedFromView.Add(1)
	}
	return snapshot.Save(w, &snapshot.State{
		Taxonomy: res.Taxonomy,
		View:     view,
		Meta:     snapshot.Meta{Pages: res.Report.Pages, Stats: res.Report.Stats, LSN: lsn},
		Evidence: res.Evidence,
		Stats:    res.Stats,
	}, snapshot.Options{})
}

// loadResult decodes a snapshot into a mutable Result plus the LSN it
// covers.
func loadResult(t *testing.T, data []byte) (*core.Result, uint64) {
	t.Helper()
	st, err := snapshot.Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("snapshot.Load: %v", err)
	}
	return &core.Result{
		Taxonomy: st.Taxonomy,
		Report:   &core.Report{Pages: st.Meta.Pages, Stats: st.Taxonomy.ComputeStats()},
		Evidence: st.Evidence,
		Stats:    st.Stats,
	}, st.Meta.LSN
}

type durableFixture struct {
	// failSaveAfter, when not negative, makes the compactor's snapshot
	// destination fail after that many bytes.
	failSaveAfter atomic.Int64

	res      *core.Result
	pipeline *core.Pipeline
	srv      *Server
	ing      *Ingester
	apiTS    *httptest.Server
	ingTS    *httptest.Server
	snapPath string
	walDir   string
	concept  string
}

// newDurableFixture stands up a full durable ingest plane on a temp
// dir: base snapshot on disk, open WAL, durable ingester, HTTP
// endpoints.
func newDurableFixture(t *testing.T, queue int) *durableFixture {
	t.Helper()
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "taxonomy.snap")
	if err := os.WriteFile(snapPath, baseSnapshot(t), 0o644); err != nil {
		t.Fatalf("write base snapshot: %v", err)
	}
	res, lsn := loadResult(t, baseSnapshot(t))
	walDir := filepath.Join(dir, "wal")
	l, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	opts := core.DefaultOptions()
	opts.EnableNeural = false
	pipeline := core.New(opts)
	srv := NewViewServer(res.Freeze())
	f := &durableFixture{
		res: res, pipeline: pipeline, srv: srv,
		snapPath: snapPath, walDir: walDir, concept: res.Names()[res.Kept[0].Hyper],
	}
	f.failSaveAfter.Store(-1)
	ing, err := NewDurableIngester(res, pipeline, srv, IngesterConfig{
		WAL:          l,
		SnapshotPath: snapPath,
		SnapshotLSN:  lsn,
		SaveSnapshot: func(w io.Writer, res *core.Result, lsn uint64) error {
			if k := f.failSaveAfter.Load(); k >= 0 {
				w = &failingWriter{w: w, k: int(k)}
			}
			return testSaveSnapshot(w, res, lsn)
		},
		Queue: queue,
	})
	if err != nil {
		t.Fatalf("NewDurableIngester: %v", err)
	}
	t.Cleanup(ing.Close)
	f.ing = ing
	f.apiTS = httptest.NewServer(srv.Handler())
	t.Cleanup(f.apiTS.Close)
	f.ingTS = httptest.NewServer(ing.Handler())
	t.Cleanup(f.ingTS.Close)
	return f
}

// recover reopens the fixture's on-disk state — snapshot + WAL — the
// way a restarted cnpserver does, and returns the recovered Result.
func (f *durableFixture) recover(t *testing.T) (*core.Result, ReplayStats) {
	t.Helper()
	data, err := os.ReadFile(f.snapPath)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	res, lsn := loadResult(t, data)
	l, err := wal.Open(f.walDir, wal.Options{})
	if err != nil {
		t.Fatalf("reopen wal: %v", err)
	}
	defer l.Close()
	opts := core.DefaultOptions()
	opts.EnableNeural = false
	res, stats, err := ReplayWAL(res, core.New(opts), l, lsn)
	if err != nil {
		t.Fatalf("ReplayWAL: %v", err)
	}
	return res, stats
}

// hypernymsOf reads an entity's hypernyms from a frozen view via the
// HTTP API so live and recovered states are compared through the same
// query path.
func hypernymsOf(t *testing.T, baseURL, title string) []string {
	t.Helper()
	var resp ConceptResponse
	getJSON(t, baseURL+"/api/getConcept?entity="+url.QueryEscape(title), &resp)
	return resp.Hypernyms
}

// ---------------------------------------------------------------------------
// Durable round-trip: acknowledged batches survive restart.
// ---------------------------------------------------------------------------

func TestDurableIngestRecoversAcknowledgedBatches(t *testing.T) {
	f := newDurableFixture(t, 0)
	titles := []string{"持久实体一", "持久实体二", "持久实体三"}
	for i, title := range titles {
		resp := postJSONL(t, f.ingTS.URL, []encyclopedia.Page{{Title: title, Tags: []string{f.concept}}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %q status = %d", title, resp.StatusCode)
		}
		var rep IngestResponse
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatalf("decode response: %v", err)
		}
		resp.Body.Close()
		if rep.LSN != uint64(i+1) {
			t.Fatalf("batch %d acknowledged at LSN %d, want %d", i, rep.LSN, i+1)
		}
	}
	liveStats := f.srv.View().Stats()
	liveHyp := make(map[string][]string)
	for _, title := range titles {
		liveHyp[title] = hypernymsOf(t, f.apiTS.URL, title)
		if len(liveHyp[title]) == 0 {
			t.Fatalf("ingested entity %q has no hypernyms on the live server", title)
		}
	}
	f.ing.Close() // flushes + closes the WAL

	// "Restart": base snapshot (never compacted, LSN 0) + WAL replay
	// must reconstruct the acknowledged state exactly.
	res2, stats := f.recover(t)
	if stats.Applied != len(titles) || stats.Skipped != 0 {
		t.Fatalf("replay applied %d, skipped %d; want %d, 0", stats.Applied, stats.Skipped, len(titles))
	}
	ts := httptest.NewServer(NewViewServer(res2.Freeze()).Handler())
	defer ts.Close()
	if got := res2.Freeze().Stats(); got != liveStats {
		t.Fatalf("recovered stats %+v != live stats %+v", got, liveStats)
	}
	for _, title := range titles {
		got := hypernymsOf(t, ts.URL, title)
		if fmt.Sprint(got) != fmt.Sprint(liveHyp[title]) {
			t.Fatalf("recovered hypernyms(%q) = %v, live = %v", title, got, liveHyp[title])
		}
	}
}

// ---------------------------------------------------------------------------
// Concurrent ingest + queries + compaction (-race coverage), with LSN
// accounting: truncation never drops a batch the snapshot misses.
// ---------------------------------------------------------------------------

// TestCompactionSavesPublishedView pins the compactor's shortcut: the
// snapshot it writes from the view the updater just published is byte
// for byte the snapshot a save that compiles the taxonomy writes.
func TestCompactionSavesPublishedView(t *testing.T) {
	f := newDurableFixture(t, 0)
	for b := 0; b < 3; b++ {
		resp := postJSONL(t, f.ingTS.URL, []encyclopedia.Page{{Title: "视图压缩" + string(rune('甲'+b)), Tags: []string{f.concept}}})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status = %d", resp.StatusCode)
		}
	}
	before := savedFromView.Load()
	if err := f.ing.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if savedFromView.Load() == before {
		t.Fatal("compaction compiled the taxonomy instead of saving the published view")
	}
	f.ing.Close()
	got, err := os.ReadFile(f.snapPath)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	err = snapshot.Save(&want, &snapshot.State{
		Taxonomy: f.res.Taxonomy, Evidence: f.res.Evidence, Stats: f.res.Stats,
		Meta: snapshot.Meta{Pages: f.res.Report.Pages, Stats: f.res.Report.Stats, LSN: f.ing.CompactedLSN()},
	}, snapshot.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("snapshot saved from the published view (%d bytes) differs from a compiling save (%d bytes)", len(got), want.Len())
	}
}

// failingWriter passes k bytes through and fails every write after.
type failingWriter struct {
	w io.Writer
	k int
}

var errDiskFull = errors.New("disk full")

func (f *failingWriter) Write(p []byte) (int, error) {
	if len(p) > f.k {
		n, _ := f.w.Write(p[:f.k])
		f.k = 0
		return n, errDiskFull
	}
	f.k -= len(p)
	return f.w.Write(p)
}

// dirListing renders a directory as name:size:content-hash lines.
func dirListing(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := ""
	for _, e := range entries {
		if e.IsDir() {
			continue // the WAL directory, listed on its own
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out += fmt.Sprintf("%s:%d:%x\n", e.Name(), len(data), sha256.Sum256(data))
	}
	return out
}

// TestCompactionOverFailingWriter is the streamed snapshot writer's
// failure contract at the compactor: wherever in the snapshot the
// destination fails — first byte, inside each section, last byte —
// Compact reports it, the previous snapshot and the WAL stay byte for
// byte what they were (no temp file left beside them), /api/stats
// counts no compaction, and the next healthy cycle compacts everything.
func TestCompactionOverFailingWriter(t *testing.T) {
	f := newDurableFixture(t, 0)
	for _, title := range []string{"落盘实体甲", "落盘实体乙"} {
		resp := postJSONL(t, f.ingTS.URL, []encyclopedia.Page{{Title: title, Tags: []string{f.concept}}})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status = %d", resp.StatusCode)
		}
	}
	ingestStats := func() IngestStats {
		var stats struct {
			Ingest *IngestStats `json:"ingest"`
		}
		getJSON(t, f.apiTS.URL+"/api/stats", &stats)
		if stats.Ingest == nil {
			t.Fatal("/api/stats of a server with an ingester attached has no ingest block")
		}
		return *stats.Ingest
	}
	if got, want := ingestStats(), (IngestStats{AppliedLSN: 2}); got != want {
		t.Fatalf("ingest stats before any compaction = %+v, want %+v", got, want)
	}
	size := len(baseSnapshot(t))
	snapDir := filepath.Dir(f.snapPath)
	before := dirListing(t, snapDir) + dirListing(t, f.walDir)
	for _, k := range []int{0, 1, 15, 16, 17, 29, 200, size / 4, size / 2, size - 9, size - 1} {
		f.failSaveAfter.Store(int64(k))
		if err := f.ing.Compact(); !errors.Is(err, errDiskFull) {
			t.Fatalf("Compact over a writer failing after %d bytes = %v", k, err)
		}
		if after := dirListing(t, snapDir) + dirListing(t, f.walDir); after != before {
			t.Fatalf("a compaction that failed after %d bytes changed the files:\n%s\nbefore:\n%s", k, after, before)
		}
	}
	if got, want := ingestStats(), (IngestStats{AppliedLSN: 2}); got != want {
		t.Fatalf("ingest stats after failed compactions = %+v, want %+v", got, want)
	}

	f.failSaveAfter.Store(-1)
	if err := f.ing.Compact(); err != nil {
		t.Fatalf("healthy Compact after the failures: %v", err)
	}
	got := ingestStats()
	snap, err := os.Stat(f.snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.AppliedLSN != 2 || got.CompactedLSN != 2 || got.Compactions != 1 || got.LastSnapshotBytes != snap.Size() || got.LastCompactMs <= 0 || got.Wedged {
		t.Fatalf("ingest stats after a compaction = %+v (snapshot is %d bytes)", got, snap.Size())
	}
	f.ing.Close()
	recovered, stats := f.recover(t)
	if _, ok := recovered.Taxonomy.EdgeOf("落盘实体乙", f.concept); stats.Applied != 0 || !ok {
		t.Fatalf("recovery after the healthy compaction replayed %d batches; the last batch's hypernyms: %v", stats.Applied, recovered.Freeze().Hypernyms("落盘实体乙"))
	}
}

func TestDurableIngestConcurrentCompaction(t *testing.T) {
	f := newDurableFixture(t, 0)
	baseline := f.srv.View().Stats().Entities
	const writers, batches = 4, 3

	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				title := "并发耐久" + string(rune('甲'+wr)) + string(rune('子'+b))
				for {
					resp := postJSONL(t, f.ingTS.URL, []encyclopedia.Page{{Title: title, Tags: []string{f.concept}}})
					code := resp.StatusCode
					resp.Body.Close()
					if code == http.StatusOK {
						break
					}
					if code != http.StatusTooManyRequests {
						t.Errorf("ingest %q status = %d", title, code)
						return
					}
					time.Sleep(5 * time.Millisecond) // honor the backpressure
				}
			}
		}(wr)
	}
	// Readers throughout.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			resp, err := http.Get(f.apiTS.URL + "/api/getEntity?concept=" + url.QueryEscape(f.concept))
			if err != nil {
				t.Errorf("query during ingest: %v", err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("query during ingest status = %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
	}()
	// Compactor racing the writers: each cycle snapshots mid-stream
	// and truncates the log below it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if err := f.ing.Compact(); err != nil {
				t.Errorf("Compact: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	total := uint64(writers * batches)
	if got := f.ing.AppliedLSN(); got != total {
		t.Fatalf("AppliedLSN = %d, want %d", got, total)
	}
	// LSN accounting: the snapshot's claimed coverage can never exceed
	// what was applied, and replaying the surviving tail on top of the
	// snapshot must land exactly on the acknowledged state — if
	// truncation ever dropped a batch the snapshot misses, the entity
	// count below would come up short.
	if compacted := f.ing.CompactedLSN(); compacted > total {
		t.Fatalf("CompactedLSN = %d > applied %d", compacted, total)
	}
	liveStats := f.srv.View().Stats()
	f.ing.Close()

	res2, stats := f.recover(t)
	data, err := os.ReadFile(f.snapPath)
	if err != nil {
		t.Fatalf("read compacted snapshot: %v", err)
	}
	_, snapLSN := loadResult(t, data)
	if snapLSN != f.ing.CompactedLSN() {
		t.Fatalf("snapshot on disk covers LSN %d, compactor reported %d", snapLSN, f.ing.CompactedLSN())
	}
	if snapLSN+uint64(stats.Applied) != total {
		t.Fatalf("snapshot at LSN %d + %d replayed batches != %d total", snapLSN, stats.Applied, total)
	}
	got := res2.Freeze().Stats()
	if got != liveStats {
		t.Fatalf("recovered stats %+v != live stats %+v", got, liveStats)
	}
	if got.Entities != baseline+writers*batches {
		t.Fatalf("recovered %d entities, want %d", got.Entities, baseline+writers*batches)
	}
}

// ---------------------------------------------------------------------------
// Backpressure: a full queue answers 429 + Retry-After.
// ---------------------------------------------------------------------------

func TestIngestQueueFullAnswers429(t *testing.T) {
	// Hand-built ingester with a one-slot queue and NO updater
	// goroutine, so the queue state is fully deterministic: the first
	// request parks in the queue, the second must bounce.
	ing := &Ingester{
		cfg:  IngesterConfig{Queue: 1},
		reqs: make(chan ingestReq, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	body := func() io.Reader {
		return bytes.NewReader([]byte(`{"title":"排队实体"}` + "\n"))
	}
	first := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		ing.handleIngest(rec, httptest.NewRequest(http.MethodPost, "/ingest", body()))
		first <- rec
	}()
	// Wait for the first request to occupy the queue slot.
	for i := 0; len(ing.reqs) == 0; i++ {
		if i > 1000 {
			t.Fatal("first request never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	rec := httptest.NewRecorder()
	ing.handleIngest(rec, httptest.NewRequest(http.MethodPost, "/ingest", body()))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second request status = %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got == "" {
		t.Fatal("429 carries no Retry-After header")
	}

	// Service the parked request so the goroutine finishes.
	req := <-ing.reqs
	req.reply <- ingestReply{resp: IngestResponse{Pages: 1}}
	if rec := <-first; rec.Code != http.StatusOK {
		t.Fatalf("first request status = %d, want 200", rec.Code)
	}
}

// ---------------------------------------------------------------------------
// Shutdown-during-batch: every 200 is durable, every 503 is absent.
// ---------------------------------------------------------------------------

func TestShutdownDuringBatchIsAtomic(t *testing.T) {
	f := newDurableFixture(t, 0)
	const inflight = 8
	statuses := make([]int, inflight)
	titleOf := func(i int) string { return fmt.Sprintf("关机批次%02d", i) }

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp := postJSONL(t, f.ingTS.URL, []encyclopedia.Page{{Title: titleOf(i), Tags: []string{f.concept}}})
			statuses[i] = resp.StatusCode
			resp.Body.Close()
		}(i)
	}
	close(start)
	// Close races the in-flight posts: it must flush + fsync the WAL
	// before any batch is refused.
	f.ing.Close()
	wg.Wait()

	// The WAL is closed; reopen it and collect the titles it holds.
	l, err := wal.Open(f.walDir, wal.Options{})
	if err != nil {
		t.Fatalf("reopen wal: %v", err)
	}
	defer l.Close()
	logged := map[string]bool{}
	err = l.Replay(0, func(lsn uint64, payload []byte) error {
		c, err := encyclopedia.ReadJSONL(bytes.NewReader(payload))
		if err != nil {
			return err
		}
		for _, p := range c.Pages {
			logged[p.Title] = true
		}
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}

	for i := 0; i < inflight; i++ {
		switch statuses[i] {
		case http.StatusOK:
			if !logged[titleOf(i)] {
				t.Errorf("batch %d was acknowledged with 200 but is not in the WAL", i)
			}
		case http.StatusServiceUnavailable:
			if logged[titleOf(i)] {
				t.Errorf("batch %d was refused with 503 but is in the WAL", i)
			}
		default:
			t.Errorf("batch %d got status %d, want 200 or 503", i, statuses[i])
		}
	}

	// Post-close requests keep getting the typed rejection.
	resp := postJSONL(t, f.ingTS.URL, []encyclopedia.Page{{Title: "迟到批次"}})
	checkJSONError(t, resp, http.StatusServiceUnavailable)
}

// TestDurableIngesterValidation pins the configuration contract.
func TestDurableIngesterValidation(t *testing.T) {
	res, _ := loadResult(t, baseSnapshot(t))
	opts := core.DefaultOptions()
	opts.EnableNeural = false
	srv := NewViewServer(res.Freeze())
	_, err := NewDurableIngester(res, core.New(opts), srv, IngesterConfig{
		CompactEvery: time.Second, // compaction without a WAL/saver/path
	})
	if err == nil {
		t.Fatal("compaction without a WAL was accepted")
	}
}
