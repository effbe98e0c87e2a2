package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"cnprobase"
	"cnprobase/internal/resilience"
)

// ingestOptions are the update options cnpserver runs -ingest with.
func ingestOptions() cnprobase.Options {
	opts := cnprobase.DefaultOptions()
	opts.EnableNeural = false // updates skip the neural stage anyway
	return opts
}

// ingestPlane is the write side beside the read side, wired as
// cnpserver -load -ingest -wal wires them (no background compactor:
// the harness decides when compaction runs).
type ingestPlane struct {
	res    *cnprobase.Result
	srv    *cnprobase.APIServer
	ing    *cnprobase.Ingester
	query  *listener
	ingest *listener
}

func (p *ingestPlane) close() error {
	err := errors.Join(p.ingest.close(), p.query.close())
	p.ing.Close()
	return err
}

// planeTimes are the timed calls of one set-up.
type planeTimes struct {
	total, loadStore, walReplay, compile time.Duration
}

// store is the mutable build state recovered from disk: the snapshot
// decoded into the build store, with the WAL tail folded in.
type store struct {
	res  *cnprobase.Result
	wal  *cnprobase.WAL
	snap string
	lsn  uint64 // what the snapshot file covers
}

func loadStore(snap, walDir string) (*store, planeTimes, error) {
	var pt planeTimes
	t0 := time.Now()
	f, err := os.Open(snap)
	if err != nil {
		return nil, pt, err
	}
	res, lsn, err := cnprobase.LoadSnapshotLSN(f, 0, 0)
	_ = f.Close() // read only
	if err != nil {
		return nil, pt, err
	}
	pt.loadStore = time.Since(t0)

	t1 := time.Now()
	wal, err := cnprobase.OpenWAL(walDir)
	if err != nil {
		return nil, pt, err
	}
	if res, _, err = cnprobase.ReplayWAL(res, wal, lsn, ingestOptions()); err != nil {
		return nil, pt, errors.Join(err, wal.Close())
	}
	pt.walReplay = time.Since(t1)
	return &store{res: res, wal: wal, snap: snap, lsn: lsn}, pt, nil
}

// serve starts the ingester over the store, publishing to srv, and
// both listeners. The ingester owns the WAL from here on.
func (st *store) serve(srv *cnprobase.APIServer) (*ingestPlane, error) {
	ing, err := cnprobase.NewDurableIngester(st.res, ingestOptions(), srv, cnprobase.DurableIngestConfig{
		WAL: st.wal, SnapshotPath: st.snap, SnapshotLSN: st.lsn,
	})
	if err != nil {
		return nil, errors.Join(err, st.wal.Close())
	}
	p := &ingestPlane{res: st.res, srv: srv, ing: ing}
	if p.query, err = listen(resilience.DefaultServerConfig(), srv.Handler()); err != nil {
		ing.Close()
		return nil, err
	}
	if p.ingest, err = listen(resilience.IngestServerConfig(), ing.Handler()); err != nil {
		ing.Close()
		return nil, errors.Join(err, p.query.close())
	}
	return p, nil
}

// openIngestPlane goes from the snapshot file and the WAL directory to
// a system whose query listener has answered its first query.
func openIngestPlane(snap, walDir string) (*ingestPlane, planeTimes, error) {
	t0 := time.Now()
	st, pt, err := loadStore(snap, walDir)
	if err != nil {
		return nil, pt, err
	}
	t1 := time.Now()
	view := st.res.Freeze()
	pt.compile = time.Since(t1)
	p, err := st.serve(cnprobase.NewViewServerResilient(view, cnprobase.DefaultServerResilience()))
	if err != nil {
		return nil, pt, err
	}
	if err := firstOK(p.query.addr); err != nil {
		return nil, pt, errors.Join(err, p.close())
	}
	pt.total = time.Since(t0)
	return p, pt, nil
}

// setupIngestPlane sets the system up several times and keeps the last.
func setupIngestPlane(snap, walDir string, cycles int) (p *ingestPlane, times []planeTimes, err error) {
	for i := 0; i < cycles; i++ {
		if p != nil {
			if err := p.close(); err != nil {
				return nil, nil, err
			}
			p = nil
			runtime.GC() // the dropped store must not count towards the process's peak RSS
		}
		var pt planeTimes
		if p, pt, err = openIngestPlane(snap, walDir); err != nil {
			return nil, nil, err
		}
		times = append(times, pt)
	}
	return p, times, nil
}

func medianOf(times []planeTimes, unit time.Duration, pick func(planeTimes) time.Duration) float64 {
	ds := make([]time.Duration, len(times))
	for i, pt := range times {
		ds[i] = pick(pt)
	}
	return median(durs(ds, unit))
}

// batch is one crawl delta: its pages and the JSONL body that carries
// them to /ingest.
type batch struct {
	pages []cnprobase.Page
	body  []byte
	wire  []byte
}

// loadBatches cuts the held-out pages into the crawl batches the WAL
// tail does not already hold.
func loadBatches(fixtures string) ([]batch, error) {
	var fx fixtureInfo
	if err := readJSON(filepath.Join(fixtures, "fixtures.json"), &fx); err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(fixtures, "heldout.jsonl"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	held, err := cnprobase.ReadCorpus(f)
	if err != nil {
		return nil, err
	}
	var out []batch
	for lo := fx.WALTailBatches * fx.BatchPages; lo+fx.BatchPages <= len(held.Pages); lo += fx.BatchPages {
		b := batch{pages: held.Pages[lo : lo+fx.BatchPages]}
		var body bytes.Buffer
		if err := (&cnprobase.Corpus{Pages: b.pages}).WriteJSONL(&body); err != nil {
			return nil, err
		}
		b.body = body.Bytes()
		b.wire = append([]byte("POST /ingest HTTP/1.1\r\nHost: bench\r\nContent-Length: "+strconv.Itoa(len(b.body))+"\r\n\r\n"), b.body...)
		out = append(out, b)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fixtures hold no crawl batch")
	}
	return out, nil
}

// ack is the part of the /ingest reply the harness reads.
type ack struct {
	Pages int    `json:"pages"`
	IsA   int    `json:"isa_relations"`
	LSN   uint64 `json:"lsn"`
}

// crawler is the one connection that POSTs batches, each after the
// previous ack: a 200 means durable, applied and visible.
type crawler struct {
	c    *conn
	body bytes.Buffer
	acks []ack
	lat  []time.Duration
}

func (cr *crawler) post(b *batch, t *tally) error {
	cr.body.Reset()
	t0 := time.Now()
	status, _, err := cr.c.roundTrip(b.wire, &cr.body)
	d := time.Since(t0)
	if err != nil {
		return err
	}
	var a ack
	if status == http.StatusOK {
		err = json.Unmarshal(cr.body.Bytes(), &a)
	}
	prev := uint64(0)
	if len(cr.acks) > 0 {
		prev = cr.acks[len(cr.acks)-1].LSN
	}
	t.check(status == http.StatusOK && err == nil && a.Pages == len(b.pages) && a.LSN > prev,
		"ingest batch %d: status %d, %d pages acked, lsn %d after %d", len(cr.acks), status, a.Pages, a.LSN, prev)
	cr.acks = append(cr.acks, a)
	cr.lat = append(cr.lat, d)
	return nil
}

// probeResult is what the reader beside the writer saw.
type probeResult struct {
	fromDue  []time.Duration // latency from when the request was due
	fromSend []time.Duration // latency from when it was sent
	lag      []time.Duration // how late the generator sent it
	failed   int
	err      error
}

// probeRate is the fixed rate of the read probe, per second.
const probeRate = 200

// probe issues the lookup mix at a fixed rate on one connection until
// stop closes. It is an open loop: a request is due on schedule however
// slow the previous one was, and is timed from when it was due.
func probe(addr string, reqs []request, stop <-chan struct{}) probeResult {
	var pr probeResult
	c, err := dial(addr)
	if err != nil {
		pr.err = err
		return pr
	}
	defer c.close()
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * time.Second / probeRate)
		select {
		case <-stop:
			return pr
		case <-time.After(time.Until(due)):
		}
		sent := time.Now()
		status, n, err := c.roundTrip(reqs[i%len(reqs)].wire, nil)
		if err != nil {
			pr.err = err
			return pr
		}
		done := time.Now()
		if status != http.StatusOK || n == 0 {
			pr.failed++
		}
		pr.fromDue = append(pr.fromDue, done.Sub(due))
		pr.fromSend = append(pr.fromSend, done.Sub(sent))
		pr.lag = append(pr.lag, sent.Sub(due))
	}
}

// compactEvery is how many acked batches pass between compactions.
const compactEvery = 10

// crawl posts batches until the window (or the batches) run out, with
// the probe reading beside it. Untraced, every compactEvery-th ack
// starts a compaction on the updater goroutine, as cnpserver's ticker
// would, so the next batch waits behind it. Traced, the crawler waits
// for the compaction instead, so that its span holds nothing else.
func crawl(tr *tracer, p *ingestPlane, batches []batch, probeReqs []request, window time.Duration, t *tally) (cr *crawler, pr probeResult, wall time.Duration, err error) {
	c, err := dial(p.ingest.addr)
	if err != nil {
		return nil, pr, 0, err
	}
	defer c.close()
	cr = &crawler{c: c}
	stop := make(chan struct{})
	probed := make(chan probeResult, 1)
	go func() { probed <- probe(p.query.addr, probeReqs, stop) }()

	var bg sync.WaitGroup
	var bgErr error
	start := time.Now()
	for i := range batches {
		if time.Since(start) >= window {
			break
		}
		if tr != nil {
			tr.timed("api.ingest_http", 0, i, func() { err = cr.post(&batches[i], t) })
		} else {
			err = cr.post(&batches[i], t)
		}
		if err != nil {
			break
		}
		if (i+1)%compactEvery != 0 {
			continue
		}
		if tr != nil {
			if tr.timed("api.compact", 0, i, func() { err = p.ing.Compact() }); err != nil {
				break
			}
			continue
		}
		bg.Wait() // at most one compaction outstanding
		bg.Add(1)
		go func() {
			defer bg.Done()
			if cerr := p.ing.Compact(); cerr != nil {
				bgErr = cerr
			}
		}()
	}
	wall = time.Since(start)
	bg.Wait()
	close(stop)
	pr = <-probed
	return cr, pr, wall, errors.Join(err, bgErr, pr.err)
}

// checkVisible asks /api/men2ent for one sampled title of every acked
// batch: an acked page is visible to readers.
func checkVisible(addr string, batches []batch, acked int, seed int64, t *tally) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close()
	rng := rand.New(rand.NewSource(seed))
	var body bytes.Buffer
	for i := 0; i < acked; i++ {
		page := &batches[i].pages[rng.Intn(len(batches[i].pages))]
		r := newGet(kMen2Ent, "/api/men2ent", "mention", page.Title)
		body.Reset()
		status, _, err := c.roundTrip(r.wire, &body)
		if err != nil {
			return err
		}
		var resp struct {
			Entities []string `json:"entities"`
		}
		err = json.Unmarshal(body.Bytes(), &resp)
		found := false
		for _, e := range resp.Entities {
			found = found || e == page.ID()
		}
		t.check(status == http.StatusOK && err == nil && found, "batch %d: acked page %s does not resolve", i, page.ID())
	}
	return nil
}

// finishIngest compacts once more, so the snapshot file holds every
// acked batch for the parent to judge, closes the plane and checks the
// acks are on disk: a fresh open of the WAL ends at the last acked LSN.
func finishIngest(p *ingestPlane, walDir string, lastLSN uint64, t *tally) error {
	if err := p.ing.Compact(); err != nil {
		return err
	}
	if err := p.close(); err != nil {
		return err
	}
	wal, err := cnprobase.OpenWAL(walDir)
	if err != nil {
		return err
	}
	t.check(wal.LastLSN() == lastLSN, "reopened WAL ends at LSN %d, last ack carried %d", wal.LastLSN(), lastLSN)
	return wal.Close()
}

// stageIngest copies the snapshot and the WAL tail into the run's own
// directory: compaction rewrites the first and appends grow the second.
func stageIngest(cfg config) (snap, walDir string, err error) {
	snap = filepath.Join(cfg.work, "ingest.snap")
	walDir = filepath.Join(cfg.work, "wal")
	if err := copyFile(filepath.Join(cfg.fixtures, "base.snap"), snap); err != nil {
		return "", "", err
	}
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return "", "", err
	}
	segs, err := os.ReadDir(filepath.Join(cfg.fixtures, "wal"))
	if err != nil {
		return "", "", err
	}
	for _, e := range segs {
		if err := copyFile(filepath.Join(cfg.fixtures, "wal", e.Name()), filepath.Join(walDir, e.Name())); err != nil {
			return "", "", err
		}
	}
	return snap, walDir, nil
}

func copyFile(from, to string) (err error) {
	src, err := os.Open(from)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := os.Create(to)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := dst.Close(); err == nil {
			err = cerr
		}
	}()
	if _, err := io.Copy(dst, src); err != nil {
		return err
	}
	return dst.Sync()
}

// runIngest is the untraced run: crawl for the window, probe beside it.
func runIngest(cfg config, t *tally) error {
	snap, walDir, err := stageIngest(cfg)
	if err != nil {
		return err
	}
	batches, err := loadBatches(cfg.fixtures)
	if err != nil {
		return err
	}
	p, times, err := setupIngestPlane(snap, walDir, 3)
	if err != nil {
		return err
	}
	probeReqs, err := generate("ingest", namesOf(p.srv.View()), cfg.seed, 1<<12)
	if err != nil {
		return errors.Join(err, p.close())
	}

	cpu0 := cpuTime()
	cr, pr, wall, err := crawl(nil, p, batches, probeReqs, cfg.seconds, t)
	if err != nil {
		return errors.Join(err, p.close())
	}
	cpu := cpuTime() - cpu0
	t.count(len(pr.fromDue), pr.failed, "probe requests were not a 200 with a body")
	noOverload(p.srv, t)
	pages := 0
	for _, a := range cr.acks {
		pages += a.Pages
	}
	t.set("setup_s", medianOf(times, time.Second, func(pt planeTimes) time.Duration { return pt.total }))
	t.set("ops_per_s", float64(pages)/wall.Seconds())
	t.set("p50_ms", median(durs(cr.lat, time.Millisecond)))
	t.set("cpu_us_per_op", float64(cpu.Microseconds())/float64(max(pages, 1)))
	t.set("heap_mb", liveHeapMB(p))
	t.set("rss_peak_mb", rssPeakMB())

	if err := checkVisible(p.query.addr, batches, len(cr.acks), cfg.seed, t); err != nil {
		return errors.Join(err, p.close())
	}
	last := cr.acks[len(cr.acks)-1].LSN
	t.Facts["last_lsn"] = float64(last)
	return finishIngest(p, walDir, last, t)
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// traceIngest is the traced run. It first replays, step by step on a
// store of its own, the sequence the ingester applies to a batch
// (decode, WAL append, Update, Freeze, SwapView), one span per step;
// then it hands that store to a real ingester and posts further batches
// over HTTP, so that what the steps leave unexplained of an ack shows.
func traceIngest(cfg config, t *tally) error {
	snap, walDir, err := stageIngest(cfg)
	if err != nil {
		return err
	}
	batches, err := loadBatches(cfg.fixtures)
	if err != nil {
		return err
	}
	n := min(max(int(2*cfg.seconds.Seconds()), 2), len(batches)/2)
	stepped, posted := batches[:n], batches[n:2*n]
	tr := newTracer(8 * n)

	// Set-up once whole, for its timed calls, then once more by hand:
	// the stepwise replay needs the store before an ingester owns it.
	p, times, err := setupIngestPlane(snap, walDir, 1)
	if err != nil {
		return err
	}
	if err := p.close(); err != nil {
		return err
	}
	p = nil
	runtime.GC() // the dropped store must not weigh on the replay
	st, pt, err := loadStore(snap, walDir)
	if err != nil {
		return err
	}
	times = append(times, pt)
	res, wal, opts := st.res, st.wal, ingestOptions()
	srv := cnprobase.NewViewServerResilient(res.Freeze(), cnprobase.DefaultServerResilience())

	walBefore, err := dirBytes(walDir)
	if err != nil {
		return errors.Join(err, wal.Close())
	}
	// The steps Ingester.apply takes for one batch, in its order.
	var (
		b     *batch
		delta *cnprobase.Corpus
		view  *cnprobase.ServingView
	)
	steps := []struct {
		name string
		fn   func() error
	}{
		{"encyclopedia.decode", func() (err error) { delta, err = cnprobase.ReadCorpus(bytes.NewReader(b.body)); return err }},
		{"wal.append", func() (err error) { _, err = wal.Append(b.body); return err }},
		{"core.update", func() (err error) { res, err = cnprobase.Update(res, delta, opts); return err }},
		{"serving.compile", func() error { view = res.Freeze(); return nil }},
		{"api.swap", func() error { srv.SwapView(view); return nil }},
	}
	stage := map[string][]float64{} // step name -> milliseconds, batch by batch
	var userBytes int
	var reverified, union []float64
	for i := range stepped {
		b = &stepped[i]
		root := tr.begin("api.apply", 0, i)
		for _, s := range steps {
			var err error
			d := tr.timed(s.name, root, i, func() { err = s.fn() })
			if err != nil {
				return errors.Join(fmt.Errorf("%s: %w", s.name, err), wal.Close())
			}
			stage[s.name] = append(stage[s.name], ms(d))
		}
		tr.end(root)
		userBytes += len(b.body)
		reverified = append(reverified, float64(res.Report.Verification.Reverified))
		union = append(union, float64(res.Report.Verification.Input))
		t.check(view.Lookup(b.pages[0].Title) != nil, "stepwise batch %d: page %s does not resolve", i, b.pages[0].ID())
	}
	walAfter, err := dirBytes(walDir)
	if err != nil {
		return errors.Join(err, wal.Close())
	}

	// The real ingester takes over the store and the WAL where the
	// stepwise replay left them.
	st.res = res
	if p, err = st.serve(srv); err != nil {
		return err
	}
	probeReqs, err := generate("ingest", namesOf(srv.View()), cfg.seed, 1<<12)
	if err != nil {
		return errors.Join(err, p.close())
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cr, pr, _, err := crawl(tr, p, posted, probeReqs, time.Hour, t)
	if err != nil {
		return errors.Join(err, p.close())
	}
	runtime.ReadMemStats(&m1)
	t.count(len(pr.fromDue), pr.failed, "probe requests were not a 200 with a body")
	info, err := os.Stat(snap)
	if err != nil {
		return errors.Join(err, p.close())
	}

	var stages float64
	for _, s := range steps {
		stages += mean(stage[s.name])
	}
	ackP50 := median(durs(cr.lat, time.Millisecond))
	t.set("snapshot.load_store_ms", medianOf(times, time.Millisecond, func(pt planeTimes) time.Duration { return pt.loadStore }))
	t.set("wal.open_replay_ms", medianOf(times, time.Millisecond, func(pt planeTimes) time.Duration { return pt.walReplay }))
	t.set("serving.compile_ms", mean(stage["serving.compile"]))
	t.set("encyclopedia.decode_ms", mean(stage["encyclopedia.decode"]))
	t.set("wal.append_ms", mean(stage["wal.append"]))
	t.set("wal.bytes_per_user_byte", float64(walAfter-walBefore)/float64(userBytes))
	t.set("core.update_ms", mean(stage["core.update"]))
	t.set("core.reverified_per_batch", mean(reverified))
	t.set("core.candidate_union", mean(union))
	t.set("api.swap_us", 1000*mean(stage["api.swap"]))
	t.set("api.ack_p50_ms", ackP50)
	t.set("api.ack_p90_ms", quantile(durs(cr.lat, time.Millisecond), 0.90))
	t.set("api.ingest_http_ms", ackP50-stages)
	t.set("trace.stage_share_pct", 100*stages/ackP50)
	t.set("api.compact_ms", mean(tr.selfTimes()["api.compact"])/1e6)
	t.set("snapshot.bytes", float64(info.Size()))
	t.set("snapshot.bytes_per_isa", float64(info.Size())/float64(max(cr.acks[len(cr.acks)-1].IsA, 1)))
	t.set("runtime.alloc_mb_per_batch", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/float64(len(cr.acks)))
	t.set("runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	t.set("probe.p50_us", median(durs(pr.fromSend, time.Microsecond)))
	t.set("probe.p99_us", quantile(durs(pr.fromDue, time.Microsecond), 0.99))
	t.set("probe.send_lag_p99_us", quantile(durs(pr.lag, time.Microsecond), 0.99))
	shed, timeouts, panics := noOverload(srv, t)
	t.set("api.shed", shed)
	t.set("api.timeouts", timeouts)
	t.set("api.panics", panics)

	if err := checkVisible(p.query.addr, posted, len(cr.acks), cfg.seed, t); err != nil {
		return errors.Join(err, p.close())
	}
	if err := finishIngest(p, walDir, cr.acks[len(cr.acks)-1].LSN, t); err != nil {
		return err
	}
	return tr.write(cfg.out, cfg.workload)
}
