// Command cnpserver serves a taxonomy over HTTP with the paper's three
// APIs (Table II): men2ent, getConcept, getEntity (plus men2entBatch
// and /api/stats), and the Section V application layer on top of them:
// conceptualize, conceptualizeBatch and qa — short-text
// conceptualization and QA-style text understanding, answered from the
// same immutable serving view as the lookup APIs (docs/API.md
// documents every route).
//
// Usage:
//
//	cnpserver -addr :8080 -load taxonomy.snap         # serve a snapshot (from cnprobase build -save)
//	cnpserver -addr :8080 -entities 4000              # build in-memory demo world
//	cnpserver -entities 4000 -workers 8               # parallel demo build
//	cnpserver -addr :8080 -load taxonomy.snap -pprof localhost:6060
//	cnpserver -addr :8080 -load taxonomy.snap -ingest localhost:7070
//
// -pprof serves net/http/pprof on its own listener (never on the API
// port); profile a live server with
// `go tool pprof http://localhost:6060/debug/pprof/profile`.
//
// -ingest serves the continuous-ingestion admin endpoint on its own
// listener (never the API port): POST JSONL pages to /ingest and a
// single updater goroutine folds each batch into the taxonomy
// incrementally (O(delta) per batch), freezes the result and swaps the
// serving view atomically — zero-downtime never-ending extraction.
// Ingestion needs the mutable build state, so with -load the snapshot
// must carry the evidence section (any snapshot saved by this version)
// and is decoded into the taxonomy's write model rather than view-only.
//
// -wal makes ingestion durable (requires -load and -ingest): every
// accepted batch is appended to a checksummed write-ahead log and
// fsynced before it is applied, startup replays the log tail past the
// snapshot's LSN, and a background compactor (period -compact-every)
// rewrites the -load snapshot and truncates the log below it. A 200
// from /ingest therefore survives SIGKILL:
//
//	cnpserver -load taxonomy.snap -ingest localhost:7070 -wal wal/
//
// -load is the production serving path: the snapshot (written by
// `cnprobase build -save`) becomes the immutable serving view — the
// taxonomy's write model is never materialized (unless -ingest asks
// for it). The snapshot is memory-mapped and served in place, so the
// server is query-ready in constant time regardless of taxonomy size;
// a file in a format older than version 6 is refused with an error
// that says to rebuild it. All requests are answered from that
// lock-free view.
//
// Overload safety: every listener (query, ingest, pprof) runs with
// hard ReadHeader/Read/Write/Idle timeouts and a header-size cap, so a
// slowloris client cannot pin connection goroutines; the query plane
// runs behind admission control (-max-inflight concurrent requests,
// -admit-wait bounded wait, then 429 + Retry-After), per-request
// deadlines (-query-timeout for the GET lookups, -batch-timeout for
// the POST endpoints; they bound only the -chaos-delay, answering a
// JSON 503 when it reaches them, and never cut off a running handler)
// and panic isolation (a
// handler panic is a JSON 500 on that request, never a dead process).
// A panic on the ingest updater wedges the ingester with a sticky 503
// — queries keep serving the last good view — and flips /readyz so the
// replica is rotated out. /api/stats reports shed/timeout/panic
// counters next to the latency histograms.
//
// Probes: GET /healthz answers 200 while the process is alive;
// GET /readyz answers 200 only while the server should receive
// traffic (serving state loaded and WAL replayed, not draining, the
// ingester not wedged).
//
// Signals:
//
//	SIGHUP           — hot reload: re-read the -load snapshot and swap
//	                   the serving view atomically; in-flight requests
//	                   finish on the old view, zero downtime. Ignored
//	                   (with a log line) when not serving a snapshot,
//	                   and when -ingest is active (the ingester's live
//	                   state owns the view; a file reload would be
//	                   silently reverted by the next batch).
//	SIGINT, SIGTERM  — graceful shutdown: /readyz flips to 503
//	                   immediately, -drain-grace lets load balancers
//	                   stop routing, then all listeners (query, ingest,
//	                   pprof) drain in-flight requests together
//	                   (bounded by -drain-timeout), the ingester
//	                   flushes its WAL, and per-endpoint request counts
//	                   and p50/p99 latency are logged before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cnprobase"
	"cnprobase/internal/resilience"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cnpserver: ")
	defres := cnprobase.DefaultServerResilience()
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		loadPath = flag.String("load", "", "binary snapshot path (from `cnprobase build -save`); SIGHUP hot-reloads it")
		entities = flag.Int("entities", 4000, "demo world size when -load is empty")
		workers  = flag.Int("workers", 0, "worker pool size for the demo build and the ingest plane (0 = one per CPU, 1 = sequential)")
		pprofA   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); off when empty")
		ingestA  = flag.String("ingest", "", "serve the POST /ingest admin endpoint on this address (e.g. localhost:7070); off when empty")
		walDir   = flag.String("wal", "", "write-ahead-log directory for durable ingestion (requires -load and -ingest); startup replays the log tail past the snapshot's LSN")
		compactE = flag.Duration("compact-every", time.Minute, "how often the durable ingester snapshots and truncates the WAL (0 disables background compaction)")

		maxInFlight  = flag.Int("max-inflight", defres.MaxInFlight, "admission cap on concurrently executing query requests; excess is shed with 429 + Retry-After (0 disables admission control)")
		admitWait    = flag.Duration("admit-wait", defres.AdmitWait, "how long a request may wait for an admission slot before being shed")
		queryTimeout = flag.Duration("query-timeout", defres.LookupTimeout, "per-request deadline for the GET lookup endpoints; bounds the -chaos-delay only (JSON 503 when the delay reaches it), a running handler is never cut off (0 disables)")
		batchTimeout = flag.Duration("batch-timeout", defres.BatchTimeout, "per-request deadline for the POST batch/application endpoints; bounds the -chaos-delay only (JSON 503 when the delay reaches it), a running handler is never cut off (0 disables)")
		chaosDelay   = flag.Duration("chaos-delay", 0, "chaos knob: artificial latency injected into every query request (drain drills and overload experiments; keep 0 in production)")
		drainGrace   = flag.Duration("drain-grace", 500*time.Millisecond, "on SIGINT/SIGTERM, how long /readyz answers 503 before the listeners stop accepting, so load balancers stop routing first")
		drainTO      = flag.Duration("drain-timeout", 10*time.Second, "how long graceful shutdown waits for in-flight requests across all listeners")
	)
	flag.Parse()
	if *walDir != "" && (*loadPath == "" || *ingestA == "") {
		log.Fatal("-wal requires -load (the snapshot the compactor rewrites) and -ingest")
	}

	// Every listener this process opens is registered here and drained
	// together on shutdown — no bare http.Serve anywhere, so no
	// connection is ever abandoned mid-request by an exiting main.
	var drain resilience.DrainGroup

	if *pprofA != "" {
		// A dedicated mux on a dedicated listener: profiling never
		// shares a port (or a handler namespace) with the public API.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pln, err := net.Listen("tcp", *pprofA)
		if err != nil {
			log.Fatalf("pprof listen %s: %v", *pprofA, err)
		}
		log.Printf("pprof on http://%s/debug/pprof/", pln.Addr())
		pprofServer := resilience.PprofServerConfig().Server(mux)
		drain.Add("pprof", pprofServer)
		go func() {
			if err := pprofServer.Serve(pln); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof server stopped: %v", err)
			}
		}()
	}

	var (
		view    *cnprobase.ServingView
		res     *cnprobase.Result // mutable build state; only kept when -ingest needs it
		walLog  *cnprobase.WAL    // open write-ahead log when -wal is set
		snapLSN uint64            // WAL position the loaded snapshot covers
	)
	switch {
	case *loadPath != "" && *ingestA != "":
		// Ingestion needs the write model + evidence, so decode the
		// full Result instead of the view-only fast path.
		start := time.Now()
		f, err := os.Open(*loadPath)
		if err != nil {
			log.Fatalf("load snapshot %s: %v", *loadPath, err)
		}
		res, snapLSN, err = cnprobase.LoadSnapshotLSN(f, 0, 0)
		f.Close()
		if err != nil {
			log.Fatalf("load snapshot %s: %v", *loadPath, err)
		}
		if *walDir != "" {
			// Recovery: fold in every batch the snapshot missed. The
			// replayed state is exactly what the previous process had
			// acknowledged (each batch was fsynced before its 200).
			walLog, err = cnprobase.OpenWAL(*walDir)
			if err != nil {
				log.Fatalf("open wal %s: %v", *walDir, err)
			}
			ropts := cnprobase.DefaultOptions()
			ropts.EnableNeural = false
			ropts.Workers = *workers
			var stats cnprobase.ReplayStats
			res, stats, err = cnprobase.ReplayWAL(res, walLog, snapLSN, ropts)
			if err != nil {
				log.Fatalf("replay wal %s: %v", *walDir, err)
			}
			if stats.Applied+stats.Skipped > 0 {
				log.Printf("replayed %d wal batches past LSN %d (%d skipped), now at LSN %d",
					stats.Applied, snapLSN, stats.Skipped, stats.LastLSN)
			}
		}
		view = res.Freeze()
		st := view.Stats()
		log.Printf("loaded snapshot (with the write model) in %v: %d entities, %d concepts, %d isA, %d mentions",
			time.Since(start).Round(time.Millisecond),
			st.Entities, st.Concepts, st.IsARelations, view.MentionCount())
	case *loadPath != "":
		var err error
		if view, err = loadView(*loadPath); err != nil {
			log.Fatalf("load snapshot %s: %v", *loadPath, err)
		}
	default:
		log.Printf("building demo world with %d entities...", *entities)
		start := time.Now()
		wcfg := cnprobase.DefaultWorldConfig()
		wcfg.Entities = *entities
		w, err := cnprobase.GenerateWorld(wcfg)
		if err != nil {
			log.Fatalf("generate world: %v", err)
		}
		opts := cnprobase.DefaultOptions()
		opts.Workers = *workers
		res, err = cnprobase.Build(w.Corpus(), opts)
		if err != nil {
			log.Fatalf("build: %v", err)
		}
		view = res.Freeze()
		st := res.Report.Stats
		log.Printf("built in %v (%d workers): %d entities, %d concepts, %d isA",
			time.Since(start).Round(time.Millisecond), res.Report.Workers,
			st.Entities, st.Concepts, st.IsARelations)
	}

	rc := cnprobase.ServerResilience{
		MaxInFlight:   *maxInFlight,
		AdmitWait:     *admitWait,
		LookupTimeout: *queryTimeout,
		BatchTimeout:  *batchTimeout,
		HandlerDelay:  *chaosDelay,
	}
	srv := cnprobase.NewViewServerResilient(view, rc)
	httpServer := resilience.DefaultServerConfig().Server(srv.Handler())
	drain.Add("query", httpServer)

	var ing *cnprobase.Ingester
	if *ingestA != "" {
		uopts := cnprobase.DefaultOptions()
		uopts.EnableNeural = false // updates skip the neural stage anyway
		uopts.Workers = *workers
		var err error
		if walLog != nil {
			ing, err = cnprobase.NewDurableIngester(res, uopts, srv, cnprobase.DurableIngestConfig{
				WAL:          walLog,
				SnapshotPath: *loadPath,
				SnapshotLSN:  snapLSN,
				CompactEvery: *compactE,
			})
		} else {
			ing, err = cnprobase.NewIngester(res, uopts, srv)
		}
		if err != nil {
			log.Fatalf("ingest: %v", err)
		}
		// A dedicated mux on a dedicated listener, like -pprof: batch
		// ingestion never shares a port with the public API.
		iln, err := net.Listen("tcp", *ingestA)
		if err != nil {
			log.Fatalf("ingest listen %s: %v", *ingestA, err)
		}
		fmt.Printf("ingesting on %s\n", iln.Addr())
		ingestServer := resilience.IngestServerConfig().Server(ing.Handler())
		drain.Add("ingest", ingestServer)
		go func() {
			if err := ingestServer.Serve(iln); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("ingest server stopped: %v", err)
			}
		}()
	}

	// SIGHUP hot-swaps the serving view from the snapshot file; INT and
	// TERM drain connections and trigger the shutdown latency report.
	// shutdownDone closes only after Shutdown has finished draining, so
	// main never exits with requests still in flight.
	shutdownDone := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGHUP, os.Interrupt, syscall.SIGTERM)
	go func() {
		for sig := range sigc {
			if sig == syscall.SIGHUP {
				if *loadPath == "" {
					log.Printf("SIGHUP ignored: hot reload requires -load")
					continue
				}
				if *ingestA != "" {
					// The ingester's mutable Result is the source of
					// truth for the serving view; swapping the file's
					// view in would be silently reverted by the next
					// batch. Refuse rather than race two writers.
					log.Printf("SIGHUP ignored: -ingest owns the live state; restart the server to load a different snapshot")
					continue
				}
				fresh, err := loadView(*loadPath)
				if err != nil {
					log.Printf("SIGHUP reload failed, keeping current view: %v", err)
					continue
				}
				srv.SwapView(fresh)
				log.Printf("reloaded snapshot %s, view swapped", *loadPath)
				continue
			}
			log.Printf("%v: shutting down", sig)
			// Flip readiness first so load balancers stop routing here,
			// then give them -drain-grace to notice before the listeners
			// stop accepting; in-flight requests keep completing the
			// whole time.
			srv.Health().SetDraining()
			time.Sleep(*drainGrace)
			ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
			for _, err := range drain.Shutdown(ctx) {
				log.Printf("shutdown: %v", err)
			}
			cancel()
			if ing != nil {
				// Flushes and fsyncs the WAL; batches still queued are
				// refused with 503, so every 200 ever sent is on disk.
				ing.Close()
			}
			close(shutdownDone)
			return
		}
	}()

	// Listen before announcing so the printed address is the bound one
	// (with ":0" the kernel picks the port; tests and scripts read it
	// back from this line).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen %s: %v", *addr, err)
	}
	fmt.Printf("serving men2ent/getConcept/getEntity on %s\n", ln.Addr())
	if err := httpServer.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("serve: %v", err)
	}
	// Serve returns as soon as Shutdown begins; wait for the drain to
	// finish so in-flight requests complete and appear in the report.
	<-shutdownDone
	for _, ep := range srv.LatencyReport() {
		log.Printf("latency %-13s calls=%-8d p50=%.3fms p99=%.3fms", ep.Endpoint, ep.Count, ep.P50Ms, ep.P99Ms)
	}
}

// loadView brings a snapshot file up as a serving view and logs its
// shape. The file is memory-mapped — the view serves straight off it,
// so startup cost is flat in taxonomy size.
func loadView(path string) (*cnprobase.ServingView, error) {
	start := time.Now()
	view, err := cnprobase.OpenSnapshotMapped(path)
	if err != nil {
		return nil, err
	}
	st := view.Stats()
	log.Printf("mapped snapshot in %v: %d entities, %d concepts, %d isA, %d mentions",
		time.Since(start).Round(time.Millisecond),
		st.Entities, st.Concepts, st.IsARelations, view.MentionCount())
	return view, nil
}
