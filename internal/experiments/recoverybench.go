package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cnprobase/internal/api"
	"cnprobase/internal/core"
	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/snapshot"
	"cnprobase/internal/synth"
	"cnprobase/internal/wal"
)

// RecoveryBenchPoint is one recovery measurement: cold-start the
// serving state from the base snapshot plus the WAL tail as it stood
// after `Batches` ingested batches.
type RecoveryBenchPoint struct {
	// Batches is how many ingested batches the WAL tail held.
	Batches int `json:"batches"`
	// WALBytes is the on-disk size of the log at this point.
	WALBytes int64 `json:"wal_bytes"`
	// LoadSeconds is the base-snapshot decode time.
	LoadSeconds float64 `json:"load_seconds"`
	// ReplaySeconds is the WAL open + replay time on top of the load.
	ReplaySeconds float64 `json:"replay_seconds"`
	// RecoverySeconds is the total cold-start time (load + replay).
	RecoverySeconds float64 `json:"recovery_seconds"`
	// Replayed is the batch count the replay actually applied (sanity:
	// equals Batches unless a batch was skipped).
	Replayed int `json:"replayed"`
}

// RecoveryBenchResult is the machine-readable durability record the CI
// pipeline emits as BENCH_RECOVERY.json. The claim it documents:
// crash-recovery cost is load-the-snapshot plus replay-the-tail, the
// replay component grows with the un-compacted WAL suffix, and
// compaction collapses it — a restart from the compacted snapshot pays
// only snapshot-load time again (CompactedRecoverySeconds tracks
// Points[0].LoadSeconds, not Points[len-1].RecoverySeconds).
type RecoveryBenchResult struct {
	// Entities is the synthetic-world size the corpus was generated at.
	Entities int `json:"entities"`
	// InitialPages is the size of the base build the snapshot captures.
	InitialPages int `json:"initial_pages"`
	// BatchPages is the fixed per-batch delta size.
	BatchPages int `json:"batch_pages"`
	// SnapshotBytes is the base snapshot's on-disk size.
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// Points holds one recovery measurement per ingested batch.
	Points []RecoveryBenchPoint `json:"points"`
	// CompactedSnapshotBytes / CompactedRecoverySeconds measure a
	// restart after compaction folded the whole tail into a fresh
	// snapshot: the WAL below its LSN is truncated, so recovery is a
	// pure snapshot load again.
	CompactedSnapshotBytes   int64   `json:"compacted_snapshot_bytes"`
	CompactedRecoverySeconds float64 `json:"compacted_recovery_seconds"`
	// TailOverCompacted is the last point's full recovery time over the
	// compacted restart time — how much startup latency compaction
	// reclaimed at this tail length.
	TailOverCompacted float64 `json:"tail_over_compacted"`
}

// RunRecoveryBench measures cold-start recovery cost as the WAL tail
// grows, then the same restart after compaction. It builds over the
// first 1/(batches+1) of a synthetic world, saves that as the base
// snapshot, appends the remaining pages as `batches` fixed-size JSONL
// batches to a real on-disk WAL (applying each live, exactly like the
// ingest plane), and after every batch times a full recovery: decode
// the base snapshot, open the log, replay past the snapshot's LSN.
// Like the other Run*Bench functions it is dependency-free (no testing
// package) so cmd/experiments can emit BENCH_RECOVERY.json from a
// plain binary.
func RunRecoveryBench(entities, batches int) (*RecoveryBenchResult, error) {
	if batches < 1 {
		batches = 8
	}
	wcfg := synth.DefaultConfig()
	if entities > 0 {
		wcfg.Entities = entities
	}
	w, err := synth.Generate(wcfg)
	if err != nil {
		return nil, err
	}
	pages := w.Corpus().Pages
	chunk := len(pages) / (batches + 1)
	if chunk == 0 {
		return nil, fmt.Errorf("experiments: world of %d pages cannot feed %d batches", len(pages), batches)
	}
	slice := func(lo, hi int) *encyclopedia.Corpus {
		c := &encyclopedia.Corpus{}
		c.Pages = append(c.Pages, pages[lo:hi]...)
		return c
	}

	opts := core.DefaultOptions()
	opts.EnableNeural = false // keep the measurement deterministic
	pipeline := core.New(opts)
	res, err := pipeline.Build(slice(0, chunk))
	if err != nil {
		return nil, err
	}

	dir, err := os.MkdirTemp("", "cnprobase-recoverybench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	snapPath := filepath.Join(dir, "base.snap")
	walDir := filepath.Join(dir, "wal")
	snapBytes, err := saveBenchSnapshot(snapPath, res, 0)
	if err != nil {
		return nil, err
	}

	out := &RecoveryBenchResult{
		Entities:      wcfg.Entities,
		InitialPages:  chunk,
		BatchPages:    chunk,
		SnapshotBytes: snapBytes,
	}

	// Ingest loop: append each batch to the WAL first, then apply it —
	// the same write-ahead ordering Ingester.apply uses. The writer log
	// is closed around each measurement so the timed recovery opens the
	// directory exactly as a restarted server would.
	log, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		return nil, err
	}
	lastLSN := uint64(0)
	for b := 1; b <= batches; b++ {
		lo, hi := b*chunk, (b+1)*chunk
		if b == batches {
			hi = len(pages) // the last batch absorbs the remainder
		}
		payload, err := encodeJSONLPages(pages[lo:hi])
		if err != nil {
			return nil, err
		}
		lsn, err := log.Append(payload)
		if err != nil {
			return nil, fmt.Errorf("experiments: wal append batch %d: %w", b, err)
		}
		lastLSN = lsn
		if _, err := pipeline.Update(res, slice(lo, hi)); err != nil {
			return nil, fmt.Errorf("experiments: update batch %d: %w", b, err)
		}
		if err := log.Close(); err != nil {
			return nil, err
		}
		point, err := measureRecovery(snapPath, walDir, b)
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, point)
		if log, err = wal.Open(walDir, wal.Options{}); err != nil {
			return nil, err
		}
	}

	// Compaction: fold the whole tail into a fresh snapshot at the last
	// applied LSN and truncate the log below it, then time the restart
	// that snapshot buys.
	compactPath := filepath.Join(dir, "compacted.snap")
	if out.CompactedSnapshotBytes, err = saveBenchSnapshot(compactPath, res, lastLSN); err != nil {
		return nil, err
	}
	if err := log.Roll(); err != nil {
		return nil, err
	}
	if _, err := log.TruncateBelow(lastLSN); err != nil {
		return nil, err
	}
	if err := log.Close(); err != nil {
		return nil, err
	}
	point, err := measureRecovery(compactPath, walDir, 0)
	if err != nil {
		return nil, err
	}
	out.CompactedRecoverySeconds = point.RecoverySeconds
	last := out.Points[len(out.Points)-1]
	out.TailOverCompacted = last.RecoverySeconds / point.RecoverySeconds
	return out, nil
}

// measureRecovery times one cold start: decode the snapshot at path,
// open the WAL directory, replay everything past the snapshot's LSN.
func measureRecovery(snapPath, walDir string, batches int) (RecoveryBenchPoint, error) {
	point := RecoveryBenchPoint{Batches: batches}
	var err error
	if point.WALBytes, err = dirBytes(walDir); err != nil {
		return point, err
	}
	data, err := os.ReadFile(snapPath)
	if err != nil {
		return point, err
	}
	runtime.GC() // keep ambient garbage out of the timed region
	start := time.Now()
	st, err := snapshot.Load(bytes.NewReader(data), snapshot.Options{})
	if err != nil {
		return point, fmt.Errorf("experiments: load %s: %w", snapPath, err)
	}
	loaded := time.Now()
	res := &core.Result{
		Taxonomy: st.Taxonomy,
		Mentions: st.Mentions,
		Report:   &core.Report{Pages: st.Meta.Pages, Stats: st.Taxonomy.ComputeStats()},
		Evidence: st.Evidence,
		Kept:     st.Kept,
		Stats:    st.Stats,
	}
	ropts := core.DefaultOptions()
	ropts.EnableNeural = false
	l, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		return point, err
	}
	_, stats, err := api.ReplayWAL(res, core.New(ropts), l, st.Meta.LSN)
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return point, fmt.Errorf("experiments: replay: %w", err)
	}
	end := time.Now()
	point.LoadSeconds = loaded.Sub(start).Seconds()
	point.ReplaySeconds = end.Sub(loaded).Seconds()
	point.RecoverySeconds = end.Sub(start).Seconds()
	point.Replayed = stats.Applied
	return point, nil
}

// saveBenchSnapshot writes res as a snapshot covering lsn and returns
// the file size.
func saveBenchSnapshot(path string, res *core.Result, lsn uint64) (int64, error) {
	st := &snapshot.State{
		Taxonomy: res.Taxonomy,
		Mentions: res.Mentions,
		Meta: snapshot.Meta{
			Pages: res.Report.Pages,
			Stats: res.Taxonomy.ComputeStats(),
			LSN:   lsn,
		},
		Evidence: res.Evidence,
		Kept:     res.Kept,
		Stats:    res.Stats,
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := snapshot.Save(f, st, snapshot.Options{}); err != nil {
		return 0, errors.Join(err, f.Close())
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// encodeJSONLPages renders pages in the /ingest wire format: one JSON
// page per line.
func encodeJSONLPages(pages []encyclopedia.Page) ([]byte, error) {
	var buf bytes.Buffer
	for i := range pages {
		b, err := json.Marshal(&pages[i])
		if err != nil {
			return nil, err
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// dirBytes sums the sizes of the regular files directly under dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// WriteJSON emits the record as indented JSON.
func (r *RecoveryBenchResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
