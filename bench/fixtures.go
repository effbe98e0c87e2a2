package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cnprobase"
)

// walTailBatches is how many crawl batches the fixture WAL already
// holds, so that starting the ingest plane replays a real tail.
const walTailBatches = 3

// fixtureInfo is what a workload needs to know about the files.
type fixtureInfo struct {
	Seed           int64 `json:"seed"`
	HeldOut        int   `json:"held_out"`
	BatchPages     int   `json:"batch_pages"`
	WALTailBatches int   `json:"wal_tail_batches"`
}

// built is one build of the fixture world, with what it cost.
type built struct {
	res *cnprobase.Result
	dur time.Duration
}

// fixtures is one seeded world and the files every workload starts
// from: corpus.jsonl (all pages), heldout.jsonl (the last tenth),
// base.snap (a build without the held-out pages) and wal/ (the first
// held-out batches, appended but not yet in the snapshot). Only the
// parent process holds one; workloads see the directory.
type fixtures struct {
	dir      string
	info     fixtureInfo
	world    *cnprobase.World
	worldDur time.Duration
	base     *built // all pages but the held-out ones; written to base.snap
	full     *built // all pages; what the build workload builds
}

func newFixtures(dir string, seed int64, entities int) (*fixtures, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	wcfg := cnprobase.DefaultWorldConfig()
	wcfg.Seed, wcfg.Entities = seed, entities
	world, err := cnprobase.GenerateWorld(wcfg)
	if err != nil {
		return nil, err
	}
	pages := world.Corpus().Pages
	held := entities / 10
	fx := &fixtures{dir: dir, world: world, info: fixtureInfo{
		Seed: seed, HeldOut: held, BatchPages: max(held/100, 1), WALTailBatches: walTailBatches,
	}}
	if held < (walTailBatches+4)*fx.info.BatchPages || held >= len(pages) {
		return nil, fmt.Errorf("%d entities are too few to hold out crawl batches", entities)
	}
	if err := writeCorpus(filepath.Join(dir, "corpus.jsonl"), pages); err != nil {
		return nil, err
	}
	if err := writeCorpus(filepath.Join(dir, "heldout.jsonl"), pages[len(pages)-held:]); err != nil {
		return nil, err
	}
	if err := writeJSON(filepath.Join(dir, "fixtures.json"), fx.info); err != nil {
		return nil, err
	}
	fx.worldDur = time.Since(t0)
	return fx, nil
}

// baseBuild builds the taxonomy the serving workloads start from and
// writes base.snap and the WAL tail, once.
func (fx *fixtures) baseBuild() (*built, error) {
	if fx.base != nil {
		return fx.base, nil
	}
	t0 := time.Now()
	pages := fx.world.Corpus().Pages
	cut := len(pages) - fx.info.HeldOut
	res, err := cnprobase.Build(&cnprobase.Corpus{Pages: pages[:cut]}, buildOptions())
	if err != nil {
		return nil, err
	}
	if err := saveSnapshot(filepath.Join(fx.dir, "base.snap"), res); err != nil {
		return nil, err
	}
	wal, err := cnprobase.OpenWAL(filepath.Join(fx.dir, "wal"))
	if err != nil {
		return nil, err
	}
	for i := 0; i < walTailBatches; i++ {
		var body bytes.Buffer
		lo := cut + i*fx.info.BatchPages
		if err := (&cnprobase.Corpus{Pages: pages[lo : lo+fx.info.BatchPages]}).WriteJSONL(&body); err != nil {
			return nil, errors.Join(err, wal.Close())
		}
		if _, err := wal.Append(body.Bytes()); err != nil {
			return nil, errors.Join(err, wal.Close())
		}
	}
	if err := wal.Close(); err != nil {
		return nil, err
	}
	fx.base = &built{res: res, dur: time.Since(t0)}
	return fx.base, nil
}

// fullBuild builds the whole corpus, as the build workload will.
func (fx *fixtures) fullBuild() (*built, error) {
	if fx.full != nil {
		return fx.full, nil
	}
	t0 := time.Now()
	res, err := cnprobase.Build(fx.world.Corpus(), buildOptions())
	if err != nil {
		return nil, err
	}
	fx.full = &built{res: res, dur: time.Since(t0)}
	return fx.full, nil
}

// quality judges a taxonomy as the paper does: precision of 2000
// sampled isA pairs against ground truth, and the share of generated
// questions the taxonomy covers.
func (fx *fixtures) quality(res *cnprobase.Result) (precision, qaCoverage float64) {
	precision = cnprobase.SamplePrecision(res.Taxonomy, fx.world.Oracle(), 2000, fx.info.Seed)
	qaCoverage, _ = cnprobase.QACoverageView(fx.world, res.Freeze(), 0)
	return precision, qaCoverage
}

func writeCorpus(path string, pages []cnprobase.Page) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := (&cnprobase.Corpus{Pages: pages}).WriteJSONL(f); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
