package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"cnprobase/internal/core"
	"cnprobase/internal/encyclopedia"
	"cnprobase/internal/synth"
)

// UpdateBenchBatch is one incremental batch's measurement.
type UpdateBenchBatch struct {
	// Batch is the 1-based batch number.
	Batch int `json:"batch"`
	// Pages is the delta size.
	Pages int `json:"pages"`
	// AccumulatedPages is the corpus size after folding this batch in.
	AccumulatedPages int `json:"accumulated_pages"`
	// Seconds is the batch's Update wall time.
	Seconds float64 `json:"seconds"`
	// PagesPerSec is the batch's delta throughput.
	PagesPerSec float64 `json:"pages_per_sec"`
	// Reverified / CandidateUnion show the O(delta) mechanism at work:
	// how many candidate decisions the pass recomputed out of the
	// whole accumulated union.
	Reverified     int `json:"reverified"`
	CandidateUnion int `json:"candidate_union"`
}

// UpdateBenchResult is the machine-readable incremental-update record
// the CI pipeline emits as BENCH_UPDATE.json: per-batch update cost
// against the accumulated corpus size, for fixed-size delta batches —
// LastOverFirst beside GrowthFactor.
type UpdateBenchResult struct {
	// Entities is the synthetic-world size the pool was generated at.
	Entities int `json:"entities"`
	// InitialPages is the size of the initial Build.
	InitialPages int `json:"initial_pages"`
	// BatchPages is the fixed delta size.
	BatchPages int `json:"batch_pages"`
	// Workers is the resolved pipeline worker count.
	Workers int `json:"workers"`
	// Batches holds the per-batch measurements.
	Batches []UpdateBenchBatch `json:"batches"`
	// FirstBatchSeconds / LastBatchSeconds / LastOverFirst compare the
	// ends of the run while the corpus grows ~(len(Batches)+1)×. Both
	// endpoints are per-page medians over the
	// first three and last three batches, so one stray scheduler or GC
	// hiccup cannot masquerade as asymptotic growth; the raw per-batch
	// numbers are all in Batches.
	FirstBatchSeconds float64 `json:"first_batch_seconds"`
	LastBatchSeconds  float64 `json:"last_batch_seconds"`
	LastOverFirst     float64 `json:"last_over_first"`
	// GrowthFactor is final corpus size over initial corpus size.
	GrowthFactor float64 `json:"corpus_growth_factor"`
}

// RunUpdateBench builds over the first 1/(batches+1) of a synthetic
// world and then folds the rest in as `batches` fixed-size deltas
// through core.Update, timing each batch. Like RunBuildBench it is
// dependency-free (no testing package) so cmd/experiments can emit
// BENCH_UPDATE.json from a plain binary.
func RunUpdateBench(entities, batches int) (*UpdateBenchResult, error) {
	if batches < 1 {
		batches = 10
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
	out := &UpdateBenchResult{
		Entities:     wcfg.Entities,
		InitialPages: chunk,
		BatchPages:   chunk,
		Workers:      res.Report.Workers,
	}
	for b := 1; b <= batches; b++ {
		lo, hi := b*chunk, (b+1)*chunk
		if b == batches {
			hi = len(pages) // the last batch absorbs the remainder
		}
		// Collect the previous batch's garbage outside the timed
		// region, so a background GC pause does not land on an
		// arbitrary batch and read as growth.
		runtime.GC()
		start := time.Now()
		if _, err := pipeline.Update(res, slice(lo, hi)); err != nil {
			return nil, fmt.Errorf("experiments: update batch %d: %w", b, err)
		}
		secs := time.Since(start).Seconds()
		out.Batches = append(out.Batches, UpdateBenchBatch{
			Batch:            b,
			Pages:            hi - lo,
			AccumulatedPages: hi,
			Seconds:          secs,
			PagesPerSec:      float64(hi-lo) / secs,
			Reverified:       res.Report.Verification.Reverified,
			CandidateUnion:   res.Report.Verification.Input,
		})
	}
	// Endpoint cost = median per-page seconds over a 3-batch window
	// (normalizing for the remainder pages the final batch absorbs).
	window := 3
	if window > len(out.Batches) {
		window = len(out.Batches)
	}
	perPage := func(bs []UpdateBenchBatch) float64 {
		xs := make([]float64, len(bs))
		for i, b := range bs {
			xs[i] = b.Seconds / float64(b.Pages)
		}
		sort.Float64s(xs)
		return xs[len(xs)/2]
	}
	firstCost := perPage(out.Batches[:window])
	lastCost := perPage(out.Batches[len(out.Batches)-window:])
	out.FirstBatchSeconds = firstCost * float64(chunk)
	out.LastBatchSeconds = lastCost * float64(chunk)
	out.LastOverFirst = lastCost / firstCost
	out.GrowthFactor = float64(out.Batches[len(out.Batches)-1].AccumulatedPages) / float64(chunk)
	return out, nil
}

// WriteJSON emits the record as indented JSON.
func (r *UpdateBenchResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
