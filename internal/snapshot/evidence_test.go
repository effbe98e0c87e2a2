package snapshot

import (
	"bytes"
	"testing"

	"cnprobase/internal/core"
	"cnprobase/internal/synth"
)

// buildResult runs the pipeline so the state carries the full update
// substrate (evidence, kept candidates, statistics).
func buildResult(tb testing.TB, entities int) *core.Result {
	tb.Helper()
	cfg := synth.DefaultConfig()
	cfg.Entities = entities
	w, err := synth.Generate(cfg)
	if err != nil {
		tb.Fatalf("synth.Generate: %v", err)
	}
	opts := core.DefaultOptions()
	opts.EnableNeural = false
	res, err := core.New(opts).Build(w.Corpus())
	if err != nil {
		tb.Fatalf("Build: %v", err)
	}
	return res
}

// TestEvidenceRoundTrip pins the evidence section: a state
// saved with evidence loads with the kept candidate set, support
// counts and corpus statistics intact.
func TestEvidenceRoundTrip(t *testing.T) {
	res := buildResult(t, 300)
	st := &State{
		Taxonomy: res.Taxonomy,
		Mentions: res.Mentions,
		Meta:     Meta{Pages: res.Report.Pages, Stats: res.Report.Stats},
		Evidence: res.Evidence,
		Kept:     res.Kept,
		Stats:    res.Stats,
	}
	loaded, err := Load(bytes.NewReader(saveBytes(t, st, Options{Workers: 1})))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.Evidence == nil || loaded.Stats == nil {
		t.Fatal("evidence section did not round-trip")
	}
	if len(loaded.Kept) != len(res.Kept) {
		t.Fatalf("kept = %d candidates, want %d", len(loaded.Kept), len(res.Kept))
	}
	for i, c := range res.Kept {
		if loaded.Kept[i] != c {
			t.Fatalf("kept[%d] = %+v, want %+v", i, loaded.Kept[i], c)
		}
	}
	// Support and statistics fold back exactly.
	for _, e := range res.Evidence.Support.Entries() {
		if got := loaded.Evidence.Support.S1(e.Word); got != res.Evidence.Support.S1(e.Word) {
			t.Fatalf("S1(%q) = %v after load, want %v", e.Word, got, res.Evidence.Support.S1(e.Word))
		}
	}
	if got, want := loaded.Stats.Tokens(), res.Stats.Tokens(); got != want {
		t.Fatalf("stats tokens = %d, want %d", got, want)
	}
	if got, want := loaded.Stats.VocabSize(), res.Stats.VocabSize(); got != want {
		t.Fatalf("stats vocab = %d, want %d", got, want)
	}
}

// TestSaveWithoutEvidence: states without the update substrate (e.g.
// hand-assembled) save with an
// absent-evidence flag and load back with nil evidence.
func TestSaveWithoutEvidence(t *testing.T) {
	st := handState(t)
	loaded, err := Load(bytes.NewReader(saveBytes(t, st, Options{Workers: 1})))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.Evidence != nil || loaded.Kept != nil || loaded.Stats != nil {
		t.Fatal("evidence materialized from an evidence-less snapshot")
	}
	requireEqualState(t, st, loaded)
}
