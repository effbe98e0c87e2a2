// Package snapshot implements the binary serving-state snapshot:
// build the taxonomy once (offline, expensive), save it, and start any
// number of servers from the file in milliseconds instead of re-running
// the generation + verification pipeline. A snapshot captures the
// complete state the paper's three public APIs (men2ent, getConcept,
// getEntity) serve from: the taxonomy — edges with full provenance and
// the evidence counts typicality ranking reads — plus the mention index
// and build metadata.
//
// The format is versioned, sectioned and checksummed (docs/SNAPSHOT.md
// specifies the byte layout). Since version 3 the content section is a
// single mappable "view image": the serving view's canonical arrays as
// fixed-width little-endian blocks plus interned string arenas, 8-byte
// aligned in the file, so OpenMapped can serve straight out of an mmap
// with no decode pass and restart cost independent of taxonomy size.
// Saving compiles the store into the canonical serving view first, so
// the same logical state produces byte-identical snapshots regardless
// of the Workers setting it was built or saved with — the
// pipeline's determinism guarantee extended to the on-disk artifact.
// Versions 1 and 2 hash-partitioned the content into a fixed number of
// varint-encoded stripes instead; SaveLegacy still writes version 2 and
// the loaders still read both.
//
// Decoding defends against arbitrary input: every length is validated
// against the bytes actually present before anything is allocated or
// parsed, oversized section claims read incrementally and fail fast,
// and corruption anywhere — truncation, bit flips, bogus counts — is
// reported as an error, never a panic (fuzz-tested by
// FuzzDecodeSnapshot).
//
// There are three read paths: Load reassembles the mutable build
// store (for JSON export, experiments, further building), LoadView
// compiles the snapshot into an immutable heap serving.View, and
// OpenMapped — version 3 only — maps the file and serves directly from
// the mapping: the cheapest startup, and N replicas on one box share a
// single page-cache copy of the string arenas.
package snapshot

import (
	"encoding/json"
	"runtime"

	"cnprobase/internal/corpus"
	"cnprobase/internal/extract"
	"cnprobase/internal/serving"
	"cnprobase/internal/taxonomy"
	"cnprobase/internal/verify"
)

// Format constants. The magic and end marker frame the file; Version
// is bumped on any incompatible layout change (a loader rejects
// versions it does not know). Stripes is part of the format, not a
// tuning knob: fixing it is what keeps striped snapshot bytes
// independent of how the in-memory store is laid out.
const (
	// Magic opens every snapshot file.
	Magic = "CNPBSNP1"
	// EndMagic closes every snapshot file (truncation tripwire).
	EndMagic = "CNPBEND1"
	// Version is the current format version. Version 3 replaces the
	// taxonomy/mention stripes with a single mappable "view image"
	// section — the serving view's canonical arrays as fixed-width
	// little-endian blocks plus interned string arenas, 8-byte aligned
	// in the file — so OpenMapped can serve straight out of an mmap of
	// the file with no decode pass. Version-1 and version-2 (striped)
	// files are still read by Load and LoadView; they simply cannot be
	// mapped.
	Version = 3
	// versionV2 is the striped layout with an evidence section (kept
	// candidates, page-derived verification evidence, NE support,
	// corpus statistics) after the mention stripes — what lets a
	// snapshot-loaded Result accept incremental Update. SaveLegacy
	// still writes it as the compatibility oracle.
	versionV2 = 2
	// versionLegacy is the pre-evidence striped layout the loader
	// still accepts.
	versionLegacy = 1
	// Stripes is the number of hash partitions per index (taxonomy,
	// mentions).
	Stripes = 16
)

// Section kinds, in the order sections appear in the file.
const (
	sectionMeta     byte = 1
	sectionTaxonomy byte = 2
	sectionMentions byte = 3
	sectionEvidence byte = 4
	// sectionView is the version-3 mappable view image, replacing the
	// taxonomy and mention stripes.
	sectionView byte = 5
)

// maxStripes bounds the stripe count a loader accepts from a header.
const maxStripes = 1 << 16

// Meta is the build metadata saved alongside the graph. It describes
// the logical artifact, so it deliberately excludes runtime knobs
// (worker counts) — those may differ between the build that produced a
// snapshot and the server that loads it, and keeping them out is what
// makes snapshot bytes identical across Workers configurations.
type Meta struct {
	// Pages is the number of corpus pages the taxonomy was built from.
	Pages int `json:"pages"`
	// Stats is the Table-I-shaped summary recorded at save time.
	Stats taxonomy.Stats `json:"stats"`
	// Report is an opaque JSON build report (the facade stores the
	// pipeline Report with concurrency fields normalized to zero).
	Report json.RawMessage `json:"report,omitempty"`
	// LSN is the write-ahead-log sequence number this snapshot covers:
	// every ingested batch with a log position at or below it is folded
	// into the saved state, so recovery replays the WAL strictly after
	// it. Zero (omitted) for snapshots saved outside the durable
	// ingest plane; old snapshots decode with LSN zero, so the field
	// is compatible in both directions.
	LSN uint64 `json:"lsn,omitempty"`
}

// State is the complete serving state a snapshot round-trips, plus —
// since version 2 — the substrate a Result needs to accept incremental
// Update after loading: the persistent verification evidence, the kept
// candidate set it describes, and the corpus statistics the segmenter
// is rebuilt from. The three travel together: Save writes the evidence
// section only when Evidence and Stats are both present.
type State struct {
	Taxonomy *taxonomy.Taxonomy
	Mentions *taxonomy.MentionIndex
	Meta     Meta

	// View, when set, is an already-compiled serving view of exactly
	// Taxonomy and Mentions; Save serializes it instead of compiling
	// the store again (the ingest plane's compactor hands over the view
	// it just published). Ignored by the loaders.
	View *serving.View

	// Evidence is the persistent incremental-update evidence; nil when
	// the snapshot predates version 2 or was saved without it.
	Evidence *verify.Evidence
	// Kept is the post-verification candidate set the evidence
	// describes.
	Kept []extract.Candidate
	// Stats is the corpus unigram/bigram statistics.
	Stats *corpus.Stats
}

// Options tunes snapshot I/O concurrency.
type Options struct {
	// Workers bounds the pool stripe encoding/decoding fans out over:
	// 0 selects one worker per logical CPU, 1 runs sequentially. Any
	// worker count produces the same bytes (Save) and the same loaded
	// state (Load).
	Workers int
}

// workerCount resolves Options.Workers like the build pipeline does.
func workerCount(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}
