// Package snapshot implements the binary serving-state snapshot:
// build the taxonomy once (offline, expensive), save it, and start any
// number of servers from the file in milliseconds instead of re-running
// the generation + verification pipeline. A snapshot captures the
// complete state the paper's three public APIs (men2ent, getConcept,
// getEntity) serve from: the taxonomy — edges with full provenance,
// whose sources are the evidence typicality ranking counts — plus the
// mention pairs and build metadata.
//
// The format is versioned, sectioned and checksummed (docs/SNAPSHOT.md
// specifies the byte layout). The content section is a single mappable
// "view image": the serving view's canonical arrays as fixed-width
// little-endian blocks plus two string arenas (node names and
// mentions), 8-byte aligned in the file, so OpenMapped can serve straight out of an mmap with no
// decode pass and restart cost independent of taxonomy size. Saving
// compiles the taxonomy into the canonical serving view first, so the
// same logical state produces byte-identical snapshots regardless of
// the Workers setting it was built or saved with — the pipeline's
// determinism guarantee extended to the on-disk artifact. The
// evidence section beside the image (the update substrate) is written
// in the image's own numbering, so it is resolved and checked by index
// rather than by name. One version is written and read: versions 1 to
// 5 are refused with an error that says to rebuild the snapshot.
//
// Decoding defends against arbitrary input: every length is validated
// against the bytes actually present before anything is sliced,
// allocated or parsed, and corruption anywhere — truncation, bit
// flips, bogus counts — is reported as an error, never a panic
// (fuzz-tested by FuzzDecodeSnapshot).
//
// There are two read paths over one framing parser: Load reassembles
// the taxonomy's write model (for experiments, further building and
// ingest), and OpenMapped maps the file and serves
// directly from the mapping: the cheapest startup, and N replicas on
// one box share a single page-cache copy of the string arenas. Inspect
// runs the mapped path's checks and reports where the bytes go.
package snapshot

import (
	"encoding/json"
	"runtime"

	"cnprobase/internal/corpus"
	"cnprobase/internal/serving"
	"cnprobase/internal/taxonomy"
	"cnprobase/internal/verify"
)

// Format constants. The magic and end marker frame the file; Version
// is bumped on any incompatible layout change (a loader rejects every
// version but its own).
const (
	// Magic opens every snapshot file.
	Magic = "CNPBSNP1"
	// EndMagic closes every snapshot file (truncation tripwire).
	EndMagic = "CNPBEND1"
	// Version is the format version written and read: the content is a
	// single mappable "view image" section — the serving view's
	// canonical arrays as fixed-width little-endian blocks plus interned
	// string arenas, 8-byte aligned in the file — so OpenMapped can
	// serve straight out of an mmap of the file with no decode pass.
	// The evidence section is written in the image's numbering: kept
	// pairs as bits over its edges, pages by node ID and title by
	// mention row. Version 5 dropped the image's per-edge evidence
	// count block: a count is the number of an edge's sources. Version
	// 6 names a mention's entities by node ID instead of a third string
	// arena, and drops the per-edge score block and the kept exceptions'
	// scores.
	Version = 6
	// Stripes is the header's second field. Versions 1 and 2 counted
	// their hash partitions there; later versions have none and pin the
	// field to this constant, so every header byte is validated.
	Stripes = 16
)

// Section kinds, in the order sections appear in the file. (2 and 3
// were the taxonomy and mention stripes of versions 1 and 2.)
const (
	sectionMeta     byte = 1
	sectionEvidence byte = 4
	sectionView     byte = 5
)

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

// State is the complete serving state a snapshot round-trips, plus the
// substrate a Result needs to accept incremental Update after loading:
// the persistent verification evidence, which describes the taxonomy's
// kept list, and the corpus statistics the segmenter is rebuilt from.
// The two travel together: Save writes the evidence section only when
// Evidence and Stats are both present.
type State struct {
	// Taxonomy holds the kinds, the kept and derived pairs and the
	// mention pairs. After Load its symbol IDs are the image's node IDs
	// (then the evidence's other names), so its kept list is in name
	// order.
	Taxonomy *taxonomy.Taxonomy
	Meta     Meta

	// View, when set, is an already-built serving view of exactly
	// Taxonomy; Save serializes it — folded, if it has a delta — instead
	// of compiling the taxonomy again (the ingest plane's compactor hands
	// over the view it just published, which PublishedView has folded).
	// Ignored by the loaders.
	View *serving.View

	// Evidence is the persistent incremental-update evidence; nil when
	// the snapshot was saved without it.
	Evidence *verify.Evidence
	// Stats is the corpus unigram/bigram statistics.
	Stats *corpus.Stats
}

// Options tunes Save's concurrency.
type Options struct {
	// Workers resolves like the build pipeline's (0 = one worker per
	// logical CPU). With more than one, Save encodes the corpus
	// statistics beside the view compile; with one, after it. Either way
	// produces the same bytes.
	Workers int
}

// workerCount resolves Options.Workers like the build pipeline does.
func workerCount(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}
