package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"
	"unicode/utf8"

	"cnprobase/internal/corpus"
	"cnprobase/internal/extract"
	"cnprobase/internal/ner"
	"cnprobase/internal/par"
	"cnprobase/internal/serving"
	"cnprobase/internal/symtab"
	"cnprobase/internal/taxonomy"
	"cnprobase/internal/verify"
)

// Load reads a snapshot written by Save and reassembles the serving
// state: a fresh taxonomy store, the mention index and the saved
// metadata. Sections are read (and CRC-verified) sequentially from the
// stream; the evidence and the store are then restored over one symbol
// table, as a build leaves them. A version-3 image is applied through
// the store's verbatim import path in one sequential pass — appends on
// dense IDs, nothing to finalize — and legacy stripes are decoded on
// the worker pool (the store's insert path is thread-safe and
// kind/edge restoration order is commutative). The loaded taxonomy
// answers every query exactly like the original.
//
// Load never panics on malformed input: any truncation, checksum
// mismatch, or structurally bogus value yields an error, and claimed
// lengths are checked against the bytes actually present before
// allocation.
func Load(r io.Reader, opts Options) (*State, error) {
	p, err := readPayloads(r)
	if err != nil {
		return nil, err
	}
	syms := symtab.New()
	ev, kept, stats, err := decodeEvidence(p.evidence, syms)
	if err != nil {
		return nil, fmt.Errorf("snapshot: evidence section: %w", err)
	}
	tax := taxonomy.NewWithSymbols(syms)
	mentions := taxonomy.NewMentionIndex()
	if p.version >= Version {
		// Version 3: decode the view image into the same logical
		// kind/edge/mention stream the stripes carried, then restore
		// through the store's verbatim import path.
		content, err := serving.DecodeImage(p.image, p.imageBase)
		if err != nil {
			return nil, fmt.Errorf("snapshot: view image: %w", err)
		}
		for _, k := range content.Kinds {
			tax.ImportKind(k.Name, k.Kind)
		}
		for _, e := range content.Edges {
			if err := tax.InsertEdge(e); err != nil {
				return nil, fmt.Errorf("snapshot: %w", err)
			}
		}
		for _, m := range content.Mentions {
			for _, id := range m.IDs {
				mentions.Add(m.Mention, id)
			}
		}
	} else {
		pool := par.NewPool(workerCount(opts.Workers))
		for _, err := range par.MapBatches(pool, len(p.tax), func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				err := decodeTaxStripe(p.tax[i], tax.ImportKind, tax.InsertEdge)
				if err != nil {
					return fmt.Errorf("snapshot: taxonomy stripe %d: %w", i, err)
				}
				if err := decodeMentionStripe(p.men[i], mentions.Add); err != nil {
					return fmt.Errorf("snapshot: mention stripe %d: %w", i, err)
				}
			}
			return nil
		}) {
			if err != nil {
				return nil, err
			}
		}
	}
	return &State{Taxonomy: tax, Mentions: mentions, Meta: p.meta, Evidence: ev, Kept: kept, Stats: stats}, nil
}

// LoadView reads a snapshot and compiles it straight into an immutable
// serving.View, never materializing the mutable store: stripes
// decode in parallel into raw parts which a serving.Builder freezes
// once. The resulting View answers every query exactly like a store
// restored with Load (pinned by the serving-equivalence tests).
// Malformed input yields an error, never a panic, with the same
// validation Load applies.
func LoadView(r io.Reader, opts Options) (*serving.View, Meta, error) {
	p, err := readPayloads(r)
	if err != nil {
		return nil, Meta{}, err
	}
	// The serving view has no update path, so the evidence section is
	// validated (it was CRC-checked with the rest) but not
	// materialized.
	if err := validateEvidence(p.evidence); err != nil {
		return nil, Meta{}, fmt.Errorf("snapshot: evidence section: %w", err)
	}
	if p.version >= Version {
		// Version 3: rebuild a heap view from the image content. (The
		// zero-copy path over the same image is OpenMapped.)
		content, err := serving.DecodeImage(p.image, p.imageBase)
		if err != nil {
			return nil, Meta{}, fmt.Errorf("snapshot: view image: %w", err)
		}
		b := serving.NewBuilder()
		for _, k := range content.Kinds {
			b.ImportKind(k.Name, k.Kind)
		}
		for _, e := range content.Edges {
			if err := b.InsertEdge(e); err != nil {
				return nil, Meta{}, fmt.Errorf("snapshot: %w", err)
			}
		}
		for _, m := range content.Mentions {
			b.AddMentionEntry(m)
		}
		return b.Build(), p.meta, nil
	}
	type parts struct {
		kinds    []taxonomy.KindEntry
		edges    []taxonomy.Edge
		mentions []taxonomy.MentionEntry
	}
	stripes := make([]parts, len(p.tax))
	pool := par.NewPool(workerCount(opts.Workers))
	for _, err := range par.MapBatches(pool, len(p.tax), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			sp := &stripes[i]
			err := decodeTaxStripe(p.tax[i],
				func(name string, k taxonomy.NodeKind) {
					sp.kinds = append(sp.kinds, taxonomy.KindEntry{Name: name, Kind: k})
				},
				func(e taxonomy.Edge) error { // structural validation happens in Builder.InsertEdge
					sp.edges = append(sp.edges, e)
					return nil
				})
			if err != nil {
				return fmt.Errorf("snapshot: taxonomy stripe %d: %w", i, err)
			}
			err = decodeMentionStripe(p.men[i], func(mention, id string) {
				n := len(sp.mentions)
				if n > 0 && sp.mentions[n-1].Mention == mention {
					sp.mentions[n-1].IDs = append(sp.mentions[n-1].IDs, id)
					return
				}
				sp.mentions = append(sp.mentions, taxonomy.MentionEntry{Mention: mention, IDs: []string{id}})
			})
			if err != nil {
				return fmt.Errorf("snapshot: mention stripe %d: %w", i, err)
			}
		}
		return nil
	}) {
		if err != nil {
			return nil, Meta{}, err
		}
	}
	b := serving.NewBuilder()
	for i := range stripes {
		for _, k := range stripes[i].kinds {
			b.ImportKind(k.Name, k.Kind)
		}
		for _, e := range stripes[i].edges {
			if err := b.InsertEdge(e); err != nil {
				return nil, Meta{}, fmt.Errorf("snapshot: %w", err)
			}
		}
		for _, m := range stripes[i].mentions {
			b.AddMentionEntry(m)
		}
	}
	return b.Build(), p.meta, nil
}

// payloads is the CRC-verified content of one snapshot stream. Exactly
// one of {image, tax+men} is set: the view image for version-3 files
// (with imageBase, its absolute file offset — the image's alignment
// padding is relative to it), the stripe payload lists for versions 1
// and 2. evidence is nil for version-1 files.
type payloads struct {
	version   uint32
	meta      Meta
	tax, men  [][]byte
	image     []byte
	imageBase uint64
	evidence  []byte
}

// readPayloads reads and CRC-verifies the framed byte stream shared by
// Load and LoadView: header, meta section, then either the view image
// (version 3) or one payload per taxonomy and mention stripe, the
// evidence section (versions ≥ 2), and the end marker.
func readPayloads(r io.Reader) (*payloads, error) {
	br := bufio.NewReader(r)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("snapshot: read header: %w", err)
	}
	if string(hdr[:8]) != Magic {
		return nil, fmt.Errorf("snapshot: bad magic %q", hdr[:8])
	}
	version := binary.LittleEndian.Uint32(hdr[8:12])
	if version != Version && version != versionV2 && version != versionLegacy {
		return nil, fmt.Errorf("snapshot: unsupported format version %d (supported: %d, %d, %d)", version, versionLegacy, versionV2, Version)
	}
	stripes := binary.LittleEndian.Uint32(hdr[12:16])
	if stripes == 0 || stripes > maxStripes {
		return nil, fmt.Errorf("snapshot: implausible stripe count %d", stripes)
	}
	// Version 3 has no stripes; the field is pinned to the constant so
	// every header byte stays covered by validation.
	if version >= Version && stripes != Stripes {
		return nil, fmt.Errorf("snapshot: version %d stripe field %d, want %d", version, stripes, Stripes)
	}

	p := &payloads{version: version}
	metaPayload, err := readSection(br, sectionMeta, 0)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(metaPayload, &p.meta); err != nil {
		return nil, fmt.Errorf("snapshot: decode meta: %w", err)
	}
	if version >= Version {
		// Header + meta framing + the image's own section header.
		p.imageBase = uint64(16 + 13 + len(metaPayload) + 4 + 13)
		if p.image, err = readSection(br, sectionView, 0); err != nil {
			return nil, err
		}
	} else {
		p.tax = make([][]byte, stripes)
		for i := range p.tax {
			if p.tax[i], err = readSection(br, sectionTaxonomy, uint32(i)); err != nil {
				return nil, err
			}
		}
		p.men = make([][]byte, stripes)
		for i := range p.men {
			if p.men[i], err = readSection(br, sectionMentions, uint32(i)); err != nil {
				return nil, err
			}
		}
	}
	if version >= versionV2 {
		if p.evidence, err = readSection(br, sectionEvidence, 0); err != nil {
			return nil, err
		}
	}
	var end [8]byte
	if _, err := io.ReadFull(br, end[:]); err != nil {
		return nil, fmt.Errorf("snapshot: read end marker: %w", err)
	}
	if string(end[:]) != EndMagic {
		return nil, fmt.Errorf("snapshot: bad end marker %q", end[:])
	}
	return p, nil
}

// readSection reads one framed section, enforcing the expected kind
// and stripe index and verifying the payload CRC. The payload is read
// in bounded chunks, so a corrupted length field costs at most one
// chunk of allocation before the truncated read surfaces — a
// fabricated multi-exabyte claim cannot OOM the loader.
func readSection(br *bufio.Reader, wantKind byte, wantIndex uint32) ([]byte, error) {
	var hdr [13]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("snapshot: read section header: %w", err)
	}
	kind, index := hdr[0], binary.LittleEndian.Uint32(hdr[1:5])
	if kind != wantKind || index != wantIndex {
		return nil, fmt.Errorf("snapshot: unexpected section (kind %d, index %d), want (kind %d, index %d)",
			kind, index, wantKind, wantIndex)
	}
	payload, err := readN(br, binary.LittleEndian.Uint64(hdr[5:13]))
	if err != nil {
		return nil, fmt.Errorf("snapshot: read section (kind %d, index %d) payload: %w", kind, index, err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(br, crc[:]); err != nil {
		return nil, fmt.Errorf("snapshot: read section checksum: %w", err)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(crc[:]); got != want {
		return nil, fmt.Errorf("snapshot: section (kind %d, index %d) checksum mismatch: %08x != %08x",
			kind, index, got, want)
	}
	return payload, nil
}

// readN reads exactly n bytes, growing the buffer one bounded chunk at
// a time so allocation tracks bytes actually present in the stream
// rather than the claimed length.
func readN(r io.Reader, n uint64) ([]byte, error) {
	const chunk = 1 << 20
	if n > math.MaxInt64 {
		return nil, fmt.Errorf("snapshot: implausible section length %d", n)
	}
	var buf []byte
	for remaining := n; remaining > 0; {
		step := remaining
		if step > chunk {
			step = chunk
		}
		start := len(buf)
		buf = append(buf, make([]byte, step)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, err
		}
		remaining -= step
	}
	return buf, nil
}

// stripeReader is a bounds-checked cursor over one section payload.
// Every accessor returns an error instead of panicking when the
// payload runs short.
type stripeReader struct {
	b   []byte
	off int
}

func (r *stripeReader) remaining() int { return len(r.b) - r.off }

func (r *stripeReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated or overlong varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *stripeReader) byte() (byte, error) {
	if r.remaining() < 1 {
		return 0, fmt.Errorf("truncated payload at offset %d", r.off)
	}
	b := r.b[r.off]
	r.off++
	return b, nil
}

func (r *stripeReader) u64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, fmt.Errorf("truncated payload at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

func (r *stripeReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(r.remaining()) {
		return "", fmt.Errorf("string length %d exceeds remaining %d bytes at offset %d", n, r.remaining(), r.off)
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

// count validates a claimed element count against the minimum encoded
// size of one element, so a bogus count can never drive a long loop
// (or a large preallocation) past the bytes actually present.
func (r *stripeReader) count(minElemBytes int) (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.remaining()/minElemBytes) {
		return 0, fmt.Errorf("element count %d exceeds remaining %d bytes at offset %d", n, r.remaining(), r.off)
	}
	return int(n), nil
}

// Minimum encoded sizes used to validate counts: a kind entry is at
// least an empty-string name (1 byte) + kind byte; an edge is two
// 1-byte empty strings + sources byte + 8 score bytes + 1 count byte;
// a mention entry is an empty string + 1-byte ID count; an ID is one
// length byte.
const (
	minKindBytes    = 2
	minEdgeBytes    = 12
	minMentionBytes = 2
	minIDBytes      = 1
)

// decodeTaxStripe parses one taxonomy section, feeding each restored
// kind and edge to the given callbacks — Load passes the store's
// verbatim import accessors, LoadView collects raw parts for the
// serving Builder. Structural garbage that survives the CRC (possible
// only for deliberately crafted input) is caught by the cursor's
// bounds checks and the consumer's own validation (empty nodes,
// self-loops).
func decodeTaxStripe(payload []byte, kind func(string, taxonomy.NodeKind), edge func(taxonomy.Edge) error) error {
	r := &stripeReader{b: payload}
	nKinds, err := r.count(minKindBytes)
	if err != nil {
		return err
	}
	for i := 0; i < nKinds; i++ {
		name, err := r.str()
		if err != nil {
			return err
		}
		kb, err := r.byte()
		if err != nil {
			return err
		}
		if kb != byte(taxonomy.KindEntity) && kb != byte(taxonomy.KindConcept) {
			return fmt.Errorf("invalid node kind %d for %q", kb, name)
		}
		kind(name, taxonomy.NodeKind(kb))
	}
	nEdges, err := r.count(minEdgeBytes)
	if err != nil {
		return err
	}
	for i := 0; i < nEdges; i++ {
		var e taxonomy.Edge
		if e.Hypo, err = r.str(); err != nil {
			return err
		}
		if e.Hyper, err = r.str(); err != nil {
			return err
		}
		src, err := r.byte()
		if err != nil {
			return err
		}
		e.Sources = taxonomy.Source(src)
		bits, err := r.u64()
		if err != nil {
			return err
		}
		e.Score = math.Float64frombits(bits)
		count, err := r.uvarint()
		if err != nil {
			return err
		}
		if count > math.MaxInt32 {
			return fmt.Errorf("implausible evidence count %d on isA(%q, %q)", count, e.Hypo, e.Hyper)
		}
		e.Count = int(count)
		if err := edge(e); err != nil {
			return err
		}
	}
	if r.remaining() != 0 {
		return fmt.Errorf("%d trailing bytes after last edge", r.remaining())
	}
	return nil
}

// Minimum encoded sizes for evidence-section count validation: a kept
// candidate is two 1-byte empty strings + source byte + 8 score bytes;
// an entity is two 1-byte strings + attr count byte; an attribute is a
// 1-byte predicate + 8 value bytes; a support entry is a 1-byte word +
// two count bytes.
const (
	minKeptBytes    = 11
	minEntityBytes  = 3
	minAttrBytes    = 9
	minSupportBytes = 3
)

// validateEvidence walks the section with the exact same checks but
// materializes nothing — the view-only serving path must accept and
// reject precisely the inputs Load does (the fuzz target pins the
// agreement) without paying for the update substrate's index maps.
func validateEvidence(payload []byte) error {
	_, _, _, err := decodeEvidence(payload, nil)
	return err
}

// decodeEvidence parses the version-2 evidence section and rebuilds
// the persistent update substrate: the kept candidate set, a
// verify.Evidence re-derived from it (entity evidence imported, edge
// evidence re-counted through AddCandidates, caches marked cold so the
// first Update recomputes decisions), and the corpus statistics. A nil
// or flag-0 payload (legacy file, or saved without evidence) yields
// all-nil — the Result then serves queries but refuses Update. The
// evidence interns in syms; given no table, the section is only
// validated (see validateEvidence) and nothing is returned.
func decodeEvidence(payload []byte, syms *symtab.Table) (*verify.Evidence, []extract.Candidate, *corpus.Stats, error) {
	materialize := syms != nil
	// A zero-length payload means "no evidence" like a legacy file's
	// nil: the streaming decoder yields nil for it, the mapped path an
	// empty slice — both must land here.
	if len(payload) == 0 {
		return nil, nil, nil, nil
	}
	r := &stripeReader{b: payload}
	flag, err := r.byte()
	if err != nil {
		return nil, nil, nil, err
	}
	if flag == 0 {
		if r.remaining() != 0 {
			return nil, nil, nil, fmt.Errorf("%d trailing bytes after absent-evidence flag", r.remaining())
		}
		return nil, nil, nil, nil
	}
	if flag != 1 {
		return nil, nil, nil, fmt.Errorf("invalid evidence flag %d", flag)
	}
	nKept, err := r.count(minKeptBytes)
	if err != nil {
		return nil, nil, nil, err
	}
	var kept []extract.Candidate
	if materialize {
		kept = make([]extract.Candidate, 0, nKept)
	}
	for i := 0; i < nKept; i++ {
		var c extract.Candidate
		if c.Hypo, err = r.str(); err != nil {
			return nil, nil, nil, err
		}
		if c.Hyper, err = r.str(); err != nil {
			return nil, nil, nil, err
		}
		if c.Hypo == "" || c.Hyper == "" {
			return nil, nil, nil, fmt.Errorf("empty node in kept candidate %d", i)
		}
		src, err := r.byte()
		if err != nil {
			return nil, nil, nil, err
		}
		c.Source = taxonomy.Source(src)
		bits, err := r.u64()
		if err != nil {
			return nil, nil, nil, err
		}
		c.Score = math.Float64frombits(bits)
		if materialize {
			kept = append(kept, c)
		}
	}
	var ev *verify.Evidence
	if materialize {
		ev = verify.NewEvidence(syms, ner.NewSupport(), ner.New())
	}
	nEnts, err := r.count(minEntityBytes)
	if err != nil {
		return nil, nil, nil, err
	}
	var attrs []verify.Attr // recycled: ImportEntity keeps its own vector
	for i := 0; i < nEnts; i++ {
		id, err := r.str()
		if err != nil {
			return nil, nil, nil, err
		}
		title, err := r.str()
		if err != nil {
			return nil, nil, nil, err
		}
		if id == "" || title == "" {
			return nil, nil, nil, fmt.Errorf("empty entity in evidence entry %d", i)
		}
		nAttrs, err := r.count(minAttrBytes)
		if err != nil {
			return nil, nil, nil, err
		}
		attrs = attrs[:0]
		for j := 0; j < nAttrs; j++ {
			pred, err := r.str()
			if err != nil {
				return nil, nil, nil, err
			}
			bits, err := r.u64()
			if err != nil {
				return nil, nil, nil, err
			}
			if materialize {
				attrs = append(attrs, verify.Attr{Predicate: pred, Weight: math.Float64frombits(bits)})
			}
		}
		if materialize {
			ev.ImportEntity(id, title, attrs)
		}
	}
	nSup, err := r.count(minSupportBytes)
	if err != nil {
		return nil, nil, nil, err
	}
	for i := 0; i < nSup; i++ {
		word, err := r.str()
		if err != nil {
			return nil, nil, nil, err
		}
		ne, err := r.uvarint()
		if err != nil {
			return nil, nil, nil, err
		}
		total, err := r.uvarint()
		if err != nil {
			return nil, nil, nil, err
		}
		if ne > math.MaxInt32 || total > math.MaxInt32 {
			return nil, nil, nil, fmt.Errorf("implausible support counts (%d, %d) for %q", ne, total, word)
		}
		if materialize {
			ev.Support.Import(word, int(ne), int(total))
		}
	}
	statsLen, err := r.uvarint()
	if err != nil {
		return nil, nil, nil, err
	}
	if statsLen > uint64(r.remaining()) {
		return nil, nil, nil, fmt.Errorf("statistics length %d exceeds remaining %d bytes", statsLen, r.remaining())
	}
	// The statistics blob must parse in both modes: Load rejects a
	// shape-invalid blob, and the view path has to agree.
	stats, err := corpus.ReadStats(bytes.NewReader(r.b[r.off : r.off+int(statsLen)]))
	if err != nil {
		return nil, nil, nil, err
	}
	r.off += int(statsLen)
	if r.remaining() != 0 {
		return nil, nil, nil, fmt.Errorf("%d trailing bytes after statistics", r.remaining())
	}
	if !materialize {
		return nil, nil, nil, nil
	}
	ev.AddCandidates(kept)
	ev.MarkAllDirty()
	return ev, kept, stats, nil
}

// decodeMentionStripe parses one mention section, feeding each
// (mention, entity ID) pair to add — MentionIndex.Add for Load, a
// parts collector for LoadView. IDs of one mention arrive
// consecutively.
func decodeMentionStripe(payload []byte, add func(mention, id string)) error {
	r := &stripeReader{b: payload}
	nMentions, err := r.count(minMentionBytes)
	if err != nil {
		return err
	}
	for i := 0; i < nMentions; i++ {
		mention, err := r.str()
		if err != nil {
			return err
		}
		// Valid snapshots only contain mentions the index would store
		// verbatim (Add trims whitespace at insert time), so anything
		// blank here is corruption — reject it like the taxonomy
		// stripe rejects empty nodes, rather than letting Add drop it
		// silently.
		if strings.TrimSpace(mention) == "" {
			return fmt.Errorf("blank mention in entry %d", i)
		}
		// JSON ingestion cannot produce invalid UTF-8, and the mappable
		// v3 image requires UTF-8 mentions — rejecting it here keeps
		// every loadable snapshot re-saveable in the current format.
		if !utf8.ValidString(mention) {
			return fmt.Errorf("mention in entry %d is not valid UTF-8", i)
		}
		nIDs, err := r.count(minIDBytes)
		if err != nil {
			return err
		}
		for j := 0; j < nIDs; j++ {
			id, err := r.str()
			if err != nil {
				return err
			}
			if id == "" {
				return fmt.Errorf("empty entity ID under mention %q", mention)
			}
			add(mention, id)
		}
	}
	if r.remaining() != 0 {
		return fmt.Errorf("%d trailing bytes after last mention", r.remaining())
	}
	return nil
}
