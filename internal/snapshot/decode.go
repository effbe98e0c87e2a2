package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"

	"cnprobase/internal/corpus"
	"cnprobase/internal/extract"
	"cnprobase/internal/ner"
	"cnprobase/internal/serving"
	"cnprobase/internal/symtab"
	"cnprobase/internal/taxonomy"
	"cnprobase/internal/verify"
)

// Load reads a snapshot written by Save and reassembles the serving
// state: a fresh taxonomy store, the mention index and the saved
// metadata. The stream is read whole and framed by parse, the walk
// OpenMapped uses, so the two entry points accept and reject the same
// files for the same reason; the evidence and the store are then
// restored over one symbol table, as a build leaves them. The view
// image is decoded into its logical kind/edge/mention content and
// applied through the store's verbatim import path in one sequential
// pass — appends on dense IDs, nothing to finalize. The loaded
// taxonomy answers every query exactly like the original.
//
// Load never panics on malformed input: any truncation, checksum
// mismatch, or structurally bogus value yields an error, and claimed
// lengths are checked against the bytes actually present before
// anything is sliced or allocated. Bytes after the end marker are
// ignored.
func Load(r io.Reader) (*State, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("snapshot: read: %w", err)
	}
	f, err := parse(data)
	if err != nil {
		return nil, err
	}
	syms := symtab.New()
	ev, kept, stats, err := decodeEvidence(f.evidence, syms)
	if err != nil {
		return nil, fmt.Errorf("snapshot: evidence section: %w", err)
	}
	content, err := serving.DecodeImage(f.image, f.imageBase)
	if err != nil {
		return nil, fmt.Errorf("snapshot: view image: %w", err)
	}
	tax := taxonomy.NewWithSymbols(syms)
	mentions := taxonomy.NewMentionIndex()
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
	return &State{Taxonomy: tax, Mentions: mentions, Meta: f.meta, Evidence: ev, Kept: kept, Stats: stats}, nil
}

// readAll reads r to its end. A file says how long it is, so its
// buffer is allocated once, as os.ReadFile does: grown by appends, a
// buffer of a snapshot's size allocates and copies several times that
// (measured at 16 MB: +13 % on the whole load).
func readAll(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	if f, ok := r.(interface{ Stat() (fs.FileInfo, error) }); ok {
		if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() && fi.Size() == int64(int(fi.Size())) {
			buf.Grow(int(fi.Size()) + bytes.MinRead) // room for the read that finds EOF
		}
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// framed is the CRC-verified content of one snapshot file. The
// payloads alias the input; imageBase is the image's absolute file
// offset, which its alignment padding is relative to.
type framed struct {
	meta      Meta
	image     []byte
	imageBase uint64
	evidence  []byte
}

// parse is the one walk over a snapshot's framing, behind both Load
// and OpenMapped: header (magic, version, the pinned stripe field),
// then the meta, view-image and evidence sections — each checked for
// kind, index, a length that fits the bytes present and its CRC —
// then the end marker. Bytes after the end marker are not looked at.
func parse(data []byte) (framed, error) {
	var f framed
	if len(data) < 16 {
		return f, fmt.Errorf("snapshot: read header: file too short (%d bytes)", len(data))
	}
	if string(data[:8]) != Magic {
		return f, fmt.Errorf("snapshot: bad magic %q", data[:8])
	}
	version := binary.LittleEndian.Uint32(data[8:12])
	if version == 1 || version == 2 {
		// The striped layouts: nothing writes them any more, and a
		// rebuild from the corpus is the supported way forward.
		return f, fmt.Errorf("snapshot: format version %d is no longer read — rebuild the snapshot with `cnprobase build -save`", version)
	}
	if version != Version {
		return f, fmt.Errorf("snapshot: unsupported format version %d (this build reads version %d)", version, Version)
	}
	// Version 3 has no stripes; the field is pinned to the constant so
	// every header byte stays covered by validation.
	if stripes := binary.LittleEndian.Uint32(data[12:16]); stripes != Stripes {
		return f, fmt.Errorf("snapshot: version %d stripe field %d, want %d", version, stripes, Stripes)
	}

	metaPayload, off, err := sliceSection(data, 16, sectionMeta, 0)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(metaPayload, &f.meta); err != nil {
		return f, fmt.Errorf("snapshot: decode meta: %w", err)
	}
	f.imageBase = uint64(off + 13)
	if f.image, off, err = sliceSection(data, off, sectionView, 0); err != nil {
		return f, err
	}
	if f.evidence, off, err = sliceSection(data, off, sectionEvidence, 0); err != nil {
		return f, err
	}
	if len(data)-off < 8 {
		return f, fmt.Errorf("snapshot: read end marker: truncated at offset %d", off)
	}
	if string(data[off:off+8]) != EndMagic {
		return f, fmt.Errorf("snapshot: bad end marker %q", data[off:off+8])
	}
	return f, nil
}

// sliceSection frames one section out of the file's bytes, enforcing
// the expected kind and index and verifying the payload CRC. The
// claimed length is checked against the bytes remaining before
// anything is sliced, so a fabricated multi-exabyte claim costs
// nothing. Returns the payload (aliasing data) and the offset just
// past the section.
func sliceSection(data []byte, off int, wantKind byte, wantIndex uint32) ([]byte, int, error) {
	if len(data)-off < 13 {
		return nil, 0, fmt.Errorf("snapshot: read section header: truncated at offset %d", off)
	}
	kind, index := data[off], binary.LittleEndian.Uint32(data[off+1:off+5])
	if kind != wantKind || index != wantIndex {
		return nil, 0, fmt.Errorf("snapshot: unexpected section (kind %d, index %d), want (kind %d, index %d)",
			kind, index, wantKind, wantIndex)
	}
	length := binary.LittleEndian.Uint64(data[off+5 : off+13])
	off += 13
	if length > uint64(len(data)-off) {
		return nil, 0, fmt.Errorf("snapshot: section (kind %d, index %d) length %d exceeds remaining %d bytes",
			wantKind, wantIndex, length, len(data)-off)
	}
	payload := data[off : off+int(length)]
	off += int(length)
	if len(data)-off < 4 {
		return nil, 0, fmt.Errorf("snapshot: read section checksum: truncated at offset %d", off)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(data[off:off+4]); got != want {
		return nil, 0, fmt.Errorf("snapshot: section (kind %d, index %d) checksum mismatch: %08x != %08x",
			wantKind, wantIndex, got, want)
	}
	return payload, off + 4, nil
}

// payloadReader is a bounds-checked cursor over one section payload.
// Every accessor returns an error instead of panicking when the
// payload runs short.
type payloadReader struct {
	b   []byte
	off int
}

func (r *payloadReader) remaining() int { return len(r.b) - r.off }

func (r *payloadReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated or overlong varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *payloadReader) byte() (byte, error) {
	if r.remaining() < 1 {
		return 0, fmt.Errorf("truncated payload at offset %d", r.off)
	}
	b := r.b[r.off]
	r.off++
	return b, nil
}

func (r *payloadReader) u64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, fmt.Errorf("truncated payload at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

func (r *payloadReader) str() (string, error) {
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
func (r *payloadReader) count(minElemBytes int) (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.remaining()/minElemBytes) {
		return 0, fmt.Errorf("element count %d exceeds remaining %d bytes at offset %d", n, r.remaining(), r.off)
	}
	return int(n), nil
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
// reject precisely the inputs Load does without paying for the update
// substrate's index maps.
func validateEvidence(payload []byte) error {
	_, _, _, err := decodeEvidence(payload, nil)
	return err
}

// decodeEvidence parses the evidence section and rebuilds
// the persistent update substrate: the kept candidate set, a
// verify.Evidence re-derived from it (entity evidence imported, edge
// evidence re-counted through AddCandidates, caches marked cold so the
// first Update recomputes decisions), and the corpus statistics. An
// empty or flag-0 payload (saved without evidence) yields all-nil — the Result then serves queries but refuses Update. The
// evidence interns in syms; given no table, the section is only
// validated (see validateEvidence) and nothing is returned.
func decodeEvidence(payload []byte, syms *symtab.Table) (*verify.Evidence, []extract.Candidate, *corpus.Stats, error) {
	materialize := syms != nil
	// A zero-length payload means "no evidence", like the flag-0 byte
	// Save writes.
	if len(payload) == 0 {
		return nil, nil, nil, nil
	}
	r := &payloadReader{b: payload}
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
