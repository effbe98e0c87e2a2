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
	mathbits "math/bits"

	"cnprobase/internal/corpus"
	"cnprobase/internal/extract"
	"cnprobase/internal/ner"
	"cnprobase/internal/serving"
	"cnprobase/internal/symtab"
	"cnprobase/internal/taxonomy"
	"cnprobase/internal/verify"
)

// Load reads a snapshot written by Save and reassembles the taxonomy's
// write model and the saved metadata. The stream is read whole and
// framed by parse, the walk OpenMapped uses, so the two entry points
// accept and reject the same files for the same reason. The view image
// is decoded first and its node names are interned in image-ID order,
// so a node's symbol is its image ID: the evidence section, written in
// the image's numbering, then resolves kept pairs and pages by index,
// and the taxonomy's lists are filled straight from the image's arrays
// — the kinds as they stand, the kept pairs off the kept bits, every
// other edge part as a derived pair, the mention pairs row by row —
// with no name hashed and nothing to sort. The loaded taxonomy compiles
// to exactly the saved view.
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
	content, err := serving.DecodeImage(f.image, f.imageBase)
	if err != nil {
		return nil, fmt.Errorf("snapshot: view image: %w", err)
	}
	syms := symtab.New()
	syms.InternAll(content.Names, make([]uint32, len(content.Names)))
	ld := &loader{content: content, syms: syms}
	shape := imageShape{len(content.Names), len(content.HyperIDs), len(content.Mentions)}
	if _, err := decodeEvidence(f.evidence, shape, ld); err != nil {
		return nil, fmt.Errorf("snapshot: evidence section: %w", err)
	}
	ld.restoreEdges()
	tax := taxonomy.Restore(syms, content.Kinds, ld.kept, ld.derived, mentionPairs(content))
	return &State{Taxonomy: tax, Meta: f.meta, Evidence: ld.ev, Stats: ld.stats}, nil
}

// mentionPairs lists the image's mention table as mention pairs: rows
// ascending, each row's entities ascending by image ID, which is their
// symbol ID — so the list is sorted as the taxonomy keeps it.
func mentionPairs(c *serving.ImageContent) []taxonomy.Mention {
	out := make([]taxonomy.Mention, len(c.MentionEnts))
	for i, text := range c.Mentions {
		for j := c.MentionOff[i]; j < c.MentionOff[i+1]; j++ {
			out[j] = taxonomy.Mention{Text: text, Entity: c.MentionEnts[j]}
		}
	}
	return out
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
	version   uint32
	metaLen   int
	image     []byte
	imageBase uint64
	evidence  []byte
	end       int // the offset just past the end marker
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
	if version >= 1 && version < Version {
		// The striped layouts (1, 2), the name-keyed evidence (3), the
		// stored evidence counts (4) and the named mention entities and
		// edge scores (5): nothing writes them any more, and a rebuild
		// from the corpus is the supported way forward.
		return f, fmt.Errorf("snapshot: format version %d is no longer read — rebuild the snapshot with `cnprobase build -save`", version)
	}
	if version != Version {
		return f, fmt.Errorf("snapshot: unsupported format version %d (this build reads version %d)", version, Version)
	}
	// The stripe field is pinned to the constant so every header byte
	// stays covered by validation.
	if stripes := binary.LittleEndian.Uint32(data[12:16]); stripes != Stripes {
		return f, fmt.Errorf("snapshot: version %d stripe field %d, want %d", version, stripes, Stripes)
	}

	f.version = version
	metaPayload, off, err := sliceSection(data, 16, sectionMeta, 0)
	if err != nil {
		return f, err
	}
	f.metaLen = len(metaPayload)
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
	f.end = off + 8
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

// bytes reads a uvarint-length-prefixed string, aliasing the payload.
func (r *payloadReader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.remaining()) {
		return nil, fmt.Errorf("string length %d exceeds remaining %d bytes at offset %d", n, r.remaining(), r.off)
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
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

// below reads a uvarint delta d and returns from + d, which must be
// below limit (from ≤ limit): the next of an ascending run of IDs.
func (r *payloadReader) below(from, limit int, what string) (int, error) {
	d, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if d >= uint64(limit-from) {
		return 0, fmt.Errorf("%s %d + %d is not below %d", what, from, d, limit)
	}
	return from + int(d), nil
}

// Minimum encoded sizes for evidence-section count validation: a
// bitset word is 8 bytes; a kept exception an edge delta and a source
// byte; a predicate a length byte; a page an entity
// byte (delta or string length), a title byte and an attribute count;
// an attribute an index byte and 8 weight bytes; a support entry a
// 1-byte word and two count bytes.
const (
	minExceptionBytes = 2
	minPredicateBytes = 1
	minPageBytes      = 3
	minAttrBytes      = 9
	minSupportBytes   = 3
)

// imageShape is what an evidence section is checked against: the
// image's node, edge and mention counts. Kept pairs are image edges,
// pages are image nodes and titles are image mention rows.
type imageShape struct{ nodes, edges, mentions int }

func viewShape(v *serving.View) imageShape {
	return imageShape{v.NodeCount(), v.EdgeCount(), v.MentionCount()}
}

// loader is what Load materializes the evidence section into: the
// decoded image, whose node names the symbol table interned first (so
// a node's symbol is its image ID), and the evidence, kept list and
// statistics the walk rebuilds.
type loader struct {
	content *serving.ImageContent
	syms    *symtab.Table
	ev      *verify.Evidence
	kept    []extract.Candidate
	derived []taxonomy.Pair
	stats   *corpus.Stats
	except  []keptException
	bits    []byte        // the kept bitset, one bit per image edge
	preds   []uint32      // predicate table index → the evidence's ID
	attrs   []verify.Attr // one page's, recycled: ImportPage copies
}

// evidenceParts is what the walk over an evidence section measured:
// whether it holds evidence, and the bytes of each sub-section.
type evidenceParts struct {
	present                           bool
	flag, kept, pages, support, stats int
}

// validateEvidence walks the section with the exact same checks as
// Load but materializes nothing and allocates nothing: the view-only
// serving path accepts and rejects precisely the inputs Load does
// without paying for the update substrate. It returns what the walk
// measured, for Inspect.
func validateEvidence(payload []byte, shape imageShape) (evidenceParts, error) {
	return decodeEvidence(payload, shape, nil)
}

// decodeEvidence parses the evidence section against the image's
// shape and, given a loader, rebuilds the persistent update substrate:
// the page evidence by node ID and mention row, the kept candidate set
// off the image's edges (entity evidence imported, edge evidence
// re-counted through AddPair, caches marked cold so the first Update
// recomputes decisions), the NE support and the corpus statistics. An
// empty or flag-0 payload (saved without evidence) yields nothing — the
// Result then serves queries but refuses Update. Without a loader the
// section is only validated (see validateEvidence).
func decodeEvidence(payload []byte, shape imageShape, ld *loader) (evidenceParts, error) {
	var parts evidenceParts
	// A zero-length payload means "no evidence", like the flag-0 byte
	// Save writes.
	if len(payload) == 0 {
		return parts, nil
	}
	r := payloadReader{b: payload}
	flag, err := r.byte()
	if err != nil {
		return parts, err
	}
	parts.flag = 1
	if flag == 0 {
		if r.remaining() != 0 {
			return parts, fmt.Errorf("%d trailing bytes after absent-evidence flag", r.remaining())
		}
		return parts, nil
	}
	if flag != 1 {
		return parts, fmt.Errorf("invalid evidence flag %d", flag)
	}
	parts.present = true

	// Kept candidates: one bit per image edge, then the exceptions.
	words, err := r.count(8)
	if err != nil {
		return parts, err
	}
	if want := (shape.edges + 63) / 64; words != want {
		return parts, fmt.Errorf("kept bitset has %d words, the image's %d edges take %d", words, shape.edges, want)
	}
	bits := r.b[r.off : r.off+8*words]
	r.off += 8 * words
	if tail := shape.edges % 64; tail != 0 && binary.LittleEndian.Uint64(bits[8*(words-1):])>>tail != 0 {
		return parts, fmt.Errorf("kept bitset marks edges past the image's %d", shape.edges)
	}
	nExcept, err := r.count(minExceptionBytes)
	if err != nil {
		return parts, err
	}
	for i, next := 0, 0; i < nExcept; i++ {
		edge, err := r.below(next, shape.edges, "kept exception edge")
		if err != nil {
			return parts, err
		}
		if !bitSet(bits, edge) {
			return parts, fmt.Errorf("kept exception names edge %d, which is not kept", edge)
		}
		src, err := r.byte()
		if err != nil {
			return parts, err
		}
		if ld != nil {
			ld.except = append(ld.except, keptException{uint32(edge), taxonomy.Source(src)})
		}
		next = edge + 1
	}
	parts.kept = r.off - parts.flag

	// Page evidence: the predicate table, the pages on image nodes,
	// then the pages whose entity is no node.
	from := r.off
	nPreds, err := r.count(minPredicateBytes)
	if err != nil {
		return parts, err
	}
	var table []string
	var prev []byte
	for i := 0; i < nPreds; i++ {
		pred, err := r.bytes()
		if err != nil {
			return parts, err
		}
		if i > 0 && bytes.Compare(prev, pred) >= 0 {
			return parts, fmt.Errorf("predicate table not strictly ascending at %d", i)
		}
		if ld != nil {
			table = append(table, string(pred))
		}
		prev = pred
	}
	if ld != nil {
		ld.ev = verify.NewEvidence(ld.syms, ner.NewSupport(), ner.New())
		ld.preds = ld.ev.InternPredicates(table)
	}
	nOnNodes, err := r.count(minPageBytes)
	if err != nil {
		return parts, err
	}
	for i, next := 0, 0; i < nOnNodes; i++ {
		node, err := r.below(next, shape.nodes, "page node")
		if err != nil {
			return parts, err
		}
		if err := r.page(shape, nPreds, ld, uint32(node)); err != nil {
			return parts, err
		}
		next = node + 1
	}
	nOthers, err := r.count(minPageBytes)
	if err != nil {
		return parts, err
	}
	prev = nil
	for i := 0; i < nOthers; i++ {
		entity, err := r.bytes()
		if err != nil {
			return parts, err
		}
		if i > 0 && bytes.Compare(prev, entity) >= 0 {
			return parts, fmt.Errorf("pages off the image not strictly ascending at %d", i)
		}
		var id uint32
		if ld != nil {
			id = ld.syms.Intern(string(entity))
		}
		if err := r.page(shape, nPreds, ld, id); err != nil {
			return parts, err
		}
		prev = entity
	}
	parts.pages = r.off - from

	// NE support, by word.
	from = r.off
	nSup, err := r.count(minSupportBytes)
	if err != nil {
		return parts, err
	}
	for i := 0; i < nSup; i++ {
		word, err := r.bytes()
		if err != nil {
			return parts, err
		}
		ne, err := r.uvarint()
		if err != nil {
			return parts, err
		}
		total, err := r.uvarint()
		if err != nil {
			return parts, err
		}
		if ne > math.MaxInt32 || total > math.MaxInt32 {
			return parts, fmt.Errorf("implausible support counts (%d, %d) for %q", ne, total, word)
		}
		if ld != nil {
			ld.ev.Support.Import(string(word), int(ne), int(total))
		}
	}
	parts.support = r.off - from

	// Corpus statistics, which must decode in both modes: Load rejects
	// an implausible form, and the view path has to agree.
	from = r.off
	stats, err := r.bytes()
	if err != nil {
		return parts, err
	}
	if ld != nil {
		ld.stats, err = corpus.ReadStats(stats)
	} else {
		err = corpus.ValidateStats(stats)
	}
	if err != nil {
		return parts, err
	}
	parts.stats = r.off - from
	if r.remaining() != 0 {
		return parts, fmt.Errorf("%d trailing bytes after statistics", r.remaining())
	}
	if ld != nil {
		ld.bits = bits
	}
	return parts, nil
}

// bitSet reports whether bit i of the little-endian bitset b is set.
func bitSet(b []byte, i int) bool { return b[i/8]&(1<<(i%8)) != 0 }

// page reads one page's title and attributes and, given a loader,
// imports the page with entity symbol id.
func (r *payloadReader) page(shape imageShape, nPreds int, ld *loader, id uint32) error {
	title, err := r.uvarint()
	if err != nil {
		return err
	}
	var literal []byte
	switch {
	case title > uint64(shape.mentions):
		return fmt.Errorf("page title row %d is outside the image's %d mentions", title, shape.mentions)
	case title == uint64(shape.mentions):
		if literal, err = r.bytes(); err != nil {
			return err
		}
	}
	nAttrs, err := r.count(minAttrBytes)
	if err != nil {
		return err
	}
	if ld != nil {
		ld.attrs = ld.attrs[:0]
	}
	for j, next := uint64(0), uint64(0); j < uint64(nAttrs); j++ {
		pred, err := r.uvarint()
		if err != nil {
			return err
		}
		if pred < next || pred >= uint64(nPreds) {
			return fmt.Errorf("attribute predicate %d is out of order or outside the %d-predicate table", pred, nPreds)
		}
		w, err := r.u64()
		if err != nil {
			return err
		}
		if ld != nil {
			ld.attrs = append(ld.attrs, verify.Attr{Pred: ld.preds[pred], Weight: math.Float64frombits(w)})
		}
		next = pred + 1
	}
	if ld != nil {
		var t uint32
		if literal != nil {
			t = ld.syms.Intern(string(literal))
		} else {
			t = ld.syms.Intern(ld.content.Mentions[title])
		}
		ld.ev.ImportPage(id, t, ld.attrs)
	}
	return nil
}

// restoreEdges splits the image's edges — in edge order, which, since
// a node's symbol ID is its image ID, is (Hypo, Hyper) ID order —
// between the taxonomy's lists: each kept pair (a bit of the evidence's
// bitset, with its exception's sources) to Kept, folded into the
// evidence by ID, and every edge part no kept pair holds to Derived: a
// subconcept pair, or the derived part of a kept pair's edge. A
// snapshot saved without evidence keeps no pair.
func (ld *loader) restoreEdges() {
	c := ld.content
	n := 0
	for i := 0; i+8 <= len(ld.bits); i += 8 {
		n += mathbits.OnesCount64(binary.LittleEndian.Uint64(ld.bits[i:]))
	}
	if n > 0 {
		ld.kept = make([]extract.Candidate, 0, n)
	}
	x := 0
	for u := 0; u+1 < len(c.HyperOff); u++ {
		for j := int(c.HyperOff[u]); j < int(c.HyperOff[u+1]); j++ {
			rest := c.Sources[j]
			if ld.bits != nil && bitSet(ld.bits, j) {
				cand := extract.Candidate{Hypo: uint32(u), Hyper: c.HyperIDs[j], Source: rest}
				if x < len(ld.except) && ld.except[x].edge == uint32(j) {
					cand.Source = ld.except[x].source
					x++
				}
				ld.kept = append(ld.kept, cand)
				ld.ev.AddPair(cand.Hypo, cand.Hyper)
				if rest &^= cand.Source; rest == 0 {
					continue
				}
			}
			ld.derived = append(ld.derived, taxonomy.Pair{Hypo: uint32(u), Hyper: c.HyperIDs[j], Source: rest})
		}
	}
	if ld.ev != nil {
		ld.ev.MarkAllDirty()
	}
}
