package serving

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"unicode/utf8"
	"unsafe"

	"cnprobase/internal/taxonomy"
)

// The snapshot's "view image" (format version 6): the View's
// canonical arrays serialized as fixed-width little-endian blocks plus
// two string arenas, laid out so a page-aligned mapping of the
// snapshot file can be used as the View's backing storage without a
// decode pass.
//
// Payload layout (offsets are absolute file offsets; `base` is the
// file offset the payload starts at):
//
//	preamble (48 bytes): 6 × u64 LE —
//	    n (nodes), e (edges), m (mentions), me (mention entities),
//	    len(name arena), len(mention arena)
//	then 10 blocks, each preceded by zero padding up to the next
//	8-aligned file offset:
//	     1. nameOff       (n+1) × u32   name i = nameArena[off[i]:off[i+1]]
//	     2. hyperOff      (n+1) × u32   hypernym CSR offsets
//	     3. hyperIDs        e  × u32    CSR targets, ascending per node
//	     4. mentionStrOff (m+1) × u32   mention string offsets
//	     5. mentionOff    (m+1) × u32   mention → entity offsets
//	     6. mentionEnts    me  × u32    entity node IDs, ascending per mention
//	     7. kinds           n  × u8     NodeKind per node
//	     8. edgeSources     e  × u8     Source bitmask per edge
//	     9. name arena      (concatenated node names, sorted)
//	    10. mention arena   (concatenated mentions, sorted)
//
// Only canonical content is stored. Everything derivable — the hyponym
// CSR (adjacency only), the evidence counts (each edge's number of
// sources) and their totals, the hypernym typicality rankings, stats —
// is recomputed at open by buildDerived, the same function the heap
// compile path uses, which is what keeps a mapped View query-identical
// to a compiled one.
const (
	imagePreambleLen = 48
	// maxImageElems bounds every element count so offset arithmetic
	// stays far from uint64 overflow and indexes fit in int32.
	maxImageElems = 1 << 31
)

// littleEndianHost reports whether the running machine stores integers
// little-endian — the image byte order — so numeric blocks can be
// reinterpreted in place instead of decoded.
var littleEndianHost = binary.NativeEndian.Uint16([]byte{0x12, 0x34}) == 0x3412

// imageBlockSizes returns the (element size, element count) walk of
// the 10 blocks, shared by the encoder and the parser so the two can
// never disagree about where a block lands.
func imageBlockSizes(n, e, m, me, nameLen, menLen uint64) [10][2]uint64 {
	return [10][2]uint64{
		{4, n + 1}, {4, n + 1}, {4, e},
		{4, m + 1}, {4, m + 1}, {4, me}, {1, n}, {1, e},
		{1, nameLen}, {1, menLen},
	}
}

// SizedImage is a view checked and measured for serialization as an
// image at one file offset: Image validates and sizes, WriteTo
// streams. Between the two the section header that declares the
// length can be written, so no copy of the image is ever held.
type SizedImage struct {
	v    *View
	base uint64
	size uint64
}

// Image prepares the view's canonical content for writing in the
// mappable image layout. base is the absolute file offset the
// payload will land at: blocks are padded so their file offsets are
// 8-aligned, making them aligned in any page-aligned mapping of the
// file. A view with a delta is folded first (Fold), so the bytes are
// Compile's either way.
func (v *View) Image(base uint64) (SizedImage, error) {
	v = v.Fold()
	im := SizedImage{v: v, base: base}
	n, e := v.names.len(), len(v.hyperIDs)
	m, me := v.mentions.len(), len(v.mentionEnts)
	if n >= maxImageElems || e >= maxImageElems || m >= maxImageElems || me >= maxImageElems {
		return im, fmt.Errorf("serving: view too large for the image format")
	}
	// The name and mention tables are already arenas, built within the
	// 4 GiB limit (newTable).
	im.size = imagePreambleLen
	for _, sz := range imageBlockSizes(uint64(n), uint64(e), uint64(m), uint64(me), uint64(len(v.names.arena)), uint64(len(v.mentions.arena))) {
		im.size += (8 - (base+im.size)%8) % 8
		im.size += sz[0] * sz[1]
	}
	return im, nil
}

// Len returns the exact number of bytes WriteTo writes.
func (im SizedImage) Len() int { return int(im.size) }

// WriteTo writes the image block by block from the view's arrays,
// through a small chunk buffer: what it allocates does not depend on
// the view.
func (im SizedImage) WriteTo(w io.Writer) (int64, error) {
	v := im.v
	out := imageOut{w: w, base: im.base, buf: make([]byte, 0, 4096)}
	u32s := func(xs []uint32) {
		out.pad()
		for _, x := range xs {
			out.u32(x)
		}
	}

	for _, x := range [6]uint64{uint64(v.names.len()), uint64(len(v.hyperIDs)), uint64(v.mentions.len()),
		uint64(len(v.mentionEnts)), uint64(len(v.names.arena)), uint64(len(v.mentions.arena))} {
		out.u64(x)
	}
	u32s(v.names.off)
	u32s(v.hyperOff)
	u32s(v.hyperIDs)
	u32s(v.mentions.off)
	u32s(v.mentionOff)
	u32s(v.mentionEnts)
	out.pad()
	for _, k := range v.kinds {
		out.u8(byte(k))
	}
	out.pad()
	for _, s := range v.edgeSources {
		out.u8(byte(s))
	}
	out.pad()
	out.bytes(v.names.arena)
	out.pad()
	out.bytes(v.mentions.arena)
	out.flush()
	return out.written, out.err
}

// imageOut is WriteTo's sink: little-endian appends into a chunk that
// is handed to the writer whenever it fills, a running position for
// the alignment padding, and the first write error, after which
// everything is dropped.
type imageOut struct {
	w       io.Writer
	base    uint64
	n       uint64 // bytes emitted, flushed or not
	buf     []byte
	written int64
	err     error
}

func (o *imageOut) flush() {
	if o.err == nil && len(o.buf) > 0 {
		var k int
		k, o.err = o.w.Write(o.buf)
		o.written += int64(k)
	}
	o.buf = o.buf[:0]
}

func (o *imageOut) room(n int) {
	if len(o.buf)+n > cap(o.buf) {
		o.flush()
	}
	o.n += uint64(n)
}

func (o *imageOut) u8(x byte)    { o.room(1); o.buf = append(o.buf, x) }
func (o *imageOut) u32(x uint32) { o.room(4); o.buf = binary.LittleEndian.AppendUint32(o.buf, x) }
func (o *imageOut) u64(x uint64) { o.room(8); o.buf = binary.LittleEndian.AppendUint64(o.buf, x) }

// bytes writes b in one write, behind whatever the chunk holds.
func (o *imageOut) bytes(b []byte) {
	o.flush()
	o.n += uint64(len(b))
	if o.err == nil && len(b) > 0 {
		var k int
		k, o.err = o.w.Write(b)
		o.written += int64(k)
	}
}

func (o *imageOut) pad() {
	for (o.base+o.n)%8 != 0 {
		o.u8(0)
	}
}

// image is a parsed image payload: the canonical view content, either
// aliased into the payload bytes (little-endian host, aligned blocks)
// or copy-decoded out of them.
type image struct {
	n, e, m, me int

	names, mentions                             table // arenas over their offset blocks
	hyperOff, hyperIDs, mentionOff, mentionEnts []uint32
	kinds                                       []taxonomy.NodeKind
	edgeSources                                 []taxonomy.Source
}

// parseImage slices an image payload into its blocks and validates every
// structural invariant a View relies on. The same parse backs
// OpenImage (aliasing) and DecodeImage (copying), so the mapped and
// rebuild paths accept exactly the same set of payloads.
func parseImage(data []byte, base uint64) (*image, error) {
	if len(data) < imagePreambleLen {
		return nil, fmt.Errorf("serving: image payload too short (%d bytes)", len(data))
	}
	var hdr [6]uint64
	for i := range hdr {
		hdr[i] = binary.LittleEndian.Uint64(data[i*8:])
	}
	n, e, m, me := hdr[0], hdr[1], hdr[2], hdr[3]
	nameLen, menLen := hdr[4], hdr[5]
	for _, c := range [4]uint64{n, e, m, me} {
		if c >= maxImageElems {
			return nil, fmt.Errorf("serving: image element count %d exceeds limit", c)
		}
	}
	for _, l := range [2]uint64{nameLen, menLen} {
		if l > math.MaxUint32 {
			return nil, fmt.Errorf("serving: image arena length %d exceeds limit", l)
		}
	}
	pos := uint64(imagePreambleLen)
	var spans [10][2]uint64
	for i, sz := range imageBlockSizes(n, e, m, me, nameLen, menLen) {
		pos += (8 - (base+pos)%8) % 8
		start := pos
		pos += sz[0] * sz[1]
		if pos > uint64(len(data)) {
			return nil, fmt.Errorf("serving: image truncated (need %d bytes, have %d)", pos, len(data))
		}
		spans[i] = [2]uint64{start, pos}
	}
	if pos != uint64(len(data)) {
		return nil, fmt.Errorf("serving: %d trailing bytes after image content", uint64(len(data))-pos)
	}
	blk := func(i int) []byte { return data[spans[i][0]:spans[i][1]] }

	img := &image{
		n:           int(n),
		e:           int(e),
		m:           int(m),
		me:          int(me),
		names:       table{arena: blk(8), off: castU32(blk(0))},
		hyperOff:    castU32(blk(1)),
		hyperIDs:    castU32(blk(2)),
		mentions:    table{arena: blk(9), off: castU32(blk(3))},
		mentionOff:  castU32(blk(4)),
		mentionEnts: castU32(blk(5)),
		kinds:       castKinds(blk(6)),
		edgeSources: castSources(blk(7)),
	}
	if err := img.validate(uint32(nameLen), uint32(menLen)); err != nil {
		return nil, err
	}
	return img, nil
}

// validate rejects any payload that could make a mapped View answer
// differently from Load → Compile of the same content (or crash).
func (img *image) validate(nameLen, menLen uint32) error {
	if err := checkOffsets("node name", img.names.off, nameLen, true); err != nil {
		return err
	}
	for i := 1; i < img.n; i++ {
		if img.names.at(i-1) >= img.names.at(i) {
			return fmt.Errorf("serving: node names not strictly ascending at %d", i)
		}
	}
	for i, k := range img.kinds {
		if k > taxonomy.KindConcept {
			return fmt.Errorf("serving: node %d: invalid kind %d", i, k)
		}
	}
	if err := checkOffsets("hypernym CSR", img.hyperOff, uint32(img.e), false); err != nil {
		return err
	}
	touched := make([]bool, img.n)
	for u := 0; u < img.n; u++ {
		lo, hi := img.hyperOff[u], img.hyperOff[u+1]
		if lo < hi {
			touched[u] = true
		}
		for j := lo; j < hi; j++ {
			id := img.hyperIDs[j]
			switch {
			case id >= uint32(img.n):
				return fmt.Errorf("serving: edge %d: hypernym ID %d out of range", j, id)
			case id == uint32(u):
				return fmt.Errorf("serving: edge %d: self-loop on node %d", j, u)
			case j > lo && id <= img.hyperIDs[j-1]:
				return fmt.Errorf("serving: node %d: hypernym IDs not strictly ascending", u)
			case img.kinds[id] == taxonomy.KindUnknown:
				// The taxonomy marks an unknown hypernym a concept
				// when it links the edge, so a compiled image never carries
				// one; a crafted one would make Load and OpenMapped
				// diverge.
				return fmt.Errorf("serving: edge %d: hypernym %d has unknown kind", j, id)
			}
			touched[id] = true
		}
	}

	if err := checkOffsets("mention", img.mentions.off, menLen, true); err != nil {
		return err
	}
	for i := 0; i < img.m; i++ {
		ms := img.mentions.at(i)
		if i > 0 && img.mentions.at(i-1) >= ms {
			return fmt.Errorf("serving: mentions not strictly ascending at %d", i)
		}
		if !utf8.ValidString(ms) {
			return fmt.Errorf("serving: mention %d is not valid UTF-8", i)
		}
		if len(strings.TrimSpace(ms)) != len(ms) {
			return fmt.Errorf("serving: mention %d is not whitespace-trimmed", i)
		}
	}
	if err := checkOffsets("mention entity", img.mentionOff, uint32(img.me), true); err != nil {
		return err
	}
	for i := 0; i < img.m; i++ {
		for j := img.mentionOff[i]; j < img.mentionOff[i+1]; j++ {
			id := img.mentionEnts[j]
			switch {
			case id >= uint32(img.n):
				return fmt.Errorf("serving: mention %d: entity ID %d out of range", i, id)
			case j > img.mentionOff[i] && id <= img.mentionEnts[j-1]:
				return fmt.Errorf("serving: mention %d: entity IDs not strictly ascending", i)
			}
			touched[id] = true
		}
	}
	for u, ok := range touched {
		if !ok && img.kinds[u] == taxonomy.KindUnknown {
			// compile only interns marked nodes, edge endpoints and
			// mention entities.
			return fmt.Errorf("serving: node %d is unmarked and touches no edge or mention", u)
		}
	}
	return nil
}

func checkOffsets(what string, offs []uint32, total uint32, strict bool) error {
	if offs[0] != 0 {
		return fmt.Errorf("serving: %s offsets do not start at 0", what)
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] || (strict && offs[i] == offs[i-1]) {
			return fmt.Errorf("serving: %s offsets not ascending at %d", what, i)
		}
	}
	if offs[len(offs)-1] != total {
		return fmt.Errorf("serving: %s offsets end at %d, want %d", what, offs[len(offs)-1], total)
	}
	return nil
}

// OpenImage builds a View directly over an image payload, aliasing
// its arrays instead of decoding them: the node-name and mention tables
// are the payload's own arenas and offsets, read in place with no
// header per string, and the mention entities are the payload's node
// ID block, so the view holds nothing per name, mention or entity. On
// little-endian hosts the numeric blocks are reinterpreted in place
// (misaligned buffers and big-endian hosts get a copying decode). data
// must stay valid and unmodified for the life of the returned View —
// snapshot.OpenMapped ties the mapping's lifetime to the View with a
// finalizer.
//
// A mapped View has the flat layout Compile and Fold build on the
// heap, so it answers through the same code, with the same 0 allocs/op
// per query.
func OpenImage(data []byte, base uint64) (*View, error) {
	img, err := parseImage(data, base)
	if err != nil {
		return nil, err
	}
	v := &View{
		names:        img.names,
		kinds:        img.kinds,
		hyperOff:     img.hyperOff,
		hyperIDs:     img.hyperIDs,
		edgeSources:  img.edgeSources,
		mentions:     img.mentions,
		mentionOff:   img.mentionOff,
		mentionEnts:  img.mentionEnts,
		mentionFirst: firstRuneSet(img.mentions),
	}
	v.buildDerived()
	return v, nil
}

// ImageContent is the logical content of an image — its node names and
// kinds, edges and mention table — for the path that rebuilds the
// write model (snapshot.Load). Everything is copied out of the input
// buffer once.
type ImageContent struct {
	// Names lists the node names by image ID, ascending, and Kinds
	// their kinds.
	Names []string
	Kinds []taxonomy.NodeKind
	// Edges are in image order, by (hyponym ID, hypernym ID): node u's
	// edges are [HyperOff[u], HyperOff[u+1]), and edge j's hypernym is
	// node HyperIDs[j] and its sources Sources[j] — the numbering
	// View.EdgeAt reads by.
	HyperOff []uint32
	HyperIDs []uint32
	Sources  []taxonomy.Source
	// Mentions lists the mentions, ascending; mention i's entities are
	// the node IDs MentionEnts[MentionOff[i]:MentionOff[i+1]], ascending.
	Mentions    []string
	MentionOff  []uint32
	MentionEnts []uint32
}

// DecodeImage parses and fully materializes an image payload.
func DecodeImage(data []byte, base uint64) (*ImageContent, error) {
	img, err := parseImage(data, base)
	if err != nil {
		return nil, err
	}
	return &ImageContent{
		Names:       tableStrings(img.names, true),
		Kinds:       slices.Clone(img.kinds),
		HyperOff:    slices.Clone(img.hyperOff),
		HyperIDs:    slices.Clone(img.hyperIDs),
		Sources:     slices.Clone(img.edgeSources),
		Mentions:    tableStrings(img.mentions, true),
		MentionOff:  slices.Clone(img.mentionOff),
		MentionEnts: slices.Clone(img.mentionEnts),
	}, nil
}

// tableStrings materializes a table as a string list: headers over the
// arena bytes (copyBytes=false — zero bytes copied, the strings alias
// the arena) or over one copy of the arena (copyBytes=true, for results
// that must outlive the input buffer: one allocation, not one a row).
func tableStrings(t table, copyBytes bool) []string {
	arena := unsafe.String(unsafe.SliceData(t.arena), len(t.arena))
	if copyBytes {
		arena = strings.Clone(arena)
	}
	out := make([]string, t.len())
	for i := range out {
		out[i] = arena[t.off[i]:t.off[i+1]]
	}
	return out
}

func castU32(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	if littleEndianHost && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out
}

// castKinds and castSources reinterpret byte blocks as their uint8
// enum types — same size, any alignment, any endianness.
func castKinds(b []byte) []taxonomy.NodeKind {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*taxonomy.NodeKind)(unsafe.Pointer(&b[0])), len(b))
}

func castSources(b []byte) []taxonomy.Source {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*taxonomy.Source)(unsafe.Pointer(&b[0])), len(b))
}
