package serving

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"cnprobase/internal/taxonomy"
)

// appendImageOracle is the image encoder SizedImage replaced, kept
// verbatim but for reading the name and mention tables out as string
// lists first: it appends the whole image to dst, growing as it goes.
func (v *View) appendImageOracle(dst []byte, base uint64) ([]byte, error) {
	names, mentions := v.Nodes(), tableStrings(v.mentions, false)
	n, e := len(names), len(v.hyperIDs)
	m, me := len(mentions), len(v.mentionEnts)
	if n >= maxImageElems || e >= maxImageElems || m >= maxImageElems || me >= maxImageElems {
		return nil, fmt.Errorf("serving: view too large for the image format")
	}
	nameLen, err := arenaLen("node name", names)
	if err != nil {
		return nil, err
	}
	menLen, err := arenaLen("mention", mentions)
	if err != nil {
		return nil, err
	}

	start := len(dst)
	pad := func() {
		for (base+uint64(len(dst)-start))%8 != 0 {
			dst = append(dst, 0)
		}
	}
	putU64 := func(x uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		dst = append(dst, b[:]...)
	}
	putU32 := func(x uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], x)
		dst = append(dst, b[:]...)
	}
	strOffsets := func(strs []string) {
		off := uint32(0)
		putU32(0)
		for _, s := range strs {
			off += uint32(len(s))
			putU32(off)
		}
	}

	putU64(uint64(n))
	putU64(uint64(e))
	putU64(uint64(m))
	putU64(uint64(me))
	putU64(nameLen)
	putU64(menLen)

	pad()
	strOffsets(names)
	pad()
	for _, o := range v.hyperOff {
		putU32(o)
	}
	pad()
	for _, id := range v.hyperIDs {
		putU32(id)
	}
	pad()
	strOffsets(mentions)
	pad()
	for _, o := range v.mentionOff {
		putU32(o)
	}
	pad()
	for _, id := range v.mentionEnts {
		putU32(id)
	}
	pad()
	for _, k := range v.kinds {
		dst = append(dst, byte(k))
	}
	pad()
	for _, s := range v.edgeSources {
		dst = append(dst, byte(s))
	}
	pad()
	for _, s := range names {
		dst = append(dst, s...)
	}
	pad()
	for _, s := range mentions {
		dst = append(dst, s...)
	}
	return dst, nil
}

func arenaLen(what string, strs []string) (uint64, error) {
	var total uint64
	for _, s := range strs {
		total += uint64(len(s))
	}
	if total > math.MaxUint32 {
		return 0, fmt.Errorf("serving: %s arena exceeds the 4 GiB image limit", what)
	}
	return total, nil
}

// failAfter accepts k bytes and then fails every write.
type failAfter struct{ k int }

var errSink = errors.New("sink full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.k {
		n := f.k
		f.k = 0
		return n, errSink
	}
	f.k -= len(p)
	return len(p), nil
}

// TestImageStreamsLikeAppend pins the streamed image writer to the
// append-built one it replaced: same bytes at every alignment, the
// announced length exact, the byte count honest and write errors
// returned.
func TestImageStreamsLikeAppend(t *testing.T) {
	tax := fixture(t)
	bare := *tax
	bare.Mentions = nil
	long := taxonomy.New()
	if err := long.AddIsA(strings.Repeat("长", 3000), "概念", taxonomy.SourceTag); err != nil {
		t.Fatal(err)
	}
	views := map[string]*View{
		"empty":       Compile(taxonomy.New()),
		"fixture":     Compile(tax),
		"no mentions": Compile(&bare),
		"long name":   Compile(long), // longer than the writer's chunk
	}
	for name, v := range views {
		for base := uint64(0); base < 9; base++ {
			want, err := v.appendImageOracle(nil, base)
			if err != nil {
				t.Fatalf("%s: oracle: %v", name, err)
			}
			im, err := v.Image(base)
			if err != nil {
				t.Fatalf("%s: Image: %v", name, err)
			}
			var got bytes.Buffer
			n, err := im.WriteTo(&got)
			if err != nil || n != int64(got.Len()) || im.Len() != got.Len() {
				t.Fatalf("%s base %d: WriteTo = %d, %v; wrote %d, Len %d", name, base, n, err, got.Len(), im.Len())
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s base %d: streamed image differs from the appended one (%d vs %d bytes)", name, base, got.Len(), len(want))
			}
		}
	}
	im, err := views["fixture"].Image(29)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < im.Len(); k += 97 {
		if n, err := im.WriteTo(&failAfter{k: k}); !errors.Is(err, errSink) || n > int64(k) {
			t.Fatalf("failing after %d bytes: WriteTo = %d, %v", k, n, err)
		}
	}
}
