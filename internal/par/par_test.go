package par

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestMapBatchesOrderPreserved(t *testing.T) {
	for _, p := range []*Pool{nil, NewPool(4)} {
		got := Concat(MapBatches(p, 1000, func(lo, hi int) []int {
			out := make([]int, 0, hi-lo)
			for i := lo; i < hi; i++ {
				out = append(out, i)
			}
			return out
		}))
		if len(got) != 1000 {
			t.Fatalf("pool=%v: len = %d", p, len(got))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("pool=%v: got[%d] = %d", p, i, v)
			}
		}
	}
}

func TestMapBatchesBoundsConcurrency(t *testing.T) {
	p := NewPool(3)
	var cur, max atomic.Int64
	MapBatches(p, 200, func(lo, hi int) struct{} {
		n := cur.Add(1)
		for {
			m := max.Load()
			if n <= m || max.CompareAndSwap(m, n) {
				break
			}
		}
		for i := 0; i < 1000; i++ {
			_ = i * i
		}
		cur.Add(-1)
		return struct{}{}
	})
	if got := max.Load(); got > 3 {
		t.Errorf("observed %d concurrent tasks, bound is 3", got)
	}
}

func TestWindowFoldCoversAllInOrder(t *testing.T) {
	for _, p := range []*Pool{nil, NewPool(4)} {
		var got []int
		values := make(map[*[]int]bool)
		WindowFold(p, 1000, 64, func(b *[]int, lo, hi int) {
			*b = (*b)[:0]
			for i := lo; i < hi; i++ {
				*b = append(*b, i)
			}
		}, func(b *[]int) {
			values[b] = true
			got = append(got, *b...)
		})
		if len(got) != 1000 {
			t.Fatalf("pool=%v: folded %d items", p, len(got))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("pool=%v: got[%d] = %d", p, i, v)
			}
		}
		// One window's batches; the later windows reuse them.
		if want := len(MapBatches(p, 64*p.Size(), func(lo, hi int) int { return 0 })); len(values) != want {
			t.Fatalf("pool=%v: %d batch values, want %d", p, len(values), want)
		}
	}
}

func TestMapBatchesEmpty(t *testing.T) {
	if got := MapBatches(NewPool(2), 0, func(lo, hi int) int { return 1 }); got != nil {
		t.Errorf("MapBatches(0) = %v, want nil", got)
	}
}

func TestPoolNilSemantics(t *testing.T) {
	var p *Pool
	if p.Size() != 1 {
		t.Error("nil pool Size != 1")
	}
	release := p.Acquire() // must not block or panic
	release()
	if NewPool(1) != nil {
		t.Error("NewPool(1) should be nil (sequential)")
	}
	if q := NewPool(4); q == nil || q.Size() != 4 {
		t.Error("NewPool(4) misconfigured")
	}
}

func TestGroupCollectsFirstError(t *testing.T) {
	for _, inline := range []bool{true, false} {
		g := &Group{Inline: inline}
		sentinel := errors.New("boom")
		g.Go(func() error { return nil })
		g.Go(func() error { return sentinel })
		if err := g.Wait(); !errors.Is(err, sentinel) {
			t.Errorf("inline=%v: Wait() = %v, want %v", inline, err, sentinel)
		}
	}
}
