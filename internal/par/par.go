// Package par provides the small concurrency vocabulary the pipeline
// shares: a bounded worker pool, an order-preserving batched map, and
// an inline-degradable coordinator group. Every helper treats a nil
// *Pool as "run inline, sequentially", which is how the deterministic
// Workers=1 path degrades without a second code path.
package par

import "sync"

// Pool is a bounded worker pool. Concurrent stages sharing one Pool
// can never run more than its capacity of leaf tasks at once. A nil
// *Pool means sequential inline execution.
type Pool struct {
	sem chan struct{}
}

// NewPool returns a pool admitting at most workers concurrent tasks,
// or nil when workers <= 1 (the sequential path).
func NewPool(workers int) *Pool {
	if workers <= 1 {
		return nil
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// Size returns the pool's concurrency bound (1 for a nil pool).
func (p *Pool) Size() int {
	if p == nil {
		return 1
	}
	return cap(p.sem)
}

// Acquire claims one pool slot for CPU-heavy work running on a
// coordinator goroutine itself (predicate discovery, model training)
// and returns the release function. Release the slot before calling
// MapBatches — holding it across a fan-out would waste a worker (the
// pool stays deadlock-free either way, since leaf tasks never acquire
// further slots). A nil pool returns a no-op.
func (p *Pool) Acquire() (release func()) {
	if p == nil {
		return func() {}
	}
	p.sem <- struct{}{}
	return func() { <-p.sem }
}

// MapBatches splits the index range [0, n) into contiguous batches,
// applies fn to each batch on the pool, and returns the per-batch
// results in batch order. Batch boundaries follow item order, so
// concatenating the results reproduces the exact sequential output for
// order-preserving fn. With a nil pool the single batch [0, n) runs
// inline on the calling goroutine.
func MapBatches[T any](p *Pool, n int, fn func(lo, hi int) T) []T {
	if n <= 0 {
		return nil
	}
	if p == nil {
		return []T{fn(0, n)}
	}
	// Oversplit relative to the worker count so uneven batches (pages
	// with and without abstracts, say) still balance.
	batches := p.Size() * 4
	if batches > n {
		batches = n
	}
	size := (n + batches - 1) / batches
	batches = (n + size - 1) / size
	out := make([]T, batches)
	var wg sync.WaitGroup
	for b := 0; b < batches; b++ {
		lo := b * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		b := b
		wg.Add(1)
		p.sem <- struct{}{}
		go func() {
			defer func() { <-p.sem; wg.Done() }()
			out[b] = fn(lo, hi)
		}()
	}
	wg.Wait()
	return out
}

// WindowFold processes [0, n) in windows of Size()*perWorker items:
// each window's index range fans out through MapBatches, fn filling one
// batch value for the absolute bounds [lo, hi), and fold reads the
// batch values in batch order before the next window is cut. Resident
// intermediate results are bounded to one window — O(window), not
// O(n) — which is what the pipeline's streaming accumulator passes
// need. A window's batch values are handed to the next window's
// batches, so fn resets what it reuses and fold keeps no reference
// into a value. fold runs only on the calling goroutine, so it may
// touch non-thread-safe state.
func WindowFold[B any](p *Pool, n, perWorker int, fn func(b *B, lo, hi int), fold func(b *B)) {
	window := p.Size() * perWorker
	var (
		mu   sync.Mutex
		free []*B // the finished window's batch values
	)
	for base := 0; base < n; base += window {
		end := min(base+window, n)
		batches := MapBatches(p, end-base, func(lo, hi int) *B {
			mu.Lock()
			var b *B
			if k := len(free); k > 0 {
				b, free = free[k-1], free[:k-1]
			} else {
				b = new(B)
			}
			mu.Unlock()
			fn(b, base+lo, base+hi)
			return b
		})
		for _, b := range batches {
			fold(b)
		}
		free = append(free, batches...)
	}
}

// Concat flattens per-batch slices in batch order.
func Concat[T any](batches [][]T) []T {
	n := 0
	for _, b := range batches {
		n += len(b)
	}
	out := make([]T, 0, n)
	for _, b := range batches {
		out = append(out, b...)
	}
	return out
}

// Group runs coordinator functions — one per pipeline stage — either
// inline (sequential path) or on goroutines, collecting the first
// error. Coordinators themselves do not occupy pool slots; only the
// leaf batch tasks they spawn through MapBatches (or explicitly via
// Pool.Acquire) do.
type Group struct {
	// Inline makes Go run functions immediately on the caller, in call
	// order — the sequential path.
	Inline bool

	wg  sync.WaitGroup
	mu  sync.Mutex
	err error
}

func (g *Group) setErr(err error) {
	if err == nil {
		return
	}
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.mu.Unlock()
}

// Go runs fn; inline groups run it immediately on the caller.
func (g *Group) Go(fn func() error) {
	if g.Inline {
		g.setErr(fn())
		return
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.setErr(fn())
	}()
}

// Wait blocks until every Go'd function returned and reports the first
// error. It may be called more than once.
func (g *Group) Wait() error {
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}
