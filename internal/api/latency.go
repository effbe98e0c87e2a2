package api

import (
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// Cheap lock-free latency histograms: one power-of-two bucket per
// nanosecond magnitude (bucket i covers [2^i, 2^(i+1)) ns), one atomic
// counter per bucket. Recording is a bit-length + one atomic add, so
// the measurement cost is negligible next to even the cheapest
// handler. Quantiles are read back as the geometric midpoint of the
// bucket holding the target rank — ~±25% resolution, plenty for the
// p50/p99 shutdown report workload experiments read.

const latencyBuckets = 64

type histogram struct {
	buckets [latencyBuckets]atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 1 {
		ns = 1
	}
	h.buckets[bits.Len64(uint64(ns))-1].Add(1)
}

func (h *histogram) count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// quantile returns the latency at quantile q in [0, 1], as the
// geometric midpoint of the bucket containing that rank. Zero when
// nothing has been recorded.
func (h *histogram) quantile(q float64) time.Duration {
	total := h.count()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total-1))
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen > rank {
			lo := int64(1) << i
			return time.Duration(lo + lo/2) // midpoint of [2^i, 2^(i+1))
		}
	}
	return time.Duration(1<<62 + 1<<61) // midpoint of the top bucket
}

// EndpointLatency is one endpoint's latency summary, reported by
// /api/stats and logged by cnpserver on shutdown.
type EndpointLatency struct {
	Endpoint string  `json:"endpoint"`
	Count    int64   `json:"count"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
}

// LatencyReport summarizes per-endpoint request latency (p50/p99 from
// the log2 histograms), sorted by endpoint name; endpoints that served
// no requests are omitted.
func (s *Server) LatencyReport() []EndpointLatency {
	var out []EndpointLatency
	for _, e := range s.endpoints {
		n := e.lat.count()
		if n == 0 {
			continue
		}
		out = append(out, EndpointLatency{
			Endpoint: e.name,
			Count:    n,
			P50Ms:    float64(e.lat.quantile(0.50)) / float64(time.Millisecond),
			P99Ms:    float64(e.lat.quantile(0.99)) / float64(time.Millisecond),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Endpoint < out[j].Endpoint })
	return out
}
