package resilience

import (
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
)

// Health is the probe state an orchestrator reads through /healthz and
// /readyz. Liveness is process-level — the HTTP plane answers, keep
// the container. Readiness is traffic-level — serve 200 only while
// the process should receive new requests:
//
//   - ready:    the serving state is loaded (snapshot decoded or
//     mapped, WAL tail replayed). Set once at startup.
//   - draining: shutdown has begun; flips /readyz to 503 *before* the
//     listeners close, so load balancers stop routing while in-flight
//     requests still drain cleanly.
//   - wedged:   the ingest updater panicked and was isolated. The
//     process keeps serving reads, but a replica that can no longer
//     apply writes must be rotated out.
//
// All transitions are atomic; handlers are safe for concurrent use.
type Health struct {
	ready    atomic.Bool
	draining atomic.Bool
	wedged   atomic.Bool

	mu          sync.Mutex
	wedgeReason string
}

// SetReady marks the serving state loaded (or not). cnpserver sets it
// after the snapshot is loaded and the WAL tail replayed.
func (h *Health) SetReady(ready bool) { h.ready.Store(ready) }

// SetDraining flips readiness off permanently: shutdown has begun.
func (h *Health) SetDraining() { h.draining.Store(true) }

// Wedge records that the ingest updater is permanently stuck (it
// panicked and was isolated). Readiness goes 503 with the reason; the
// first reason recorded wins.
func (h *Health) Wedge(reason string) {
	h.mu.Lock()
	if h.wedgeReason == "" {
		h.wedgeReason = reason
	}
	h.mu.Unlock()
	h.wedged.Store(true)
}

// Wedged reports whether the ingest plane has been isolated after a
// panic, and why.
func (h *Health) Wedged() (bool, string) {
	if !h.wedged.Load() {
		return false, ""
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return true, h.wedgeReason
}

// okBody is the fixed 200 payload of both probes; a JSON object so
// probe responses parse with the same tooling as everything else.
const okBody = "{\"status\":\"ok\"}\n"

// ServeLiveness is the /healthz handler: 200 whenever the process can
// answer HTTP at all. GET and HEAD only — probes never mutate.
func (h *Health) ServeLiveness(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		WriteJSONError(w, http.StatusMethodNotAllowed, "health probes require GET")
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_, _ = w.Write([]byte(okBody))
}

// ServeReadiness is the /readyz handler: 200 while the process should
// receive traffic, 503 with the JSON reasons while it should not
// (still loading, draining for shutdown, or the ingester is wedged).
func (h *Health) ServeReadiness(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		WriteJSONError(w, http.StatusMethodNotAllowed, "health probes require GET")
		return
	}
	var reasons []string
	if !h.ready.Load() {
		reasons = append(reasons, "serving state is not loaded")
	}
	if h.draining.Load() {
		reasons = append(reasons, "draining for shutdown")
	}
	if wedged, why := h.Wedged(); wedged {
		reason := "ingest updater is wedged"
		if why != "" {
			reason += ": " + why
		}
		reasons = append(reasons, reason)
	}
	if len(reasons) > 0 {
		WriteJSONError(w, http.StatusServiceUnavailable, strings.Join(reasons, "; "))
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_, _ = w.Write([]byte(okBody))
}
