package server

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"

	"energysched/internal/fleet"
	"energysched/internal/metrics"
	"energysched/internal/obs"
)

// Server-side observability: per-route HTTP latency histograms and the
// decision-trace API (GET /trace snapshot + SSE tail, POST
// /trace/verbosity). Like everything under internal/obs this is a
// wall-clock side channel — no handler here can influence a fleet's
// scheduling decisions.

// routeHists aggregates request latency per matched route pattern
// ("GET /v1/fleets/{fleet}/jobs"). Patterns are a small fixed set, so
// the map grows to the route table and stops.
type routeHists struct {
	mu sync.Mutex
	m  map[string]*metrics.Histogram
}

func (rh *routeHists) observe(route string, seconds float64) {
	rh.mu.Lock()
	h, ok := rh.m[route]
	if !ok {
		if rh.m == nil {
			rh.m = make(map[string]*metrics.Histogram)
		}
		h = &metrics.Histogram{}
		rh.m[route] = h
	}
	rh.mu.Unlock()
	// Histograms lock internally; observing outside rh.mu keeps the
	// map lock uncontended.
	h.Observe(seconds)
}

// samples renders every route's family, routes sorted for a stable
// exposition.
func (rh *routeHists) samples() []metrics.PromSample {
	rh.mu.Lock()
	routes := make([]string, 0, len(rh.m))
	for route := range rh.m {
		routes = append(routes, route)
	}
	hists := make([]*metrics.Histogram, 0, len(routes))
	sort.Strings(routes)
	for _, route := range routes {
		hists = append(hists, rh.m[route])
	}
	rh.mu.Unlock()
	var out []metrics.PromSample
	for i, route := range routes {
		out = append(out, metrics.HistogramSamples(
			"energysched_http_request_seconds",
			"HTTP request latency by matched route (streaming routes measure connection lifetime).",
			map[string]string{"route": route}, hists[i])...)
	}
	return out
}

// withRouteMetrics wraps the mux so every request feeds the per-route
// latency histogram. The route label is the mux pattern, not the raw
// URL — unbounded label cardinality would make /metrics a memory leak.
func (s *Server) withRouteMetrics(next *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		// ServeMux records the pattern it matched on the request it was
		// handed, so the label costs no second route lookup.
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		s.httpHists.observe(route, time.Since(start).Seconds())
	})
}

// TraceSnapshotBody is the JSON body of GET /trace: the ring's head
// sequence, the recording level, and the retained round traces (the
// ring hands them over marshaled — on this first read if nobody tailed
// them — so they pass through verbatim).
type TraceSnapshotBody struct {
	Seq       uint64            `json:"seq"`
	Verbosity string            `json:"verbosity"`
	Traces    []json.RawMessage `json:"traces"`
}

// handleTrace serves one fleet's decision-trace ring
// (GET /v1/fleets/{id}/trace): by default a JSON snapshot of the
// retained rounds with sequence > ?since, with ?follow=1 an SSE tail
// that replays the backlog and then streams each solver round as it
// commits (Last-Event-ID resumes like /events).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request, f *fleet.Fleet) {
	ring := f.Trace()
	if follows(r) {
		s.serveSSE(w, r, ring)
		return
	}
	since, err := resumePoint(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	evs := ring.Snapshot(since)
	body := TraceSnapshotBody{
		Seq:       ring.Seq(),
		Verbosity: ring.Verbosity().String(),
		Traces:    make([]json.RawMessage, 0, len(evs)),
	}
	for _, ev := range evs {
		body.Traces = append(body.Traces, json.RawMessage(ev.Data))
	}
	writeJSON(w, http.StatusOK, body)
}

// follows reports whether the request asked for the SSE tail
// (?follow=1) rather than the JSON snapshot.
func follows(r *http.Request) bool {
	fv := r.URL.Query().Get("follow")
	return fv != "" && fv != "0"
}

// handleTraceVerbosity retunes one fleet's trace recording level at
// runtime (POST /v1/fleets/{id}/trace/verbosity, body
// {"verbosity":"scores"}). Not write-gated: tracing is observability,
// valid on followers, and never touches replicated state.
func (s *Server) handleTraceVerbosity(w http.ResponseWriter, r *http.Request, f *fleet.Fleet) {
	var body struct {
		Verbosity string `json:"verbosity"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&body); err != nil {
		writeErr(w, &fleet.Error{Status: http.StatusBadRequest, Msg: "decoding body: " + err.Error()})
		return
	}
	v, err := obs.ParseVerbosity(body.Verbosity)
	if err != nil {
		writeErr(w, &fleet.Error{Status: http.StatusBadRequest, Msg: err.Error()})
		return
	}
	f.Trace().SetVerbosity(v)
	writeJSON(w, http.StatusOK, map[string]string{"verbosity": v.String()})
}
