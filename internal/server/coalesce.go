package server

import (
	"sort"
	"sync"

	"energysched/internal/metrics"
)

// Request coalescing for the hot read endpoints (/report, /cluster,
// /series). Each of these costs one fleet event-loop turn; under the
// concurrent polling a busy daemon attracts (N dashboards, N loadgen
// pollers), identical in-flight GETs would queue N turns
// for the same answer. readGroup is a hand-rolled singleflight: the
// first caller of a key becomes the leader and executes the fetch,
// concurrent callers with the same key wait for the leader's result,
// and the key is forgotten the moment the leader returns — a
// completed fetch is never served stale to a later request.

// readCall is one flight: the leader's result, and the wait group its
// followers park on until the leader has written it.
type readCall[T any] struct {
	wg  sync.WaitGroup
	val T
	err error
}

// readKey names a flight: the endpoint and everything that
// distinguishes its response.
type readKey struct{ endpoint, key string }

type readStats struct{ hits, misses uint64 }

// readGroup deduplicates concurrent identical reads. The zero value is
// ready to use.
type readGroup struct {
	mu    sync.Mutex
	calls map[readKey]any       // *readCall[T] of the endpoint's T
	stats map[string]*readStats // per endpoint, guarded by mu
}

func (g *readGroup) statsFor(endpoint string) *readStats {
	if g.stats == nil {
		g.stats = make(map[string]*readStats)
	}
	st, ok := g.stats[endpoint]
	if !ok {
		st = &readStats{}
		g.stats[endpoint] = st
	}
	return st
}

// coalesce executes fn once per concurrently-requested key: the leader
// runs it, followers block until the leader finishes and share its
// result (and its error). endpoint labels the hit/miss metrics and
// fixes T; key must capture everything that distinguishes the response
// (fleet ID, query string).
func coalesce[T any](g *readGroup, endpoint, key string, fn func() (T, error)) (T, error) {
	k := readKey{endpoint, key}
	g.mu.Lock()
	if c, ok := g.calls[k]; ok {
		g.statsFor(endpoint).hits++
		g.mu.Unlock()
		call := c.(*readCall[T])
		call.wg.Wait()
		return call.val, call.err
	}
	if g.calls == nil {
		g.calls = make(map[readKey]any)
	}
	c := new(readCall[T])
	c.wg.Add(1)
	g.calls[k] = c
	g.statsFor(endpoint).misses++
	g.mu.Unlock()

	c.val, c.err = fn()

	g.mu.Lock()
	delete(g.calls, k)
	g.mu.Unlock()
	c.wg.Done()
	return c.val, c.err
}

// samples appends the coalescer's Prometheus counters, one hit/miss
// pair per endpoint that has served traffic, in stable order.
func (g *readGroup) samples() []metrics.PromSample {
	g.mu.Lock()
	defer g.mu.Unlock()
	endpoints := make([]string, 0, len(g.stats))
	for ep := range g.stats {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints)
	out := make([]metrics.PromSample, 0, 2*len(endpoints))
	for _, ep := range endpoints {
		st := g.stats[ep]
		out = append(out,
			metrics.PromSample{Name: "energysched_coalesce_total", Help: "Hot-path read requests by endpoint and coalescing outcome.",
				Kind: metrics.PromCounter, Labels: map[string]string{"endpoint": ep, "result": "hit"}, Value: float64(st.hits)},
			metrics.PromSample{Name: "energysched_coalesce_total", Help: "Hot-path read requests by endpoint and coalescing outcome.",
				Kind: metrics.PromCounter, Labels: map[string]string{"endpoint": ep, "result": "miss"}, Value: float64(st.misses)},
		)
	}
	return out
}
