package metrics

import (
	"math"
	"sync"
	"time"
)

// Histogram is a fixed-shape log-linear latency histogram: the range
// from 1µs to 900s is divided into decades, each decade into nine
// linear sub-buckets (1,2,…,9 × 10^k seconds), plus an overflow
// bucket. The layout is identical for every instance, so histograms
// merge bucket-by-bucket and their Prometheus exposition produces one
// `le` schema across all series of a family. All methods are safe for
// concurrent use; Observe is a mutex-guarded array increment, cheap
// enough for per-request instrumentation.
//
// Determinism contract: a Histogram only ever consumes wall-clock
// side-channel measurements. Nothing in the simulation or solver reads
// one back, so enabling or disabling instrumentation cannot perturb
// simulation bytes.
type Histogram struct {
	mu     sync.Mutex
	counts [histBuckets + 1]uint64 // +1 = overflow
	count  uint64
	sum    float64
	max    float64
}

const (
	histMinExp  = -6 // first decade: 1e-6 s = 1 µs
	histMaxExp  = 2  // last finite bound: 9e2… see histBounds
	histDecades = histMaxExp - histMinExp + 1
	histLinear  = 9 // sub-buckets per decade
	histBuckets = histDecades * histLinear
)

// histBounds holds the finite upper bounds, ascending: 1µs, 2µs, …,
// 9µs, 10µs, 20µs, …, 900s. Values above the last bound land in the
// overflow (+Inf) bucket.
var histBounds = func() [histBuckets]float64 {
	var b [histBuckets]float64
	i := 0
	for e := histMinExp; e <= histMaxExp; e++ {
		decade := math.Pow(10, float64(e))
		for m := 1; m <= histLinear; m++ {
			b[i] = float64(m) * decade
			i++
		}
	}
	return b
}()

// HistBounds returns a copy of the finite bucket upper bounds shared
// by every Histogram.
func HistBounds() []float64 {
	out := make([]float64, histBuckets)
	copy(out, histBounds[:])
	return out
}

// bucketFor returns the index of the first bound >= v, or histBuckets
// (overflow) when v exceeds every finite bound. Computed arithmetically
// from the log-linear layout instead of a binary search.
func bucketFor(v float64) int {
	if v <= histBounds[0] {
		return 0
	}
	if v > histBounds[histBuckets-1] {
		return histBuckets
	}
	e := math.Floor(math.Log10(v))
	// Guard against float log edge cases at decade boundaries.
	if e < histMinExp {
		e = histMinExp
	}
	d := int(e) - histMinExp
	if d >= histDecades {
		d = histDecades - 1
	}
	m := int(math.Ceil(v/math.Pow(10, e) - 1e-12))
	if m < 1 {
		m = 1
	}
	idx := d*histLinear + (m - 1)
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	// The arithmetic bucket can be off by one at representation
	// boundaries; repair by local scan.
	for idx > 0 && v <= histBounds[idx-1] {
		idx--
	}
	for idx < histBuckets && v > histBounds[idx] {
		idx++
	}
	return idx
}

// Observe records one value (seconds for latency series). Negative
// values are clamped to zero.
func (h *Histogram) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	i := bucketFor(v)
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// ObserveSince records the wall-clock seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// HistSnapshot is a consistent point-in-time copy of a Histogram.
// Counts is per-bucket (not cumulative) and has one extra trailing
// entry for the overflow bucket.
type HistSnapshot struct {
	Counts []uint64
	Count  uint64
	Sum    float64
	Max    float64
}

// Snapshot returns a consistent copy of the histogram's state.
func (h *Histogram) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	counts := make([]uint64, len(h.counts))
	copy(counts, h.counts[:])
	return HistSnapshot{Counts: counts, Count: h.count, Sum: h.sum, Max: h.max}
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation inside the target bucket. Returns 0 for an empty
// histogram. Estimates are clamped to the observed maximum, so
// Quantile(1) == Max and a one-sample histogram reports that sample's
// bucket (never more than the sample itself).
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i >= histBuckets {
			return s.Max // overflow bucket: the max is the best bound
		}
		lo := 0.0
		if i > 0 {
			lo = histBounds[i-1]
		}
		hi := histBounds[i]
		est := lo + (hi-lo)*(rank-prev)/float64(c)
		if est > s.Max {
			est = s.Max
		}
		return est
	}
	return s.Max
}

// Quantile is Snapshot().Quantile(q).
func (h *Histogram) Quantile(q float64) float64 { return h.Snapshot().Quantile(q) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Max returns the largest observed value (0 when empty).
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}
