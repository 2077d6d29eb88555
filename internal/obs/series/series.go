// Package series is the in-process accounting time-series store: a
// bounded ring of per-tick samples recording the paper's evaluation
// quantities — power draw, energy accumulated, SLA fulfillment,
// utilization, node counts and migration churn — per fleet and per
// node class. Samples are taken at simulated-interval boundaries (the
// datacenter's housekeeping tick), so two identical runs produce
// identical series: the store is a write-only side channel, stamped
// with virtual time, that nothing in the scheduling path reads back.
//
// The package is a leaf (standard library only) so the datacenter
// harness can build samples and the HTTP layer can parse queries
// without cycles.
package series

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// ClassSample is one node class's slice of a sample.
type ClassSample struct {
	// Class is the node class name.
	Class string `json:"class"`
	// Watts is the class's aggregate power draw at the sample instant.
	Watts float64 `json:"watts"`
	// KWh is the class's cumulative energy since the run started.
	KWh float64 `json:"kwh"`
	// On counts nodes powered on (booting included), Working the
	// subset hosting active VMs, Off the nodes powered down.
	On      int `json:"on"`
	Working int `json:"working"`
	Off     int `json:"off"`
}

// Sample is one accounting observation at a simulated-interval
// boundary.
type Sample struct {
	// T is the virtual time of the sample, in seconds.
	T float64 `json:"t"`
	// Watts is the fleet's total power draw at T.
	Watts float64 `json:"watts"`
	// KWh is the cumulative energy consumed up to T.
	KWh float64 `json:"kwh"`
	// SLA is the mean SLA satisfaction percentage of completed jobs.
	SLA float64 `json:"sla_pct"`
	// Utilization is reserved CPU as a percentage of online capacity.
	Utilization float64 `json:"utilization_pct"`
	// Queue is the number of jobs waiting for placement, Running the
	// VMs currently executing (migrations included).
	Queue   int `json:"queue"`
	Running int `json:"running"`
	// On/Working/Off are fleet-wide node counts (On includes booting).
	On      int `json:"nodes_on"`
	Working int `json:"nodes_working"`
	Off     int `json:"nodes_off"`
	// Migrations and Completed are cumulative counters; their slope is
	// the churn.
	Migrations int `json:"migrations_total"`
	Completed  int `json:"completed_total"`
	// Classes is the per-node-class breakdown, in first-appearance
	// order of the cluster layout.
	Classes []ClassSample `json:"classes,omitempty"`
}

// Point is one (time, value) pair of a single-metric query.
type Point struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

// metricsByName maps query metric names onto sample fields.
var metricsByName = map[string]func(Sample) float64{
	"watts":           func(s Sample) float64 { return s.Watts },
	"kwh":             func(s Sample) float64 { return s.KWh },
	"sla_pct":         func(s Sample) float64 { return s.SLA },
	"utilization_pct": func(s Sample) float64 { return s.Utilization },
	"queue":           func(s Sample) float64 { return float64(s.Queue) },
	"running":         func(s Sample) float64 { return float64(s.Running) },
	"nodes_on":        func(s Sample) float64 { return float64(s.On) },
	"nodes_working":   func(s Sample) float64 { return float64(s.Working) },
	"nodes_off":       func(s Sample) float64 { return float64(s.Off) },
	"migrations":      func(s Sample) float64 { return float64(s.Migrations) },
	"completed":       func(s Sample) float64 { return float64(s.Completed) },
}

// Metrics returns the queryable metric names, sorted.
func Metrics() []string {
	out := make([]string, 0, len(metricsByName))
	for name := range metricsByName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Value extracts the named metric from a sample; ok is false for an
// unknown name.
func Value(s Sample, metric string) (float64, bool) {
	fn, ok := metricsByName[metric]
	if !ok {
		return 0, false
	}
	return fn(s), true
}

// chunkSlots is how many ring slots one chunk of a Store holds.
const chunkSlots = 64

// chunk is a run of ring slots and the storage of their class
// breakdowns: slot k's Classes is a window of cls at k*width, as long
// as that sample's own breakdown.
type chunk struct {
	smp   []Sample
	cls   []ClassSample
	width int
}

// widen regrows the breakdown storage to n classes per slot, moving
// every breakdown already written into its window in the new storage.
func (c *chunk) widen(n int) {
	cls := make([]ClassSample, len(c.smp)*n)
	for k := range c.smp {
		if old := c.smp[k].Classes; old != nil {
			c.smp[k].Classes = cls[k*n : k*n+copy(cls[k*n:], old)]
		}
	}
	c.cls, c.width = cls, n
}

// Store is the bounded sample ring: one writer (the fleet's event
// loop, at tick boundaries), any number of concurrent readers. The
// ring lives in fixed-size chunks, each allocated the first time the
// ring reaches it and never copied afterwards; Add copies a sample's
// breakdown into its slot, so recording allocates nothing once the
// chunk exists, and readers get deep copies.
type Store struct {
	mu     sync.Mutex
	depth  int
	chunks []*chunk // slot i lives in chunks[i/chunkSlots]
	next   int      // the slot Add writes next
	n      int      // retained samples
	count  uint64   // samples ever recorded
}

// NewStore builds a store retaining the last depth samples (default
// 4096 when depth <= 0).
func NewStore(depth int) *Store {
	if depth <= 0 {
		depth = 4096
	}
	return &Store{depth: depth, chunks: make([]*chunk, (depth+chunkSlots-1)/chunkSlots)}
}

// Add records one sample. smp.Classes is only read: the store keeps
// its own copy, so the caller may reuse that slice.
func (s *Store) Add(smp Sample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.chunks[s.next/chunkSlots]
	if c == nil {
		c = &chunk{smp: make([]Sample, min(chunkSlots, s.depth-s.next))}
		s.chunks[s.next/chunkSlots] = c
	}
	if n := len(smp.Classes); n > c.width {
		c.widen(n)
	}
	k := s.next % chunkSlots
	if len(smp.Classes) == 0 {
		smp.Classes = nil
	} else {
		w := c.width
		smp.Classes = c.cls[k*w : k*w+copy(c.cls[k*w:], smp.Classes)]
	}
	c.smp[k] = smp
	s.next = (s.next + 1) % s.depth
	s.n = min(s.n+1, s.depth)
	s.count++
}

// slotLocked returns the i-th retained sample, oldest first.
func (s *Store) slotLocked(i int) *Sample {
	at := (s.next - s.n + i + s.depth) % s.depth
	return &s.chunks[at/chunkSlots].smp[at%chunkSlots]
}

// copyClasses points each sample's Classes at a private copy, all of
// them carved from one allocation.
func copyClasses(out []Sample) {
	total := 0
	for _, smp := range out {
		total += len(smp.Classes)
	}
	if total == 0 {
		return
	}
	cls := make([]ClassSample, 0, total)
	for i := range out {
		if len(out[i].Classes) > 0 {
			at := len(cls)
			cls = append(cls, out[i].Classes...)
			out[i].Classes = cls[at:len(cls):len(cls)]
		}
	}
}

// Count returns the number of samples ever recorded (retained or
// evicted).
func (s *Store) Count() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Len returns the number of retained samples.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Samples returns copies of the retained samples with T >= since,
// oldest first.
func (s *Store) Samples(since float64) []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, 0, s.n)
	for i := 0; i < s.n; i++ {
		if smp := s.slotLocked(i); smp.T >= since {
			out = append(out, *smp)
		}
	}
	copyClasses(out)
	return out
}

// Query is a parsed series request.
type Query struct {
	// Metric selects a single metric ("" = full samples).
	Metric string
	// Since drops samples before this virtual time.
	Since float64
	// Step downsamples to one sample per step-second bucket, keeping
	// the last sample of each bucket (0 = raw).
	Step float64
	// Format is "json" or "csv".
	Format string
}

// ParseQuery validates the raw query parameters of a series request.
// Empty strings take the defaults (all metrics, since 0, raw samples,
// JSON); anything malformed is an error the HTTP layer maps onto a
// structured 400.
func ParseQuery(metric, since, step, format string) (Query, error) {
	q := Query{Metric: metric, Format: "json"}
	if metric != "" {
		if _, ok := metricsByName[metric]; !ok {
			return Query{}, fmt.Errorf("series: unknown metric %q (one of %v)", metric, Metrics())
		}
	}
	if since != "" {
		v, err := strconv.ParseFloat(since, 64)
		if err != nil {
			return Query{}, fmt.Errorf("series: bad since %q: not a number", since)
		}
		if v < 0 || v != v { // reject negatives and NaN
			return Query{}, fmt.Errorf("series: bad since %q: must be a non-negative time", since)
		}
		q.Since = v
	}
	if step != "" {
		v, err := strconv.ParseFloat(step, 64)
		if err != nil {
			return Query{}, fmt.Errorf("series: bad step %q: not a number", step)
		}
		if v <= 0 || v != v {
			return Query{}, fmt.Errorf("series: bad step %q: must be a positive interval", step)
		}
		q.Step = v
	}
	switch format {
	case "", "json":
	case "csv":
		q.Format = "csv"
	default:
		return Query{}, fmt.Errorf("series: unknown format %q (json|csv)", format)
	}
	return q, nil
}

// Downsample keeps the last sample of each step-second bucket; a zero
// step returns the input unchanged.
func Downsample(in []Sample, step float64) []Sample {
	if step <= 0 || len(in) == 0 {
		return in
	}
	out := make([]Sample, 0, len(in))
	for i, smp := range in {
		if i+1 < len(in) && int64(in[i+1].T/step) == int64(smp.T/step) {
			continue // a later sample shares this bucket
		}
		out = append(out, smp)
	}
	return out
}

// Points projects samples onto a single metric. The metric name must
// have been validated by ParseQuery.
func Points(in []Sample, metric string) []Point {
	out := make([]Point, 0, len(in))
	for _, smp := range in {
		v, ok := Value(smp, metric)
		if !ok {
			continue
		}
		out = append(out, Point{T: smp.T, V: v})
	}
	return out
}
