package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"energysched/internal/policy"
	"energysched/internal/workload"
)

// A span is one call across a layer boundary, recorded from outside the
// program by the wrappers below. Parent 0 is the repetition itself.
// Server-side levels cannot be wrapped from outside; they are rebuilt
// per repetition from the daemon's histogram _sum/_count deltas as one
// aggregate span each, with Count calls folded in and a synthetic start
// at the repetition's start.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Rep    int     `json:"rep"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Count  int     `json:"count,omitempty"`
}

// recorder keeps the traced pass's spans and counts in memory; write
// puts them on disk when the benchmark ends.
type recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	rep    int
	spans  []span
	counts map[string]float64
	// factors[rep] is the reference-correction factor of that
	// repetition; layer timings are scaled by it like the end-to-end
	// ones. Set-up spans (rep 0) keep factor 1.
	factors map[int]float64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), counts: map[string]float64{}, factors: map[int]float64{}}
}

func (r *recorder) us(t time.Time) float64 {
	return float64(t.Sub(r.epoch)) / float64(time.Microsecond)
}

// open starts a span and returns its ID.
func (r *recorder) open(name string, parent int) int {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Rep: r.rep, Name: name, Start: r.us(now)})
	return len(r.spans)
}

// close ends the span open returned id for.
func (r *recorder) close(id int) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = r.us(now)
}

// aggregate records a span rebuilt from counters — calls folded into one
// interval of the summed duration, placed at the start of span parent —
// and returns its ID. With no calls there is nothing to record, and the
// parent stands in for the missing level.
func (r *recorder) aggregate(name string, parent int, seconds float64, calls int) int {
	if calls <= 0 {
		return parent
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	start := r.spans[parent-1].Start
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Rep: r.rep, Name: name,
		Start: start, End: start + seconds*1e6, Count: calls,
	})
	return len(r.spans)
}

// add accumulates a count measured at a layer boundary.
func (r *recorder) add(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counts[name] += v
}

func (r *recorder) count(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[name]
}

// corrected is a span's duration in µs scaled by its repetition's
// reference factor. Call with r.mu held.
func (r *recorder) corrected(s span) float64 {
	f, ok := r.factors[s.Rep]
	if !ok {
		f = 1
	}
	return (s.End - s.Start) * f
}

// durations returns the corrected duration of every span called name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, r.corrected(s))
		}
	}
	return out
}

// total is the summed corrected duration of the spans called name and
// how many calls they stand for (an aggregate span stands for Count).
func (r *recorder) total(name string) (us float64, calls int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if s.Name != name {
			continue
		}
		us += r.corrected(s)
		calls += max(s.Count, 1)
	}
	return us, calls
}

// write stores the spans as bench/out/trace-<workload>.json.
func (r *recorder) write(dir, workloadName string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	path := filepath.Join(dir, "trace-"+workloadName+".json")
	data, err := json.Marshal(struct {
		Workload string          `json:"workload"`
		Factors  map[int]float64 `json:"ref_factor_by_rep"`
		Spans    []span          `json:"spans"`
	}{workloadName, r.factors, r.spans})
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// tracedSource wraps a workload.JobSource: one workload.next span per
// call, children of the datacenter.run span.
type tracedSource struct {
	src    workload.JobSource
	rec    *recorder
	parent int
}

func (t *tracedSource) Next() (workload.Job, error) {
	id := t.rec.open("workload.next", t.parent)
	j, err := t.src.Next()
	t.rec.close(id)
	return j, err
}

// tracedPolicy wraps a policy.Policy: one core.schedule span per
// scheduling round, and the number of actions it returned.
type tracedPolicy struct {
	policy.Policy
	rec     *recorder
	parent  int
	actions int
}

func (t *tracedPolicy) Schedule(ctx *policy.Context) []policy.Action {
	id := t.rec.open("core.schedule", t.parent)
	acts := t.Policy.Schedule(ctx)
	t.rec.close(id)
	t.actions += len(acts)
	return acts
}
