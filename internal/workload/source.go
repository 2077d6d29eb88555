package workload

import (
	"io"

	"energysched/internal/simkit"
)

// JobSource is the workload ingestion interface: Next yields jobs in
// non-decreasing submit order and returns io.EOF after the last one.
// Every reader and the synthetic generator are sources, and every
// simulation is fed from one (Simulation.RunSource), so a week-long
// archive file or a multi-day synthetic run drives a simulation job by
// job without the whole trace in memory. A Trace is ReadAll of a source.
//
// Every job a source yields is individually Validate-d and ordered;
// a source that cannot uphold the ordering (a corrupt file) reports
// an error from Next instead of reordering silently.
type JobSource interface {
	Next() (Job, error)
}

// ReadAll drains a source into a materialized Trace. It is how every
// whole-trace constructor (Generate, ReadGWF, ReadCSV) is built, so a
// materialized trace and its stream hold exactly the same jobs.
func ReadAll(src JobSource) (*Trace, error) {
	tr := &Trace{}
	for {
		j, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		tr.Jobs = append(tr.Jobs, j)
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// TraceSource adapts a materialized Trace to the JobSource interface;
// Simulation.Run feeds its configured trace through one.
type TraceSource struct {
	jobs []Job
	i    int
}

// NewTraceSource returns a source yielding tr's jobs in order.
func NewTraceSource(tr *Trace) *TraceSource {
	return &TraceSource{jobs: tr.Jobs}
}

// Next implements JobSource.
func (s *TraceSource) Next() (Job, error) {
	if s.i >= len(s.jobs) {
		return Job{}, io.EOF
	}
	j := s.jobs[s.i]
	s.i++
	return j, nil
}

// --- streaming synthetic generator ---

// GeneratorSource is the synthetic Grid5000-like generator: a thinned
// Poisson arrival process with bag-of-tasks bursts, streamed. The
// arrival process emits jobs in generation order, but burst members
// are spread a few seconds forward of the burst head, so a bounded
// reorder buffer (a min-heap keyed by submit time) holds the short
// backlog: a pending job can be emitted as soon as the arrival clock
// passes its submit time, because every job generated later is stamped
// at or after the clock. The buffer's high-water mark is therefore
// bounded by the burst backlog — independent of the horizon — which
// the memory test asserts via MaxPending.
//
// The same config always yields the same jobs; the pinned digests in
// the package tests hold them to the bytes the generator has always
// produced.
type GeneratorSource struct {
	cfg     GeneratorConfig
	maxRate float64

	arrivals, runtimes, shapes, deadlines *simkit.Stream

	t       float64
	id      int
	done    bool
	pending jobHeap
	maxPend int
}

// NewGeneratorSource builds a streaming generator for cfg.
func NewGeneratorSource(cfg GeneratorConfig) (*GeneratorSource, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &GeneratorSource{
		cfg:       cfg,
		maxRate:   cfg.JobsPerDay / (24 * 3600) * (1 + diurnalAmplitude),
		arrivals:  simkit.NewStream(cfg.Seed, "arrivals"),
		runtimes:  simkit.NewStream(cfg.Seed, "runtimes"),
		shapes:    simkit.NewStream(cfg.Seed, "shapes"),
		deadlines: simkit.NewStream(cfg.Seed, "deadlines"),
	}, nil
}

// MaxPending returns the reorder buffer's high-water mark so far. It
// is bounded by the burst backlog, not the trace length — the scale
// harness's O(1)-memory assertion reads it.
func (s *GeneratorSource) MaxPending() int { return s.maxPend }

// Next implements JobSource.
func (s *GeneratorSource) Next() (Job, error) {
	for {
		// A pending job at or before the arrival clock is final: every
		// job generated from here on is stamped at or after the clock,
		// and ties break by ID (generation order).
		if len(s.pending) > 0 && (s.done || s.pending[0].Submit <= s.t) {
			return s.pending.pop(), nil
		}
		if s.done {
			return Job{}, io.EOF
		}
		// Poisson thinning for the non-homogeneous arrival process: the
		// modulated rate never exceeds maxRate = base × (1+amp).
		s.t += s.arrivals.Exp(s.maxRate)
		if s.t >= s.cfg.Horizon {
			s.done = true
			continue
		}
		if s.arrivals.Float64() > s.cfg.rateAt(s.t)/s.maxRate {
			continue
		}
		n := 1
		if s.arrivals.Float64() < s.cfg.BurstProb {
			n += 1 + int(s.arrivals.Exp(1.0/burstSize))
		}
		for k := 0; k < n; k++ {
			at := s.t + float64(k)*s.shapes.Uniform(0.5, 3.0)
			if at >= s.cfg.Horizon {
				break
			}
			s.pending.push(newJob(s.id, at, s.runtimes, s.shapes, s.deadlines))
			s.id++
		}
		if len(s.pending) > s.maxPend {
			s.maxPend = len(s.pending)
		}
	}
}

// jobHeap is a binary min-heap of jobs by ⟨Submit, ID⟩: a stable
// submit-time sort, since IDs are assigned in generation order. The
// order is total, so the pop sequence is the sorted sequence whatever
// the sift details. push and pop are typed — a Job is a ~100-byte value
// and container/heap would box it on the way in and on the way out.
type jobHeap []Job

func (h jobHeap) less(i, j int) bool {
	if h[i].Submit != h[j].Submit {
		return h[i].Submit < h[j].Submit
	}
	return h[i].ID < h[j].ID
}

func (h *jobHeap) push(j Job) {
	*h = append(*h, j)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the minimum; the heap must not be empty.
func (h *jobHeap) pop() Job {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s[n] = Job{} // drop the name so the buffer does not pin it
	for i := 0; ; {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && s.less(r, child) {
			child = r
		}
		if !s.less(child, i) {
			break
		}
		s[i], s[child] = s[child], s[i]
		i = child
	}
	*h = s[:n]
	return top
}
