// Package workload provides the job traces driving the simulation:
// the native trace model, readers for the Grid Workloads Format (GWF)
// and the Standard Workload Format (SWF) used by the Grid Workloads
// Archive the paper draws from, a CSV serialization for generated
// traces, and a synthetic generator calibrated to the aggregate
// statistics of the Grid5000 week the paper evaluates on.
package workload

import (
	"fmt"
	"math"
	"sort"

	"energysched/internal/wirejson"
)

// Job is one HPC job to be encapsulated in a VM. It is also the record
// the daemon logs: the JSON tags are the wire form of a job in the
// fleet's WAL, its snapshots and the replication stream, so their
// names, order and omitempty rules are an on-disk format
// (internal/fleet/testdata/golden pins the bytes). AppendJSON and
// DecodeJSON below implement that format.
type Job struct {
	// ID is the job's identity within the trace.
	ID int `json:"id"`
	// Name is an optional label (original trace job id).
	Name string `json:"name,omitempty"`
	// Submit is the arrival time in seconds from trace start.
	Submit float64 `json:"submit_s"`
	// Duration is the execution time on a dedicated machine, seconds.
	Duration float64 `json:"duration_s"`
	// CPU requirement in percent (100 = one core).
	CPU float64 `json:"cpu_pct"`
	// Mem requirement in abstract units (node offers 100).
	Mem float64 `json:"mem_units"`
	// DeadlineFactor multiplies Duration to produce the SLA deadline
	// (paper: 1.2–2.0 depending on job and user typology).
	DeadlineFactor float64 `json:"deadline_factor"`
	// FaultTolerance is the job's Ftol in [0,1].
	FaultTolerance float64 `json:"fault_tolerance,omitempty"`
	// Arch pins the job to an architecture ("" = any); part of the
	// hardware requirements P_req checks (§III-A1).
	Arch string `json:"arch,omitempty"`
	// Hypervisor pins the job to a hypervisor ("" = any).
	Hypervisor string `json:"hypervisor,omitempty"`
}

var jobKeys = wirejson.KeysOf[Job]()

// AppendJSON appends the job's log record encoding to b: the bytes
// json.Marshal writes for the tags above.
func (j Job) AppendJSON(b []byte) ([]byte, error) {
	e := wirejson.Encoder{Buf: append(b, `{"id":`...)}
	e.Int(j.ID)
	if j.Name != "" {
		e.Raw(`,"name":`)
		e.String(j.Name)
	}
	e.Raw(`,"submit_s":`)
	e.Float(j.Submit)
	e.Raw(`,"duration_s":`)
	e.Float(j.Duration)
	e.Raw(`,"cpu_pct":`)
	e.Float(j.CPU)
	e.Raw(`,"mem_units":`)
	e.Float(j.Mem)
	e.Raw(`,"deadline_factor":`)
	e.Float(j.DeadlineFactor)
	if j.FaultTolerance != 0 {
		e.Raw(`,"fault_tolerance":`)
		e.Float(j.FaultTolerance)
	}
	if j.Arch != "" {
		e.Raw(`,"arch":`)
		e.String(j.Arch)
	}
	if j.Hypervisor != "" {
		e.Raw(`,"hypervisor":`)
		e.String(j.Hypervisor)
	}
	e.Raw("}")
	return e.Buf, e.Err
}

// DecodeJSON decodes the value at d's cursor into j.
func (j *Job) DecodeJSON(d *wirejson.Decoder) {
	for more := d.Object(jobKeys); more; more = d.More() {
		switch d.Key() {
		case "id":
			d.Int(&j.ID)
		case "name":
			d.String(&j.Name, nil)
		case "submit_s":
			d.Float(&j.Submit)
		case "duration_s":
			d.Float(&j.Duration)
		case "cpu_pct":
			d.Float(&j.CPU)
		case "mem_units":
			d.Float(&j.Mem)
		case "deadline_factor":
			d.Float(&j.DeadlineFactor)
		case "fault_tolerance":
			d.Float(&j.FaultTolerance)
		case "arch":
			d.String(&j.Arch, nil)
		case "hypervisor":
			d.String(&j.Hypervisor, nil)
		default:
			d.Skip()
		}
	}
}

// MarshalJSON implements json.Marshaler.
func (j Job) MarshalJSON() ([]byte, error) { return j.AppendJSON(nil) }

// UnmarshalJSON implements json.Unmarshaler.
func (j *Job) UnmarshalJSON(data []byte) error { return wirejson.Unmarshal(data, j.DecodeJSON) }

// Deadline returns the absolute completion deadline.
func (j Job) Deadline() float64 { return j.Submit + j.DeadlineFactor*j.Duration }

// Validate reports whether the job is well-formed.
func (j Job) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"submit", j.Submit}, {"duration", j.Duration}, {"CPU", j.CPU},
		{"memory", j.Mem}, {"deadline factor", j.DeadlineFactor},
		{"fault tolerance", j.FaultTolerance},
	} {
		// NaN fails every < comparison below open (NaN < 0 is false),
		// so non-finite fields must be rejected explicitly or they
		// poison the simulation's accounting.
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("workload: job %d has non-finite %s", j.ID, f.name)
		}
	}
	if j.Submit < 0 {
		return fmt.Errorf("workload: job %d has negative submit %.1f", j.ID, j.Submit)
	}
	if j.Duration <= 0 {
		return fmt.Errorf("workload: job %d has non-positive duration %.1f", j.ID, j.Duration)
	}
	if j.CPU <= 0 {
		return fmt.Errorf("workload: job %d has non-positive CPU %.1f", j.ID, j.CPU)
	}
	if j.Mem < 0 {
		return fmt.Errorf("workload: job %d has negative memory %.1f", j.ID, j.Mem)
	}
	if j.DeadlineFactor < 1 {
		return fmt.Errorf("workload: job %d deadline factor %.2f below 1", j.ID, j.DeadlineFactor)
	}
	return nil
}

// Trace is an ordered sequence of jobs.
type Trace struct {
	Jobs []Job
}

// Validate checks every job and submission ordering.
func (t *Trace) Validate() error {
	for i := range t.Jobs {
		if err := t.Jobs[i].Validate(); err != nil {
			return err
		}
		if i > 0 && t.Jobs[i].Submit < t.Jobs[i-1].Submit {
			return fmt.Errorf("workload: job %d submitted at %.1f before predecessor %.1f",
				t.Jobs[i].ID, t.Jobs[i].Submit, t.Jobs[i-1].Submit)
		}
	}
	return nil
}

// Sort orders jobs by submission time (stable), renumbering nothing.
func (t *Trace) Sort() {
	sort.SliceStable(t.Jobs, func(i, j int) bool { return t.Jobs[i].Submit < t.Jobs[j].Submit })
}

// Len returns the number of jobs.
func (t *Trace) Len() int { return len(t.Jobs) }

// Makespan returns the latest submit time plus that job's duration —
// a lower bound on the simulation horizon.
func (t *Trace) Makespan() float64 {
	var m float64
	for _, j := range t.Jobs {
		if end := j.Submit + j.Duration; end > m {
			m = end
		}
	}
	return m
}

// TotalCPUHours returns the aggregate work in CPU-hours: Σ CPU/100 ×
// Duration/3600. The paper's Grid week executes ≈ 6 055 CPU h.
func (t *Trace) TotalCPUHours() float64 {
	var sum float64
	for _, j := range t.Jobs {
		sum += (j.CPU / 100) * (j.Duration / 3600)
	}
	return sum
}

// Stats summarizes a trace for reporting.
type Stats struct {
	Jobs        int
	CPUHours    float64
	MeanCPU     float64
	MeanMem     float64
	MeanRuntime float64
	MaxRuntime  float64
	Span        float64 // last submit − first submit
}

// Summarize computes trace statistics.
func (t *Trace) Summarize() Stats {
	s := Stats{Jobs: len(t.Jobs), CPUHours: t.TotalCPUHours()}
	if len(t.Jobs) == 0 {
		return s
	}
	var cpu, mem, run float64
	for _, j := range t.Jobs {
		cpu += j.CPU
		mem += j.Mem
		run += j.Duration
		if j.Duration > s.MaxRuntime {
			s.MaxRuntime = j.Duration
		}
	}
	n := float64(len(t.Jobs))
	s.MeanCPU = cpu / n
	s.MeanMem = mem / n
	s.MeanRuntime = run / n
	s.Span = t.Jobs[len(t.Jobs)-1].Submit - t.Jobs[0].Submit
	return s
}
