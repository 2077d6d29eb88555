package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// gwfRow is one parsed and validated GWF/SWF data line.
type gwfRow struct {
	id                 int
	submit, run, procs float64
}

// parseGWFLine decodes one non-comment line. cancelled reports a
// zero-runtime or zero-width submission — the archives' convention for
// cancelled jobs, which replay skips. Anything else malformed is an
// error: negative or non-finite runtimes, processor counts and submit
// times mean a corrupted file, and silently skipping them (as earlier
// revisions did for negative runtimes) fabricates a workload the
// archive never recorded.
func parseGWFLine(line int, text string) (row gwfRow, cancelled bool, err error) {
	f := strings.Fields(text)
	if len(f) < 5 {
		return row, false, fmt.Errorf("workload: gwf line %d: %d fields, need >= 5", line, len(f))
	}
	id, err := strconv.Atoi(f[0])
	if err != nil {
		return row, false, fmt.Errorf("workload: gwf line %d: bad job id %q", line, f[0])
	}
	submit, err1 := strconv.ParseFloat(f[1], 64)
	run, err2 := strconv.ParseFloat(f[3], 64)
	procs, err3 := strconv.ParseFloat(f[4], 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return row, false, fmt.Errorf("workload: gwf line %d: bad numeric field", line)
	}
	for _, v := range [...]float64{submit, run, procs} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return row, false, fmt.Errorf("workload: gwf line %d: non-finite numeric field", line)
		}
	}
	if submit < 0 {
		return row, false, fmt.Errorf("workload: gwf line %d: negative submit time %.0f", line, submit)
	}
	if run < 0 {
		return row, false, fmt.Errorf("workload: gwf line %d: negative runtime %.0f", line, run)
	}
	if procs < 0 {
		return row, false, fmt.Errorf("workload: gwf line %d: negative processor count %.0f", line, procs)
	}
	if run == 0 || procs == 0 {
		return row, true, nil // cancelled / failed submission
	}
	return gwfRow{id: id, submit: submit, run: run, procs: procs}, false, nil
}

// gwfSkippable reports whether a raw line carries no data (blank, or a
// '#'/';' comment — GWF and SWF headers respectively).
func gwfSkippable(text string) bool {
	return text == "" || strings.HasPrefix(text, "#") || strings.HasPrefix(text, ";")
}

// GWFSource streams a Grid Workloads Format (or SWF — same column
// prefix) trace job by job: each accepted line is converted and
// yielded immediately, so week-long archive files feed a simulation
// with O(1) ingestion memory. The file must be submit-ordered (the
// single-cluster archive convention); a regression is an error, since
// a streaming reader cannot sort — sort an interleaved multi-cluster
// file by its submit column before replaying it.
//
// Submit times are rebased to the first accepted job's, which for a
// sorted file is the whole-trace minimum.
type GWFSource struct {
	sc    *bufio.Scanner
	opts  ConvertOptions
	line  int
	count int
	t0    float64
	prev  float64
	first bool
	err   error // sticky
}

// NewGWFSource builds a streaming GWF/SWF reader. The error is always
// nil; the signature matches NewCSVSource, which reads a header.
func NewGWFSource(r io.Reader, opts ConvertOptions) (*GWFSource, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	return &GWFSource{sc: sc, opts: opts.withDefaults(), first: true}, nil
}

// Next implements JobSource.
func (s *GWFSource) Next() (Job, error) {
	if s.err != nil {
		return Job{}, s.err
	}
	for s.sc.Scan() {
		s.line++
		text := strings.TrimSpace(s.sc.Text())
		if gwfSkippable(text) {
			continue
		}
		row, cancelled, err := parseGWFLine(s.line, text)
		if err != nil {
			s.err = err
			return Job{}, err
		}
		if cancelled {
			continue
		}
		if s.first {
			s.t0 = row.submit
			s.first = false
		} else if row.submit < s.prev {
			s.err = fmt.Errorf("workload: gwf line %d: submit time %.0f before predecessor %.0f (trace out of order; sort it by submit time first)",
				s.line, row.submit, s.prev)
			return Job{}, s.err
		}
		s.prev = row.submit
		j := s.opts.convert(row.id, row.submit-s.t0, row.run, row.procs)
		if err := j.Validate(); err != nil {
			s.err = fmt.Errorf("workload: gwf line %d: %w", s.line, err)
			return Job{}, s.err
		}
		s.count++
		return j, nil
	}
	if err := s.sc.Err(); err != nil {
		s.err = fmt.Errorf("workload: reading gwf: %w", err)
		return Job{}, s.err
	}
	if s.count == 0 {
		s.err = fmt.Errorf("workload: gwf trace has no usable jobs")
		return Job{}, s.err
	}
	s.err = io.EOF
	return Job{}, io.EOF
}

// ReadGWF parses a trace in the Grid Workloads Format used by the
// Grid Workloads Archive (gwa.ewi.tudelft.nl), the source of the
// paper's Grid5000 trace. GWF is whitespace-separated with '#'
// comments; the columns used here are the standard first eleven:
//
//	0 JobID  1 SubmitTime  2 WaitTime  3 RunTime  4 NProcs
//	5 AverageCPUTimeUsed  6 UsedMemory  7 ReqNProcs  8 ReqTime
//	9 ReqMemory  10 Status
//
// Jobs with zero runtime or processor counts are skipped, as is
// conventional when replaying archive traces (cancelled and failed
// submissions); negative or non-finite values in the consumed fields
// are rejected as corruption. opts tunes the conversion into the
// simulator's model.
//
// ReadGWF is ReadAll over GWFSource, so streaming and whole-trace
// ingestion accept exactly the same files.
func ReadGWF(r io.Reader, opts ConvertOptions) (*Trace, error) {
	src, err := NewGWFSource(r, opts)
	if err != nil {
		return nil, err
	}
	return ReadAll(src)
}

// ReadSWF parses the Standard Workload Format (Feitelson's parallel
// workloads archive). SWF columns:
//
//	0 JobID  1 SubmitTime  2 WaitTime  3 RunTime  4 AllocatedProcs ...
//
// The layout coincides with the GWF prefix for the fields we consume,
// so the same conversion applies.
func ReadSWF(r io.Reader, opts ConvertOptions) (*Trace, error) {
	return ReadGWF(r, opts)
}

// NewSWFSource is NewGWFSource for SWF files (shared column prefix).
func NewSWFSource(r io.Reader, opts ConvertOptions) (*GWFSource, error) {
	return NewGWFSource(r, opts)
}

// ConvertOptions controls how archive jobs map into the simulator's
// VM-shaped jobs.
type ConvertOptions struct {
	// CPUPerProc is the CPU percent granted per allocated processor
	// (default 100).
	CPUPerProc float64
	// MaxVCPUs caps the per-job CPU at MaxVCPUs × 100 so archive jobs
	// wider than one node are folded into a node-sized VM, as the
	// paper's single-VM-per-job model requires (default 4).
	MaxVCPUs int
	// MemPerVCPU is memory units per VCPU (default 12).
	MemPerVCPU float64
	// DeadlineMin, DeadlineMax bound the deadline factor assigned
	// deterministically per job (default 1.2–2.0).
	DeadlineMin, DeadlineMax float64
}

func (o ConvertOptions) withDefaults() ConvertOptions {
	if o.CPUPerProc <= 0 {
		o.CPUPerProc = 100
	}
	if o.MaxVCPUs <= 0 {
		o.MaxVCPUs = 4
	}
	if o.MemPerVCPU <= 0 {
		o.MemPerVCPU = 12
	}
	if o.DeadlineMin < 1 {
		o.DeadlineMin = 1.2
	}
	if o.DeadlineMax < o.DeadlineMin {
		o.DeadlineMax = 2.0
	}
	return o
}

// convert folds an archive job into the simulator's model. Jobs wider
// than MaxVCPUs are shrunk to MaxVCPUs with the duration stretched to
// conserve total work, the usual folding when replaying cluster
// traces on VM-sized slots.
func (o ConvertOptions) convert(id int, submit, run, procs float64) Job {
	vcpus := procs
	max := float64(o.MaxVCPUs)
	dur := run
	if vcpus > max {
		dur = run * vcpus / max
		vcpus = max
	}
	// Deterministic deadline factor from the job id, spanning the
	// configured band — reproducible without a random stream.
	span := o.DeadlineMax - o.DeadlineMin
	factor := o.DeadlineMin + span*float64(id%97)/96.0
	return Job{
		ID:             id,
		Name:           jobName("gwf-", id),
		Submit:         submit,
		Duration:       dur,
		CPU:            vcpus * o.CPUPerProc,
		Mem:            vcpus * o.MemPerVCPU,
		DeadlineFactor: factor,
	}
}
