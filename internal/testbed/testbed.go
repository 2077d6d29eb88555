// Package testbed models the paper's physical measurement platform: a
// 4-way Xen server instrumented with a digital power meter (0.1 W
// resolution, 1 s latency). The authors validate their coarse
// event-driven simulator against real executions on this machine
// (Fig. 1) and calibrate its power model from it (Table I).
//
// Since the physical machine is not available, this package provides
// a high-resolution *reference model* that stands in for it: a
// time-stepped (1 Hz) simulation with measurement noise, background
// OS activity, and per-second CPU accounting. The validation
// experiment then compares the coarse event-driven simulator against
// this reference — exercising exactly the code paths the paper's
// validation exercises (creation spikes, CPU ramps, idle floors,
// consolidated VM mixes).
package testbed

import (
	"fmt"
	"sort"

	"energysched/internal/power"
	"energysched/internal/simkit"
	"energysched/internal/xen"
)

// The reference host's fixed characteristics.
const (
	// CPU is its capacity in percent (400 = 4 cores).
	CPU float64 = 400
	// CreationMean is the mean VM creation time in seconds
	// (N(40, 2.5) on the paper's testbed).
	CreationMean float64 = 40
	// creationSigma is the stddev of VM creation time.
	creationSigma float64 = 2.5
	// creationCPU is the dom0 CPU consumed while creating a VM.
	creationCPU float64 = 200
	// backgroundPeriod is the seconds between background bursts.
	backgroundPeriod float64 = 47
	// backgroundDuration is how long each burst lasts.
	backgroundDuration float64 = 6
)

// Machine describes the reference host: the paper's 4-way Xen server.
type Machine struct {
	// Power is the calibrated power curve.
	Power *power.InterpolatedModel
	// noiseStddev is the 1 Hz measurement noise in watts.
	noiseStddev float64
	// BackgroundWatts is extra draw from dom0 housekeeping (cron,
	// monitoring, disk flushes) that fires in short bursts — real
	// machines consume slightly more than a pure CPU model predicts,
	// which is why the paper's simulator underestimates by ~2.4 %.
	BackgroundWatts float64
	// BackgroundBaseWatts is a constant unmodeled draw (disk spindles
	// ramping with activity, fan-speed steps) present in the real
	// machine but absent from the CPU-only simulator model.
	BackgroundBaseWatts float64
}

// PaperMachine returns the reference host with the paper's measured
// characteristics.
func PaperMachine() Machine {
	return Machine{
		Power:               power.PaperTableI(),
		noiseStddev:         3.0,
		BackgroundWatts:     9,
		BackgroundBaseWatts: 6.8,
	}
}

// Task is one step of a testbed workload: a VM created at Start that
// then consumes CPU percent of CPU for Duration seconds.
type Task struct {
	// Name labels the task in reports.
	Name string
	// Start is seconds from experiment begin (creation starts here).
	Start float64
	// Duration is the busy time after creation completes.
	Duration float64
	// CPU is the task's CPU consumption in percent (100 = 1 core).
	CPU float64
}

// Sample is one 1 Hz meter reading.
type Sample struct {
	Time  float64
	Watts float64
}

// Run executes a workload on the reference machine and returns the
// 1 Hz power trace, exactly as the paper's meter would record it.
// The run lasts `horizon` seconds.
func (m Machine) Run(tasks []Task, horizon float64, seed int64) []Sample {
	noise := simkit.NewStream(seed, "testbed-noise")
	creation := simkit.NewStream(seed, "testbed-creation")

	// Materialize per-task creation windows.
	type phase struct{ createEnd, runEnd float64 }
	phases := make([]phase, len(tasks))
	for i, t := range tasks {
		d := creation.NormalPositive(CreationMean, creationSigma)
		phases[i] = phase{createEnd: t.Start + d, runEnd: t.Start + d + t.Duration}
	}

	var out []Sample
	for ts := 0.0; ts < horizon; ts++ {
		// Aggregate demand this second: running VMs + creations.
		var demands []xen.Demand
		for i, t := range tasks {
			switch {
			case ts >= t.Start && ts < phases[i].createEnd:
				demands = append(demands, xen.Demand{Weight: 512, Want: creationCPU, Cap: creationCPU})
			case ts >= phases[i].createEnd && ts < phases[i].runEnd:
				demands = append(demands, xen.Demand{Want: t.CPU, Cap: t.CPU})
			}
		}
		util := xen.Utilization(CPU, demands)
		watts := m.Power.Power(util)
		// Background dom0 housekeeping burst.
		tt := ts
		for tt >= backgroundPeriod {
			tt -= backgroundPeriod
		}
		if tt < backgroundDuration {
			watts += m.BackgroundWatts
		}
		watts += m.BackgroundBaseWatts
		watts += noise.Normal(0, m.noiseStddev)
		if watts < 0 {
			watts = 0
		}
		out = append(out, Sample{Time: ts, Watts: watts})
	}
	return out
}

// SteadyWatts measures the mean draw of a steady VM configuration
// (Table I): each entry of vmCPUs is the sustained CPU consumption of
// one VM. The measurement averages `window` seconds of samples.
func (m Machine) SteadyWatts(vmCPUs []float64, window float64, seed int64) float64 {
	var tasks []Task
	for i, c := range vmCPUs {
		tasks = append(tasks, Task{
			Name:     fmt.Sprintf("vm%d", i),
			Start:    -3600, // created long ago: steady state
			Duration: 3600 + window + 10,
			CPU:      c,
		})
	}
	samples := m.Run(tasks, window, seed)
	var sum float64
	for _, s := range samples {
		sum += s.Watts
	}
	if len(samples) == 0 {
		return 0
	}
	return sum / float64(len(samples))
}

// TotalWh integrates a 1 Hz sample trace into watt-hours.
func TotalWh(samples []Sample) float64 {
	var joules float64
	for _, s := range samples {
		joules += s.Watts // 1 s per sample
	}
	return joules / 3600
}

// ResampleAt returns the piecewise-constant value of a (time, watts)
// step series at time t. The series must be sorted by time.
func ResampleAt(times, watts []float64, t float64) float64 {
	if len(times) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(times, t)
	// SearchFloat64s returns the first index with times[i] >= t; the
	// level in effect at t is the previous step.
	if i < len(times) && times[i] == t {
		return watts[i]
	}
	if i == 0 {
		return watts[0]
	}
	return watts[i-1]
}

// PaperValidationTasks returns the seven-task, ~1300 s workload the
// paper uses for Fig. 1: it explores "the most typical situations we
// can have in a real cloud execution" — single VM ramps, concurrent
// creations, full-machine consolidation, and idle valleys.
func PaperValidationTasks() []Task {
	return []Task{
		{Name: "warmup-1core", Start: 30, Duration: 170, CPU: 100},
		{Name: "ramp-2core", Start: 160, Duration: 240, CPU: 200},
		{Name: "short-burst", Start: 420, Duration: 80, CPU: 100},
		{Name: "consolidated-a", Start: 560, Duration: 300, CPU: 100},
		{Name: "consolidated-b", Start: 590, Duration: 280, CPU: 200},
		{Name: "late-single", Start: 980, Duration: 160, CPU: 100},
		{Name: "tail-2core", Start: 1050, Duration: 180, CPU: 200},
	}
}

// ValidationHorizon is the length of the Fig. 1 experiment in seconds.
const ValidationHorizon = 1300.0
