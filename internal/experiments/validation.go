package experiments

import (
	"fmt"
	"math"

	"energysched/internal/cluster"
	"energysched/internal/datacenter"
	"energysched/internal/metrics"
	"energysched/internal/policy"
	"energysched/internal/power"
	"energysched/internal/testbed"
	"energysched/internal/workload"
)

// PowerRow is one measurement of Table I.
type PowerRow struct {
	// Config describes the VM mix, in the paper's notation ("1+2"
	// means one 1-VCPU VM plus one 2-VCPU VM).
	Config string
	// CPUs is the per-VM sustained CPU in percent.
	CPUs []float64
	// PaperWatts is the value published in Table I.
	PaperWatts float64
	// MeasuredWatts is the reference machine's reading.
	MeasuredWatts float64
}

// TableI measures the virtualized server power usage for the paper's
// eight VM configurations on the reference machine.
func TableI() []PowerRow {
	m := testbed.PaperMachine()
	m.BackgroundWatts = 0 // Table I isolates the steady CPU curve
	m.BackgroundBaseWatts = 0
	rows := []PowerRow{
		{Config: "1 x 100%", CPUs: []float64{100}, PaperWatts: 259},
		{Config: "2 x 200%", CPUs: []float64{200}, PaperWatts: 273},
		{Config: "3 x 300%", CPUs: []float64{300}, PaperWatts: 291},
		{Config: "4 x 400%", CPUs: []float64{400}, PaperWatts: 304},
		{Config: "1+1 (2x100%)", CPUs: []float64{100, 100}, PaperWatts: 273},
		{Config: "1+2 (100%+200%)", CPUs: []float64{100, 200}, PaperWatts: 291},
		{Config: "1+1+1+1 (4x100%)", CPUs: []float64{100, 100, 100, 100}, PaperWatts: 304},
		{Config: "1+1+1+1 (4x0%)", CPUs: []float64{0, 0, 0, 0}, PaperWatts: 230},
	}
	for i := range rows {
		rows[i].MeasuredWatts = m.SteadyWatts(rows[i].CPUs, 120, Seed+int64(i))
	}
	return rows
}

// ValidationResult is the outcome of the Fig. 1 experiment.
type ValidationResult struct {
	// RealWh and SimWh are total energies over the 1300 s run; the
	// paper reports 99.9 Wh real vs 97.5 Wh simulated (−2.4 %).
	RealWh, SimWh float64
	// ErrorPct is (SimWh − RealWh) / RealWh × 100.
	ErrorPct float64
	// InstMeanErr / InstStddev are the instantaneous absolute error
	// statistics (paper: 8.62 W mean, 8.06 W stddev).
	InstMeanErr, InstStddev float64
	// Real and Sim are the 1 Hz traces for plotting.
	Real, Sim []testbed.Sample
}

// Validation runs the paper's 7-task 1300 s validation workload on
// both sides: the high-resolution noisy reference machine ("real")
// and the coarse event-driven datacenter simulator ("simulated"),
// then compares the traces as §IV-B does.
func Validation() (ValidationResult, error) {
	tasks := testbed.PaperValidationTasks()
	horizon := testbed.ValidationHorizon

	// Real side: 1 Hz reference trace.
	machine := testbed.PaperMachine()
	real := machine.Run(tasks, horizon, Seed)

	// Simulated side: the same workload through the event-driven
	// simulator, on a single always-on node with the same class.
	trace := &workload.Trace{}
	for i, t := range tasks {
		trace.Jobs = append(trace.Jobs, workload.Job{
			ID:             i,
			Name:           t.Name,
			Submit:         t.Start,
			Duration:       t.Duration,
			CPU:            t.CPU,
			Mem:            10,
			DeadlineFactor: 10, // QoS is not the subject here
		})
	}
	classes := []cluster.Class{{
		Name: "testbed", Count: 1,
		CPU: testbed.CPU, Mem: 100,
		CreateCost:  testbed.CreationMean,
		MigrateCost: 60,
		BootTime:    100,
		Arch:        "x86_64", Hypervisor: "xen",
		Reliability: 1,
		Power:       power.PaperTableI(),
	}}

	var times, watts []float64
	sim, err := datacenter.New(datacenter.Config{
		Classes:     classes,
		Trace:       trace,
		Policy:      policy.NewBackfilling(),
		LambdaMin:   30,
		LambdaMax:   90,
		Seed:        Seed,
		StartOnline: true,
		MaxTime:     horizon,
	})
	if err != nil {
		return ValidationResult{}, err
	}
	sim.PowerTrace = func(t, w float64) {
		times = append(times, t)
		watts = append(watts, w)
	}
	if _, err := sim.Run(); err != nil {
		return ValidationResult{}, err
	}
	if len(times) == 0 {
		return ValidationResult{}, fmt.Errorf("experiments: validation produced no power samples")
	}

	// Resample the piecewise-constant simulator trace at 1 Hz and
	// compare.
	var simTrace []testbed.Sample
	var errAgg metrics.Welford
	for i, r := range real {
		w := testbed.ResampleAt(times, watts, r.Time)
		simTrace = append(simTrace, testbed.Sample{Time: r.Time, Watts: w})
		errAgg.Add(math.Abs(w - r.Watts))
		_ = i
	}
	realWh := testbed.TotalWh(real)
	simWh := testbed.TotalWh(simTrace)
	return ValidationResult{
		RealWh:      realWh,
		SimWh:       simWh,
		ErrorPct:    (simWh - realWh) / realWh * 100,
		InstMeanErr: errAgg.Mean(),
		InstStddev:  errAgg.Stddev(),
		Real:        real,
		Sim:         simTrace,
	}, nil
}
