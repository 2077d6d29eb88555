package main

import (
	"fmt"
	"time"

	"energysched"
	"energysched/internal/cluster"
	"energysched/internal/core"
	"energysched/internal/datacenter"
	"energysched/internal/metrics"
	"energysched/internal/simkit"
	"energysched/internal/workload"
)

// simSpec is one simulator workload's fixed shape. traceSeed and simSeed
// are constants of the benchmark, not the run's -seed: the simulator is
// chaotic in both (changing only the simulation seed moves
// sim_dense_400's heap traffic per job between 220 and 610 kB), so a
// run-to-run bound of a few percent is only meaningful on one
// trajectory. The run's seed draws the job names (see jobName).
type simSpec struct {
	classes    func() []energysched.NodeClass // nil: the paper's 100 nodes
	days       float64
	jobsPerDay float64 // 0: the calibrated Grid5000 volume
	stream     bool    // feed through GenerateTraceSource/RunStream
	failures   bool
}

const (
	traceSeed = 1
	simSeed   = 1
)

func (s simSpec) traceOptions() energysched.TraceOptions {
	return energysched.TraceOptions{Days: s.days, Seed: traceSeed, JobsPerDay: s.jobsPerDay}
}

func (s simSpec) options() energysched.Options {
	o := energysched.Options{Policy: "SB", Seed: simSeed, Failures: s.failures}
	if s.classes != nil {
		o.Classes = s.classes()
	}
	return o
}

// jobName is the run seed's contribution to the inputs: an 8-hex-digit
// label per job, a splitmix64 hash of (seed, id). Names travel with the
// job through the simulator, the HTTP bodies and the WAL but decide
// nothing, so every seed runs the same trajectory and reports the same
// paper metrics.
func jobName(seed int64, id int) string {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(id) + 1
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	const hex = "0123456789abcdef"
	var b [8]byte
	for i := range b {
		b[i] = hex[x&15]
		x >>= 4
	}
	return string(b[:])
}

// namedSource labels a streaming source's jobs on the way through.
type namedSource struct {
	src  workload.JobSource
	seed int64
}

func (n namedSource) Next() (workload.Job, error) {
	j, err := n.src.Next()
	if err == nil {
		j.Name = jobName(n.seed, j.ID)
	}
	return j, err
}

type simInstance struct {
	spec  simSpec
	seed  int64
	trace *energysched.Trace // nil when streaming
}

// setUp generates the inputs and runs the warm-up repetition.
func (s simSpec) setUp(e *env, rec *recorder) (instance, outcome, error) {
	in := &simInstance{spec: s, seed: e.seed}
	if !s.stream {
		var id int
		if rec != nil {
			id = rec.open("workload.generate", 0)
		}
		in.trace = energysched.GenerateTrace(s.traceOptions())
		for i := range in.trace.Jobs {
			in.trace.Jobs[i].Name = jobName(e.seed, in.trace.Jobs[i].ID)
		}
		if rec != nil {
			rec.close(id)
		}
	}
	warm, err := in.run(nil)
	return in, warm, err
}

func (in *simInstance) prepare(*recorder) error { return nil }
func (in *simInstance) finish(*recorder) error  { return nil }
func (in *simInstance) close() error            { return nil }

// verify has nothing beyond the generic oracles to check: a simulator
// workload's reference is its own warm-up and golden.json.
func (in *simInstance) verify(outcome) error { return nil }

func (in *simInstance) source() (workload.JobSource, error) {
	src, err := energysched.GenerateTraceSource(in.spec.traceOptions())
	if err != nil {
		return nil, err
	}
	return namedSource{src, in.seed}, nil
}

// run is one repetition. Traced, energysched.Run cannot be used — it
// builds its policy itself — so tracedSimRun assembles the same
// datacenter.Config by hand around a wrapped policy; the report oracle
// proves the two paths equal.
func (in *simInstance) run(rec *recorder) (outcome, error) {
	var src workload.JobSource
	if in.spec.stream {
		var err error
		if src, err = in.source(); err != nil {
			return outcome{}, err
		}
	}
	var res energysched.Result
	var err error
	switch opts := in.spec.options(); {
	case rec != nil:
		res, err = tracedSimRun(rec, in.spec, in.trace, src)
	case src != nil:
		res, err = energysched.RunStream(opts, src)
	default:
		opts.Trace = in.trace
		res, err = energysched.Run(opts)
	}
	return simOutcome(res), err
}

// simOutcome counts a simulator repetition's operations: every job
// submitted is attempted, every job not completed failed.
func simOutcome(res energysched.Result) outcome {
	return outcome{report: res, jobs: res.JobsCompleted, attempted: res.JobsTotal, failed: res.JobsTotal - res.JobsCompleted}
}

// simClasses converts the public class description the way
// energysched.NewSimulation does (its converter is unexported).
func simClasses(in []energysched.NodeClass) []cluster.Class {
	if in == nil {
		return nil
	}
	base := cluster.PaperClasses()[0] // power model, arch, hypervisor
	out := make([]cluster.Class, 0, len(in))
	for _, c := range in {
		cl := base
		cl.Name, cl.Count = c.Name, c.Count
		cl.CPU, cl.Mem = c.CPU, c.Mem
		cl.CreateCost, cl.MigrateCost = c.CreateCost, c.MigrateCost
		cl.BootTime, cl.Reliability = c.BootTime, c.Reliability
		out = append(out, cl)
	}
	return out
}

// tracedSimRun executes one simulation with spans at every boundary the
// harness can reach from outside: datacenter.New, datacenter.run, and
// inside it every JobSource.Next and Policy.Schedule. Exactly one of tr
// and src is set.
func tracedSimRun(rec *recorder, spec simSpec, tr *energysched.Trace, src workload.JobSource) (energysched.Result, error) {
	pol, err := energysched.NewPolicy("SB", simSeed, nil)
	if err != nil {
		return energysched.Result{}, err
	}
	tp := &tracedPolicy{Policy: pol, rec: rec}
	cfg := datacenter.Config{
		Classes: simClasses(spec.options().Classes), Trace: tr, Policy: tp,
		Seed: simSeed, FailuresEnabled: spec.failures,
	}
	newID := rec.open("datacenter.new", 0)
	sim, err := datacenter.New(cfg)
	rec.close(newID)
	if err != nil {
		return energysched.Result{}, err
	}
	runID := rec.open("datacenter.run", 0)
	tp.parent = runID
	var res energysched.Result
	if src != nil {
		rep, rerr := sim.RunSource(&tracedSource{src: src, rec: rec, parent: runID})
		res, err = resultOf(rep), rerr
	} else {
		rep, rerr := sim.Run()
		res, err = resultOf(rep), rerr
	}
	rec.close(runID)
	if err != nil {
		return energysched.Result{}, err
	}

	st := pol.(*core.Scheduler).Stats
	rec.add("core.rounds", float64(st.Rounds))
	rec.add("core.score_evals", float64(st.ScoreEvals))
	rec.add("core.moves", float64(st.Moves))
	rec.add("core.col_refreshes", float64(st.ColRefreshes))
	rec.add("core.reused_cells", float64(st.ReusedCells))
	rec.add("core.actions", float64(tp.actions))
	rec.add("simkit.events", float64(sim.Engine().Processed()))
	rec.add("datacenter.ticks", float64(int(res.SimEnd/tickInterval)+1))
	rec.add("datacenter.migrations", float64(res.Migrations))
	rec.add("datacenter.failures", float64(res.Failures))
	rec.add("cluster.nodes", float64(sim.Cluster().Size()))
	rec.add("cluster.online_avg", res.AvgOnline)
	rec.add("sim.jobs", float64(res.JobsTotal))
	rec.add("sim.runs", 1)
	return res, nil
}

// tickInterval is datacenter.Config's default housekeeping period.
const tickInterval = 60

// simLayers turns the traced simulator repetitions' spans and counts
// into the per-layer metrics of the workload, simkit, cluster, core and
// datacenter layers.
func simLayers(rec *recorder, out map[string]float64) {
	jobs, runs := rec.count("sim.jobs"), rec.count("sim.runs")
	perJob := func(name string) float64 { return ratio(rec.count(name), jobs) }

	nextUS, nextCalls := rec.total("workload.next")
	out["workload.next_us_per_job"] = ratio(nextUS, jobs)
	out["workload.next_calls_per_job"] = ratio(float64(nextCalls), jobs)
	out["workload.generate_ms"] = median(rec.durations("workload.generate")) / 1e3

	out["simkit.events_per_job"] = perJob("simkit.events")

	out["cluster.nodes"] = ratio(rec.count("cluster.nodes"), runs)
	out["cluster.online_avg"] = ratio(rec.count("cluster.online_avg"), runs)

	sched := rec.durations("core.schedule")
	var schedUS float64
	for _, d := range sched {
		schedUS += d
	}
	out["core.rounds_per_job"] = perJob("core.rounds")
	out["core.schedule_us_per_job"] = ratio(schedUS, jobs)
	out["core.schedule_p50_us"] = median(sched)
	_, out["core.schedule_p99_us"] = tailPercentile(sched)
	out["core.score_evals_per_job"] = perJob("core.score_evals")
	out["core.moves_per_job"] = perJob("core.moves")
	out["core.col_refreshes_per_job"] = perJob("core.col_refreshes")
	out["core.reused_cells_ratio"] = ratio(rec.count("core.reused_cells"), rec.count("core.reused_cells")+rec.count("core.score_evals"))
	out["core.actions_per_job"] = perJob("core.actions")

	runUS, _ := rec.total("datacenter.run")
	out["datacenter.new_ms"] = median(rec.durations("datacenter.new")) / 1e3
	out["datacenter.run_us_per_job"] = ratio(runUS, jobs)
	out["datacenter.self_us_per_job"] = ratio(runUS-schedUS-nextUS, jobs)
	out["datacenter.ticks_per_job"] = perJob("datacenter.ticks")
	out["datacenter.migrations_per_job"] = perJob("datacenter.migrations")
	out["datacenter.failures"] = ratio(rec.count("datacenter.failures"), runs)
}

// Probe sizes: enough calls for a stable per-call time, few enough to
// stay well under a second on a 2 000-node fleet.
const (
	engineProbeTimers = 100000
	clusterProbeCalls = 2000
)

// simProbes times single calls into layers whose cost the spans cannot
// isolate: a bare simkit engine, and Counts/AppendOnline/Plan on the
// cluster as it stands half-way through the trace (reached with the
// step-wise Start/Inject/StepBefore API, exactly as an online harness
// would).
func simProbes(spec simSpec, tr *energysched.Trace, out map[string]float64) error {
	eng := simkit.NewEngine()
	fired := 0
	start := time.Now()
	for i := 0; i < engineProbeTimers; i++ {
		eng.At(float64(i%1000), func() { fired++ })
	}
	eng.RunAll()
	if fired != engineProbeTimers {
		return fmt.Errorf("simkit probe: %d of %d timers fired", fired, engineProbeTimers)
	}
	out["simkit.event_probe_ns"] = float64(time.Since(start).Nanoseconds()) / engineProbeTimers

	sim, err := energysched.NewSimulation(spec.options())
	if err != nil {
		return err
	}
	half := tr.Jobs[len(tr.Jobs)-1].Submit / 2
	for _, j := range tr.Jobs {
		if j.Submit > half {
			break
		}
		if _, err := sim.Inject(j); err != nil {
			return err
		}
	}
	sim.Start()
	sim.StepBefore(half)
	cl := sim.Cluster()

	perCallUS := func(fn func()) float64 {
		start := time.Now()
		for i := 0; i < clusterProbeCalls; i++ {
			fn()
		}
		return micros(time.Since(start)) / clusterProbeCalls
	}
	sink := 0
	out["cluster.counts_probe_us"] = perCallUS(func() {
		w, o := cl.Counts()
		sink += w + o
	})
	var buf []*cluster.Node
	out["cluster.append_online_probe_us"] = perCallUS(func() {
		buf = cl.AppendOnline(buf[:0])
		sink += len(buf)
	})
	// A fresh manager with the simulation's thresholds: Plan reads the
	// cluster and only updates the manager's own boot clock.
	pm, err := core.NewPowerManager(30, 90, 1)
	if err != nil {
		return err
	}
	queue := sim.AppendQueue(nil)
	out["core.plan_probe_us"] = perCallUS(func() {
		on, off := pm.Plan(half, cl, queue)
		sink += len(on) + len(off)
	})
	if sink < 0 {
		return fmt.Errorf("unreachable") // keeps the probed calls observable
	}
	return nil
}

// layers computes a simulator workload's per-layer metrics after the
// traced repetitions.
func (in *simInstance) layers(rec *recorder, out map[string]float64) error {
	simLayers(rec, out)
	tr := in.trace
	if tr == nil {
		tr = energysched.GenerateTrace(in.spec.traceOptions())
	}
	return simProbes(in.spec, tr, out)
}

// resultOf converts a datacenter report to the public result type the
// oracles compare. The two structs list the same fields in the same
// order, so this stops compiling the day they drift apart.
func resultOf(rep metrics.Report) energysched.Result { return energysched.Result(rep) }
