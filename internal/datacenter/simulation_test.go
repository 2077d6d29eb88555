package datacenter

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"energysched/internal/cluster"
	"energysched/internal/core"
	"energysched/internal/policy"
	"energysched/internal/vm"
	"energysched/internal/workload"
)

// mustScheduler is core.NewScheduler for configurations known valid.
func mustScheduler(cfg core.Config) *core.Scheduler {
	s, err := core.NewScheduler(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// miniTrace builds a small deterministic trace, jobs in submit order.
func miniTrace(jobs ...workload.Job) *workload.Trace {
	slices.SortStableFunc(jobs, func(a, b workload.Job) int { return cmp.Compare(a.Submit, b.Submit) })
	return &workload.Trace{Jobs: jobs}
}

func job(id int, submit, dur, cpu, mem, factor float64) workload.Job {
	return workload.Job{
		ID: id, Name: "j", Submit: submit, Duration: dur,
		CPU: cpu, Mem: mem, DeadlineFactor: factor,
	}
}

func smallClasses(n int) []cluster.Class {
	cls := cluster.PaperClasses()[1]
	cls.Count = n
	return []cluster.Class{cls}
}

func runSim(t *testing.T, cfg Config) (*Simulation, func() interface{}) {
	t.Helper()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim, nil
}

func TestSingleJobLifecycle(t *testing.T) {
	trace := miniTrace(job(0, 10, 600, 100, 5, 1.5))
	sim, err := New(Config{
		Classes: smallClasses(2),
		Trace:   trace,
		Policy:  policy.NewBackfilling(),
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.JobsCompleted != 1 {
		t.Fatalf("completed = %d, want 1", rep.JobsCompleted)
	}
	v := sim.VMs()[0]
	if v.State != vm.Completed {
		t.Fatalf("vm state = %v", v.State)
	}
	// Timeline: the minexec node boots at t=0 (~100 s), creation
	// ~40 s after the queue drains, then 600 s of execution.
	wantMin, wantMax := 100+30+600, 10.0+100+50+600+120
	if v.Finish < float64(wantMin) || v.Finish > wantMax {
		t.Errorf("finish = %v, want within [%v, %v]", v.Finish, wantMin, wantMax)
	}
	// Work conservation: CPU hours equal the trace total.
	if got, want := rep.CPUHours, trace.TotalCPUHours(); math.Abs(got-want) > 1e-6 {
		t.Errorf("CPU hours = %v, want %v", got, want)
	}
	if rep.EnergyKWh <= 0 {
		t.Error("no energy recorded")
	}
	if rep.Satisfaction != 100 {
		t.Errorf("satisfaction = %v, want 100 (deadline easily met)", rep.Satisfaction)
	}
}

func TestStartOnlineSkipsBoot(t *testing.T) {
	trace := miniTrace(job(0, 0, 300, 100, 5, 2))
	sim, err := New(Config{
		Classes:     smallClasses(1),
		Trace:       trace,
		Policy:      policy.NewBackfilling(),
		Seed:        1,
		StartOnline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	v := sim.VMs()[0]
	// No boot wait: finish ≈ creation (~40) + 300.
	if v.Finish > 400 {
		t.Errorf("finish = %v, want < 400 with a warm node", v.Finish)
	}
}

func TestWorkConservationUnderContention(t *testing.T) {
	// Random policy piles VMs on one node; total CPU-hours must still
	// equal the trace's (thrash does not destroy work accounting).
	var jobs []workload.Job
	for i := 0; i < 12; i++ {
		jobs = append(jobs, job(i, float64(i), 900, 200, 5, 2))
	}
	trace := miniTrace(jobs...)
	sim, err := New(Config{
		Classes:     smallClasses(2),
		Trace:       trace,
		Policy:      policy.NewRandom(3),
		Seed:        3,
		StartOnline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.JobsCompleted != len(jobs) {
		t.Fatalf("completed %d/%d", rep.JobsCompleted, len(jobs))
	}
	if math.Abs(rep.CPUHours-trace.TotalCPUHours()) > 1e-6 {
		t.Errorf("CPU hours = %v, want %v", rep.CPUHours, trace.TotalCPUHours())
	}
}

func TestContentionStretchesExecution(t *testing.T) {
	// Two nodes' worth of demand on one node: execution must stretch
	// by at least the overcommit factor.
	jobs := []workload.Job{
		job(0, 0, 600, 400, 5, 2),
		job(1, 1, 600, 400, 5, 2),
	}
	sim, err := New(Config{
		Classes:     smallClasses(1),
		Trace:       miniTrace(jobs...),
		Policy:      policy.NewRandom(1),
		Seed:        1,
		StartOnline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	v := sim.VMs()[1]
	if v.Finish-v.Submit < 1200 {
		t.Errorf("exec time = %v, want >= 1200 (2× overcommit)", v.Finish-v.Submit)
	}
	if rep.Delay <= 0 {
		t.Error("no delay recorded under contention")
	}
}

func TestMigrationMovesVM(t *testing.T) {
	// j0 (short, 300 %) and j2 (long, 100 %) share node A; j1 (long,
	// 300 %) is forced to node B. When j0 completes, j2 sits alone on
	// A and the SB policy migrates it next to j1.
	jobs := []workload.Job{
		job(0, 0, 900, 300, 15, 5),
		job(1, 1, 14400, 300, 15, 5),
		job(2, 2, 14400, 100, 5, 5),
	}
	cfg := core.SBConfig()
	cfg.MigrationGainMin = 1
	sim, err := New(Config{
		Classes:     smallClasses(2),
		Trace:       miniTrace(jobs...),
		Policy:      mustScheduler(cfg),
		Seed:        1,
		StartOnline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrations == 0 {
		t.Fatal("no migration happened")
	}
	if rep.JobsCompleted != 3 {
		t.Fatalf("completed %d/3", rep.JobsCompleted)
	}
	// After consolidation the two long jobs end on the same node.
	if sim.VMs()[1].Host != sim.VMs()[2].Host {
		t.Errorf("long jobs finished on different nodes: %d vs %d",
			sim.VMs()[1].Host, sim.VMs()[2].Host)
	}
}

func TestNodePowersOffWhenIdle(t *testing.T) {
	trace := miniTrace(job(0, 0, 300, 100, 5, 2))
	sim, err := New(Config{
		Classes:   smallClasses(5),
		Trace:     trace,
		Policy:    policy.NewBackfilling(),
		Seed:      1,
		LambdaMin: 30, LambdaMax: 90,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	_, online := sim.Cluster().Counts()
	if online > 1 {
		t.Errorf("online after drain = %d, want minexec 1", online)
	}
	if rep.AvgOnline >= 5 {
		t.Errorf("avg online = %v, want < 5 (nodes were turned off)", rep.AvgOnline)
	}
}

func TestEnergyAccounting(t *testing.T) {
	// A known scenario: one node, always on, one job of 3600 s at
	// 100 % CPU. Energy ≈ boot(idle) + creation + 259 W × 1 h + tail.
	trace := miniTrace(job(0, 0, 3600, 100, 5, 3))
	sim, err := New(Config{
		Classes:     smallClasses(1),
		Trace:       trace,
		Policy:      policy.NewBackfilling(),
		Seed:        1,
		StartOnline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Lower bound: 259 W for the hour the job runs.
	if rep.EnergyKWh < 0.255 {
		t.Errorf("energy = %v kWh, want >= 0.255", rep.EnergyKWh)
	}
	// Upper bound: the node never exceeds 304 W plus overheads.
	if rep.EnergyKWh > 0.35 {
		t.Errorf("energy = %v kWh, want <= 0.35", rep.EnergyKWh)
	}
}

func TestFailureRequeuesAndRecovers(t *testing.T) {
	cls := cluster.PaperClasses()[1]
	cls.Count = 3
	cls.Reliability = 0.7 // fails often
	trace := miniTrace(job(0, 0, 4000, 100, 5, 20))
	sim, err := New(Config{
		Classes:         []cluster.Class{cls},
		Trace:           trace,
		Policy:          policy.NewBackfilling(),
		Seed:            5,
		FailuresEnabled: true,
		MTTR:            600,
		StartOnline:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures == 0 {
		t.Fatal("no failures injected at reliability 0.7")
	}
	if rep.JobsCompleted != 1 {
		t.Fatalf("job never finished despite retries: %+v", rep)
	}
	if sim.VMs()[0].Restarts == 0 {
		t.Error("job completed without restarts despite failures — suspicious")
	}
}

func TestCheckpointingPreservesProgress(t *testing.T) {
	cls := cluster.PaperClasses()[1]
	cls.Count = 2
	cls.Reliability = 0.8
	trace := miniTrace(job(0, 0, 6000, 100, 5, 20))
	run := func(checkpoint float64) float64 {
		sim, err := New(Config{
			Classes:            []cluster.Class{cls},
			Trace:              trace,
			Policy:             policy.NewBackfilling(),
			Seed:               7,
			FailuresEnabled:    true,
			MTTR:               300,
			CheckpointInterval: checkpoint,
			StartOnline:        true,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.JobsCompleted != 1 {
			t.Fatalf("job incomplete (checkpoint=%v)", checkpoint)
		}
		return sim.VMs()[0].Finish
	}
	with := run(300)
	without := run(0)
	if with >= without {
		t.Errorf("checkpointing did not help: finish %v (with) vs %v (without)", with, without)
	}
}

func TestQueuedVMWaitsWhenNothingFits(t *testing.T) {
	// A 4-core job while the only node runs another 4-core job: must
	// wait, then run.
	jobs := []workload.Job{
		job(0, 0, 600, 400, 5, 10),
		job(1, 10, 600, 400, 5, 10),
	}
	sim, err := New(Config{
		Classes:     smallClasses(1),
		Trace:       miniTrace(jobs...),
		Policy:      policy.NewBackfilling(),
		Seed:        1,
		StartOnline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.JobsCompleted != 2 {
		t.Fatalf("completed %d/2", rep.JobsCompleted)
	}
	second := sim.VMs()[1]
	if second.Start < 600 {
		t.Errorf("second job started at %v, want after the first finishes", second.Start)
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := workload.DefaultGeneratorConfig()
	cfg.Horizon = 12 * 3600
	trace := workload.MustGenerate(cfg)
	run := func() float64 {
		sim, err := New(Config{
			Trace:  trace,
			Policy: mustScheduler(core.SBConfig()),
			Seed:   42,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep.EnergyKWh
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic energy: %v vs %v", a, b)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{Trace: miniTrace(job(0, 0, 1, 100, 5, 2))}); err == nil {
		t.Error("missing policy accepted")
	}
	if _, err := New(Config{
		Trace:     miniTrace(job(0, 0, 1, 100, 5, 2)),
		Policy:    policy.NewBackfilling(),
		LambdaMin: 90, LambdaMax: 30,
	}); err == nil {
		t.Error("inverted lambdas accepted")
	}
	for _, target := range []float64{-3, 150, math.NaN()} {
		if _, err := New(Config{Policy: policy.NewBackfilling(), AdaptiveTarget: target}); err == nil {
			t.Errorf("adaptive target %v accepted", target)
		}
	}
	bad := miniTrace(workload.Job{ID: 0, Submit: 0, Duration: -1, CPU: 100, DeadlineFactor: 2})
	sim, err := New(Config{Trace: bad, Policy: policy.NewBackfilling()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err == nil {
		t.Error("invalid job accepted at run time")
	}
}

func TestMaxTimeCutsRun(t *testing.T) {
	trace := miniTrace(job(0, 0, 10000, 100, 5, 2))
	sim, err := New(Config{
		Classes:     smallClasses(1),
		Trace:       trace,
		Policy:      policy.NewBackfilling(),
		StartOnline: true,
		MaxTime:     500,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SimEnd > 500 {
		t.Errorf("sim end = %v, want <= 500", rep.SimEnd)
	}
	if rep.JobsCompleted != 0 {
		t.Errorf("job completed despite the horizon cut")
	}
}

func TestOverheadCPUAffectsPower(t *testing.T) {
	// Two identical runs; the one with heavier op overhead must draw
	// at least as much energy during the creation phase.
	trace := miniTrace(job(0, 0, 1200, 100, 5, 3))
	run := func(overhead float64) float64 {
		sim, err := New(Config{
			Classes:       smallClasses(1),
			Trace:         trace,
			Policy:        policy.NewBackfilling(),
			Seed:          1,
			StartOnline:   true,
			opOverheadCPU: overhead,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep.EnergyKWh
	}
	if light, heavy := run(50), run(300); heavy <= light {
		t.Errorf("heavier dom0 overhead did not cost energy: %v vs %v", heavy, light)
	}
}

func TestAdaptiveLambdaReacts(t *testing.T) {
	// A comfortable workload: the adaptive controller should tighten
	// λmin over time and save energy vs the static baseline.
	cfg := workload.DefaultGeneratorConfig()
	cfg.Horizon = 2 * 24 * 3600
	trace := workload.MustGenerate(cfg)
	run := func(target float64) float64 {
		sim, err := New(Config{
			Trace:          trace,
			Policy:         mustScheduler(core.SBConfig()),
			LambdaMin:      30,
			LambdaMax:      90,
			Seed:           1,
			AdaptiveTarget: target,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.JobsCompleted != rep.JobsTotal {
			t.Fatalf("completed %d/%d", rep.JobsCompleted, rep.JobsTotal)
		}
		return rep.EnergyKWh
	}
	static := run(0)
	adaptive := run(98)
	if adaptive >= static {
		t.Errorf("adaptive λ (%v kWh) should save energy vs static (%v kWh) on a comfortable load",
			adaptive, static)
	}
}

func TestHeterogeneousHardwareConstraints(t *testing.T) {
	// A mixed fleet: x86 Xen nodes and ARM KVM nodes. Jobs pinned to
	// an architecture must only ever run on matching nodes, across
	// placement, migration and recovery.
	x86 := cluster.PaperClasses()[1]
	x86.Count = 2
	arm := cluster.PaperClasses()[1]
	arm.Name = "arm"
	arm.Count = 2
	arm.Arch = "arm64"
	arm.Hypervisor = "kvm"

	trace := &workload.Trace{}
	for i := 0; i < 8; i++ {
		j := job(i, float64(i), 1200, 100, 5, 5)
		if i%2 == 0 {
			j.Arch = "x86_64"
			j.Hypervisor = "xen"
		} else {
			j.Arch = "arm64"
			j.Hypervisor = "kvm"
		}
		trace.Jobs = append(trace.Jobs, j)
	}
	cfg := core.SBConfig()
	cfg.MigrationGainMin = 1
	sim, err := New(Config{
		Classes:     []cluster.Class{x86, arm},
		Trace:       trace,
		Policy:      mustScheduler(cfg),
		Seed:        1,
		StartOnline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.JobsCompleted != 8 {
		t.Fatalf("completed %d/8", rep.JobsCompleted)
	}
	// Pinned jobs only ever ended on matching nodes: x86 nodes have
	// IDs 0–1, ARM nodes 2–3 (declaration order).
	for i, v := range sim.VMs() {
		if i%2 == 0 && v.Host >= 2 {
			t.Errorf("x86 job %d finished on ARM node %d", i, v.Host)
		}
		if i%2 == 1 && v.Host < 2 {
			t.Errorf("ARM job %d finished on x86 node %d", i, v.Host)
		}
	}
}

// forceMigration builds a two-node scenario with a migration in
// flight at a predictable time: j0 short on node A with j2 (long,
// 100%), j1 long 300% on node B; after j0 completes (~940 s) the SB
// policy migrates j2 from A to B, taking ~60 s.
func forceMigration(t *testing.T, classes []cluster.Class, failuresSeed int64) *Simulation {
	t.Helper()
	jobs := []workload.Job{
		job(0, 0, 900, 300, 15, 8),
		job(1, 1, 14400, 300, 15, 8),
		job(2, 2, 14400, 100, 5, 8),
	}
	cfg := core.SBConfig()
	cfg.MigrationGainMin = 1
	sim, err := New(Config{
		Classes:     classes,
		Trace:       miniTrace(jobs...),
		Policy:      mustScheduler(cfg),
		Seed:        failuresSeed,
		StartOnline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestMigrationSourceFailure(t *testing.T) {
	// Crash the migration source mid-flight: the VM is lost, the
	// destination reservation is released, and the job still finishes
	// after re-queueing.
	sim := forceMigration(t, smallClasses(2), 1)
	var failAt float64 = -1
	sim.cfg.EventLog = func(e Event) {
		if e.Kind == EvMigrateStart && failAt < 0 {
			failAt = sim.eng.Now() + 20 // mid-migration (takes ~60 s)
			src := sim.cluster.Node(e.Node)
			sim.eng.Schedule(sim.eng.Now()+20, func() { sim.onFailure(src) })
		}
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if failAt < 0 {
		t.Fatal("no migration started — scenario broken")
	}
	if rep.JobsCompleted != 3 {
		t.Fatalf("completed %d/3 after source failure", rep.JobsCompleted)
	}
	// Consistency: no node still thinks it has migration ops pending.
	for _, n := range sim.cluster.Nodes {
		if n.MigratingOps != 0 || n.CreatingOps != 0 {
			t.Errorf("node %d left with dangling ops: %d/%d", n.ID, n.CreatingOps, n.MigratingOps)
		}
		if len(n.VMs) != 0 {
			t.Errorf("node %d still hosts %d VMs after the run", n.ID, len(n.VMs))
		}
	}
}

func TestMigrationDestinationFailure(t *testing.T) {
	// Crash the destination mid-flight: the VM keeps running on the
	// source and completes without restarting.
	sim := forceMigration(t, smallClasses(2), 1)
	fired := false
	sim.cfg.EventLog = func(e Event) {
		if e.Kind == EvMigrateStart && !fired {
			fired = true
			dst := sim.cluster.Node(e.Aux)
			sim.eng.Schedule(sim.eng.Now()+20, func() { sim.onFailure(dst) })
		}
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("no migration started — scenario broken")
	}
	if rep.JobsCompleted != 3 {
		t.Fatalf("completed %d/3 after destination failure", rep.JobsCompleted)
	}
	// The migrating VM must not have restarted (it survived on the
	// source).
	if v := sim.VMs()[2]; v.Restarts > 1 {
		t.Errorf("vm2 restarted %d times; destination failure should not reset it", v.Restarts)
	}
}
