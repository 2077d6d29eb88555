package energysched

// Ablation benchmarks run a complete datacenter simulation per
// iteration on a one-day calibrated trace and isolate one design
// decision each; micro benchmarks cover the hot paths (event engine,
// credit allocator, score solver). The paper's tables and figures are
// benchmarked in paper_bench_test.go.

import (
	"testing"

	"energysched/internal/chaos"
	"energysched/internal/cluster"
	"energysched/internal/core"
	"energysched/internal/datacenter"
	"energysched/internal/metrics"
	"energysched/internal/obs/series"
	"energysched/internal/policy"
	"energysched/internal/simkit"
	"energysched/internal/vm"
	"energysched/internal/workload"
	"energysched/internal/xen"
)

var benchTrace = func() *workload.Trace {
	cfg := workload.DefaultGeneratorConfig()
	cfg.Horizon = 24 * 3600
	return workload.MustGenerate(cfg)
}()

// runBench executes one full simulation and reports the paper metrics
// alongside the timing.
func runBench(b *testing.B, mk func() datacenter.Config) {
	b.Helper()
	var rep metrics.Report
	for i := 0; i < b.N; i++ {
		sim, err := datacenter.New(mk())
		if err != nil {
			b.Fatal(err)
		}
		rep, err = sim.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.EnergyKWh, "kWh")
	b.ReportMetric(rep.Satisfaction, "S%")
	b.ReportMetric(float64(rep.Migrations), "migrations")
	b.ReportMetric(rep.AvgOnline, "nodesON")
}

// cfgFor builds a per-iteration config factory. mk runs once per
// iteration: policies are stateful (round-robin cursors, drain
// cooldowns, solver statistics) and must never be shared across runs.
func cfgFor(mk func() policy.Policy, lmin, lmax float64) func() datacenter.Config {
	return func() datacenter.Config {
		return datacenter.Config{
			Trace:     benchTrace,
			Policy:    mk(),
			LambdaMin: lmin,
			LambdaMax: lmax,
			Seed:      1,
		}
	}
}

// --- Ablations: each turns off or retunes one modelling choice ---

// Thrash model off: overcommit becomes free and the random baseline
// stops collapsing — quantifies how much of RD's penalty is thrash.
func BenchmarkAblationThrashOff_RD(b *testing.B) {
	runBench(b, func() datacenter.Config {
		c := cfgFor(func() policy.Policy { return policy.NewRandom(1) }, 30, 90)()
		c.ThrashFactor = -1
		return c
	})
}

// Migration hysteresis sweep: gain 0 lets float-level score noise
// move VMs; the default 35 keeps only structural drains.
func benchAblationGain(b *testing.B, gain float64) {
	cfg := core.SBConfig()
	cfg.MigrationGainMin = gain
	runBench(b, cfgFor(func() policy.Policy { return mustScheduler(cfg) }, 30, 90))
}

func BenchmarkAblationMigrationGain1(b *testing.B)  { benchAblationGain(b, 1) }
func BenchmarkAblationMigrationGain35(b *testing.B) { benchAblationGain(b, 35) }
func BenchmarkAblationMigrationGain80(b *testing.B) { benchAblationGain(b, 80) }

// Housekeeping cadence: a 5-minute tick vs the default 1-minute tick
// (fewer scheduling rounds, slower turn-off reaction).
func BenchmarkAblationTick300(b *testing.B) {
	runBench(b, func() datacenter.Config {
		c := cfgFor(func() policy.Policy { return mustScheduler(core.SBConfig()) }, 30, 90)()
		c.TickInterval = 300
		return c
	})
}

// mustScheduler is core.NewScheduler for configurations known valid.
func mustScheduler(cfg core.Config) *core.Scheduler {
	s, err := core.NewScheduler(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// --- micro benchmarks on the hot paths ---

func BenchmarkXenAllocate(b *testing.B) {
	demands := make([]xen.Demand, 16)
	for i := range demands {
		demands[i] = xen.Demand{Weight: float64(128 + i*32), Want: float64(50 + i*25), Cap: 400}
	}
	// Steady state, as recomputeNode runs it: the previous result is the
	// next call's scratch (so the -benchtime=1x CI gate reads 0, not the
	// first call's buffer).
	alloc := xen.Allocate(400, demands, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alloc = xen.Allocate(400, demands, alloc)
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := simkit.NewEngine()
		for j := 0; j < 1000; j++ {
			at := float64(j % 97)
			e.Schedule(at, func() {})
		}
		e.RunAll()
	}
}

// Building a simulation on the 2000-node scale fleet, without running
// it: the cluster, the per-node runtime records and meters. Nodes live
// in slabs, so allocs/op does not grow with the fleet; the CI gate holds
// it there.
func BenchmarkSimulationNewScale2k(b *testing.B) {
	classes, err := convertClasses(ScaleClasses(2000))
	if err != nil {
		b.Fatal(err)
	}
	sb := mustScheduler(core.SBConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := datacenter.New(datacenter.Config{Classes: classes, Policy: sb, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// solverRoundCtx is one scheduling round over 100 hosts × 64
// candidate VMs, the workload of the solver micro benchmarks.
func solverRoundCtx() *policy.Context {
	cls := cluster.MustNew(cluster.PaperClasses())
	for _, n := range cls.Nodes {
		n.SetState(cluster.On)
	}
	var queue []*vm.VM
	for i := 0; i < 64; i++ {
		queue = append(queue, vm.New(i, vm.Requirements{CPU: float64(100 * (1 + i%4)), Mem: 5}, 0, 3600, 7200))
	}
	return &policy.Context{Now: 0, Cluster: cls, Queue: queue}
}

func benchSolverRound(b *testing.B, cfg core.Config) {
	ctx := solverRoundCtx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sch := mustScheduler(cfg)
		sch.Schedule(ctx)
	}
}

// The incremental solver: matrix cached once per round, dirty columns
// recomputed after each move, O(V) best-move selection.
func BenchmarkScoreSolverRound(b *testing.B) {
	benchSolverRound(b, core.SBConfig())
}

// The naive reference evaluator (Algorithm 1 as written): the full
// V×H matrix is rescored on every hill-climbing iteration. The ratio
// against BenchmarkScoreSolverRound is the headline solver speedup.
func BenchmarkScoreSolverRoundNaive(b *testing.B) {
	cfg := core.SBConfig()
	cfg.NaiveSolver = true
	benchSolverRound(b, cfg)
}

// Steady state: one scheduler reused across rounds, exercising the
// scratch-buffer reuse (shadow, candidate slice, cached matrix) and —
// since the context never changes — the cross-round matrix carry at
// its best case (every row and column clean).
func BenchmarkScoreSolverRoundSteady(b *testing.B) {
	ctx := solverRoundCtx()
	sch := mustScheduler(core.SBConfig())
	sch.Schedule(ctx) // warm the scratch buffers
	sch.Schedule(ctx) // and settle the keys the first round's moves dirtied
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sch.Schedule(ctx)
	}
}

// solverChurnSetup builds the realistic steady-fleet shape of a
// full-day simulation round: 100 hosts, 64 running VMs, migration
// hysteresis high enough that rounds apply no moves — each round's
// cost is pure matrix maintenance.
func solverChurnSetup(cfg core.Config) (*core.Scheduler, *policy.Context) {
	cls := cluster.MustNew(cluster.PaperClasses())
	for _, n := range cls.Nodes {
		n.SetState(cluster.On)
	}
	cfg.MigrationGainMin = 1e6
	var active []*vm.VM
	for i := 0; i < 64; i++ {
		v := vm.New(i, vm.Requirements{CPU: float64(100 * (1 + i%4)), Mem: 5}, 0, 1e6, 2e6)
		v.State = vm.Running
		n := cls.Nodes[i%len(cls.Nodes)]
		v.Host = n.ID
		n.AddVM(v)
		active = append(active, v)
	}
	ctx := &policy.Context{Now: 0, Cluster: cls, Active: active}
	sch := mustScheduler(cfg)
	sch.Schedule(ctx) // warm scratch buffers
	sch.Schedule(ctx) // and a first carry round
	return sch, ctx
}

// Cross-round carry under churn: each round one node and one VM are
// touched (their epochs bump), so the solver re-scores one column and
// one row and carries the rest — a full-day simulation round changes
// a handful of entities out of a hundred.
func BenchmarkScoreSolverRoundChurn(b *testing.B) {
	sch, ctx := solverChurnSetup(core.SBConfig())
	nodes := ctx.Cluster.Nodes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes[i%len(nodes)].Touch()
		ctx.Active[i%len(ctx.Active)].Touch()
		sch.Schedule(ctx)
	}
}

// The shape of a paper-week round: the clock advances a tick and one
// node changes, every VM stays as it was. The rows whose decision the
// node's column cannot change stay dormant — no time terms, no arbiter
// visit — so a round costs the column re-score and little else.
func BenchmarkScoreSolverRoundTicking(b *testing.B) {
	sch, ctx := solverChurnSetup(core.SBConfig())
	nodes := ctx.Cluster.Nodes
	skips := sch.Stats.DormantSkips
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Now += 60
		nodes[i%len(nodes)].Touch()
		sch.Schedule(ctx)
	}
	b.ReportMetric(float64(sch.Stats.DormantSkips-skips)/float64(b.N), "skips/round")
}

// quietRoundSetup runs the paper's week under SB until 3.5 days in and
// returns the scheduler with the context of its next round, after a
// first Schedule on it has converged without acting: a round on
// unchanged state, the most common round of the paper week.
func quietRoundSetup(b *testing.B) (*core.Scheduler, *policy.Context) {
	b.Helper()
	trace := GenerateTrace(TraceOptions{Days: 7, Seed: 1})
	sch := mustScheduler(core.SBConfig())
	sim, err := datacenter.New(datacenter.Config{Trace: trace, Policy: sch, LambdaMin: 30, LambdaMax: 90, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	const at = 3.5 * 24 * 3600
	sim.Start()
	for _, j := range trace.Jobs {
		if j.Submit >= at {
			break
		}
		if _, err := sim.Inject(j); err != nil {
			b.Fatal(err)
		}
	}
	sim.StepBefore(at)
	ctx := &policy.Context{Now: sim.Now(), Cluster: sim.Cluster(), Queue: sim.AppendQueue(nil)}
	for _, v := range sim.VMs() {
		if v.Active() {
			ctx.Active = append(ctx.Active, v)
		}
	}
	for i := 0; i < 2; i++ {
		if acts := sch.Schedule(ctx); len(acts) != 0 {
			b.Fatalf("round %d on the day-3.5 state acts: %v", i, acts)
		}
	}
	return sch, ctx
}

// A round on unchanged state: every row and column carried and every
// row dormant, so the round costs its stamp checks and nothing else.
func BenchmarkScoreSolverRoundQuiet(b *testing.B) {
	sch, ctx := quietRoundSetup(b)
	evals, skips := sch.Stats.ScoreEvals, sch.Stats.DormantSkips
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sch.Schedule(ctx)
	}
	b.StopTimer()
	if sch.Stats.ScoreEvals != evals {
		b.Fatalf("quiet rounds evaluated %d scores", sch.Stats.ScoreEvals-evals)
	}
	b.ReportMetric(float64(len(ctx.Active)+len(ctx.Queue)), "vms")
	b.ReportMetric(float64(sch.Stats.DormantSkips-skips)/float64(b.N), "skips/round")
}

// --- one large round: one fleet at 10× the paper's scale ---

// bigRoundCtx is one scheduling round far past the paper's 100 nodes:
// 1000 hosts (150 fast / 500 medium / 350 slow) × 4000 queued VMs.
// At this scale the V×H score matrix is 32 MB of float64 (the slabMB
// metric reports the cells allocated: 63 bands of 64 rows at a stride
// of 1024 columns) and one round costs seconds.
func bigRoundCtx() *policy.Context {
	classes := cluster.PaperClasses()
	for i := range classes {
		classes[i].Count *= 10
	}
	cls := cluster.MustNew(classes)
	for _, n := range cls.Nodes {
		n.SetState(cluster.On)
	}
	var queue []*vm.VM
	for i := 0; i < 4000; i++ {
		queue = append(queue, vm.New(i, vm.Requirements{CPU: float64(50 * (1 + i%4)), Mem: 5}, 0, 3600, 7200))
	}
	return &policy.Context{Now: 0, Cluster: cls, Queue: queue}
}

// BenchmarkShardedRound1000N4000V_Serial keeps its name, which the
// committed BENCH_*.json artifacts and the CI gate match on.
func BenchmarkShardedRound1000N4000V_Serial(b *testing.B) {
	ctx := bigRoundCtx()
	cfg := core.SBConfig()
	var sch *core.Scheduler
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sch = mustScheduler(cfg)
		sch.Schedule(ctx)
	}
	b.ReportMetric(float64(sch.Stats.Moves), "moves")
	b.ReportMetric(float64(sch.Stats.MaxSlabCells)*8/float64(1<<20), "slabMB")
}

// --- extensions: adaptive thresholds ---

// Dynamic λ (the paper's future-work threshold adjustment) vs the
// static balanced setting.
func BenchmarkExtensionAdaptiveLambda(b *testing.B) {
	runBench(b, func() datacenter.Config {
		c := cfgFor(func() policy.Policy { return mustScheduler(core.SBConfig()) }, 30, 90)()
		c.AdaptiveTarget = 98
		return c
	})
}

// One chaos scale scenario per iteration: a 2k-node heterogeneous
// fleet on a one-day streaming trace with injected crashes and a
// flapping node — the CI-sized cousin of the 10k-node acceptance
// scenario in internal/chaos, tracking the cost of running the
// simulator at fleet scale.
func BenchmarkScenarioChaos2k(b *testing.B) {
	s := chaos.Scenario10k()
	s.Name = "2k-1day"
	s.Nodes = 2000
	s.Days = 1
	var failures int
	for i := 0; i < b.N; i++ {
		rep, err := s.Run(false)
		if err != nil {
			b.Fatal(err)
		}
		failures = rep.Failures
	}
	b.ReportMetric(float64(failures), "failures")
}

// The same chaos scenario with the PR 9 accounting collectors armed:
// per-interval series sampling plus per-VM energy attribution. The
// delta against BenchmarkScenarioChaos2k is the sampling overhead the
// observability docs promise stays under 2%.
func BenchmarkScenarioChaos2kAccounting(b *testing.B) {
	s := chaos.Scenario10k()
	s.Name = "2k-1day"
	s.Nodes = 2000
	s.Days = 1
	var samples uint64
	for i := 0; i < b.N; i++ {
		store := series.NewStore(0)
		_, err := s.RunWithObservers(false, nil, store.Add)
		if err != nil {
			b.Fatal(err)
		}
		samples = store.Count()
	}
	b.ReportMetric(float64(samples), "samples")
}
