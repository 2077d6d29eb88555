package datacenter

import (
	"testing"

	"energysched/internal/cluster"
	"energysched/internal/core"
	"energysched/internal/workload"
)

func sbConfig(t *testing.T, trace *workload.Trace, nodes int, seed int64) Config {
	t.Helper()
	pol, err := core.NewScheduler(core.SBConfig())
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Classes: smallClasses(nodes),
		Trace:   trace,
		Policy:  pol,
		Seed:    seed,
	}
}

// RunSource (inject at the watermark, injection priority) must be
// byte-identical to the preloaded form built from the primitives —
// Inject every job, Start, Drain — which is what fleet.rebuild replays
// a WAL with. Run is RunSource now, so the reference cannot be Run.
func TestRunSourceMatchesRun(t *testing.T) {
	gcfg := workload.DefaultGeneratorConfig()
	gcfg.Horizon = 24 * 3600

	off, err := New(sbConfig(t, nil, 20, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range workload.MustGenerate(gcfg).Jobs {
		if _, err := off.Inject(j); err != nil {
			t.Fatal(err)
		}
	}
	off.Start()
	want := off.Drain()

	on, err := New(sbConfig(t, nil, 20, 1))
	if err != nil {
		t.Fatal(err)
	}
	src, err := workload.NewGeneratorSource(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := on.RunSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || got.JobsCompleted == 0 {
		t.Fatalf("streamed run diverged from the preloaded run:\n got %+v\nwant %+v", got, want)
	}
}

func TestRunSourceRejectsEmpty(t *testing.T) {
	sim, err := New(sbConfig(t, nil, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunSource(workload.NewTraceSource(&workload.Trace{})); err == nil {
		t.Fatal("empty source accepted")
	}
}

// CrashNode is the deterministic injection point: a crash from an
// engine timer behaves exactly like an organic failure (VMs requeued,
// node repairs after MTTR) and the run completes every job.
func TestCrashNodeInjectsFailure(t *testing.T) {
	var jobs []workload.Job
	for i := 0; i < 8; i++ {
		jobs = append(jobs, job(i, float64(i*10), 3000, 100, 5, 2))
	}
	cfg := sbConfig(t, miniTrace(jobs...), 4, 1)
	cfg.StartOnline = true
	cfg.MTTR = 600
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	crashed := false
	for _, j := range jobs {
		if _, err := sim.Inject(j); err != nil {
			t.Fatal(err)
		}
	}
	sim.Start()
	// Crash whichever node hosts VMs once execution is under way.
	sim.Engine().At(500, func() {
		for _, n := range sim.Cluster().Nodes {
			if n.State == cluster.On && len(n.VMs) > 0 {
				if !sim.CrashNode(n.ID) {
					t.Errorf("CrashNode(%d) refused an On node", n.ID)
				}
				crashed = true
				return
			}
		}
	})
	rep := sim.Drain()
	if !crashed {
		t.Fatal("no loaded node found to crash")
	}
	if rep.Failures != 1 {
		t.Fatalf("node failures = %d, want 1 (the injected crash)", rep.Failures)
	}
	if rep.JobsCompleted != len(jobs) {
		t.Fatalf("completed %d of %d jobs after the crash", rep.JobsCompleted, len(jobs))
	}
	restarted := 0
	for _, v := range sim.VMs() {
		restarted += v.Restarts
	}
	if restarted == 0 {
		t.Fatal("crash requeued no VMs")
	}
	// Out-of-range and not-On nodes are no-ops.
	if sim.CrashNode(-1) || sim.CrashNode(10_000) {
		t.Fatal("CrashNode accepted a nonexistent node")
	}
}

// Two identical runs with the same crash schedule are byte-identical;
// the crash itself does not perturb determinism.
func TestCrashNodeDeterministic(t *testing.T) {
	run := func() interface{} {
		var jobs []workload.Job
		for i := 0; i < 10; i++ {
			jobs = append(jobs, job(i, float64(i*20), 2000, 100, 5, 2))
		}
		cfg := sbConfig(t, miniTrace(jobs...), 4, 3)
		cfg.StartOnline = true
		cfg.MTTR = 900
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			if _, err := sim.Inject(j); err != nil {
				t.Fatal(err)
			}
		}
		sim.Start()
		sim.Engine().At(400, func() { sim.CrashNode(0) })
		sim.Engine().At(1300, func() { sim.CrashNode(0) }) // flap: after MTTR repair
		return sim.Drain()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("crash-injected runs diverged:\n a %+v\n b %+v", a, b)
	}
}
