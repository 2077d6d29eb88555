package datacenter

import (
	"testing"

	"energysched/internal/core"
	"energysched/internal/metrics"
	"energysched/internal/policy"
	"energysched/internal/workload"
)

// TestSolverFullSimDifferential is the end-to-end counterpart of the
// solver's per-round differential tests: a full generated-trace
// simulation must produce a bit-identical report whether the score
// matrix is carried across rounds by the slab kernel or evaluated from
// scratch on every iteration by the naive reference solver. Any stale
// cross-round cache entry would change a placement, fork the
// trajectory, and show up in the paper metrics.
func TestSolverFullSimDifferential(t *testing.T) {
	checkEveryTick(t)
	gen := workload.DefaultGeneratorConfig()
	gen.Horizon = 24 * 3600
	trace := workload.MustGenerate(gen)

	run := func(mod func(*core.Config)) metrics.Report {
		t.Helper()
		cfg := core.SBConfig()
		mod(&cfg)
		sim, err := New(Config{
			Trace:     trace,
			Policy:    mustScheduler(cfg),
			LambdaMin: 30,
			LambdaMax: 90,
			Seed:      1,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	carry := run(func(*core.Config) {})
	naive := run(func(c *core.Config) { c.NaiveSolver = true })

	if carry != naive {
		t.Errorf("slab kernel diverged from the naive oracle:\ncarry: %+v\nnaive: %+v", carry, naive)
	}
}

// checkEveryTick asserts CheckInvariants at every housekeeping tick of
// every simulation the test runs from here on.
func checkEveryTick(t *testing.T) {
	t.Helper()
	ticks := 0
	TickHook = func(s *Simulation) {
		ticks++
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("tick at t=%.0f: %v", s.Now(), err)
		}
	}
	t.Cleanup(func() {
		TickHook = nil
		if ticks == 0 {
			t.Error("the tick hook never ran")
		}
	})
}

// Property: driving the simulation online — injecting jobs one at a
// time while holding the clock strictly below the admission watermark
// — produces the exact report of the offline Run over the same trace.
// This is the determinism contract the server harness is built on.
func TestOnlineInjectionMatchesOfflineRun(t *testing.T) {
	cfg := workload.DefaultGeneratorConfig()
	cfg.Horizon = 12 * 3600
	cfg.Seed = 11
	trace := workload.MustGenerate(cfg)

	mk := func() Config {
		return Config{
			Classes: smallClasses(12),
			Policy:  mustScheduler(core.SBConfig()),
			Seed:    3,
		}
	}

	offCfg := mk()
	offCfg.Trace = trace
	off, err := New(offCfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := off.Run()
	if err != nil {
		t.Fatal(err)
	}

	on, err := New(mk())
	if err != nil {
		t.Fatal(err)
	}
	on.Start()
	for _, j := range trace.Jobs {
		if _, err := on.Inject(j); err != nil {
			t.Fatalf("inject job %d: %v", j.ID, err)
		}
		on.StepBefore(j.Submit) // advance to the admission watermark
	}
	got := on.Drain()
	if got != want {
		t.Fatalf("online report diverged:\n got %+v\nwant %+v", got, want)
	}
	if !on.Done() || !on.Sealed() {
		t.Fatal("drained simulation not done/sealed")
	}
}

// Sealing rejects further injection; injecting into the past is
// rejected; sealing an empty simulation is immediately done.
func TestInjectGuards(t *testing.T) {
	sim, err := New(Config{Classes: smallClasses(2), Policy: policy.NewBackfilling()})
	if err != nil {
		t.Fatal(err)
	}
	sim.Start()
	if _, err := sim.Inject(job(0, 100, 60, 100, 5, 1.5)); err != nil {
		t.Fatal(err)
	}
	sim.StepBefore(200)
	if _, err := sim.Inject(job(1, 150, 60, 100, 5, 1.5)); err == nil {
		t.Error("past-submit injection accepted")
	}
	sim.Seal()
	if _, err := sim.Inject(job(2, 300, 60, 100, 5, 1.5)); err == nil {
		t.Error("post-seal injection accepted")
	}

	empty, err := New(Config{Classes: smallClasses(1), Policy: policy.NewBackfilling()})
	if err != nil {
		t.Fatal(err)
	}
	empty.Seal()
	if !empty.Done() {
		t.Error("empty sealed simulation not done")
	}
	if rep := empty.Drain(); rep.JobsTotal != 0 {
		t.Errorf("empty drain report = %+v", rep)
	}
}

// Run with no trace errors instead of hanging.
func TestRunRequiresTrace(t *testing.T) {
	sim, err := New(Config{Classes: smallClasses(1), Policy: policy.NewBackfilling()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err == nil {
		t.Error("trace-less Run accepted")
	}
}
