package core_test

import (
	"fmt"
	"testing"

	"energysched/internal/cluster"
	"energysched/internal/core"
	"energysched/internal/datacenter"
	"energysched/internal/policy"
	"energysched/internal/vm"
	"energysched/internal/workload"
)

// oracled is the score-based policy with the kernel oracle run after
// every round on the round's own context, before the simulation
// actuates anything. It records the first fault. With drop set it is
// also a mutant: it hides one change from every round's feed — the
// first running VM listed — which the oracle must catch.
type oracled struct {
	*core.Scheduler
	drop   bool
	rounds int
	fault  error
}

func (o *oracled) Schedule(ctx *policy.Context) []policy.Action {
	if o.drop && ctx.Feed != nil {
		for i, v := range ctx.Feed.VMs {
			if v.State == vm.Running {
				ctx.Feed.VMs = append(ctx.Feed.VMs[:i:i], ctx.Feed.VMs[i+1:]...)
				break
			}
		}
	}
	acts := o.Scheduler.Schedule(ctx)
	o.rounds++
	if err := core.KernelFault(o.Scheduler, ctx); err != nil && o.fault == nil {
		o.fault = fmt.Errorf("round %d at t=%.0f: %w", o.rounds, ctx.Now, err)
	}
	return acts
}

// feedRun is one simulation the oracle watches.
type feedRun struct {
	name        string
	classes     []cluster.Class // nil: the paper's 100 nodes
	days        float64
	jobsPerDay  float64 // 0: the calibrated volume
	failures    bool
	checkpoint  float64
	sla         bool
	needFailure bool // the run must see a node fail
}

// run simulates r under o and returns the number of node failures.
func (r feedRun) run(t *testing.T, o *oracled) int {
	t.Helper()
	gen := workload.DefaultGeneratorConfig()
	gen.Horizon = r.days * 24 * 3600
	if r.jobsPerDay > 0 {
		gen.JobsPerDay = r.jobsPerDay
	}
	sim, err := datacenter.New(datacenter.Config{
		Trace: workload.MustGenerate(gen), Classes: r.classes, Policy: o,
		LambdaMin: 30, LambdaMax: 90, Seed: 1,
		FailuresEnabled: r.failures, CheckpointInterval: r.checkpoint,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep.Failures
}

func (r feedRun) config() core.Config {
	cfg := core.SBConfig()
	cfg.EnableSLA = r.sla
	return cfg
}

var feedRuns = []feedRun{
	{name: "paper day", days: 1},
	{name: "paper day with SLA", days: 1, sla: true},
	{name: "dense 400", classes: cluster.ScaleClasses(400), days: 0.1, jobsPerDay: 3000},
	{name: "failures checkpoint 600", classes: flakyClasses(0.98), days: 1, failures: true, checkpoint: 600, needFailure: true},
}

// flakyClasses is the paper's fleet with every node at reliability
// rel: the scale fleets turn their flaky nodes on last, and rarely see
// a failure.
func flakyClasses(rel float64) []cluster.Class {
	classes := cluster.PaperClasses()
	for i := range classes {
		classes[i].Reliability = rel
	}
	return classes
}

// TestFeedOracleOnSimulations holds the kernel exact after every round
// of real simulations, where rounds consume the change feed: a paper
// day (with and without PSLA, whose stay term steps with time), a
// dense slice of the 400-node fleet, and a run with node failures
// (requeues, checkpoint restores) and checkpoint ticks.
func TestFeedOracleOnSimulations(t *testing.T) {
	for _, r := range feedRuns {
		t.Run(r.name, func(t *testing.T) {
			if testing.Short() && r.jobsPerDay > 0 {
				t.Skip("the dense slice in -short")
			}
			o := &oracled{Scheduler: core.MustScheduler(r.config())}
			failures := r.run(t, o)
			if o.fault != nil {
				t.Fatal(o.fault)
			}
			if r.needFailure && failures == 0 {
				t.Fatal("no node failed: the run does not exercise requeues")
			}
			t.Logf("%d rounds checked, %d failures", o.rounds, failures)
		})
	}
}

// TestFeedOracleDetectsDroppedEntry is the oracle's mutation test: a
// feed that misses a change leaves a row whose verdict or stamp no
// longer holds unvisited, and the oracle must report it, as it reports
// a scored field written around its setter.
func TestFeedOracleDetectsDroppedEntry(t *testing.T) {
	o := &oracled{Scheduler: core.MustScheduler(core.SBConfig()), drop: true}
	feedRuns[0].run(t, o)
	if o.fault == nil {
		t.Fatalf("the oracle passed %d rounds whose feeds each missed a running VM", o.rounds)
	}
	t.Log(o.fault)
}
