package datacenter

import (
	"runtime"
	"testing"

	"energysched/internal/cluster"
	"energysched/internal/core"
	"energysched/internal/workload"
)

// TestEventPathAllocsPerJob holds the event path — arrival timer, Xen
// allocator, scheduling round, actuation, completion timer — to its
// allocation budget: a fixed two-day trace on the paper's 100 nodes
// under SB, one warm-up run, then the heap objects of a whole second
// run (construction and buffer growth included) divided by its jobs.
// A closure per event, a boxed action per decision or a result slice
// per allocator call each cost more than the whole budget.
func TestEventPathAllocsPerJob(t *testing.T) {
	gcfg := workload.DefaultGeneratorConfig()
	gcfg.Horizon = 2 * 24 * 3600
	trace := workload.MustGenerate(gcfg)

	run := func() int {
		sim, err := New(Config{
			Classes: cluster.PaperClasses(),
			Trace:   trace,
			Policy:  core.MustScheduler(core.SBConfig()),
			Seed:    1,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.JobsCompleted != len(trace.Jobs) {
			t.Fatalf("completed %d of %d jobs", rep.JobsCompleted, len(trace.Jobs))
		}
		return rep.JobsCompleted
	}
	run()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	jobs := run()
	runtime.ReadMemStats(&after)

	perJob := float64(after.Mallocs-before.Mallocs) / float64(jobs)
	t.Logf("%d jobs, %.2f heap objects per job", jobs, perJob)
	if perJob > 4 {
		t.Fatalf("event path allocates %.2f objects per job, budget 4", perJob)
	}
}
