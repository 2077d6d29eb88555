package datacenter

import (
	"runtime"
	"testing"
	"unsafe"

	"energysched/internal/cluster"
	"energysched/internal/core"
	"energysched/internal/vm"
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
			Policy:  mustScheduler(core.SBConfig()),
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
	if perJob > 1.5 {
		t.Fatalf("event path allocates %.2f objects per job, budget 1.5", perJob)
	}
}

// TestNewAllocsIndependentOfFleetSize: building a simulation costs the
// same few objects on 100 nodes as on 2000, because the nodes, their
// meters and runtime records live in slabs, not in objects of their own.
func TestNewAllocsIndependentOfFleetSize(t *testing.T) {
	sb := mustScheduler(core.SBConfig())
	allocs := func(scale int) float64 {
		classes := cluster.PaperClasses()
		for i := range classes {
			classes[i].Count *= scale
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := New(Config{Classes: classes, Policy: sb, Seed: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1), allocs(20)
	t.Logf("New allocates %.0f objects on 100 nodes, %.0f on 2000", small, large)
	if large > small+3 {
		t.Fatalf("New allocates %.0f objects on 2000 nodes against %.0f on 100: construction scales with the fleet", large, small)
	}
}

// TestVMRecordsNeverMove runs enough jobs to fill several VM slab chunks
// and holds every record to the pointer Inject returned for it, and
// each chunk's records to one contiguous array in ID order: a slab
// grown by append would leave copies behind that nobody updates.
func TestVMRecordsNeverMove(t *testing.T) {
	sim, err := New(Config{Policy: mustScheduler(core.SBConfig()), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sim.Start()
	var injected []*vm.VM
	for i := range 3*vmChunk + 5 {
		v, err := sim.Inject(workload.Job{
			ID: i, Submit: float64(i) * 40, Duration: 1800, CPU: 100, Mem: 5, DeadlineFactor: 1.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		injected = append(injected, v)
		sim.StepBefore(float64(i) * 40)
	}
	rep := sim.Drain()
	if rep.JobsCompleted != len(injected) {
		t.Fatalf("completed %d of %d jobs", rep.JobsCompleted, len(injected))
	}
	vms := sim.VMs()
	if len(vms) != len(injected) {
		t.Fatalf("VMs() holds %d records, injected %d", len(vms), len(injected))
	}
	for i, v := range vms {
		if v.ID != i {
			t.Fatalf("VMs()[%d] has ID %d", i, v.ID)
		}
		if v != injected[i] {
			t.Fatalf("VM %d moved: Inject returned %p, VMs() holds %p", i, injected[i], v)
		}
		if i%vmChunk != 0 && uintptr(unsafe.Pointer(v))-uintptr(unsafe.Pointer(vms[i-1])) != unsafe.Sizeof(*v) {
			t.Fatalf("VMs %d and %d share a chunk but are not adjacent (%p, %p)", i-1, i, vms[i-1], v)
		}
		if v.State != vm.Completed || v.Finish < v.Submit {
			t.Fatalf("VM %d ended %s (finish %v): the record the run updated is not the one handed out", i, v.State, v.Finish)
		}
	}
}
