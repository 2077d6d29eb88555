package fleet

import (
	"runtime"
	"testing"

	"energysched"
	"energysched/internal/obs"
	"energysched/internal/workload"
)

// TestServedJobAllocsPerJob holds a served job — admission through
// Submit, the simulation's event path, and the always-on side channels
// (the accounting series, the journey store, the trace sink) — to its
// allocation budget: a fixed two-day trace submitted job by job to an
// in-memory fleet, one warm-up fleet, then the heap objects and bytes
// of a whole second fleet's life (Open to Close) divided by its jobs. A
// sample cloned per tick, a journey record allocated per job or a
// round's actions copied for a sink that drops them each cost more
// objects than the margin left under the budget; storage that lives as
// long as the fleet copied as it grows costs more bytes.
func TestServedJobAllocsPerJob(t *testing.T) {
	trace := servedTrace()
	serveFleetLife(t, trace)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	jobs := serveFleetLife(t, trace)
	runtime.ReadMemStats(&after)

	perJob := float64(after.Mallocs-before.Mallocs) / float64(jobs)
	bytesPerJob := float64(after.TotalAlloc-before.TotalAlloc) / float64(jobs)
	t.Logf("%d jobs, %.2f heap objects and %.0f bytes per served job", jobs, perJob, bytesPerJob)
	if perJob > servedJobAllocBudget {
		t.Fatalf("a served job allocates %.2f objects, budget %v", perJob, servedJobAllocBudget)
	}
	if bytesPerJob > servedJobByteBudget {
		t.Fatalf("a served job allocates %.0f bytes, budget %v", bytesPerJob, servedJobByteBudget)
	}
}

// servedJobAllocBudget sits between this workload's reading before
// admission requests, loop calls and the journey why-scores came from
// storage that is reused or carved in blocks (9.4) and after (2.2).
// Before the side channels recorded into storage they own it read 17.9.
const servedJobAllocBudget = 6

// servedJobByteBudget sits between this workload's reading while the
// event rings and the admission log were copied as they grew (5652)
// and since they grow in blocks (4049).
const servedJobByteBudget = 4800

// servedTrace is the two-day trace a served fleet's life admits.
func servedTrace() *workload.Trace {
	gcfg := workload.DefaultGeneratorConfig()
	gcfg.Horizon = 2 * 24 * 3600
	return workload.MustGenerate(gcfg)
}

// serveFleetLife opens an in-memory fleet, submits the trace to it job
// by job, drains it and closes it, and returns the jobs it completed.
func serveFleetLife(tb testing.TB, trace *workload.Trace) int {
	f, err := Open("allocs", Config{Sched: Sched{Policy: "SB", Seed: 1}})
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	for _, j := range trace.Jobs {
		submit := j.Submit
		if _, err := f.Submit(energysched.JobSpec{
			Name: j.Name, CPU: j.CPU, Mem: j.Mem, Duration: j.Duration, Submit: &submit,
			DeadlineFactor: j.DeadlineFactor, FaultTolerance: j.FaultTolerance,
		}); err != nil {
			tb.Fatal(err)
		}
	}
	rep, err := f.Drain()
	if err != nil {
		tb.Fatal(err)
	}
	if rep.JobsCompleted != len(trace.Jobs) || f.SeriesCount() == 0 || f.Journeys().Seq() == 0 {
		tb.Fatalf("completed %d of %d jobs, %d samples, %d journey steps",
			rep.JobsCompleted, len(trace.Jobs), f.SeriesCount(), f.Journeys().Seq())
	}
	return rep.JobsCompleted
}

// The fleet's trace sink borrows each round's actions: at -trace off
// and rounds it stages them for the journey store, in a buffer it
// reuses, and copies nothing else — an acting round costs it no
// allocation.
func TestFleetTraceSinkDoesNotAllocate(t *testing.T) {
	f, err := Open("quiet", Config{Sched: Sched{Policy: "SB", Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sink := &fleetTraceSink{f: f, ring: f.trace}
	rt := obs.RoundTrace{Round: 1, Solver: "incremental", Moves: 2, Actions: []obs.ActionTrace{
		{Kind: "place", VM: 1, From: -1, To: 2}, {Kind: "migrate", VM: 0, From: 2, To: 3},
	}}
	for _, v := range []obs.Verbosity{obs.TraceOff, obs.TraceRounds} {
		f.trace.SetVerbosity(v)
		sink.Emit(rt) // the staging buffer grows once
		if n := testing.AllocsPerRun(100, func() { sink.Emit(rt) }); n != 0 {
			t.Fatalf("the fleet trace sink at %v allocates %.0f objects per acting round, want 0", v, n)
		}
	}
}
