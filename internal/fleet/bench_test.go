package fleet

import (
	"runtime"
	"testing"

	"energysched"
	"energysched/internal/obs/series"
)

// BenchmarkAdmitRouter measures admission through the router: each
// iteration pushes a fixed burst of jobs through a fresh fleet's
// bounded queue into the event loop's admission turns (WAL off,
// in-memory sim). The burst is queued while the event loop is held, so
// the loop merges it into full turns of maxMergeTurn requests in ingest
// order, and the turns — and with them the allocations — are the same
// on every run. It runs on one P, after one unmeasured burst: on
// several Ps, or cold, the runtime's per-P caches of channel waiters
// run dry at moments that vary from run to run, and each refill from
// the heap counts as an allocation.
func BenchmarkAdmitRouter(b *testing.B) {
	const burst = 1024
	procs := runtime.GOMAXPROCS(1)
	defer func() {
		b.StopTimer()
		runtime.GOMAXPROCS(procs)
	}()
	specs := make([]energysched.JobSpec, burst)
	for j := range specs {
		specs[j] = energysched.JobSpec{CPU: 100 + float64(j%3)*100, Mem: 5, Duration: 600}
	}
	reqs := make([]*admitRequest, burst)
	run := func() {
		f, err := Open("bench", Config{Sched: Sched{Policy: "SB", Seed: 1}, AdmitQueue: burst})
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		var qerr error
		if err := f.do(func() {
			for j := range reqs {
				if reqs[j], qerr = f.router.enqueue(specs[j : j+1]); qerr != nil {
					return
				}
			}
		}); err != nil || qerr != nil {
			b.Fatal(err, qerr)
		}
		for _, req := range reqs {
			if _, err := f.router.wait(req); err != nil {
				b.Fatal(err)
			}
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(burst, "jobs/iter")
}

// BenchmarkServedFleetLife measures a served fleet's whole life, as
// TestServedJobAllocsPerJob counts it: Open, the two-day trace
// submitted job by job, Drain and Close. Its B/op is every byte the
// fleet's long-lived storage allocates, so storage copied as it grows
// shows there.
func BenchmarkServedFleetLife(b *testing.B) {
	trace := servedTrace()
	b.ReportAllocs()
	for b.Loop() {
		serveFleetLife(b, trace)
	}
	b.ReportMetric(float64(len(trace.Jobs)), "jobs/iter")
}

// BenchmarkFleetTickSample measures the accounting side channel of one
// housekeeping tick on a fleet that has been running: SampleAt into the
// reused class buffer, then Store.Add on a full series ring. Both sides
// own their storage by then, so it runs at 0 allocs/op.
func BenchmarkFleetTickSample(b *testing.B) {
	f, err := Open("bench", Config{Sched: Sched{Policy: "SB", Seed: 1}})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 64; i++ {
		if _, err := f.Submit(energysched.JobSpec{CPU: 100 + float64(i%3)*100, Mem: 5, Duration: 3600}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	err = f.do(func() { // the simulation and the store's writer live on the event loop
		var buf []series.ClassSample
		tick := func() {
			smp := f.sim.SampleAt(f.sim.Now(), buf)
			buf = smp.Classes
			f.series.Add(smp)
		}
		for f.series.Count() <= uint64(f.series.Len()) { // until the ring wraps
			tick()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tick()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
