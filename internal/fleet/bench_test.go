package fleet

import (
	"sync"
	"testing"

	"energysched"
	"energysched/internal/obs/series"
)

// BenchmarkAdmitRouter measures concurrent admission throughput
// through the router: each iteration pushes a fixed burst of jobs from
// 8 submitters through a fresh fleet's bounded queue into the event
// loop's admission turns (WAL off, in-memory sim).
func BenchmarkAdmitRouter(b *testing.B) {
	const submitters, perSubmitter = 8, 128
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := Open("bench", Config{Sched: Sched{Policy: "SB", Seed: 1}})
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for j := 0; j < perSubmitter; j++ {
					if _, err := f.Submit(energysched.JobSpec{
						CPU: 100 + float64((g+j)%3)*100, Mem: 5, Duration: 600,
					}); err != nil {
						b.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		f.Close()
	}
	b.ReportMetric(float64(submitters*perSubmitter), "jobs/iter")
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
