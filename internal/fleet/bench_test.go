package fleet

import (
	"sync"
	"testing"

	"energysched"
)

// BenchmarkAdmitRouter measures concurrent admission throughput
// through the router: each iteration pushes a fixed burst of jobs from
// 8 submitters through a fresh fleet's bounded queue into the event
// loop's admission turns (WAL off, in-memory sim).
func BenchmarkAdmitRouter(b *testing.B) {
	const submitters, perSubmitter = 8, 128
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := Open("bench", Config{Policy: "SB", Seed: 1})
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
