package main

import (
	"runtime"
	"syscall"
	"time"
)

// timing is one measured call: raw durations, the reference factor that
// corrects them, and what the Go heap did meanwhile.
type timing struct {
	wall, cpu time.Duration
	factor    float64 // multiply a raw time by this
	probeMS   float64 // mean of the two bracketing probes
	allocB    uint64  // heap bytes allocated
	mallocs   uint64  // heap objects allocated
	gcCycles  uint32
	gcPause   time.Duration
	heapSysB  uint64 // heap obtained from the OS so far (a high-water mark)
}

// measurer times calls between reference probes. Consecutive calls
// share the probe between them, so n repetitions cost n+1 probes.
type measurer struct {
	probe   *refProbe
	lastMS  float64   // duration of the most recent probe
	lastEnd time.Time // when it ended
}

// probeShareWindow is how old the previous probe may be and still count
// as this call's "before" probe: untimed work between two repetitions
// (deleting and creating a fleet) fits, an idle gap does not.
const probeShareWindow = 250 * time.Millisecond

func (m *measurer) runProbe() error {
	ms, err := m.probe.run()
	if err != nil {
		return err
	}
	m.lastMS, m.lastEnd = ms, time.Now()
	return nil
}

// timed runs fn between two probes, after a forced collection so every
// call starts from the same heap.
func (m *measurer) timed(fn func() error) (timing, error) {
	if m.lastEnd.IsZero() || time.Since(m.lastEnd) > probeShareWindow {
		if err := m.runProbe(); err != nil {
			return timing{}, err
		}
	}
	before := m.lastMS
	runtime.GC()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	start := time.Now()
	err := fn()
	wall := time.Since(start)
	cpu := processCPU() - cpu0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return timing{}, err
	}

	if err := m.runProbe(); err != nil {
		return timing{}, err
	}
	return timing{
		wall: wall, cpu: cpu,
		factor:   refFactor(before, m.lastMS, m.probe.nominalMS()),
		probeMS:  (before + m.lastMS) / 2,
		allocB:   m1.TotalAlloc - m0.TotalAlloc,
		mallocs:  m1.Mallocs - m0.Mallocs,
		gcCycles: m1.NumGC - m0.NumGC,
		gcPause:  time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
		heapSysB: m1.HeapSys,
	}, nil
}

// processCPU is the process's user+system CPU time so far: every
// thread, so the collector's workers and the in-process client count.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
