package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// The reference probe is fixed work whose duration tracks the speed the
// host is running at right now. Every timed repetition is bracketed by
// two probes and divided by their mean (see refFactor), which removes
// most of the host's drifting speed from the reported timings.
//
// The probe is a miniature of what the program under test does, written
// without any of its code: on every CPU at once, a binary-heap event
// loop whose handlers do float arithmetic over arrays that fit in L1/L2
// and allocate one short-lived heap object per event, so the garbage
// collector runs a few cycles inside every probe. Both choices were
// measured (README, "Reference correction"): on this two-vCPU host a
// single-threaded compute-only probe explained the slow-downs of a
// simulation whose collector was idle, but missed most of them once the
// collector's background workers — or the daemon's goroutines — needed
// the second vCPU. On workloads with a durable WAL the probe also
// appends and fsyncs small records in the WAL's directory, because
// there the flush is the device's time, not the CPU's.
const (
	probeHeap   = 4096   // heap and value array length
	probeRing   = 8192   // live window of allocated objects
	probeEvents = 300000 // heap pops per lane per probe
	probeSyncs  = 120    // write+fsync pairs of the durable part
	probeRecord = 200    // bytes per durable record, a WAL admission's size

	// refNominalMS and refNominalDurableMS are the probe's duration on
	// the box the bounds were measured on. They only fix the unit of
	// corrected times; changing them rescales every timing of every
	// commit alike.
	refNominalMS        = 60.0
	refNominalDurableMS = 75.0
)

// probeObj is the per-event allocation: the size of a small VM or timer
// record, with a pointer so the collector has something to trace.
type probeObj struct {
	next *probeObj
	v    [9]float64
}

// probeLane is one CPU's share of the probe.
type probeLane struct {
	keys   [probeHeap]float64
	vals   [probeHeap]float64
	ring   [probeRing]*probeObj
	anchor probeObj
	sink   float64
}

type refProbe struct {
	lanes  []*probeLane // one per CPU
	events int
	syncs  int

	file *os.File // nil: compute only
	rec  [probeRecord]byte
}

// newRefProbe returns a compute probe; with durableDir non-empty the
// probe also writes and fsyncs in that directory. shrink divides the
// probe's work; every measuring run uses 1.
func newRefProbe(durableDir string, shrink int) (*refProbe, error) {
	p := &refProbe{events: probeEvents / shrink, syncs: probeSyncs / shrink}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		p.lanes = append(p.lanes, &probeLane{})
	}
	if durableDir != "" {
		f, err := os.Create(filepath.Join(durableDir, "refprobe.dat"))
		if err != nil {
			return nil, fmt.Errorf("reference probe: %w", err)
		}
		p.file = f
	}
	return p, nil
}

func (p *refProbe) nominalMS() float64 {
	if p.file != nil {
		return refNominalDurableMS
	}
	return refNominalMS
}

func (p *refProbe) close() error {
	if p.file == nil {
		return nil
	}
	name := p.file.Name()
	err := p.file.Close()
	if rerr := os.Remove(name); err == nil {
		err = rerr
	}
	return err
}

// run executes one probe and returns its duration in milliseconds.
func (p *refProbe) run() (float64, error) {
	start := time.Now()
	var wg sync.WaitGroup
	for _, lane := range p.lanes {
		wg.Add(1)
		go func(lane *probeLane) {
			defer wg.Done()
			lane.compute(p.events)
		}(lane)
	}
	wg.Wait()
	if p.file != nil {
		if err := p.file.Truncate(0); err != nil {
			return 0, fmt.Errorf("reference probe: %w", err)
		}
		if _, err := p.file.Seek(0, 0); err != nil {
			return 0, fmt.Errorf("reference probe: %w", err)
		}
		for i := 0; i < p.syncs; i++ {
			p.rec[0] = byte(i)
			if _, err := p.file.Write(p.rec[:]); err != nil {
				return 0, fmt.Errorf("reference probe: %w", err)
			}
			if err := p.file.Sync(); err != nil {
				return 0, fmt.Errorf("reference probe: %w", err)
			}
		}
	}
	return float64(time.Since(start)) / float64(time.Millisecond), nil
}

// compute runs the event loop: pop the earliest key, run its handler
// (a few float operations on the value array and one allocation kept
// alive for probeRing events), push the follow-up.
func (l *probeLane) compute(events int) {
	keys, vals := &l.keys, &l.vals
	for i := range keys {
		// Already a valid min-heap: keys ascend with the index.
		keys[i] = float64(i)
		vals[i] = 1 + float64(i%7)*0.125
	}
	acc := 0.0
	for n := 0; n < events; n++ {
		now := keys[0]
		slot := n & (probeHeap - 1)
		v := vals[slot]*0.999 + now*1e-9
		vals[slot] = v
		acc += v
		// Every object points at the one anchor, never at another ring
		// entry: an evicted object must keep nothing alive, or the live
		// set would grow with the probe instead of staying probeRing.
		o := &probeObj{next: &l.anchor}
		o.v[0] = v
		l.ring[n&(probeRing-1)] = o
		// Replace the root with the follow-up event and sift it down.
		next := now + 1 + v*float64(1+n%5)
		i := 0
		for {
			c := 2*i + 1
			if c >= probeHeap {
				break
			}
			if r := c + 1; r < probeHeap && keys[r] < keys[c] {
				c = r
			}
			if keys[c] >= next {
				break
			}
			keys[i] = keys[c]
			i = c
		}
		keys[i] = next
	}
	l.sink = acc
	// Drop the window so the harness keeps no live heap between probes:
	// a larger live heap would make the program's own collections rarer
	// than they are outside the benchmark.
	clear(l.ring[:])
}
