// Package chaos is the scale/fault harness: seeded, fully
// deterministic schedules of node crashes and flapping, clock-pace
// jitter for the online driver, and scripted WAL faults — all aimed
// at re-proving the repo's byte-identity oracles (serial vs jittered
// admission, traced vs untraced, kill/recover vs uninterrupted) at
// 10k-node / multi-day / faults-mid-round scale instead of toy sizes.
//
// Everything here is driven from inside the simulation engine: crash
// events are ordinary simkit timers, so a chaos run interleaves
// faults with arrivals, completions and rounds in one deterministic
// event order. Same seed, same schedule, same bytes.
package chaos

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"energysched/internal/datacenter"
	"energysched/internal/metrics"
	"energysched/internal/simkit"
	"energysched/internal/workload"
)

// Crash is one scheduled node failure at an absolute virtual time.
// Targets resolve at fire time: Rank selects the Rank-th (mod count)
// currently-On node in ascending ID order, because at fleet scale
// almost every node is powered off and a uniformly drawn physical ID
// would nearly always be a no-op. Crashes sharing a non-zero Flap ID
// are one flapping node: the group's later fires target the physical
// node its first fire hit (which, freshly repaired, may well be off
// again — exactly the organic no-op semantics).
type Crash struct {
	Time float64
	Rank int
	Flap int
}

// Plan is a deterministic fault schedule, sorted by time.
type Plan struct {
	Crashes []Crash
}

// PlanConfig parameterizes NewPlan.
type PlanConfig struct {
	// Seed drives the schedule's random draws (stream "chaos").
	Seed int64
	// Horizon is the trace length in seconds; crashes land in the
	// middle 10–90% of it so they hit a loaded system.
	Horizon float64
	// Nodes is the fleet size crash targets are drawn from.
	Nodes int
}

// The size of every fault plan.
const (
	// Crashes is the number of independent one-shot node crashes.
	Crashes = 3
	// Flaps is the number of flapping nodes: each crashes three times,
	// spaced 1.5–2.5 mttr apart, so every crash hits a node that has
	// already been repaired and reintegrated.
	Flaps = 1
	// mttr is the repair time of a crashed node, in seconds; a
	// scenario's simulation is configured with the same.
	mttr float64 = 1800
)

// NewPlan draws a deterministic fault schedule: the same config
// always yields the same crashes.
func NewPlan(cfg PlanConfig) Plan {
	s := simkit.NewStream(cfg.Seed, "chaos")
	var p Plan
	for i := 0; i < Crashes; i++ {
		p.Crashes = append(p.Crashes, Crash{
			Time: cfg.Horizon * s.Uniform(0.1, 0.9),
			Rank: int(s.Float64() * float64(cfg.Nodes)),
		})
	}
	for i := 0; i < Flaps; i++ {
		t := cfg.Horizon * s.Uniform(0.1, 0.5)
		rank := int(s.Float64() * float64(cfg.Nodes))
		for k := 0; k < 3; k++ {
			p.Crashes = append(p.Crashes, Crash{Time: t, Rank: rank, Flap: i + 1})
			t += mttr * s.Uniform(1.5, 2.5)
		}
	}
	sort.Slice(p.Crashes, func(i, j int) bool {
		if p.Crashes[i].Time != p.Crashes[j].Time {
			return p.Crashes[i].Time < p.Crashes[j].Time
		}
		return p.Crashes[i].Rank < p.Crashes[j].Rank
	})
	return p
}

// Arm schedules every crash as an engine timer on sim. Call once,
// before driving the simulation; the crashes then interleave with the
// workload in deterministic event order. Target resolution (see
// Crash) runs inside the engine against the instant's power states,
// so it is as deterministic as the events themselves.
func (p Plan) Arm(sim *datacenter.Simulation) {
	flapTarget := map[int]int{}
	for _, c := range p.Crashes {
		c := c
		sim.Engine().At(c.Time, func() {
			if c.Flap != 0 {
				if id, ok := flapTarget[c.Flap]; ok {
					sim.CrashNode(id)
					return
				}
			}
			if id := crashOnline(sim, c.Rank); id >= 0 && c.Flap != 0 {
				flapTarget[c.Flap] = id
			}
		})
	}
}

// crashOnline crashes the rank-th (mod count) currently-On node in
// ascending ID order, returning its ID, or -1 when no node is On.
func crashOnline(sim *datacenter.Simulation, rank int) int {
	on := sim.Cluster().OnlineNodes()
	if len(on) == 0 {
		return -1
	}
	id := on[rank%len(on)].ID
	sim.CrashNode(id)
	return id
}

// DriveSource streams a workload into sim and drains it. With a nil
// jitter it is sim.RunSource, the smooth drive. With a jitter stream
// it is the oracle for that drive: instead of stepping straight to
// each job's submit time, the watermark advances in a seeded sequence
// of partial steps (clock-pace jitter). StepBefore fires events
// strictly before the target either way, so the final report must be
// byte-identical to the smooth drive — any divergence means hidden
// state leaks through the pacing of observation points.
func DriveSource(sim *datacenter.Simulation, src workload.JobSource, jitter *simkit.Stream) (metrics.Report, error) {
	if jitter == nil {
		return sim.RunSource(src)
	}
	sim.Start()
	count := 0
	var wm float64
	for {
		j, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return metrics.Report{}, err
		}
		if _, err := sim.Inject(j); err != nil {
			return metrics.Report{}, err
		}
		count++
		for target := j.Submit; wm < target; {
			wm += (target - wm) * jitter.Uniform(0.3, 1.0)
			if target-wm < 1e-9 {
				wm = target
			}
			sim.StepBefore(wm)
		}
	}
	if count == 0 {
		return metrics.Report{}, fmt.Errorf("chaos: workload source yielded no jobs")
	}
	return sim.Drain(), nil
}

// FaultScript builds deterministic fault hooks for the fleet WAL
// (fleet.Config.WALFault): each registered step fires exactly once,
// after skipping a given number of matching calls. The mutex makes
// the hook safe to consult from a fleet's event loop while the test
// goroutine registers no further steps.
type FaultScript struct {
	mu    sync.Mutex
	steps []faultStep
}

type faultStep struct {
	op    string
	skip  int
	err   error
	fired bool
}

// FailOnce arranges for the skip-th+1 call with this op to fail with
// err. Steps for the same op fire in registration order.
func (fs *FaultScript) FailOnce(op string, skip int, err error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.steps = append(fs.steps, faultStep{op: op, skip: skip, err: err})
}

// Fired reports how many steps have fired so far.
func (fs *FaultScript) Fired() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n := 0
	for _, st := range fs.steps {
		if st.fired {
			n++
		}
	}
	return n
}

// Hook returns the function to install as fleet.Config.WALFault.
func (fs *FaultScript) Hook() func(op string) error {
	return func(op string) error {
		fs.mu.Lock()
		defer fs.mu.Unlock()
		for i := range fs.steps {
			st := &fs.steps[i]
			if st.fired || st.op != op {
				continue
			}
			if st.skip > 0 {
				st.skip--
				return nil
			}
			st.fired = true
			return st.err
		}
		return nil
	}
}
