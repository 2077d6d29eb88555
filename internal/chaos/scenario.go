package chaos

import (
	"fmt"

	"energysched/internal/cluster"
	"energysched/internal/core"
	"energysched/internal/datacenter"
	"energysched/internal/metrics"
	"energysched/internal/obs"
	"energysched/internal/obs/series"
	"energysched/internal/power"
	"energysched/internal/simkit"
	"energysched/internal/workload"
)

// HeterogeneousClasses builds a mixed fleet of total nodes across
// four hardware classes — the paper's evaluation is 100 homogeneous-
// capacity machines, so scale scenarios deliberately mix capacities
// and costs instead:
//
//	big    10%  8 cores, 200 mem, fast ops        — consolidation magnets
//	std    60%  4 cores, 100 mem, paper medium    — the bulk
//	small  20%  2 cores,  50 mem, slow ops        — fragmentation pressure
//	flaky  10%  4 cores, 100 mem, Frel 0.95       — organic failures when enabled
//
// All x86_64/xen with the Table I power model, so every job can land
// anywhere and differences come from capacity, costs and reliability.
func HeterogeneousClasses(total int) []cluster.Class {
	if total < 10 {
		total = 10
	}
	big, small, flaky := total/10, total/5, total/10
	std := total - big - small - flaky
	mk := func(name string, count int, cpu, mem, cc, cm, rel float64) cluster.Class {
		return cluster.Class{
			Name: name, Count: count,
			CPU: cpu, Mem: mem,
			CreateCost: cc, MigrateCost: cm,
			BootTime:    100,
			Arch:        "x86_64",
			Hypervisor:  "xen",
			Reliability: rel,
			Power:       power.PaperTableI(),
		}
	}
	return []cluster.Class{
		mk("big", big, 800, 200, 30, 40, 1.0),
		mk("std", std, 400, 100, 40, 60, 1.0),
		mk("small", small, 200, 50, 60, 80, 1.0),
		mk("flaky", flaky, 400, 100, 40, 60, 0.95),
	}
}

// Scenario is one reproducible scale/chaos run: a heterogeneous fleet
// of Nodes, a streaming synthetic trace of Days × JobsPerDay, a
// seeded fault plan, and the λ thresholds. Every field is part of the
// seed: two equal Scenarios produce byte-identical reports.
type Scenario struct {
	Name string
	// Nodes is the heterogeneous fleet size.
	Nodes int
	// Days is the trace horizon (multi-day is the point).
	Days float64
	// JobsPerDay is the synthetic arrival rate.
	JobsPerDay float64
	// Seed drives the trace, the engine and the fault plan.
	Seed int64
	// LambdaMin, LambdaMax are the power-manager thresholds (0,0 =
	// paper defaults 30/90 via datacenter).
	LambdaMin, LambdaMax float64
	// TickSeconds is the housekeeping tick (0 = datacenter default
	// 60 s; scale runs use a coarser tick).
	TickSeconds float64
	// MTTR is the repair time for injected crashes (0 = default 1800).
	MTTR float64
	// Crashes, Flaps parameterize the fault plan (see PlanConfig).
	Crashes, Flaps int
}

// Scenario10k is the canonical acceptance scenario: 10 000
// heterogeneous nodes, a two-day streaming trace, one-shot crashes
// plus a flapping node, coarse ticks so the run stays CI-sized.
func Scenario10k() Scenario {
	return Scenario{
		Name:        "10k-2day",
		Nodes:       10_000,
		Days:        2,
		JobsPerDay:  400,
		Seed:        7,
		TickSeconds: 600,
		MTTR:        1800,
		Crashes:     3,
		Flaps:       1,
	}
}

// Horizon returns the trace horizon in seconds.
func (s Scenario) Horizon() float64 { return s.Days * 24 * 3600 }

// GeneratorConfig returns the streaming trace config for the
// scenario.
func (s Scenario) GeneratorConfig() workload.GeneratorConfig {
	cfg := workload.DefaultGeneratorConfig()
	cfg.Seed = s.Seed
	cfg.Horizon = s.Horizon()
	cfg.JobsPerDay = s.JobsPerDay
	return cfg
}

// Plan returns the scenario's fault schedule.
func (s Scenario) Plan() Plan {
	mttr := s.MTTR
	if mttr == 0 {
		mttr = 1800
	}
	return NewPlan(PlanConfig{
		Seed:    s.Seed,
		Horizon: s.Horizon(),
		Nodes:   s.Nodes,
		Crashes: s.Crashes,
		Flaps:   s.Flaps,
		MTTR:    mttr,
	})
}

// Sim builds the scenario's simulation with the score-based scheduler.
func (s Scenario) Sim() (*datacenter.Simulation, error) {
	return s.sim(nil)
}

func (s Scenario) sim(sink obs.TraceSink) (*datacenter.Simulation, error) {
	if s.Nodes <= 0 || s.Days <= 0 {
		return nil, fmt.Errorf("chaos: scenario %q needs nodes and days", s.Name)
	}
	pol, err := core.NewScheduler(core.SBConfig())
	if err != nil {
		return nil, err
	}
	pol.Tracer = sink
	return datacenter.New(datacenter.Config{
		Classes:      HeterogeneousClasses(s.Nodes),
		Policy:       pol,
		LambdaMin:    s.LambdaMin,
		LambdaMax:    s.LambdaMax,
		Seed:         s.Seed,
		TickInterval: s.TickSeconds,
		MTTR:         s.MTTR,
	})
}

// Run executes the scenario: build the sim, arm the fault plan, and
// drive the streaming trace — with a seeded jittered admission clock
// when jittered is set. Reports are byte-identical across jitter
// settings; that identity is the harness's oracle, not an
// implementation accident.
func (s Scenario) Run(jittered bool) (metrics.Report, error) {
	return s.RunWithTrace(jittered, nil)
}

// RunWithTrace is Run with a decision-trace sink installed on the
// solver. Tracing is a write-only side channel, so the report must be
// byte-identical to the untraced run at any verbosity — the scale
// suite asserts exactly that with the sink at TraceScores.
func (s Scenario) RunWithTrace(jittered bool, sink obs.TraceSink) (metrics.Report, error) {
	return s.RunWithObservers(jittered, sink, nil)
}

// RunWithObservers is Run with every observability collector armed:
// the decision-trace sink on the solver, the tick-boundary accounting
// sampler, and per-job energy attribution. All three are write-only
// side channels, so the report must stay byte-identical to the bare
// run — the scale suite asserts exactly that at maximum verbosity.
func (s Scenario) RunWithObservers(jittered bool, sink obs.TraceSink, sampler func(series.Sample)) (metrics.Report, error) {
	sim, err := s.sim(sink)
	if err != nil {
		return metrics.Report{}, err
	}
	if sampler != nil {
		sim.Sampler = sampler
		sim.AttributeEnergy = true
	}
	s.Plan().Arm(sim)
	src, err := workload.NewGeneratorSource(s.GeneratorConfig())
	if err != nil {
		return metrics.Report{}, err
	}
	var jit *simkit.Stream
	if jittered {
		jit = simkit.NewStream(s.Seed, "chaos-jitter")
	}
	return DriveSource(sim, src, jit)
}
