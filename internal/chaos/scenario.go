package chaos

import (
	"fmt"

	"energysched/internal/cluster"
	"energysched/internal/core"
	"energysched/internal/datacenter"
	"energysched/internal/metrics"
	"energysched/internal/obs"
	"energysched/internal/obs/series"
	"energysched/internal/simkit"
	"energysched/internal/workload"
)

// Scenario is one reproducible scale/chaos run: a heterogeneous fleet
// of Nodes, a streaming synthetic trace of Days × scenarioJobsPerDay
// and a seeded fault plan of Crashes one-shot crashes and Flaps
// flapping nodes, under the paper's default λ thresholds. Every field
// is part of the seed: two equal Scenarios produce byte-identical
// reports.
type Scenario struct {
	Name string
	// Nodes is the heterogeneous fleet size.
	Nodes int
	// Days is the trace horizon (multi-day is the point).
	Days float64
	// Seed drives the trace, the engine and the fault plan.
	Seed int64
}

// The fixed shape of every scenario.
const (
	// scenarioJobsPerDay is the synthetic arrival rate.
	scenarioJobsPerDay float64 = 400
	// scenarioTick is the housekeeping tick: scale runs use a coarser
	// tick than the datacenter's 60 s.
	scenarioTick float64 = 600
)

// Scenario10k is the canonical acceptance scenario: 10 000
// heterogeneous nodes, a two-day streaming trace, one-shot crashes
// plus a flapping node, coarse ticks so the run stays CI-sized.
func Scenario10k() Scenario {
	return Scenario{
		Name:  "10k-2day",
		Nodes: 10_000,
		Days:  2,
		Seed:  7,
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
	cfg.JobsPerDay = scenarioJobsPerDay
	return cfg
}

// Plan returns the scenario's fault schedule.
func (s Scenario) Plan() Plan {
	return NewPlan(PlanConfig{
		Seed:    s.Seed,
		Horizon: s.Horizon(),
		Nodes:   s.Nodes,
	})
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
		Classes:      cluster.ScaleClasses(s.Nodes),
		Policy:       pol,
		Seed:         s.Seed,
		TickInterval: scenarioTick,
		MTTR:         mttr,
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
