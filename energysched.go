// Package energysched is an energy-aware VM scheduling framework for
// virtualized datacenters, reproducing Goiri et al., "Energy-aware
// Scheduling in Virtualized Datacenters" (IEEE CLUSTER 2010).
//
// It bundles a power-aware discrete-event datacenter simulator, the
// paper's score-based consolidation scheduler, the baseline policies
// it is evaluated against (Random, Round-Robin, Backfilling, Dynamic
// Backfilling), a Grid5000-like workload generator plus GWF/SWF trace
// readers, and the λmin/λmax node power manager.
//
// Minimal use:
//
//	trace := energysched.GenerateTrace(energysched.TraceOptions{Days: 1, Seed: 7})
//	res, err := energysched.Run(energysched.Options{
//		Policy: "SB",
//		Trace:  trace,
//	})
//	fmt.Println(res)
package energysched

import (
	"fmt"
	"io"

	"energysched/internal/cluster"
	"energysched/internal/core"
	"energysched/internal/datacenter"
	"energysched/internal/metrics"
	"energysched/internal/policy"
	"energysched/internal/workload"
)

// Trace is a workload trace: a sequence of HPC jobs with submission
// times, resource requirements and SLA deadlines.
type Trace = workload.Trace

// Event is one structured simulation event (see Options.EventLog).
type Event = datacenter.Event

// Job is one HPC job of a trace.
type Job = workload.Job

// TraceOptions parameterizes GenerateTrace.
type TraceOptions struct {
	// Days is the trace length (default 7, the paper's Grid week).
	Days float64
	// Seed makes generation deterministic (default 1).
	Seed int64
	// JobsPerDay overrides the calibrated arrival volume (0 = default).
	JobsPerDay float64
}

func (opts TraceOptions) generatorConfig() workload.GeneratorConfig {
	cfg := workload.DefaultGeneratorConfig()
	if opts.Days > 0 {
		cfg.Horizon = opts.Days * 24 * 3600
	}
	if opts.Seed != 0 {
		cfg.Seed = opts.Seed
	}
	if opts.JobsPerDay > 0 {
		cfg.JobsPerDay = opts.JobsPerDay
	}
	return cfg
}

// GenerateTrace produces a synthetic Grid5000-like trace calibrated
// to the aggregate statistics of the week the paper evaluates on: the
// jobs of GenerateTraceSource, collected.
func GenerateTrace(opts TraceOptions) *Trace {
	return workload.MustGenerate(opts.generatorConfig())
}

// JobSource is a workload as the simulator ingests it: jobs yielded
// one at a time in submit order, so week-long traces feed a simulation
// in O(1) memory. A Trace is a source read to its end.
type JobSource = workload.JobSource

// GenerateTraceSource streams the synthetic Grid5000-like trace
// without materializing it.
func GenerateTraceSource(opts TraceOptions) (JobSource, error) {
	return workload.NewGeneratorSource(opts.generatorConfig())
}

// StreamTraceCSV streams a native CSV trace incrementally (rows must
// be submit-sorted); ReadTraceCSV collects it.
func StreamTraceCSV(r io.Reader) (JobSource, error) { return workload.NewCSVSource(r) }

// StreamTraceGWF streams a Grid Workloads Format trace incrementally
// with default conversion (rows must be submit-sorted); ReadTraceGWF
// collects it.
func StreamTraceGWF(r io.Reader) (JobSource, error) {
	return workload.NewGWFSource(r, workload.ConvertOptions{})
}

// ReadTraceCSV parses the native CSV trace format (see WriteTraceCSV).
func ReadTraceCSV(r io.Reader) (*Trace, error) { return workload.ReadCSV(r) }

// WriteTraceCSV serializes a trace as CSV.
func WriteTraceCSV(w io.Writer, t *Trace) error { return workload.WriteCSV(w, t) }

// ReadTraceGWF parses a Grid Workloads Format trace (the archive
// format of the paper's Grid5000 input) with default conversion.
func ReadTraceGWF(r io.Reader) (*Trace, error) {
	return workload.ReadGWF(r, workload.ConvertOptions{})
}

// ScoreParams exposes the tunable costs of the score-based policy.
type ScoreParams struct {
	// Cempty (Ce) penalizes emptiable hosts; Cfill (Cf) rewards
	// occupied ones. The paper's defaults are 20 and 40.
	Cempty, Cfill float64
	// THempty is the "emptiable" VM-count threshold (default 1).
	THempty int
}

// Options configures one simulation run.
type Options struct {
	// Policy selects the scheduler: "RD", "RR", "BF", "DBF", "SB0",
	// "SB1", "SB2" or "SB" (default "SB").
	Policy string
	// Trace is the workload (required).
	Trace *Trace
	// LambdaMin, LambdaMax are the power-manager thresholds in
	// percent (defaults 30 and 90, the paper's balanced setting).
	LambdaMin, LambdaMax float64
	// Seed drives all stochastic components (default 1).
	Seed int64
	// Score overrides the consolidation costs (nil = paper values).
	Score *ScoreParams
	// Failures enables reliability-driven node crashes; nodes get
	// the reliability factors configured in the cluster classes.
	Failures bool
	// CheckpointSeconds > 0 checkpoints running VMs periodically so
	// failed VMs recover instead of restarting.
	CheckpointSeconds float64
	// AdaptiveTarget > 0 enables dynamic λmin adjustment holding mean
	// client satisfaction at this percentage (the paper's future-work
	// dynamic thresholds).
	AdaptiveTarget float64
	// EventLog, when non-nil, receives every simulation event as it
	// happens (arrivals, placements, migrations, boots, failures).
	EventLog func(Event)
	// RoundTimer, when non-nil, receives the wall-clock duration (in
	// seconds) of every policy scheduling round — the latency-histogram
	// hook. Pure observability: it sees wall time only and cannot
	// perturb the deterministic simulation.
	RoundTimer func(seconds float64)
	// JobsCSV, when non-nil, receives a per-job outcome table after
	// the run (one row per VM).
	JobsCSV io.Writer
	// PowerTrace, when non-nil, receives (virtual time, total watts)
	// samples at every change of the datacenter's draw.
	PowerTrace func(t, watts float64)
	// Classes overrides the fleet (nil = the paper's 100 nodes:
	// 15 fast, 50 medium, 35 slow).
	Classes []NodeClass
}

// NodeClass mirrors the cluster class description for the public API.
type NodeClass struct {
	Name        string
	Count       int
	CPU         float64 // percent; 400 = 4 cores
	Mem         float64 // units; node standard is 100
	CreateCost  float64 // seconds (Cc)
	MigrateCost float64 // seconds (Cm)
	BootTime    float64 // seconds
	Reliability float64 // availability in (0, 1]
}

// ScaleClasses is the heterogeneous scale fleet of total nodes
// (cluster.ScaleClasses in the public form): 10% big (8 cores), ~60%
// standard, 20% small, 10% flaky (Frel 0.95). The paper evaluates 100
// homogeneous-capacity machines; scale runs deliberately mix
// capacities, operation costs and reliability instead.
func ScaleClasses(total int) []NodeClass {
	classes := cluster.ScaleClasses(total)
	out := make([]NodeClass, 0, len(classes))
	for _, c := range classes {
		out = append(out, NodeClass{
			Name: c.Name, Count: c.Count, CPU: c.CPU, Mem: c.Mem,
			CreateCost: c.CreateCost, MigrateCost: c.MigrateCost,
			BootTime: c.BootTime, Reliability: c.Reliability,
		})
	}
	return out
}

// Result is the outcome of one run — one row of the paper's tables
// (String renders it as one).
type Result = metrics.Report

// NewPolicy constructs a policy by name. Exposed so callers can embed
// policies in custom harnesses; Run calls it internally.
func NewPolicy(name string, seed int64, score *ScoreParams) (policy.Policy, error) {
	applyScore := func(c core.Config) core.Config {
		if score != nil {
			c.Cempty = score.Cempty
			c.Cfill = score.Cfill
			if score.THempty > 0 {
				c.THempty = score.THempty
			}
		}
		return c
	}
	switch name {
	case "", "SB":
		return core.NewScheduler(applyScore(core.SBConfig()))
	case "SB0":
		return core.NewScheduler(applyScore(core.SB0Config()))
	case "SB1":
		return core.NewScheduler(applyScore(core.SB1Config()))
	case "SB2":
		return core.NewScheduler(applyScore(core.SB2Config()))
	case "RD":
		return policy.NewRandom(seed), nil
	case "RR":
		return policy.NewRoundRobin(), nil
	case "BF":
		return policy.NewBackfilling(), nil
	case "DBF":
		return policy.NewDynamicBackfilling(), nil
	default:
		return nil, fmt.Errorf("energysched: unknown policy %q", name)
	}
}

// NewSimulation builds the configured simulation without executing
// it, for harnesses that drive the engine step-wise — primarily the
// energyschedd server, which injects jobs online (Inject/StepBefore/
// Drain) instead of replaying a pre-built trace. Options.Trace may be
// nil here; Run still requires one.
func NewSimulation(opts Options) (*datacenter.Simulation, error) {
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	pol, err := NewPolicy(opts.Policy, seed, opts.Score)
	if err != nil {
		return nil, err
	}
	cfg := datacenter.Config{
		Trace:              opts.Trace,
		Policy:             pol,
		LambdaMin:          opts.LambdaMin,
		LambdaMax:          opts.LambdaMax,
		Seed:               seed,
		FailuresEnabled:    opts.Failures,
		CheckpointInterval: opts.CheckpointSeconds,
		AdaptiveTarget:     opts.AdaptiveTarget,
		EventLog:           opts.EventLog,
		RoundTimer:         opts.RoundTimer,
	}
	if opts.Classes != nil {
		cfg.Classes, err = convertClasses(opts.Classes)
		if err != nil {
			return nil, err
		}
	}
	sim, err := datacenter.New(cfg)
	if err != nil {
		return nil, err
	}
	sim.PowerTrace = opts.PowerTrace
	return sim, nil
}

// Run executes one simulation over Options.Trace and returns its
// result.
func Run(opts Options) (Result, error) {
	if opts.Trace == nil {
		return Result{}, fmt.Errorf("energysched: Options.Trace is required")
	}
	return run(opts, workload.NewTraceSource(opts.Trace))
}

// RunStream executes one simulation fed from a source instead of
// Options.Trace, in O(1) memory in the trace length. Run is RunStream
// over the trace's jobs, so the two cannot disagree.
func RunStream(opts Options, src JobSource) (Result, error) {
	if src == nil {
		return Result{}, fmt.Errorf("energysched: RunStream needs a source")
	}
	if opts.Trace != nil {
		return Result{}, fmt.Errorf("energysched: give RunStream a source or Options.Trace, not both")
	}
	return run(opts, src)
}

func run(opts Options, src JobSource) (Result, error) {
	sim, err := NewSimulation(opts)
	if err != nil {
		return Result{}, err
	}
	res, err := sim.RunSource(src)
	if err != nil {
		return Result{}, err
	}
	if opts.JobsCSV != nil {
		if err := datacenter.WriteJobsCSV(opts.JobsCSV, sim.VMs()); err != nil {
			return Result{}, err
		}
	}
	return res, nil
}

func convertClasses(in []NodeClass) ([]cluster.Class, error) {
	paper := cluster.PaperClasses()
	var out []cluster.Class
	for _, c := range in {
		cl := paper[0] // inherit power model, arch, hypervisor
		cl.Name = c.Name
		cl.Count = c.Count
		if c.CPU > 0 {
			cl.CPU = c.CPU
		}
		if c.Mem > 0 {
			cl.Mem = c.Mem
		}
		if c.CreateCost > 0 {
			cl.CreateCost = c.CreateCost
		}
		if c.MigrateCost > 0 {
			cl.MigrateCost = c.MigrateCost
		}
		if c.BootTime > 0 {
			cl.BootTime = c.BootTime
		}
		if c.Reliability > 0 {
			cl.Reliability = c.Reliability
		}
		out = append(out, cl)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("energysched: empty class list")
	}
	return out, nil
}
