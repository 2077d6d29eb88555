// Package datacenter is the simulation harness: it binds the
// discrete-event engine, the cluster model, a scheduling policy, the
// λ power manager and the metric collectors, and executes a workload
// trace through the full VM lifecycle (queue → create → run →
// migrate/checkpoint/fail → complete) with power accounting.
//
// It corresponds to the simulator of §IV in the paper: the Workload
// Generator feeds arrivals, the Scheduler is "real" (the actual
// policy code runs), and the VHost part simulates execution, CPU
// sharing and power consumption.
package datacenter

import (
	"fmt"

	"energysched/internal/cluster"
	"energysched/internal/core"
	"energysched/internal/policy"
	"energysched/internal/workload"
)

// Config assembles one simulation run.
type Config struct {
	// Classes describes the physical fleet (default: PaperClasses).
	Classes []cluster.Class
	// Trace is the workload to execute. Required for Run; an online
	// harness may leave it nil and admit jobs with Simulation.Inject.
	Trace *workload.Trace
	// Policy decides placements. Required.
	Policy policy.Policy
	// LambdaMin, LambdaMax are the power-manager thresholds in
	// percent (e.g. 30, 90).
	LambdaMin, LambdaMax float64
	// Seed drives the stochastic parts (creation jitter, failures).
	Seed int64

	// opOverheadCPU is the CPU percent an in-flight create/migrate
	// operation consumes on each involved node (default 200: pre-copy
	// migration saturates the NIC and memory bus, and dom0 burns real
	// cycles tracking dirty pages — co-located VMs feel it).
	opOverheadCPU float64

	// TickInterval is the period of housekeeping rounds (power
	// manager evaluation, migration re-planning). Seconds.
	TickInterval float64

	// ThrashFactor models the efficiency collapse of an overcommitted
	// node (hypervisor context switching, cache and TLB thrash): when
	// the VMs' aggregate CPU demand exceeds the node's capacity, the
	// useful fraction of each granted CPU cycle is
	//
	//	eff = 1 / (1 + ThrashFactor · (demand/capacity − 1))
	//
	// so a node overcommitted 2× at factor 1 wastes half of every
	// cycle. Policies that respect the 100 % occupation limit never
	// trigger it; the random baseline drowns in it, as the paper's
	// does. 0 selects the default of 0.2; a negative value disables
	// the effect.
	ThrashFactor float64

	// FailuresEnabled turns on reliability-driven node failures.
	FailuresEnabled bool
	// MTTR is the mean repair time after a failure, seconds.
	MTTR float64
	// CheckpointInterval, when positive, checkpoints running VMs
	// periodically so recovery resumes instead of restarting.
	CheckpointInterval float64

	// MaxTime hard-stops the simulation (0 = run until all jobs
	// complete).
	MaxTime float64

	// StartOnline boots every node before the first event (used by
	// the validation experiment and tests that want a warm fleet).
	StartOnline bool

	// AdaptiveTarget, when positive, enables the dynamic-threshold
	// controller (§V-A future work): λmin is adjusted at runtime to
	// hold mean client satisfaction at this percentage, at most 100
	// (see core.CheckTarget).
	AdaptiveTarget float64

	// EventLog, when non-nil, receives every simulation event
	// (arrivals, placements, migrations, boots, failures, ...) as it
	// happens — the observability hook for timeline tooling.
	EventLog func(Event)

	// RoundTimer, when non-nil, receives the wall-clock duration (in
	// seconds) of every policy scheduling round — the latency-histogram
	// hook. It observes wall time only, never virtual time, so it
	// cannot perturb the deterministic simulation.
	RoundTimer func(seconds float64)
}

// The fixed parameters of the §IV simulator.
const (
	// minExec is the minimum number of operative machines.
	minExec = 1
	// creationSigma is the stddev of VM creation time around the
	// class mean (the paper observed N(40, 2.5) on its testbed).
	creationSigma float64 = 2.5
	// migrationSigma is the stddev of migration time.
	migrationSigma float64 = 2.5
	// opWeight is the Xen weight of the operation's service domain
	// (dom0 work is prioritized over guest domains).
	opWeight float64 = 512
)

// Defaults fills unset fields with the paper's evaluation setup.
func (c Config) Defaults() Config {
	if c.Classes == nil {
		c.Classes = cluster.PaperClasses()
	}
	if c.LambdaMin == 0 && c.LambdaMax == 0 {
		c.LambdaMin, c.LambdaMax = 30, 90
	}
	if c.opOverheadCPU == 0 {
		c.opOverheadCPU = 200
	}
	if c.TickInterval == 0 {
		c.TickInterval = 60
	}
	if c.ThrashFactor == 0 {
		c.ThrashFactor = 0.2
	} else if c.ThrashFactor < 0 {
		c.ThrashFactor = 0
	}
	if c.MTTR == 0 {
		c.MTTR = 1800
	}
	return c
}

// Validate reports configuration errors after Defaults. A Trace is
// not required here: an online harness injects jobs one at a time
// (see Simulation.Inject); Run still demands a non-empty trace.
func (c Config) Validate() error {
	if c.Policy == nil {
		return fmt.Errorf("datacenter: config needs a policy")
	}
	if c.TickInterval <= 0 {
		return fmt.Errorf("datacenter: tick interval must be positive")
	}
	if _, err := core.NewPowerManager(c.LambdaMin, c.LambdaMax, minExec); err != nil {
		return err
	}
	return core.CheckTarget(c.AdaptiveTarget)
}
