package core

import "energysched/internal/policy"

// KernelFault exposes the kernel oracle (kernelFault) to the external
// test package, whose tests drive the scheduler through a simulation.
func KernelFault(sch *Scheduler, ctx *policy.Context) error { return kernelFault(sch, ctx) }

// WithSLA returns cfg with the PSLA term on or off, for the external
// test package's simulations.
func WithSLA(cfg Config, on bool) Config {
	cfg.enableSLA = on
	return cfg
}
