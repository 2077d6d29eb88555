package core

import "energysched/internal/policy"

// KernelFault exposes the kernel oracle (kernelFault) to the external
// test package, whose tests drive the scheduler through a simulation.
func KernelFault(sch *Scheduler, ctx *policy.Context) error { return kernelFault(sch, ctx) }
