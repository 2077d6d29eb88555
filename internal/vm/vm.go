// Package vm models virtual machines encapsulating HPC jobs: their
// resource requirements, lifecycle state, execution progress, and the
// QoS contract (deadline) attached to them.
//
// A job requires ReqCPU percent of CPU (100 = one core) and ReqMem
// memory units, and carries Work CPU-seconds of computation: a job
// that would run Duration seconds on a dedicated machine at its full
// requested allocation holds Work = ReqCPU × Duration. When the Xen
// scheduler grants it less CPU (contention), execution stretches — the
// mechanism by which careless placement violates deadlines.
package vm

import (
	"fmt"
	"math"
)

// State is a VM's lifecycle state.
type State int

// VM lifecycle states.
const (
	// Queued: waiting in the scheduler's virtual host for placement.
	Queued State = iota
	// Creating: being created on a node (paying the creation cost Cc).
	Creating
	// Running: executing its job.
	Running
	// Migrating: live-migrating between nodes (still running on the
	// source, paying the migration cost Cm on both endpoints).
	Migrating
	// Completed: job finished.
	Completed
	// Failed: the hosting node failed; the VM is lost and must be
	// re-queued (recovered from checkpoint if available).
	Failed
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Creating:
		return "creating"
	case Running:
		return "running"
	case Migrating:
		return "migrating"
	case Completed:
		return "completed"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Requirements captures the hardware/software constraints of a VM
// (paper §III-A1): the resources it needs to fulfill its SLA plus
// hard placement constraints.
type Requirements struct {
	// CPU in percent: 100 = one dedicated core.
	CPU float64
	// Mem in abstract memory units, where a node offers 100.
	Mem float64
	// Arch is the required system architecture ("" = any).
	Arch string
	// Hypervisor is the required hypervisor ("" = any).
	Hypervisor string
}

// Validate reports whether the requirements are well-formed.
func (r Requirements) Validate() error {
	if r.CPU <= 0 {
		return fmt.Errorf("vm: requirement CPU must be positive, got %.2f", r.CPU)
	}
	if r.Mem < 0 {
		return fmt.Errorf("vm: requirement Mem must be non-negative, got %.2f", r.Mem)
	}
	return nil
}

// VM is a virtual machine instance wrapping one HPC job.
type VM struct {
	// ID is unique within a simulation.
	ID int
	// Name is an optional human-readable label (trace job id).
	Name string

	Req Requirements

	// Submit is the virtual time the job entered the system.
	Submit float64
	// Duration is the user-estimated execution time Tu on a dedicated
	// machine (paper: "vm execution time according to user").
	Duration float64
	// Deadline is the absolute completion deadline (Submit + factor ×
	// Duration). The SLA satisfaction metric is derived from it.
	Deadline float64
	// Work is the total CPU-seconds the job must accumulate
	// (Req.CPU × Duration).
	Work float64
	// Weight is the Xen credit-scheduler weight (0 = default).
	Weight float64
	// FaultTolerance is Ftol in the paper: the VM's tolerance to node
	// failure probability, in [0, 1].
	FaultTolerance float64

	// --- runtime state, owned by the datacenter harness ---

	State State
	// Host is the node currently hosting the VM (-1 = none).
	Host int
	// MigrateTo is the destination node while Migrating (-1 = none).
	MigrateTo int
	// Progress is accumulated CPU-seconds of work done.
	Progress float64
	// Alloc is the CPU percent currently granted by the host.
	Alloc float64
	// Start is when the VM first started running (-1 = never).
	Start float64
	// Finish is when the job completed (-1 = not yet).
	Finish float64
	// Migrations counts completed live migrations.
	Migrations int
	// LastMigrate is when the last migration completed (-1 = never).
	LastMigrate float64
	// Restarts counts recoveries after node failures.
	Restarts int
	// Checkpoint is the progress value captured by the last
	// checkpoint (0 = none); recovery resumes from here.
	Checkpoint float64
	// EnergyKWh is the host energy attributed to this VM by the
	// datacenter harness (when energy attribution is enabled): each
	// accrual interval's node energy split across the hosted VMs by
	// allocation share. Write-only observability — nothing in the
	// scheduling path reads it, and like Progress it does not bump the
	// epoch.
	EnergyKWh float64

	// Epoch counts placement- and demand-relevant mutations of this VM
	// (lifecycle transitions, host changes, requirement updates). The
	// datacenter harness bumps it via Touch at every actuation; the
	// scheduler's cross-round score cache uses it to recognise VMs
	// whose real state is unchanged since the previous round. Pure
	// execution progress (Progress, Alloc, Checkpoint) does not bump
	// the epoch: the score families that read it are recomputed every
	// round anyway.
	Epoch uint64
}

// Touch records a placement- or demand-relevant mutation (state, host,
// requirements), invalidating cross-round score-cache entries for this
// VM. Call it after mutating the runtime fields directly.
func (v *VM) Touch() { v.Epoch++ }

// New builds a VM in the Queued state.
func New(id int, req Requirements, submit, duration, deadline float64) *VM {
	v := Make(id, req, submit, duration, deadline)
	return &v
}

// Make is New for a record the caller stores, e.g. in a slab.
func Make(id int, req Requirements, submit, duration, deadline float64) VM {
	return VM{
		ID:          id,
		Req:         req,
		Submit:      submit,
		Duration:    duration,
		Deadline:    deadline,
		Work:        req.CPU * duration,
		State:       Queued,
		Host:        -1,
		MigrateTo:   -1,
		Start:       -1,
		Finish:      -1,
		LastMigrate: -1,
	}
}

// Remaining returns the CPU-seconds of work still to do.
func (v *VM) Remaining() float64 {
	r := v.Work - v.Progress
	if r < 0 {
		return 0
	}
	return r
}

// RemainingTime estimates seconds to completion at the current
// allocation; +Inf if the VM currently receives no CPU.
func (v *VM) RemainingTime() float64 {
	if v.Alloc <= 0 {
		return math.Inf(1)
	}
	return v.Remaining() / v.Alloc
}

// UserRemainingTime is Tr(vm) in the paper: remaining execution time
// according to the user's initial estimate, Tu − (now − submit),
// floored at zero.
func (v *VM) UserRemainingTime(now float64) float64 {
	r := v.Duration - (now - v.Submit)
	if r < 0 {
		return 0
	}
	return r
}

// Active reports whether the VM occupies resources on a node.
func (v *VM) Active() bool {
	switch v.State {
	case Creating, Running, Migrating:
		return true
	}
	return false
}

// InOperation reports whether an actuator operation is in flight on
// this VM (creation or migration): the paper pins such VMs with an
// infinite penalty so no second operation starts concurrently.
func (v *VM) InOperation() bool {
	return v.State == Creating || v.State == Migrating
}

// ExecTime returns the observed wall execution time from submission
// to finish; valid only after completion.
func (v *VM) ExecTime() float64 {
	if v.Finish < 0 {
		return -1
	}
	return v.Finish - v.Submit
}

// String implements fmt.Stringer for diagnostics.
func (v *VM) String() string {
	return fmt.Sprintf("vm%d[%s cpu=%.0f mem=%.0f host=%d prog=%.0f/%.0f]",
		v.ID, v.State, v.Req.CPU, v.Req.Mem, v.Host, v.Progress, v.Work)
}
