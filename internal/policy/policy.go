// Package policy defines the scheduling-policy contract the
// datacenter harness drives, plus the baseline policies the paper
// compares against: Random (RD), Round-Robin (RR), Backfilling (BF)
// and Dynamic Backfilling (DBF, backfilling with consolidation
// migrations). The paper's score-based policy lives in internal/core
// and implements the same interface.
package policy

import (
	"energysched/internal/cluster"
	"energysched/internal/vm"
)

// Context is the scheduler's read view of the system at a scheduling
// round. The harness reuses it, and the slices it points at, for the
// next round: a policy must not retain any of it past Schedule.
type Context struct {
	// Now is the current virtual time.
	Now float64
	// Cluster is the set of physical nodes with their current state.
	Cluster *cluster.Cluster
	// Queue holds the VMs waiting in the virtual host for placement
	// (new arrivals and VMs recovered from failed nodes), in FIFO
	// order.
	Queue []*vm.VM
	// Active holds the VMs currently occupying nodes (creating,
	// running or migrating), in ID order.
	Active []*vm.VM
	// LambdaMin, LambdaMax are the power manager's working-ratio
	// thresholds as fractions; consolidation-migrating policies use
	// them to decide when draining nodes is worthwhile (a drained
	// node is only a win if it can be turned off).
	LambdaMin, LambdaMax float64
}

// Kind says what an Action asks the harness to do.
type Kind uint8

const (
	// KindPlace creates the queued VM on Node.
	KindPlace Kind = iota + 1
	// KindMigrate live-migrates the running VM to Node.
	KindMigrate
)

// Action is a scheduling decision returned to the harness. It is a
// plain value — a policy appends actions to a slice and the harness
// switches on Kind — so a decision costs no allocation. The zero Action
// asks for nothing.
type Action struct {
	Kind Kind
	VM   *vm.VM
	// Node is the ID of the node to create the VM on or migrate it to.
	Node int
}

// Policy decides placements (and, if migratory, migrations) at each
// scheduling round. Implementations must be deterministic given the
// context and their own seeded state.
type Policy interface {
	// Name returns the label used in reports (RD, RR, BF, DBF, SB...).
	Name() string
	// Schedule inspects the context and returns actions. Returning no
	// actions leaves queued VMs in the queue. The slice may be the
	// policy's own scratch: it is valid until the next Schedule on the
	// same policy, so actuate or copy it before then.
	Schedule(ctx *Context) []Action
	// Migratory reports whether the policy ever migrates VMs (the
	// paper's static/dynamic split).
	Migratory() bool
}

// fitsOnline reports whether node n can accept v right now.
func fitsOnline(n *cluster.Node, v *vm.VM) bool {
	return n.State == cluster.On && n.Fits(v.Req)
}

// satisfiesOnline reports whether node n meets v's hardware/software
// requirements and is operational, ignoring current occupation.
func satisfiesOnline(n *cluster.Node, v *vm.VM) bool {
	return n.State == cluster.On && n.Satisfies(v.Req)
}
