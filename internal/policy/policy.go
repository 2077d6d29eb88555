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
// next round: a policy must not retain any of it past Schedule but the
// Feed pointer (see Feed).
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
	// Feed, when non-nil, is the harness's change feed for this round:
	// the VMs whose scheduler-visible state changed since its previous
	// Schedule call. A policy that keeps state across rounds may re-check
	// only those; without a feed it must read the whole context.
	Feed *Feed
}

// Feed lists the VMs whose scheduler-visible state changed between two
// Schedule calls of one harness. The harness owns one Feed for its
// lifetime and hands the same pointer to every round, so a policy may
// keep the pointer, and only the pointer, to recognise the next one.
type Feed struct {
	// Round numbers the Schedule call the feed is handed to: 1 for the
	// harness's first, one more for each after it. A policy that did not
	// consume round Round−1 of this feed has missed changes.
	Round uint64
	// VMs holds, in no particular order and possibly more than once,
	// every VM that since the previous Schedule call was touched
	// (vm.VM.Touch), had its Progress change or joined the queue.
	VMs []*vm.VM
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
