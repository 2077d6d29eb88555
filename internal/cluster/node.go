// Package cluster models the physical machines of the datacenter:
// heterogeneous node classes with distinct virtualization overheads
// (the paper's fast/medium/slow split), an on/boot/off power state
// machine, occupation accounting, and reliability factors for failure
// injection.
package cluster

import (
	"cmp"
	"fmt"
	"slices"

	"energysched/internal/power"
	"energysched/internal/vm"
)

// PowerState is a node's electrical state.
type PowerState int

// Node power states.
const (
	// Off: consumes standby power only; cannot host VMs.
	Off PowerState = iota
	// Booting: consuming boot power; becomes On after BootTime.
	Booting
	// On: operational.
	On
	// Down: failed; consumes standby power until repaired.
	Down
)

// String implements fmt.Stringer.
func (s PowerState) String() string {
	switch s {
	case Off:
		return "off"
	case Booting:
		return "booting"
	case On:
		return "on"
	case Down:
		return "down"
	default:
		return fmt.Sprintf("powerstate(%d)", int(s))
	}
}

// Class describes a homogeneous group of machines. The paper's
// evaluation uses three: 15 fast (Cc=30 s, Cm=40 s), 50 medium
// (Cc=40 s, Cm=60 s) and 35 slow (Cc=60 s, Cm=80 s).
type Class struct {
	// Name labels the class ("fast", "medium", "slow").
	Name string
	// Count is how many nodes of this class the datacenter has.
	Count int
	// CPU capacity in percent (400 = 4 cores).
	CPU float64
	// Mem capacity in abstract units (100 = full machine).
	Mem float64
	// CreateCost is Cc: mean seconds to create a VM on this class.
	CreateCost float64
	// MigrateCost is Cm: mean seconds to live-migrate a VM to/from
	// this class.
	MigrateCost float64
	// BootTime is seconds from power-on to operational.
	BootTime float64
	// Arch is the architecture the class offers.
	Arch string
	// Hypervisor installed on the class.
	Hypervisor string
	// Reliability is Frel: fraction of time the node is up, in (0,1].
	Reliability float64
	// Power is the electrical model (nil = paper's Table I model).
	Power *power.InterpolatedModel
}

// Occupation is the utilization of the most occupied resource of a
// node of class c whose hosted VMs declare cpu and mem in total: the
// max of the CPU and memory shares (New refuses a class without either
// capacity). The score computes it for every candidate cell, so it
// stays small enough to inline.
func (c *Class) Occupation(cpu, mem float64) float64 {
	occ := cpu / c.CPU
	if m := mem / c.Mem; m > occ {
		occ = m
	}
	return occ
}

// tableI is the paper's measured Table I power model. It is immutable,
// so every class built here shares the one instance.
var tableI = power.PaperTableI()

// xenClass is an x86_64/xen class on the Table I power model that
// boots in 100 s.
func xenClass(name string, count int, cpu, mem, cc, cm, rel float64) Class {
	return Class{
		Name: name, Count: count,
		CPU: cpu, Mem: mem,
		CreateCost: cc, MigrateCost: cm,
		BootTime:    100,
		Arch:        "x86_64",
		Hypervisor:  "xen",
		Reliability: rel,
		Power:       tableI,
	}
}

// PaperClasses returns the three node classes of the paper's
// evaluation (§V): 100 nodes total, Table I power model, 4 CPUs and
// 100 memory units each, fully reliable.
func PaperClasses() []Class {
	return []Class{
		xenClass("fast", 15, 400, 100, 30, 40, 1.0),
		xenClass("medium", 50, 400, 100, 40, 60, 1.0),
		xenClass("slow", 35, 400, 100, 60, 80, 1.0),
	}
}

// ScaleClasses returns the mixed fleet of total nodes (at least 10)
// that scale runs use. The paper evaluates 100 homogeneous-capacity
// machines, so scale runs deliberately mix capacities, costs and
// reliability instead:
//
//	big    10%  8 cores, 200 mem, fast ops        — consolidation magnets
//	std    60%  4 cores, 100 mem, paper medium    — the bulk
//	small  20%  2 cores,  50 mem, slow ops        — fragmentation pressure
//	flaky  10%  4 cores, 100 mem, Frel 0.95       — organic failures when enabled
//
// All are xenClass, so every job can land anywhere and differences
// come from capacity, costs and reliability.
func ScaleClasses(total int) []Class {
	if total < 10 {
		total = 10
	}
	big, small, flaky := total/10, total/5, total/10
	std := total - big - small - flaky
	return []Class{
		xenClass("big", big, 800, 200, 30, 40, 1.0),
		xenClass("std", std, 400, 100, 40, 60, 1.0),
		xenClass("small", small, 200, 50, 60, 80, 1.0),
		xenClass("flaky", flaky, 400, 100, 40, 60, 0.95),
	}
}

// StandbyWatts is the consumption of a node that is switched off
// (wake-on-LAN standby). The paper reports that turning a node off
// saves "more than 200 W" against the 230 W idle floor.
const StandbyWatts = 5.0

// Node is one physical machine.
type Node struct {
	// ID indexes the node in the datacenter (0-based).
	ID int
	// Class the node belongs to.
	Class *Class

	// State is the current power state. Read-only outside this
	// package: SetState is the one write path (it keeps the owning
	// cluster's state index and the change epoch in step), and no code,
	// test or not, assigns the field directly.
	State PowerState
	// VMs currently placed on the node (creating, running or
	// migrating-in VMs all occupy resources here), in ascending ID; nil
	// until the first placement. Mutate only through AddVM/RemoveVM:
	// they keep the order, the cached reservation sums and the change
	// epoch consistent.
	VMs []*vm.VM

	// CreatingOps counts VM creations in progress on this node.
	// Mutate through BeginCreate/EndCreate.
	CreatingOps int
	// MigratingOps counts live migrations in which this node is an
	// endpoint (source or destination). Mutate through
	// BeginMigrate/EndMigrate.
	MigratingOps int

	// Reliability is the node's current Frel (may drift at runtime).
	// Read-only outside this package: SetReliability is the one write
	// path, because the value is part of the off index's sort key.
	Reliability float64

	// Epoch counts score-relevant mutations of the node: VM set
	// changes, power transitions, operation begin/end. The scheduler's
	// cross-round score cache uses it (together with a value snapshot
	// of the fields above) to recognise nodes whose real state is
	// unchanged since the previous scheduling round.
	Epoch uint64

	// resCPU, resMem cache the reservation sums over VMs, maintained
	// by AddVM/RemoveVM in mutation order, so the scheduler's hot path
	// reads them in O(1).
	resCPU, resMem float64

	// cluster is the owner whose state index the mutators below keep
	// current; nil for a node built outside any cluster.
	cluster *Cluster
}

// NewNode builds a standalone Off node of the given class: it belongs
// to no cluster and carries no index. New builds its own nodes in one
// slab instead.
func NewNode(id int, class *Class) *Node {
	n := newNode(id, class)
	return &n
}

func newNode(id int, class *Class) Node {
	return Node{ID: id, Class: class, State: Off, Reliability: class.Reliability}
}

// vmSetCap is the capacity a node's VM set gets at its first
// placement: four single-core guests fill a 4-CPU node, so most sets
// never grow again (growing from one would take three allocations).
const vmSetCap = 4

// vmAt returns where a VM with the given ID is, or would be inserted,
// in n.VMs, and whether it is there.
func (n *Node) vmAt(id int) (int, bool) {
	return slices.BinarySearchFunc(n.VMs, id, func(v *vm.VM, id int) int { return cmp.Compare(v.ID, id) })
}

// AddVM places v's reservation on the node: it joins the VMs set at
// its ID's position and the cached reservation sums, and the change
// epoch advances. Adding a VM that is already hosted is a no-op.
func (n *Node) AddVM(v *vm.VM) {
	i, found := n.vmAt(v.ID)
	if found {
		return
	}
	was := n.Working()
	if n.VMs == nil {
		n.VMs = make([]*vm.VM, 0, vmSetCap)
	}
	n.VMs = slices.Insert(n.VMs, i, v)
	n.resCPU += v.Req.CPU
	n.resMem += v.Req.Mem
	n.changed(was)
}

// RemoveVM releases v's reservation. Removing a VM that is not hosted
// here is a no-op.
func (n *Node) RemoveVM(v *vm.VM) {
	i, found := n.vmAt(v.ID)
	if !found {
		return
	}
	was := n.Working()
	n.VMs = slices.Delete(n.VMs, i, i+1)
	n.resCPU -= v.Req.CPU
	n.resMem -= v.Req.Mem
	if len(n.VMs) == 0 {
		// Re-anchor the incremental sums: float subtraction can leave
		// a residue, and an empty node must read exactly zero.
		n.resCPU, n.resMem = 0, 0
	}
	n.changed(was)
}

// SetState transitions the power state, moving the node between the
// owning cluster's index sets and advancing the change epoch.
func (n *Node) SetState(s PowerState) {
	if n.State == s {
		return
	}
	was := n.Working()
	n.refile(func() { n.State = s })
	n.changed(was)
}

// SetReliability changes Frel, re-keying the node in the owning
// cluster's off order and advancing the change epoch.
func (n *Node) SetReliability(r float64) {
	if n.Reliability == r {
		return
	}
	n.refile(func() { n.Reliability = r })
	n.Epoch++
}

// refile applies a write to a field the state index is keyed on,
// taking the node out of the index before and filing it again after.
func (n *Node) refile(write func()) {
	if n.cluster != nil {
		n.cluster.leave(n)
	}
	write()
	if n.cluster != nil {
		n.cluster.enter(n)
	}
}

// changed closes a mutation: it advances the change epoch and, when
// the mutation flipped Working (was is the value before it), moves
// the owning cluster's working count.
func (n *Node) changed(was bool) {
	n.Epoch++
	if n.cluster == nil {
		return
	}
	if is := n.Working(); is && !was {
		n.cluster.working++
	} else if was && !is {
		n.cluster.working--
	}
}

// BeginCreate and EndCreate bracket a VM creation in progress.
func (n *Node) BeginCreate() { was := n.Working(); n.CreatingOps++; n.changed(was) }

// EndCreate completes one creation begun with BeginCreate.
func (n *Node) EndCreate() { was := n.Working(); n.CreatingOps--; n.changed(was) }

// BeginMigrate and EndMigrate bracket a live migration with this node
// as an endpoint (source or destination).
func (n *Node) BeginMigrate() { was := n.Working(); n.MigratingOps++; n.changed(was) }

// EndMigrate completes one migration begun with BeginMigrate.
func (n *Node) EndMigrate() { was := n.Working(); n.MigratingOps--; n.changed(was) }

// ResetOps force-clears both operation counters (failure teardown).
func (n *Node) ResetOps() {
	was := n.Working()
	n.CreatingOps, n.MigratingOps = 0, 0
	n.changed(was)
}

// Touch records an out-of-band mutation not covered by the methods
// above (e.g. a reliability drift), invalidating cross-round score
// caches that reference this node.
func (n *Node) Touch() { n.Epoch++ }

// Working reports whether the node is on and hosting at least one VM
// or running an actuator operation — the paper's "working node".
func (n *Node) Working() bool {
	return n.State == On && (len(n.VMs) > 0 || n.CreatingOps > 0 || n.MigratingOps > 0)
}

// Idle reports whether the node is on, empty and quiescent — a
// candidate for turning off.
func (n *Node) Idle() bool {
	return n.State == On && len(n.VMs) == 0 && n.CreatingOps == 0 && n.MigratingOps == 0
}

// CPUReserved returns the sum of CPU requirements of hosted VMs.
// O(1): the sum is maintained incrementally by AddVM/RemoveVM.
func (n *Node) CPUReserved() float64 { return n.resCPU }

// MemReserved returns the sum of memory requirements of hosted VMs.
// O(1): the sum is maintained incrementally by AddVM/RemoveVM.
func (n *Node) MemReserved() float64 { return n.resMem }

// Occupation is O(h) in the paper: the utilization of the most
// occupied resource, from the VMs' declared requirements. 1.0 means
// the binding resource is exactly full; values above 1 indicate
// overcommit.
func (n *Node) Occupation() float64 {
	return n.OccupationWith(0, 0)
}

// OccupationWith is O(h, vm): the occupation the node would have
// after also hosting a VM with the given extra requirements.
func (n *Node) OccupationWith(extraCPU, extraMem float64) float64 {
	return n.Class.Occupation(n.CPUReserved()+extraCPU, n.MemReserved()+extraMem)
}

// Fits reports whether a VM with requirements r can be placed without
// exceeding 100 % occupation and satisfies the node's hardware and
// software constraints (Preq + Pres feasibility).
func (n *Node) Fits(r vm.Requirements) bool {
	if !n.Satisfies(r) {
		return false
	}
	return n.OccupationWith(r.CPU, r.Mem) <= 1.0+1e-9
}

// Satisfies checks only the hardware/software requirements (Preq):
// architecture and hypervisor compatibility and that the VM's single
// largest demand is within the node's physical size.
func (n *Node) Satisfies(r vm.Requirements) bool {
	// Numeric checks first: they are branch-cheap, while the string
	// comparisons below cost real time on the scheduler's hot path.
	if r.CPU > n.Class.CPU || r.Mem > n.Class.Mem {
		return false
	}
	if r.Arch != "" && n.Class.Arch != "" && r.Arch != n.Class.Arch {
		return false
	}
	if r.Hypervisor != "" && n.Class.Hypervisor != "" && r.Hypervisor != n.Class.Hypervisor {
		return false
	}
	return true
}

// PowerModel returns the node's electrical model.
func (n *Node) PowerModel() *power.InterpolatedModel {
	if n.Class.Power != nil {
		return n.Class.Power
	}
	return power.PaperTableI()
}

// Watts returns the node's instantaneous draw for a given total CPU
// utilization (percent). Off and Down nodes draw standby power;
// booting nodes draw idle power (disks and fans spin during POST).
func (n *Node) Watts(cpuUtil float64) float64 {
	switch n.State {
	case Off, Down:
		return StandbyWatts
	case Booting:
		return n.PowerModel().IdlePower()
	default:
		return n.PowerModel().Power(cpuUtil)
	}
}

// String implements fmt.Stringer for diagnostics.
func (n *Node) String() string {
	return fmt.Sprintf("node%d[%s %s vms=%d occ=%.2f]",
		n.ID, n.Class.Name, n.State, len(n.VMs), n.Occupation())
}
