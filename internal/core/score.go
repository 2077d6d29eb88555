package core

import (
	"math"

	"energysched/internal/cluster"
	"energysched/internal/sla"
	"energysched/internal/vm"
)

// shadow is the solver's working copy of the system: real node loads
// plus the hypothetical moves applied so far during one hill-climbing
// pass. Scores are always computed against the shadow so each
// iteration sees the consequences of earlier moves.
type shadow struct {
	nodes []*cluster.Node
	// cpu, mem, count are the shadow reservations per node index.
	cpu, mem []float64
	count    []int
	// assign maps candidate index -> node index (-1 = virtual host).
	assign []int
	// initial is the assignment before planning (-1 = queued).
	initial []int
	vms     []*vm.VM
	now     float64
	// hostAt maps a host's node ID to its index in nodes, so a
	// candidate's host resolves in O(1).
	hostAt hostTable
}

// hostTable maps node IDs to this round's host indices. An entry holds
// the round it was filed in beside the index, so a round starts by
// advancing its number rather than by clearing what the last one filed:
// an entry of an earlier round reads as "not a host".
type hostTable struct {
	at    []uint64 // round<<32 | host index; round 0 is never current
	round uint32
}

// begin starts a round whose hosts have IDs up to maxID.
func (t *hostTable) begin(maxID int) {
	t.at = grow(t.at, maxID+1) // new entries are zero or of an earlier round
	if t.round++; t.round == 0 {
		clear(t.at[:cap(t.at)])
		t.round = 1
	}
}

// file records host index ni for node ID id.
func (t *hostTable) file(id, ni int) { t.at[id] = uint64(t.round)<<32 | uint64(ni) }

// index is the host index filed this round for node ID id, -1 if none.
func (t *hostTable) index(id int) int {
	if id < 0 || id >= len(t.at) {
		return -1
	}
	if e := t.at[id]; uint32(e>>32) == t.round {
		return int(uint32(e))
	}
	return -1
}

// reset points the shadow at a new round's hosts and candidates,
// reusing the previous round's slices when capacity allows. The slab
// kernel does the same through begin, seed and hostOf, fused into its
// passes over the hosts and the candidates.
func (s *shadow) reset(now float64, nodes []*cluster.Node, vms []*vm.VM) {
	maxID := -1
	for _, n := range nodes {
		maxID = max(maxID, n.ID)
	}
	s.begin(now, nodes, maxID)
	for ni, n := range nodes {
		s.seed(ni, n)
	}
	s.vms = vms
	s.assign = grow(s.assign, len(vms))
	s.initial = grow(s.initial, len(vms))
	for vi, v := range vms {
		s.assign[vi] = s.hostOf(v)
		s.initial[vi] = s.assign[vi]
	}
}

// begin points the shadow at a new round's hosts, whose node IDs are at
// most maxID; each must then be seeded.
func (s *shadow) begin(now float64, nodes []*cluster.Node, maxID int) {
	s.nodes, s.now = nodes, now
	s.cpu = grow(s.cpu, len(nodes))
	s.mem = grow(s.mem, len(nodes))
	s.count = grow(s.count, len(nodes))
	s.hostAt.begin(maxID)
}

// seed loads host ni, node n, into the shadow with its real
// reservations and files its index. The node maintains its reservation
// sums incrementally (AddVM/RemoveVM), so seeding is O(1) per node and
// — critically for the cross-round matrix cache — the loads of an
// unchanged node are bit-identical between rounds (a map walk would
// re-add floats in random order).
func (s *shadow) seed(ni int, n *cluster.Node) {
	s.cpu[ni] = n.CPUReserved()
	s.mem[ni] = n.MemReserved()
	s.count[ni] = len(n.VMs)
	s.hostAt.file(n.ID, ni)
}

// atRest reports whether host ni's shadow loads are its seeded, real
// ones.
func (s *shadow) atRest(ni int) bool {
	n := s.nodes[ni]
	return s.cpu[ni] == n.CPUReserved() && s.mem[ni] == n.MemReserved() && s.count[ni] == len(n.VMs)
}

// hostOf is v's round-start host index: -1 when v occupies no host
// or one that is not a host this round.
func (s *shadow) hostOf(v *vm.VM) int {
	if !v.Active() {
		return -1
	}
	return s.hostAt.index(v.Host)
}

// grow returns a slice of length n, reusing buf's capacity; the
// contents are unspecified. A new slice gets half as much again in
// capacity: the V×H slabs creep up a row or a column per round, and
// an exact fit would reallocate and zero them every round.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, n+n/2)
	}
	return buf[:n]
}

// move reassigns candidate vi to node index ni (must differ from the
// current assignment), updating shadow loads.
func (s *shadow) move(vi, ni int) {
	v := s.vms[vi]
	if old := s.assign[vi]; old >= 0 {
		s.cpu[old] -= v.Req.CPU
		s.mem[old] -= v.Req.Mem
		s.count[old]--
	}
	s.assign[vi] = ni
	if ni >= 0 {
		s.cpu[ni] += v.Req.CPU
		s.mem[ni] += v.Req.Mem
		s.count[ni]++
	}
}

// occupation returns the shadow occupation of node ni if the VM vi
// were (also) hosted there: the max of CPU and memory utilization.
// If vi is already assigned to ni, the shadow load already includes
// it.
func (s *shadow) occupation(ni, vi int) float64 {
	n := s.nodes[ni]
	cpu, mem := s.cpu[ni], s.mem[ni]
	if s.assign[vi] != ni {
		v := s.vms[vi]
		cpu += v.Req.CPU
		mem += v.Req.Mem
	}
	occ := cpu / n.Class.CPU
	if n.Class.Mem > 0 {
		if m := mem / n.Class.Mem; m > occ {
			occ = m
		}
	}
	return occ
}

// vmCount returns the number of VMs node ni would host with vi there.
func (s *shadow) vmCount(ni, vi int) int {
	c := s.count[ni]
	if s.assign[vi] != ni {
		c++
	}
	return c
}

// score computes Score(h, vm) — the full penalty sum of §III-A — for
// candidate vi on node ni, against the shadow state. +Inf marks an
// infeasible combination.
//
// The sum is split into two halves because the slab kernel caches one
// of them (kernel.go):
//
//   - scoreBase: the penalty families whose value does not depend on
//     virtual time (Preq/Pres gates, Pconc, Ppwr, Pfault). For an
//     unchanged ⟨node, VM⟩ pair this half is bit-identical between
//     rounds and stays in the kernel's persistent matrix.
//   - scoreTime: the time-dependent families (Pvirt's Tr decay, PSLA's
//     fulfillment estimate). These depend on the node only through its
//     class and through whether it is the VM's current host, so each
//     round recomputes them once per ⟨VM, class⟩ instead of per cell.
//
// Both solvers compose the two halves with the same float grouping
// (base + time, +Inf absorbing), so cached and fresh evaluations are
// bit-identical and the solvers replay each other's decisions exactly.
func (sch *Scheduler) score(s *shadow, ni, vi int) float64 {
	b := sch.scoreBase(s, ni, vi)
	if math.IsInf(b, 1) {
		return b
	}
	t := sch.scoreTime(s, ni, vi)
	if math.IsInf(t, 1) {
		return t
	}
	return b + t
}

// scoreBase is the time-independent half of Score(h, vm): the Preq and
// Pres feasibility gates plus Pconc, Ppwr and Pfault. It depends only
// on the node's observable state (power state, loads, in-flight
// operations, reliability, class) and the VM's requirements and
// current host — fields that change only through setters advancing the
// Epoch the kernel's cross-round stamps hold.
func (sch *Scheduler) scoreBase(s *shadow, ni, vi int) float64 {
	n := s.nodes[ni]
	v := s.vms[vi]
	cfg := &sch.cfg

	// P_req: hardware and software requirements (§III-A1).
	if !n.Satisfies(v.Req) || n.State != cluster.On {
		return math.Inf(1)
	}
	// P_res: resource requirements — occupation after allocation must
	// not exceed 100 % (§III-A2). Computed once here and shared with
	// P_pwr below: occupation is the single hottest term of the score.
	occ := s.occupation(ni, vi)
	if occ > 1.0+1e-9 {
		return math.Inf(1)
	}

	total := 0.0

	// P_conc: concurrency of in-flight operations on the host
	// (§III-A3, last part).
	if cfg.EnableConc {
		total += sch.pConc(n, v, s, ni, vi)
	}

	// P_pwr: power efficiency — reward fillable hosts, punish
	// emptiable ones (§III-A4).
	if cfg.EnablePower {
		total += sch.pPower(s, ni, vi, occ)
	}

	// P_fault: reliability (§III-A6).
	if cfg.EnableFault {
		total += ((1 - n.Reliability) - v.FaultTolerance) * cfg.Cfail
	}

	return total
}

// scoreTime is the time-dependent half of Score(h, vm): Pvirt and
// PSLA, plus the in-operation pin that replaces Pvirt when that family
// is disabled. It depends on the node only through its class and
// through whether it is the VM's current host.
func (sch *Scheduler) scoreTime(s *shadow, ni, vi int) float64 {
	if sch.pinned(s, vi) {
		return math.Inf(1)
	}
	if ni == s.initial[vi] {
		return sch.scoreTimeStay(s, vi)
	}
	return sch.scoreTimeMove(s, vi, s.nodes[ni].Class)
}

// pinned reports scoreTime's in-operation pin: even without the Pvirt
// family, a VM under an in-flight operation cannot be acted on — once
// it is off its round-start host every cell of its row is +Inf.
func (sch *Scheduler) pinned(s *shadow, vi int) bool {
	return !sch.cfg.EnableVirt && s.assign[vi] != s.initial[vi] && s.vms[vi].InOperation()
}

// scoreTimeStay is scoreTime at the VM's current host: Pvirt is zero
// (no operation needed) and PSLA sees no operation overhead.
func (sch *Scheduler) scoreTimeStay(s *shadow, vi int) float64 {
	return sch.stayAt(s.vms[vi], s.now)
}

// stayAt is scoreTimeStay of v as of virtual time now: the kernel's
// candidate pass asks it before v has a candidate index.
func (sch *Scheduler) stayAt(v *vm.VM, now float64) float64 {
	total := 0.0
	if sch.cfg.EnableSLA {
		p, infinite := sch.pSLA(v, now, 0)
		if infinite {
			return math.Inf(1)
		}
		total += p
	}
	return total
}

// scoreTimeMove is scoreTime for placing or migrating vi onto a node
// of class cl that is not its current host. One evaluation serves
// every such node of the class in a round.
func (sch *Scheduler) scoreTimeMove(s *shadow, vi int, cl *cluster.Class) float64 {
	cfg := &sch.cfg
	total := 0.0

	// P_virt: virtualization overheads (§III-A3).
	if cfg.EnableVirt {
		p, infinite := sch.pVirtMove(s, vi, cl)
		if infinite {
			return math.Inf(1)
		}
		total += p
	}

	// P_SLA: dynamic SLA enforcement (§III-A5).
	if cfg.EnableSLA {
		overhead := cl.MigrateCost
		if s.vms[vi].State == vm.Queued {
			overhead = cl.CreateCost
		}
		p, infinite := sch.pSLA(s.vms[vi], s.now, overhead)
		if infinite {
			return math.Inf(1)
		}
		total += p
	}

	return total
}

// pVirtMove computes the virtualization-overhead penalty:
//
//	∞            if an operation is in flight on the VM
//	Cc(h)        if the VM is new (queued)
//	Pm(h, vm)    otherwise (migration penalty)
//
// with Pm = 2·Cm when the user-estimated remaining time Tr is shorter
// than the migration itself (migrating a nearly-finished VM is pure
// waste), and Cm²/(2·Tr) otherwise — decaying as more remaining time
// amortizes the move. The stay case (Pvirt = 0 at the VM's current
// host) is handled by scoreTime's dispatch; this function covers a
// node of class cl that is not the VM's current host, and depends on
// the node only through its class, so the matrix build evaluates it
// once per ⟨VM, class⟩.
func (sch *Scheduler) pVirtMove(s *shadow, vi int, cl *cluster.Class) (penalty float64, infinite bool) {
	v := s.vms[vi]
	if v.InOperation() {
		return 0, true
	}
	if v.State == vm.Queued {
		return cl.CreateCost, false
	}
	cm := cl.MigrateCost
	tr := v.UserRemainingTime(s.now)
	if tr < cm {
		return 2 * cm, false
	}
	return cm * cm / (2 * tr), false
}

// pConc charges a host's in-flight creation/migration work against
// VMs that are not already running there: landing on a node busy
// creating or migrating other VMs races for disk and CPU.
func (sch *Scheduler) pConc(n *cluster.Node, v *vm.VM, s *shadow, ni, vi int) float64 {
	if s.initial[vi] == ni {
		return 0
	}
	return float64(n.CreatingOps)*n.Class.CreateCost + float64(n.MigratingOps)*n.Class.MigrateCost
}

// pPower implements P_pwr = Tempty(h)·Ce − O(h,vm)·Cf: hosts left
// with few VMs are penalized (we want them drained and turned off),
// and fuller hosts are rewarded to attract consolidation. occ is the
// already-computed occupation O(h,vm).
func (sch *Scheduler) pPower(s *shadow, ni, vi int, occ float64) float64 {
	cfg := &sch.cfg
	p := 0.0
	if s.vmCount(ni, vi) <= cfg.THempty {
		p += cfg.Cempty
	}
	p -= occ * cfg.Cfill
	return p
}

// pSLA implements the dynamic SLA enforcement penalty at virtual time
// now from the estimated fulfillment of v given the operation overhead
// of the candidate host (zero when the VM would stay put).
func (sch *Scheduler) pSLA(v *vm.VM, now, overhead float64) (penalty float64, infinite bool) {
	cfg := &sch.cfg
	// Assume the candidate host can grant the full requested CPU
	// (P_res already guaranteed the reservation fits).
	f := sla.Fulfillment(now, v.Submit, v.Deadline, v.Remaining(), v.Req.CPU, overhead)
	switch {
	case f >= 1:
		return 0, false
	case f > cfg.THsla:
		return cfg.Csla, false
	default:
		return 0, true
	}
}
