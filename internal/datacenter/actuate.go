package datacenter

import (
	"energysched/internal/cluster"
	"energysched/internal/policy"
	"energysched/internal/vm"
)

// actuators: the operations the scheduler performs on the (simulated)
// infrastructure, with their virtualization overheads (§III-C and
// §IV). Creation and migration take class-dependent time with the
// N(mean, sigma) jitter observed on the paper's testbed, and inject
// dom0 CPU overhead on the involved nodes for their duration.

// applyPlace starts creating a queued VM on a node. Invalid requests
// (offline node, hardware mismatch) are ignored and the VM stays
// queued — the same contract a real cloud middleware offers a buggy
// scheduler. Overcommit is allowed and simply stretches execution via
// the CPU allocator; consolidation policies self-restrict through
// their occupation checks, the random baseline deliberately does not.
func (s *Simulation) applyPlace(a policy.Action) {
	v := a.VM
	n := s.cluster.Node(a.Node)
	if v.State != vm.Queued || n == nil || n.State != cluster.On {
		return
	}
	if !n.Satisfies(v.Req) {
		return
	}
	s.removeFromQueue(v)
	v.State = vm.Creating
	s.setActive(v, true)
	v.Host = n.ID
	s.touch(v)
	n.AddVM(v)
	n.BeginCreate()
	s.emit(EvPlace, v.ID, n.ID, -1)
	s.recomputeNode(&s.rt[n.ID])

	dur := s.creation.NormalPositive(n.Class.CreateCost, creationSigma)
	s.eng.AtCall(s.eng.Now()+dur, s.createdFn, v)
}

func (s *Simulation) onCreated(v *vm.VM) {
	if v.State != vm.Creating {
		return // the hosting node failed mid-creation
	}
	n := s.cluster.Node(v.Host)
	n.EndCreate()
	v.State = vm.Running
	s.active++
	s.touch(v)
	if v.Start < 0 {
		v.Start = s.eng.Now()
	}
	s.emit(EvCreated, v.ID, n.ID, -1)
	s.recomputeNode(&s.rt[n.ID])
	s.round()
}

// applyMigrate starts a live migration. The VM keeps running on the
// source for the duration; the destination holds a full reservation
// (memory is copied there) and both endpoints pay dom0 overhead.
func (s *Simulation) applyMigrate(a policy.Action) {
	v := a.VM
	if v.State != vm.Running || v.Host < 0 || v.Host == a.Node {
		return
	}
	src := s.cluster.Node(v.Host)
	dst := s.cluster.Node(a.Node)
	if dst == nil || dst.State != cluster.On || !dst.Satisfies(v.Req) {
		return
	}
	v.State = vm.Migrating
	v.MigrateTo = dst.ID
	s.touch(v)
	dst.AddVM(v) // reservation on the destination
	src.BeginMigrate()
	dst.BeginMigrate()
	s.emit(EvMigrateStart, v.ID, src.ID, dst.ID)
	s.recomputeNode(&s.rt[src.ID])
	s.recomputeNode(&s.rt[dst.ID])

	dur := s.migration.NormalPositive(dst.Class.MigrateCost, migrationSigma)
	s.eng.AtCall(s.eng.Now()+dur, s.migratedFn, v)
}

func (s *Simulation) onMigrated(v *vm.VM) {
	if v.State != vm.Migrating {
		return // source or destination failed mid-flight
	}
	src := s.cluster.Node(v.Host)
	dst := s.cluster.Node(v.MigrateTo)
	src.RemoveVM(v)
	src.EndMigrate()
	dst.EndMigrate()
	v.Host = dst.ID
	v.MigrateTo = -1
	v.State = vm.Running
	v.Migrations++
	v.LastMigrate = s.eng.Now()
	s.touch(v)
	s.migrations++
	s.emit(EvMigrated, v.ID, src.ID, dst.ID)
	s.recomputeNode(&s.rt[src.ID])
	s.recomputeNode(&s.rt[dst.ID])
	s.round()
}

// turnOn boots a powered-off node.
func (s *Simulation) turnOn(n *cluster.Node) {
	if n.State != cluster.Off {
		return
	}
	rt := &s.rt[n.ID]
	s.advanceNode(rt, s.eng.Now())
	n.SetState(cluster.Booting)
	rt.meter.Observe(s.eng.Now(), n.Watts(0))
	s.emit(EvBoot, -1, n.ID, -1)
	s.eng.AtCall(s.eng.Now()+n.Class.BootTime, s.bootedFn, n)
}

func (s *Simulation) onBooted(n *cluster.Node) {
	if n.State != cluster.Booting {
		return
	}
	n.SetState(cluster.On)
	s.emit(EvBooted, -1, n.ID, -1)
	s.recomputeNode(&s.rt[n.ID])
	s.armFailure(n)
	s.round()
}

// turnOff powers down an idle node.
func (s *Simulation) turnOff(n *cluster.Node) {
	if !n.Idle() {
		return
	}
	rt := &s.rt[n.ID]
	s.advanceNode(rt, s.eng.Now())
	n.SetState(cluster.Off)
	if rt.failTimer != nil {
		rt.failTimer.Cancel()
		rt.failTimer = nil
	}
	rt.meter.Observe(s.eng.Now(), n.Watts(0))
	s.emit(EvOff, -1, n.ID, -1)
}

// --- failure injection (reliability model, §III-A6) ---

// armFailure schedules the next failure of an operational node. The
// node's reliability factor Frel is its steady-state availability:
// with mean repair time MTTR, the mean time between failures is
// MTTR · Frel / (1 − Frel).
func (s *Simulation) armFailure(n *cluster.Node) {
	if !s.cfg.FailuresEnabled || n.Reliability >= 1 {
		return
	}
	rt := &s.rt[n.ID]
	if rt.failTimer != nil {
		rt.failTimer.Cancel()
	}
	mtbf := s.cfg.MTTR * n.Reliability / (1 - n.Reliability)
	delay := s.failures.Exp(1 / mtbf)
	rt.failTimer = s.eng.ScheduleCall(s.eng.Now()+delay, s.failureFn, n)
}

// onFailure crashes a node: every VM it hosts is lost and re-queued,
// recovering from its last checkpoint if one exists (§III-C: "if
// there is not available checkpoint, it recreates the VM").
func (s *Simulation) onFailure(n *cluster.Node) {
	rt := &s.rt[n.ID]
	rt.failTimer = nil
	if n.State != cluster.On {
		return
	}
	s.advanceNode(rt, s.eng.Now())
	s.failCount++
	s.emit(EvFailed, -1, n.ID, -1)

	// Lowest ID first: each pass takes the head of the node's ID-ordered
	// set, which RemoveVM then shifts down.
	for len(n.VMs) > 0 {
		v := n.VMs[0]
		n.RemoveVM(v)
		s.cancelCompletion(v, s.completionTimer[v.ID])
		switch {
		case v.State == vm.Migrating && v.Host == n.ID:
			// Source died mid-migration: release the destination.
			if dst := s.cluster.Node(v.MigrateTo); dst != nil {
				dst.RemoveVM(v)
				dst.EndMigrate()
				s.recomputeNode(&s.rt[dst.ID])
			}
			s.requeueFailed(v)
		case v.State == vm.Migrating:
			// Destination died: the VM keeps running on the source.
			src := s.cluster.Node(v.Host)
			src.EndMigrate()
			v.MigrateTo = -1
			v.State = vm.Running
			s.touch(v)
			s.recomputeNode(&s.rt[src.ID])
		case v.State == vm.Creating:
			n.EndCreate()
			s.requeueFailed(v)
		default:
			s.requeueFailed(v)
		}
	}
	n.ResetOps()
	n.SetState(cluster.Down)
	rt.meter.Observe(s.eng.Now(), n.Watts(0))

	s.eng.AtCall(s.eng.Now()+s.cfg.MTTR, s.repairedFn, n)
	s.round()
}

// CrashNode fails a node immediately, independent of the stochastic
// reliability model — the chaos harness's injection point. It must be
// called from inside the engine (an At/After callback), never from a
// foreign goroutine. The node recovers after MTTR like any organic
// failure, so repeated crashes on one node spaced further apart than
// MTTR model flapping. Returns false if the node does not exist or is
// not currently On (crashing a node that is Off, Down or booting is a
// no-op, exactly like the organic path).
func (s *Simulation) CrashNode(id int) bool {
	n := s.cluster.Node(id)
	if n == nil || n.State != cluster.On {
		return false
	}
	rt := &s.rt[n.ID]
	if rt.failTimer != nil {
		// Supersede the organic failure draw; onFailure re-arms nothing
		// until the node is next powered on.
		rt.failTimer.Cancel()
		rt.failTimer = nil
	}
	s.onFailure(n)
	return true
}

func (s *Simulation) onRepaired(n *cluster.Node) {
	if n.State != cluster.Down {
		return
	}
	n.SetState(cluster.Off)
	s.rt[n.ID].meter.Observe(s.eng.Now(), n.Watts(0))
	s.emit(EvRepaired, -1, n.ID, -1)
	s.round()
}

// requeueFailed sends a lost VM back to the virtual host, resuming
// from its checkpoint if it has one.
func (s *Simulation) requeueFailed(v *vm.VM) {
	// Callers hand us the VM with its pre-failure state intact, so this
	// is the one place that catches every active->queued transition.
	if v.State == vm.Running || v.State == vm.Migrating {
		s.active--
	}
	s.setActive(v, false)
	v.State = vm.Queued
	v.Host = -1
	v.MigrateTo = -1
	v.Alloc = 0
	v.Progress = v.Checkpoint
	v.Restarts++
	s.touch(v)
	s.queue = append(s.queue, v)
	s.emit(EvRequeued, v.ID, -1, -1)
}

func (s *Simulation) removeFromQueue(v *vm.VM) {
	for i, q := range s.queue {
		if q.ID == v.ID {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}
