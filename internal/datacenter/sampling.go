package datacenter

import (
	"energysched/internal/cluster"
	"energysched/internal/obs/series"
)

// SampleAt builds one accounting sample as of virtual time t — the
// paper's evaluation quantities (power draw, cumulative energy, SLA
// fulfillment, utilization, node counts, migration churn) plus the
// per-node-class breakdown — WITHOUT mutating any simulation state.
// Like ReportAt, purity is load-bearing: samples are taken from the
// housekeeping tick of live runs, so a sample that split a float
// integration interval or bumped an epoch would break the
// byte-identity contract between observed and unobserved runs.
//
// The breakdown is built in buf, which the caller owns: the sample's
// Classes is buf[:classes] when buf has the room (no allocation) and a
// fresh slice otherwise — nil buf allocates exactly one. Either way it
// is only valid until the caller reuses buf.
func (s *Simulation) SampleAt(t float64, buf []series.ClassSample) series.Sample {
	smp := series.Sample{
		T:          t,
		SLA:        s.satAgg.Mean(),
		Queue:      len(s.queue),
		Migrations: s.migrations,
		Completed:  s.completed,
	}

	// Per-class breakdown, in the class declaration order of the
	// cluster layout. Each node's class slot was resolved at
	// construction, so the breakdown starts as the named template, and
	// the fleet-wide node counts fall out of the same pass over the
	// nodes.
	classes := append(buf[:0], s.classTmpl...)
	var capOnline, reserved float64
	for i := range s.rt {
		rt := &s.rt[i]
		n := rt.node
		c := &classes[rt.class]
		w := rt.meter.CurrentWatts()
		k := rt.meter.KWhAt(t)
		c.Watts += w
		c.KWh += k
		smp.Watts += w
		smp.KWh += k
		switch n.State {
		case cluster.On:
			c.On++
			if n.Working() {
				c.Working++
				smp.Working++
			}
			smp.On++
			capOnline += n.Class.CPU
			reserved += n.CPUReserved()
		case cluster.Booting:
			c.On++
			smp.On++
		case cluster.Off:
			c.Off++
			smp.Off++
		}
	}
	if capOnline > 0 {
		smp.Utilization = 100 * reserved / capOnline
	}
	smp.Classes = classes

	// Running VMs come from the transition-maintained counter rather
	// than a sweep of the per-node VM sets: it counts each guest once
	// (a migrating VM holds reservations on both endpoints, but has
	// exactly one Running->Migrating transition) and costs nothing at
	// 10k-node chaos scale.
	smp.Running = s.active
	return smp
}
