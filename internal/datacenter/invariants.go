package datacenter

import (
	"fmt"

	"energysched/internal/cluster"
)

// TickHook is a test hook: when non-nil it runs at the end of every
// housekeeping tick of every Simulation in the process. Tests that can
// only reach their simulations through a higher layer (a fleet, a chaos
// scenario) set it to assert CheckInvariants on the whole run; they set
// it before the first simulation starts and clear it after the last one
// stopped. Nothing else writes it.
var TickHook func(*Simulation)

// CheckInvariants recomputes by brute force what the round path keeps
// incrementally — the cluster's state index (cluster.CheckIndex) and the
// active-VM list — and checks that only On nodes host VMs, which is
// what lets checkpointTick advance the On nodes alone. It is pure and
// reports the first disagreement.
func (s *Simulation) CheckInvariants() error {
	if err := s.cluster.CheckIndex(); err != nil {
		return err
	}
	i := 0
	for _, v := range s.vms {
		if !v.Active() {
			continue
		}
		if i >= len(s.activeVMs) || s.activeVMs[i] != v {
			return fmt.Errorf("datacenter: active-VM list position %d is not vm %d", i, v.ID)
		}
		i++
	}
	if i != len(s.activeVMs) {
		return fmt.Errorf("datacenter: active-VM list holds %d VMs, %d are active", len(s.activeVMs), i)
	}
	for _, n := range s.cluster.Nodes {
		if n.State != cluster.On && len(n.VMs) > 0 {
			return fmt.Errorf("datacenter: node %d is %s but hosts %d VMs", n.ID, n.State, len(n.VMs))
		}
	}
	return nil
}
