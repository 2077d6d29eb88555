package fleet

import (
	"energysched"
	"energysched/internal/cluster"
	"energysched/internal/metrics"
	"energysched/internal/vm"
)

// Conversions between the engine's internal model and the public wire
// types declared in the root package (client.go). The server marshals
// exactly those structs, so daemon and client cannot drift apart.

func jobStatus(v *vm.VM) energysched.JobStatus {
	progress := 0.0
	if v.Work > 0 {
		progress = 100 * v.Progress / v.Work
		if progress > 100 {
			progress = 100
		}
	}
	return energysched.JobStatus{
		ID:             v.ID,
		Name:           v.Name,
		State:          v.State.String(),
		Host:           v.Host,
		Submit:         v.Submit,
		Duration:       v.Duration,
		Deadline:       v.Deadline,
		ProgressPct:    progress,
		Start:          v.Start,
		Finish:         v.Finish,
		Migrations:     v.Migrations,
		Restarts:       v.Restarts,
		CPU:            v.Req.CPU,
		Mem:            v.Req.Mem,
		FaultTolerance: v.FaultTolerance,
	}
}

// nodeStatus renders a node; ids is the slice its VM IDs are appended
// to, ascending, with room for them.
func nodeStatus(n *cluster.Node, watts float64, ids []int) energysched.NodeStatus {
	for _, v := range n.VMs {
		ids = append(ids, v.ID)
	}
	return energysched.NodeStatus{
		ID:          n.ID,
		Class:       n.Class.Name,
		State:       n.State.String(),
		VMs:         ids,
		CPUReserved: n.CPUReserved(),
		MemReserved: n.MemReserved(),
		Occupation:  n.Occupation(),
		Watts:       watts,
	}
}

// ServiceReportOf renders an engine report as the wire ServiceReport:
// what the fleet serves, and what tests compare byte for byte against
// offline energysched.Run reports.
func ServiceReportOf(rep metrics.Report, final bool) energysched.ServiceReport {
	return energysched.ServiceReport{
		Policy:        rep.Policy,
		LambdaMin:     rep.LambdaMin,
		LambdaMax:     rep.LambdaMax,
		AvgWorking:    rep.AvgWorking,
		AvgOnline:     rep.AvgOnline,
		CPUHours:      rep.CPUHours,
		EnergyKWh:     rep.EnergyKWh,
		Satisfaction:  rep.Satisfaction,
		Delay:         rep.Delay,
		Migrations:    rep.Migrations,
		JobsCompleted: rep.JobsCompleted,
		JobsTotal:     rep.JobsTotal,
		Failures:      rep.Failures,
		SimEnd:        rep.SimEnd,
		Final:         final,
		Table:         rep.String(),
	}
}
