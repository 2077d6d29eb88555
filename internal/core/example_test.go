package core_test

import (
	"fmt"

	"energysched/internal/cluster"
	"energysched/internal/core"
	"energysched/internal/obs"
	"energysched/internal/policy"
	"energysched/internal/vm"
)

// ExampleScheduler_Schedule reproduces the worked example §III-B of the
// paper walks through: two hosts, a queued VM and a running one. The
// decision trace records why the solver acted: placing the queued VM0
// beside VM1 on host 0 beats staying in the queue by almost the whole
// queue score, and VM1 has no move that clears the migration
// hysteresis.
func ExampleScheduler_Schedule() {
	cls := cluster.PaperClasses()[1] // medium nodes: 4 cores, Cc=40, Cm=60
	cls.Count = 2
	c := cluster.MustNew([]cluster.Class{cls})
	for _, n := range c.Nodes {
		n.SetState(cluster.On)
	}

	// VM0 waits in the queue; VM1 runs alone on host 0.
	queued := vm.New(0, vm.Requirements{CPU: 100, Mem: 5}, 0, 3600, 7200)
	running := vm.New(1, vm.Requirements{CPU: 200, Mem: 10}, 0, 3600, 7200)
	running.State = vm.Running
	running.Host = 0
	c.Nodes[0].AddVM(running)

	sch := core.MustScheduler(core.SBConfig())
	sch.Tracer = printActions{}
	sch.Schedule(&policy.Context{
		Now:     0,
		Cluster: c,
		Queue:   []*vm.VM{queued},
		Active:  []*vm.VM{running},
	})
	// Output:
	// place vm0 -1 -> 0: current 10000000.0 chosen 10.0 gain -9999990.0
}

// printActions is a trace sink that prints each applied move.
type printActions struct{}

func (printActions) Verbosity() obs.Verbosity { return obs.TraceActions }

func (printActions) Emit(rt obs.RoundTrace) {
	for _, a := range rt.Actions {
		fmt.Printf("%s vm%d %d -> %d: current %.1f chosen %.1f gain %.1f\n",
			a.Kind, a.VM, a.From, a.To, a.Current, a.Chosen, a.Gain)
	}
}
