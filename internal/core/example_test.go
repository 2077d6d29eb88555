package core_test

import (
	"fmt"

	"energysched/internal/cluster"
	"energysched/internal/core"
	"energysched/internal/policy"
	"energysched/internal/vm"
)

// ExampleScheduler_Matrix reproduces the kind of score matrix §III-B
// of the paper walks through: two hosts plus the virtual host HV, a
// queued VM and a running one. Brackets mark each VM's current
// position; the queued VM's placement cells are hugely negative (any
// feasible allocation beats staying in the queue), and the running
// VM's cells show the centered improvement of moving it.
func ExampleScheduler_Matrix() {
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
	m := sch.Matrix(&policy.Context{
		Now:     0,
		Cluster: c,
		Queue:   []*vm.VM{queued},
		Active:  []*vm.VM{running},
	})
	fmt.Print(m)

	if host, vmIdx, _, ok := m.BestMove(); ok {
		fmt.Printf("best move: %s -> %s\n", m.VMLabels[vmIdx], m.HostLabels[host])
	}
	// Output:
	//             VM0      VM1
	// H0    -9999990.0    [0.0]
	// H1    -9999950.0      0.5
	// HV        [0.0]        ∞
	// best move: VM0 -> H0
}
