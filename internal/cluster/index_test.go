package cluster

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"energysched/internal/vm"
)

// sweep is the brute-force reading of a cluster the index replaced:
// filters over Nodes, and the power manager's former RankOn sort.
type sweep struct {
	on, off, idle   []*Node
	working, online int
	byState         [4]int
}

func sweepOf(c *Cluster) sweep {
	var s sweep
	for _, n := range c.Nodes {
		s.byState[n.State]++
		switch n.State {
		case On:
			s.on = append(s.on, n)
			s.online++
			if n.Working() {
				s.working++
			}
			if n.Idle() {
				s.idle = append(s.idle, n)
			}
		case Booting:
			s.online++
		case Off:
			s.off = append(s.off, n)
		}
	}
	sort.SliceStable(s.off, func(i, j int) bool {
		a, b := s.off[i], s.off[j]
		sa := a.Class.BootTime + a.Class.CreateCost + 200*(1-a.Reliability)
		sb := b.Class.BootTime + b.Class.CreateCost + 200*(1-b.Reliability)
		if sa != sb {
			return sa < sb
		}
		return a.ID < b.ID
	})
	return s
}

// checkAgainstSweep compares every index reader with the sweep, and
// CheckIndex with both.
func checkAgainstSweep(t *testing.T, c *Cluster, after string) {
	t.Helper()
	if err := c.CheckIndex(); err != nil {
		t.Fatalf("after %s: %v", after, err)
	}
	want := sweepOf(c)
	if w, o := c.Counts(); w != want.working || o != want.online {
		t.Fatalf("after %s: Counts = (%d, %d), sweep (%d, %d)", after, w, o, want.working, want.online)
	}
	for s, n := range want.byState {
		if got := c.StateCount(PowerState(s)); got != n {
			t.Fatalf("after %s: StateCount(%s) = %d, sweep %d", after, PowerState(s), got, n)
		}
	}
	for _, cmp := range []struct {
		name      string
		got, want []*Node
	}{
		{"OnlineNodes", c.OnlineNodes(), want.on},
		{"AppendOff(all)", c.AppendOff(nil, c.Size()), want.off},
		{"AppendIdle", c.AppendIdle(nil), want.idle},
		{"AppendOff(3)", c.AppendOff(nil, 3), want.off[:min(3, len(want.off))]},
	} {
		if !slices.Equal(cmp.got, cmp.want) {
			t.Fatalf("after %s: %s = %v, sweep %v", after, cmp.name, cmp.got, cmp.want)
		}
	}
}

// checkVMSet holds n.VMs to the model of what it hosts: strictly
// ascending ID, and exactly the model's VMs.
func checkVMSet(t *testing.T, n *Node, model map[int]*vm.VM, after string) {
	t.Helper()
	if len(n.VMs) != len(model) {
		t.Fatalf("after %s: node %d hosts %d VMs, model %d", after, n.ID, len(n.VMs), len(model))
	}
	for i, v := range n.VMs {
		if i > 0 && n.VMs[i-1].ID >= v.ID {
			t.Fatalf("after %s: node %d VMs out of order at %d (IDs %d, %d)", after, n.ID, i, n.VMs[i-1].ID, v.ID)
		}
		if model[v.ID] != v {
			t.Fatalf("after %s: node %d hosts VM %d, model has %v", after, n.ID, v.ID, model[v.ID])
		}
	}
}

// TestIndexMatchesSweep drives a seeded random sequence of every
// mutator over a 50-node heterogeneous cluster and holds the index to
// the brute-force sweep, and every node's VM set to a map model, after
// each one. VM IDs are drawn at random, so placements land anywhere in
// a node's set, not only at its end.
func TestIndexMatchesSweep(t *testing.T) {
	classes := PaperClasses()
	classes[0].Count, classes[1].Count, classes[2].Count = 10, 25, 15
	classes[2].Reliability = 0.95
	c := MustNew(classes)
	checkAgainstSweep(t, c, "New")
	models := make([]map[int]*vm.VM, len(c.Nodes))
	for i := range models {
		models[i] = map[int]*vm.VM{}
	}

	r := rand.New(rand.NewSource(15))
	for step := 0; step < 4000; step++ {
		n := c.Nodes[r.Intn(len(c.Nodes))]
		model := models[n.ID]
		var op string
		switch r.Intn(11) {
		case 0, 1:
			op = "SetState"
			n.SetState(PowerState(r.Intn(4)))
		case 2:
			op = "AddVM"
			id := r.Intn(1000)
			if _, hosted := model[id]; hosted {
				break
			}
			model[id] = addVM(n, id, 50, 5, vm.Running)
		case 3:
			op = "RemoveVM"
			if len(n.VMs) > 0 {
				v := n.VMs[r.Intn(len(n.VMs))]
				delete(model, v.ID)
				n.RemoveVM(v)
			}
		case 9, 10:
			// Adding a hosted VM again, or removing an ID the node does not
			// host, changes nothing.
			op = "no-op Add/RemoveVM"
			epoch, cpu := n.Epoch, n.CPUReserved()
			if len(n.VMs) > 0 && r.Intn(2) == 0 {
				n.AddVM(n.VMs[r.Intn(len(n.VMs))])
			} else if id := r.Intn(1000); model[id] == nil {
				n.RemoveVM(vm.New(id, vm.Requirements{CPU: 50, Mem: 5}, 0, 100, 200))
			}
			if n.Epoch != epoch || n.CPUReserved() != cpu {
				t.Fatalf("step %d: %s changed node %d (epoch %d → %d, cpu %v → %v)", step, op, n.ID, epoch, n.Epoch, cpu, n.CPUReserved())
			}
		case 4:
			op = "BeginCreate"
			n.BeginCreate()
		case 5:
			op = "EndCreate"
			if n.CreatingOps > 0 {
				n.EndCreate()
			}
		case 6:
			op = "Begin/EndMigrate"
			if n.MigratingOps > 0 && r.Intn(2) == 0 {
				n.EndMigrate()
			} else {
				n.BeginMigrate()
			}
		case 7:
			op = "ResetOps"
			n.ResetOps()
		case 8:
			op = "SetReliability"
			// A few distinct values, so keys tie across classes and IDs
			// break the ties.
			n.SetReliability(1 - 0.05*float64(r.Intn(4)))
		}
		checkAgainstSweep(t, c, op)
		checkVMSet(t, n, model, op)
	}
}

// The oracle has to notice a write that went around the mutators.
func TestCheckIndexDetectsStaleIndex(t *testing.T) {
	c := MustNew([]Class{testClass()})
	c.Nodes[1].SetState(On)
	for name, corrupt := range map[string]func(){
		"state":       func() { c.Nodes[0].State = On },
		"reliability": func() { c.Nodes[0].Reliability = 0.5 },
		"ops":         func() { c.Nodes[1].CreatingOps++ },
	} {
		if err := c.CheckIndex(); err != nil {
			t.Fatalf("before %s: %v", name, err)
		}
		n0, n1 := *c.Nodes[0], *c.Nodes[1]
		corrupt()
		if c.CheckIndex() == nil {
			t.Errorf("CheckIndex accepted a direct %s write", name)
		}
		*c.Nodes[0], *c.Nodes[1] = n0, n1
	}
}

// A node built outside any cluster keeps working without an index.
func TestStandaloneNodeMutators(t *testing.T) {
	n := newTestNode(t)
	n.SetState(On)
	n.SetReliability(0.9)
	n.BeginCreate()
	v := addVM(n, 1, 100, 10, vm.Running)
	n.RemoveVM(v)
	n.ResetOps()
	if n.State != On || n.Reliability != 0.9 || !n.Idle() {
		t.Errorf("standalone node ended as %v (Frel %v)", n, n.Reliability)
	}
}

// The per-round readers are index reads: they allocate nothing.
func TestIndexReadsDoNotAllocate(t *testing.T) {
	cls := testClass()
	cls.Count = 2000
	c := MustNew([]Class{cls})
	for i := 0; i < 20; i++ {
		c.Nodes[i*7].SetState(On)
	}
	sink := 0
	if a := testing.AllocsPerRun(100, func() {
		w, o := c.Counts()
		sink += w + o
	}); a != 0 {
		t.Errorf("Counts allocates %v times per call", a)
	}
	buf := c.AppendOnline(nil)
	if a := testing.AllocsPerRun(100, func() {
		buf = c.AppendOnline(buf[:0])
		sink += len(buf)
	}); a != 0 {
		t.Errorf("AppendOnline into a warm buffer allocates %v times per call", a)
	}
	if sink == 0 {
		t.Error("readers returned nothing")
	}
}
