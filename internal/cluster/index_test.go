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
		{"OffNodes", c.OffNodes(), want.off},
		{"IdleNodes", c.IdleNodes(), want.idle},
		{"AppendOff(3)", c.AppendOff(nil, 3), want.off[:min(3, len(want.off))]},
	} {
		if !slices.Equal(cmp.got, cmp.want) {
			t.Fatalf("after %s: %s = %v, sweep %v", after, cmp.name, cmp.got, cmp.want)
		}
	}
}

// TestIndexMatchesSweep drives a seeded random sequence of every
// mutator over a 50-node heterogeneous cluster and holds the index to
// the brute-force sweep after each one.
func TestIndexMatchesSweep(t *testing.T) {
	classes := PaperClasses()
	classes[0].Count, classes[1].Count, classes[2].Count = 10, 25, 15
	classes[2].Reliability = 0.95
	c := MustNew(classes)
	checkAgainstSweep(t, c, "New")

	r := rand.New(rand.NewSource(15))
	nextVM := 0
	for step := 0; step < 4000; step++ {
		n := c.Nodes[r.Intn(len(c.Nodes))]
		var op string
		switch r.Intn(9) {
		case 0, 1:
			op = "SetState"
			n.SetState(PowerState(r.Intn(4)))
		case 2:
			op = "AddVM"
			addVM(n, nextVM, 50, 5, vm.Running)
			nextVM++
		case 3:
			op = "RemoveVM"
			var oldest *vm.VM // not map order: the sequence must replay
			for _, v := range n.VMs {
				if oldest == nil || v.ID < oldest.ID {
					oldest = v
				}
			}
			if oldest != nil {
				n.RemoveVM(oldest)
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
