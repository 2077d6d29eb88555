package policy

import (
	"testing"

	"energysched/internal/cluster"
	"energysched/internal/vm"
)

func testCluster(t *testing.T, n int) *cluster.Cluster {
	t.Helper()
	cls := cluster.PaperClasses()[1]
	cls.Count = n
	c := cluster.MustNew([]cluster.Class{cls})
	for _, node := range c.Nodes {
		node.SetState(cluster.On)
	}
	return c
}

func queuedVM(id int, cpu, mem float64) *vm.VM {
	return vm.New(id, vm.Requirements{CPU: cpu, Mem: mem}, 0, 3600, 5400)
}

func hostVM(c *cluster.Cluster, id, node int, cpu, mem float64) *vm.VM {
	v := queuedVM(id, cpu, mem)
	v.State = vm.Running
	v.Host = node
	c.Nodes[node].AddVM(v)
	return v
}

func ctx(c *cluster.Cluster, queue, active []*vm.VM) *Context {
	return &Context{Now: 0, Cluster: c, Queue: queue, Active: active}
}

func ofKind(actions []Action, k Kind) []Action {
	var out []Action
	for _, a := range actions {
		if a.Kind == k {
			out = append(out, a)
		}
	}
	return out
}

func places(actions []Action) []Action     { return ofKind(actions, KindPlace) }
func migrations(actions []Action) []Action { return ofKind(actions, KindMigrate) }

// --- Random ---

func TestRandomPlacesEveryVM(t *testing.T) {
	c := testCluster(t, 4)
	queue := []*vm.VM{queuedVM(0, 100, 5), queuedVM(1, 400, 20), queuedVM(2, 100, 5)}
	p := NewRandom(1)
	got := places(p.Schedule(ctx(c, queue, nil)))
	if len(got) != 3 {
		t.Fatalf("placed %d, want all 3 (random never queues)", len(got))
	}
}

func TestRandomIgnoresOccupation(t *testing.T) {
	c := testCluster(t, 1)
	hostVM(c, 10, 0, 400, 50) // node full
	p := NewRandom(1)
	got := places(p.Schedule(ctx(c, []*vm.VM{queuedVM(0, 400, 50)}, nil)))
	if len(got) != 1 || got[0].Node != 0 {
		t.Fatalf("random should overcommit the only node: %+v", got)
	}
}

func TestRandomRespectsHardware(t *testing.T) {
	c := testCluster(t, 2)
	v := queuedVM(0, 100, 5)
	v.Req.Arch = "sparc"
	if got := places(NewRandom(1).Schedule(ctx(c, []*vm.VM{v}, nil))); len(got) != 0 {
		t.Fatalf("random placed on incompatible hardware: %+v", got)
	}
}

func TestRandomSkipsOfflineNodes(t *testing.T) {
	c := testCluster(t, 3)
	c.Nodes[0].SetState(cluster.Off)
	c.Nodes[1].SetState(cluster.Booting)
	p := NewRandom(1)
	for i := 0; i < 20; i++ {
		got := places(p.Schedule(ctx(c, []*vm.VM{queuedVM(i, 100, 5)}, nil)))
		if len(got) != 1 || got[0].Node != 2 {
			t.Fatalf("random used a non-operational node: %+v", got)
		}
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []int {
		c := testCluster(t, 8)
		p := NewRandom(seed)
		var nodes []int
		for i := 0; i < 10; i++ {
			got := places(p.Schedule(ctx(c, []*vm.VM{queuedVM(i, 100, 5)}, nil)))
			nodes = append(nodes, got[0].Node)
		}
		return nodes
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed diverged")
		}
	}
}

// --- Round Robin ---

func TestRoundRobinOneVMPerNode(t *testing.T) {
	c := testCluster(t, 3)
	queue := []*vm.VM{queuedVM(0, 100, 5), queuedVM(1, 100, 5), queuedVM(2, 100, 5)}
	got := places(NewRoundRobin().Schedule(ctx(c, queue, nil)))
	if len(got) != 3 {
		t.Fatalf("placed %d, want 3", len(got))
	}
	seen := map[int]bool{}
	for _, p := range got {
		if seen[p.Node] {
			t.Fatalf("round robin doubled up on node %d", p.Node)
		}
		seen[p.Node] = true
	}
}

func TestRoundRobinQueuesWhenNoEmptyNode(t *testing.T) {
	c := testCluster(t, 2)
	hostVM(c, 10, 0, 100, 5)
	hostVM(c, 11, 1, 100, 5)
	got := places(NewRoundRobin().Schedule(ctx(c, []*vm.VM{queuedVM(0, 100, 5)}, nil)))
	if len(got) != 0 {
		t.Fatalf("RR placed on a busy node: %+v", got)
	}
}

func TestRoundRobinCyclesNodes(t *testing.T) {
	c := testCluster(t, 4)
	rr := NewRoundRobin()
	first := places(rr.Schedule(ctx(c, []*vm.VM{queuedVM(0, 100, 5)}, nil)))
	// Simulate the placement taking effect, then ask again.
	hostVM(c, 0, first[0].Node, 100, 5)
	second := places(rr.Schedule(ctx(c, []*vm.VM{queuedVM(1, 100, 5)}, nil)))
	if second[0].Node == first[0].Node {
		t.Fatalf("RR reused node %d immediately", first[0].Node)
	}
}

// --- Backfilling ---

func TestBackfillingPrefersFullestNode(t *testing.T) {
	c := testCluster(t, 3)
	hostVM(c, 10, 1, 200, 10) // node 1 at 50 %
	hostVM(c, 11, 2, 100, 5)  // node 2 at 25 %
	got := places(NewBackfilling().Schedule(ctx(c, []*vm.VM{queuedVM(0, 100, 5)}, nil)))
	if len(got) != 1 || got[0].Node != 1 {
		t.Fatalf("BF chose %+v, want the fullest fitting node 1", got)
	}
}

func TestBackfillingRespectsCapacity(t *testing.T) {
	c := testCluster(t, 2)
	hostVM(c, 10, 0, 400, 20) // full
	hostVM(c, 11, 1, 300, 15) // 75 %
	got := places(NewBackfilling().Schedule(ctx(c, []*vm.VM{queuedVM(0, 200, 10)}, nil)))
	if len(got) != 0 {
		t.Fatalf("BF overcommitted: %+v", got)
	}
}

func TestBackfillingSeesOwnPlacements(t *testing.T) {
	// Two 300 % VMs cannot share one node: the second must go
	// elsewhere even though the round started with both nodes empty.
	c := testCluster(t, 2)
	queue := []*vm.VM{queuedVM(0, 300, 15), queuedVM(1, 300, 15)}
	got := places(NewBackfilling().Schedule(ctx(c, queue, nil)))
	if len(got) != 2 {
		t.Fatalf("placed %d, want 2", len(got))
	}
	if got[0].Node == got[1].Node {
		t.Fatal("BF stacked two 300% VMs on one node within a round")
	}
}

func TestBackfillingQueuesWhenFull(t *testing.T) {
	c := testCluster(t, 1)
	hostVM(c, 10, 0, 400, 20)
	got := places(NewBackfilling().Schedule(ctx(c, []*vm.VM{queuedVM(0, 100, 5)}, nil)))
	if len(got) != 0 {
		t.Fatalf("BF placed on a full cluster: %+v", got)
	}
}

// --- Dynamic Backfilling ---

func TestDBFDrainsLeastOccupiedNode(t *testing.T) {
	c := testCluster(t, 3)
	hostVM(c, 10, 0, 100, 5)  // 25 % — the drain candidate
	hostVM(c, 11, 1, 200, 10) // 50 %
	hostVM(c, 12, 2, 300, 15) // 75 %
	dbf := NewDynamicBackfilling()
	migs := migrations(dbf.Schedule(ctx(c, nil, nil)))
	if len(migs) != 1 {
		t.Fatalf("migrations = %+v, want exactly one (drain node 0)", migs)
	}
	if migs[0].VM.ID != 10 {
		t.Fatalf("drained vm%d, want vm10", migs[0].VM.ID)
	}
	if migs[0].Node != 2 {
		t.Fatalf("moved to node %d, want the fullest fitting node 2", migs[0].Node)
	}
}

func TestDBFDrainIsAllOrNothing(t *testing.T) {
	c := testCluster(t, 2)
	// Node 0 holds two VMs; only one can fit on node 1: no drain.
	hostVM(c, 10, 0, 100, 5)
	hostVM(c, 11, 0, 100, 5)
	hostVM(c, 12, 1, 300, 15)
	migs := migrations(NewDynamicBackfilling().Schedule(ctx(c, nil, nil)))
	if len(migs) != 0 {
		t.Fatalf("partial drain planned: %+v", migs)
	}
}

func TestDBFDrainRateLimit(t *testing.T) {
	c := testCluster(t, 3)
	hostVM(c, 10, 0, 100, 5)
	hostVM(c, 11, 1, 200, 10)
	hostVM(c, 12, 2, 300, 15)
	dbf := NewDynamicBackfilling()
	cc := ctx(c, nil, nil)
	if migs := migrations(dbf.Schedule(cc)); len(migs) != 1 {
		t.Fatal("first drain denied")
	}
	// Within the drain interval: no further consolidation.
	cc.Now = 100
	if migs := migrations(dbf.Schedule(cc)); len(migs) != 0 {
		t.Fatal("drain rate limit ignored")
	}
	// After the interval it may drain again.
	cc.Now = 4000
	if migs := migrations(dbf.Schedule(cc)); len(migs) != 1 {
		t.Fatal("drain denied after interval")
	}
}

func TestDBFSkipsVMsInOperation(t *testing.T) {
	c := testCluster(t, 2)
	v := hostVM(c, 10, 0, 100, 5)
	v.State = vm.Migrating
	hostVM(c, 11, 1, 300, 15)
	migs := migrations(NewDynamicBackfilling().Schedule(ctx(c, nil, nil)))
	for _, m := range migs {
		if m.VM.ID == 10 {
			t.Fatalf("DBF planned to move an in-operation VM: %+v", migs)
		}
	}
}

func TestDBFStillBackfills(t *testing.T) {
	c := testCluster(t, 2)
	hostVM(c, 10, 0, 200, 10)
	got := places(NewDynamicBackfilling().Schedule(ctx(c, []*vm.VM{queuedVM(0, 100, 5)}, nil)))
	if len(got) != 1 || got[0].Node != 0 {
		t.Fatalf("DBF placement = %+v, want best-fit on node 0", got)
	}
}

func TestPolicyNames(t *testing.T) {
	cases := []struct {
		p    Policy
		name string
	}{
		{NewRandom(1), "RD"},
		{NewRoundRobin(), "RR"},
		{NewBackfilling(), "BF"},
		{NewDynamicBackfilling(), "DBF"},
	}
	for _, c := range cases {
		if c.p.Name() != c.name {
			t.Errorf("%s: name = %s", c.name, c.p.Name())
		}
	}
}
