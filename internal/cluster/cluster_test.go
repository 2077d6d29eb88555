package cluster

import (
	"testing"

	"energysched/internal/vm"
)

func testClass() Class {
	c := PaperClasses()[1] // medium
	c.Count = 3
	return c
}

func newTestNode(t *testing.T) *Node {
	t.Helper()
	cls := testClass()
	return NewNode(0, &cls)
}

func addVM(n *Node, id int, cpu, mem float64, state vm.State) *vm.VM {
	v := vm.New(id, vm.Requirements{CPU: cpu, Mem: mem}, 0, 100, 200)
	v.State = state
	v.Host = n.ID
	n.AddVM(v)
	return v
}

func TestPaperClasses(t *testing.T) {
	classes := PaperClasses()
	if len(classes) != 3 {
		t.Fatalf("got %d classes", len(classes))
	}
	total := 0
	for _, c := range classes {
		total += c.Count
	}
	if total != 100 {
		t.Fatalf("paper fleet = %d nodes, want 100", total)
	}
	// The paper's overhead split: fast 30/40, medium 40/60, slow 60/80.
	checks := []struct {
		name   string
		count  int
		cc, cm float64
	}{
		{"fast", 15, 30, 40}, {"medium", 50, 40, 60}, {"slow", 35, 60, 80},
	}
	for i, w := range checks {
		c := classes[i]
		if c.Name != w.name || c.Count != w.count || c.CreateCost != w.cc || c.MigrateCost != w.cm {
			t.Errorf("class %d = %+v, want %+v", i, c, w)
		}
	}
}

func TestNodeStateHelpers(t *testing.T) {
	n := newTestNode(t)
	if n.State != Off || n.Operational() || n.Working() || n.Idle() {
		t.Error("fresh node should be off and inert")
	}
	n.SetState(On)
	if !n.Operational() || !n.Idle() || n.Working() {
		t.Error("empty online node should be idle, not working")
	}
	addVM(n, 1, 100, 10, vm.Running)
	if !n.Working() || n.Idle() {
		t.Error("hosting node should be working")
	}
}

func TestNodeWorkingDuringOps(t *testing.T) {
	n := newTestNode(t)
	n.SetState(On)
	n.BeginCreate()
	if !n.Working() || n.Idle() {
		t.Error("node creating a VM is working")
	}
}

func TestOccupation(t *testing.T) {
	n := newTestNode(t)
	n.SetState(On)
	addVM(n, 1, 100, 50, vm.Running) // CPU 25 %, Mem 50 %
	if got := n.Occupation(); got != 0.5 {
		t.Errorf("occupation = %v, want 0.5 (memory binds)", got)
	}
	addVM(n, 2, 300, 10, vm.Running) // CPU 100 %, Mem 60 %
	if got := n.Occupation(); got != 1.0 {
		t.Errorf("occupation = %v, want 1.0 (CPU binds)", got)
	}
}

func TestOccupationWith(t *testing.T) {
	n := newTestNode(t)
	addVM(n, 1, 200, 20, vm.Running)
	if got := n.OccupationWith(100, 10); got != 0.75 {
		t.Errorf("occupation with extra = %v, want 0.75", got)
	}
}

func TestFits(t *testing.T) {
	n := newTestNode(t)
	addVM(n, 1, 300, 20, vm.Running)
	if !n.Fits(vm.Requirements{CPU: 100, Mem: 10}) {
		t.Error("fitting VM rejected")
	}
	if n.Fits(vm.Requirements{CPU: 200, Mem: 10}) {
		t.Error("CPU overflow accepted")
	}
	if n.Fits(vm.Requirements{CPU: 100, Mem: 90}) {
		t.Error("memory overflow accepted")
	}
}

func TestSatisfies(t *testing.T) {
	n := newTestNode(t)
	if !n.Satisfies(vm.Requirements{CPU: 100, Mem: 10}) {
		t.Error("basic requirements rejected")
	}
	if !n.Satisfies(vm.Requirements{CPU: 100, Arch: "x86_64", Hypervisor: "xen"}) {
		t.Error("matching arch/hypervisor rejected")
	}
	if n.Satisfies(vm.Requirements{CPU: 100, Arch: "arm64"}) {
		t.Error("wrong arch accepted")
	}
	if n.Satisfies(vm.Requirements{CPU: 100, Hypervisor: "kvm"}) {
		t.Error("wrong hypervisor accepted")
	}
	if n.Satisfies(vm.Requirements{CPU: 800}) {
		t.Error("VM bigger than the node accepted")
	}
}

func TestWattsByState(t *testing.T) {
	n := newTestNode(t)
	if got := n.Watts(0); got != StandbyWatts {
		t.Errorf("off watts = %v, want standby", got)
	}
	n.SetState(Booting)
	if got := n.Watts(0); got != 230 {
		t.Errorf("booting watts = %v, want idle 230", got)
	}
	n.SetState(On)
	if got := n.Watts(400); got != 304 {
		t.Errorf("full-load watts = %v, want 304", got)
	}
	n.SetState(Down)
	if got := n.Watts(100); got != StandbyWatts {
		t.Errorf("down watts = %v, want standby", got)
	}
}

func TestClusterNew(t *testing.T) {
	c, err := New(PaperClasses())
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 100 {
		t.Fatalf("size = %d", c.Size())
	}
	if c.Node(0) == nil || c.Node(99) == nil {
		t.Error("node lookup failed")
	}
	if c.Node(-1) != nil || c.Node(100) != nil {
		t.Error("out-of-range lookup should be nil")
	}
	if got := c.TotalCPU(); got != 100*400 {
		t.Errorf("total CPU = %v", got)
	}
}

func TestClusterNewValidation(t *testing.T) {
	bad := testClass()
	bad.Count = 0
	if _, err := New([]Class{bad}); err == nil {
		t.Error("zero count accepted")
	}
	bad = testClass()
	bad.CPU = 0
	if _, err := New([]Class{bad}); err == nil {
		t.Error("zero CPU accepted")
	}
	bad = testClass()
	bad.Reliability = 0
	if _, err := New([]Class{bad}); err == nil {
		t.Error("zero reliability accepted")
	}
	bad = testClass()
	bad.Reliability = 1.5
	if _, err := New([]Class{bad}); err == nil {
		t.Error("reliability > 1 accepted")
	}
	if _, err := New(nil); err == nil {
		t.Error("empty cluster accepted")
	}
}

func TestClusterCounts(t *testing.T) {
	c := MustNew([]Class{testClass()})
	c.Nodes[0].SetState(On)
	c.Nodes[1].SetState(Booting)
	addVM(c.Nodes[0], 1, 100, 10, vm.Running)

	working, online := c.Counts()
	if working != 1 || online != 2 {
		t.Fatalf("counts = (%d, %d), want (1, 2)", working, online)
	}
	if got := len(c.OnlineNodes()); got != 1 {
		t.Errorf("online nodes = %d, want 1 (booting is not operational)", got)
	}
	if got := len(c.OffNodes()); got != 1 {
		t.Errorf("off nodes = %d", got)
	}
	if got := len(c.IdleNodes()); got != 0 {
		t.Errorf("idle nodes = %d, want 0", got)
	}
}

// TestNodeEpochAndReservedSums pins the cross-round cache contract:
// every mutation method advances Epoch, the incremental reservation
// sums track AddVM/RemoveVM exactly, and an emptied node reads
// exactly zero (no float residue).
func TestNodeEpochAndReservedSums(t *testing.T) {
	c := MustNew([]Class{testClass()})
	n := c.Nodes[0]

	e := n.Epoch
	step := func(what string, f func()) {
		t.Helper()
		f()
		if n.Epoch <= e {
			t.Errorf("%s did not advance the epoch", what)
		}
		e = n.Epoch
	}

	a := addVM(n, 1, 100, 10.5, vm.Running) // addVM uses AddVM internally
	e = n.Epoch
	step("AddVM", func() { addVM(n, 2, 50, 5.25, vm.Running) })
	if n.CPUReserved() != 150 || n.MemReserved() != 15.75 {
		t.Fatalf("reserved = (%v, %v), want (150, 15.75)", n.CPUReserved(), n.MemReserved())
	}
	prev := n.Epoch
	n.AddVM(a) // duplicate add is a no-op
	if n.Epoch != prev || n.CPUReserved() != 150 {
		t.Fatalf("duplicate AddVM mutated the node")
	}
	step("SetState", func() { n.SetState(On) })
	prev = n.Epoch
	n.SetState(On)
	if n.Epoch != prev {
		t.Errorf("no-op SetState advanced the epoch")
	}
	step("BeginCreate", n.BeginCreate)
	step("EndCreate", n.EndCreate)
	step("BeginMigrate", n.BeginMigrate)
	step("EndMigrate", n.EndMigrate)
	step("ResetOps", n.ResetOps)
	step("Touch", n.Touch)
	step("RemoveVM", func() { n.RemoveVM(a) })
	prev = n.Epoch
	n.RemoveVM(a)
	if n.Epoch != prev {
		t.Errorf("removing an absent VM advanced the epoch")
	}
	n.RemoveVM(n.VMs[0])
	if n.CPUReserved() != 0 || n.MemReserved() != 0 {
		t.Fatalf("emptied node reserved = (%v, %v), want exact zeros", n.CPUReserved(), n.MemReserved())
	}
}

func TestPowerStateString(t *testing.T) {
	for s, want := range map[PowerState]string{
		Off: "off", Booting: "booting", On: "on", Down: "down",
		PowerState(9): "powerstate(9)",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}
