package core

import (
	"math"
	"testing"

	"energysched/internal/cluster"
	"energysched/internal/vm"
)

func pmCluster(t *testing.T, total, online, working int) *cluster.Cluster {
	t.Helper()
	cls := cluster.PaperClasses()[1]
	cls.Count = total
	c := cluster.MustNew([]cluster.Class{cls})
	for i := 0; i < online; i++ {
		c.Nodes[i].SetState(cluster.On)
	}
	for i := 0; i < working; i++ {
		v := vm.New(1000+i, vm.Requirements{CPU: 100, Mem: 5}, 0, 3600, 5400)
		v.State = vm.Running
		v.Host = i
		c.Nodes[i].AddVM(v)
	}
	return c
}

func mustPM(t *testing.T, lmin, lmax float64, minExec int) *PowerManager {
	t.Helper()
	pm, err := NewPowerManager(lmin, lmax, minExec)
	if err != nil {
		t.Fatal(err)
	}
	return pm
}

func TestNewPowerManagerValidation(t *testing.T) {
	if _, err := NewPowerManager(90, 30, 1); err == nil {
		t.Error("λmin > λmax accepted")
	}
	if _, err := NewPowerManager(0, 90, 1); err == nil {
		t.Error("zero λmin accepted")
	}
	if _, err := NewPowerManager(30, 90, -1); err == nil {
		t.Error("negative minexec accepted")
	}
	pm := mustPM(t, 30, 90, 1)
	if pm.LambdaMin != 0.3 || pm.LambdaMax != 0.9 {
		t.Errorf("percent thresholds not normalized: %v, %v", pm.LambdaMin, pm.LambdaMax)
	}
	pm2 := mustPM(t, 0.3, 0.9, 1)
	if pm2.LambdaMin != 0.3 || pm2.LambdaMax != 0.9 {
		t.Errorf("fraction thresholds mangled: %v, %v", pm2.LambdaMin, pm2.LambdaMax)
	}
}

// TestNewPowerManagerRejectsNaN: a NaN or infinite threshold fails the
// check rather than running the fleet on comparisons that are all
// false.
func TestNewPowerManagerRejectsNaN(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, l := range [][2]float64{{nan, 90}, {30, nan}, {nan, nan}, {inf, 90}, {30, inf}, {-inf, 90}} {
		if _, err := NewPowerManager(l[0], l[1], 1); err == nil {
			t.Errorf("λ = %v accepted", l)
		}
	}
}

func TestPlanBootsAboveLambdaMax(t *testing.T) {
	// 10 online, 10 working: ratio 1.0 > 0.9 → boot (throttled to 1).
	c := pmCluster(t, 20, 10, 10)
	pm := mustPM(t, 30, 90, 1)
	on, off := pm.Plan(0, c, nil)
	if len(on) != 1 || len(off) != 0 {
		t.Fatalf("plan = on %d / off %d, want 1 / 0", len(on), len(off))
	}
}

func TestPlanBootThrottle(t *testing.T) {
	c := pmCluster(t, 20, 10, 10)
	pm := mustPM(t, 30, 90, 1)
	if on, _ := pm.Plan(0, c, nil); len(on) != 1 {
		t.Fatal("first boot denied")
	}
	// Immediately after: pipeline busy.
	if on, _ := pm.Plan(1, c, nil); len(on) != 0 {
		t.Fatal("throttle ignored")
	}
	// After the interval: allowed again.
	if on, _ := pm.Plan(200, c, nil); len(on) != 1 {
		t.Fatal("boot denied after interval")
	}
}

func TestPlanShutsDownBelowLambdaMin(t *testing.T) {
	// 20 online, 2 working: ratio 0.1 < 0.3 → shut down idles toward
	// working/mid = 2/0.6 = 3.3 → target 4.
	c := pmCluster(t, 30, 20, 2)
	pm := mustPM(t, 30, 90, 1)
	on, off := pm.Plan(0, c, nil)
	if len(on) != 0 {
		t.Fatalf("booted %d nodes while under-used", len(on))
	}
	if len(off) != 16 {
		t.Fatalf("turned off %d, want 16 (down to target 4)", len(off))
	}
	for _, n := range off {
		if !n.Idle() {
			t.Fatalf("planned to turn off non-idle node %v", n)
		}
	}
}

func TestPlanRespectsMinExec(t *testing.T) {
	c := pmCluster(t, 10, 8, 0) // nothing working
	pm := mustPM(t, 30, 90, 3)
	_, off := pm.Plan(0, c, nil)
	if len(off) != 5 {
		t.Fatalf("turned off %d, want 5 (keep minexec 3)", len(off))
	}
}

func TestPlanStableInBand(t *testing.T) {
	// 10 working / 20 online = 0.5 within [0.3, 0.9]: no action.
	c := pmCluster(t, 30, 20, 10)
	pm := mustPM(t, 30, 90, 1)
	on, off := pm.Plan(0, c, nil)
	if len(on) != 0 || len(off) != 0 {
		t.Fatalf("in-band plan = on %d / off %d, want 0 / 0", len(on), len(off))
	}
}

func TestPlanWakesDrainedFleet(t *testing.T) {
	c := pmCluster(t, 10, 0, 0)
	pm := mustPM(t, 30, 90, 1)
	v := vm.New(0, vm.Requirements{CPU: 100, Mem: 5}, 0, 60, 90)
	on, _ := pm.Plan(1000, c, []*vm.VM{v})
	if len(on) == 0 {
		t.Fatal("fully drained fleet never woke up for a queued VM")
	}
}

func TestPlanEmergencyBypassesThrottle(t *testing.T) {
	// Online fleet full; a queued at-risk VM needs capacity NOW.
	c := pmCluster(t, 10, 2, 2)
	for i := 0; i < 2; i++ {
		v := vm.New(2000+i, vm.Requirements{CPU: 300, Mem: 5}, 0, 3600, 5400)
		v.State = vm.Running
		v.Host = i
		c.Nodes[i].AddVM(v)
	}
	pm := mustPM(t, 30, 90, 1)
	pm.lastBoot = 995 // pipeline busy
	pm.bootedOnce = true
	// Short job already past its slack: at risk.
	v := vm.New(1, vm.Requirements{CPU: 200, Mem: 5}, 900, 60, 900+90)
	on, _ := pm.Plan(1000, c, []*vm.VM{v})
	if len(on) == 0 {
		t.Fatal("emergency boost blocked by throttle")
	}
}

func TestPlanNoEmergencyForRelaxedVM(t *testing.T) {
	c := pmCluster(t, 10, 2, 2)
	for i := 0; i < 2; i++ {
		v := vm.New(2000+i, vm.Requirements{CPU: 300, Mem: 5}, 0, 3600, 5400)
		v.State = vm.Running
		v.Host = i
		c.Nodes[i].AddVM(v)
	}
	pm := mustPM(t, 30, 90, 1)
	pm.lastBoot = 995
	pm.bootedOnce = true
	// Plenty of deadline slack: no emergency.
	v := vm.New(1, vm.Requirements{CPU: 200, Mem: 5}, 990, 3600, 990+2*3600)
	on, _ := pm.Plan(1000, c, []*vm.VM{v})
	if len(on) != 0 {
		t.Fatalf("relaxed VM triggered %d emergency boots", len(on))
	}
}

func TestPlanUtilizationTrigger(t *testing.T) {
	// 2 online nodes drowning in reserved CPU (overcommit): the
	// utilization watchdog boots even though the node ratio is in
	// band... (2 working / 2 online = 1 > λmax anyway, so use 3
	// online with 2 heavily overcommitted).
	c := pmCluster(t, 20, 3, 2)
	for i := 0; i < 2; i++ {
		for k := 0; k < 8; k++ {
			v := vm.New(3000+8*i+k, vm.Requirements{CPU: 400, Mem: 5}, 0, 3600, 5400)
			v.State = vm.Running
			v.Host = i
			c.Nodes[i].AddVM(v)
		}
	}
	pm := mustPM(t, 30, 90, 1)
	pm.lastBoot = 0
	pm.bootedOnce = true // ratio pipeline busy at t=10
	on, _ := pm.Plan(10, c, nil)
	if len(on) == 0 {
		t.Fatal("utilization trigger did not boot")
	}
}

func TestRankOffPrefersSlowNodes(t *testing.T) {
	classes := cluster.PaperClasses()
	fast := cluster.NewNode(0, &classes[0])
	slow := cluster.NewNode(1, &classes[2])
	ranked := RankOff([]*cluster.Node{fast, slow})
	if ranked[0].ID != 1 {
		t.Errorf("RankOff[0] = node %d, want the slow node first", ranked[0].ID)
	}
}

// The turn-on preference is the order the cluster keeps its Off nodes
// in; Plan boots a prefix of it.
func TestBootOrderPrefersFastReliableNodes(t *testing.T) {
	classes := cluster.PaperClasses()
	for i := range classes {
		classes[i].Count = 1
	}
	classes = append(classes, classes[0]) // node 3: fast, about to turn flaky
	c := cluster.MustNew(classes)
	c.Nodes[3].SetReliability(0.5)
	ranked := c.AppendOff(nil, c.Size())
	if ranked[0].ID != 0 {
		t.Errorf("AppendOff[0] = node %d, want the fast reliable node", ranked[0].ID)
	}
	if last := ranked[len(ranked)-1].ID; last != 3 {
		t.Errorf("AppendOff ends with node %d, want the flaky one", last)
	}
	pm := mustPM(t, 30, 90, 1)
	on, _ := pm.Plan(0, c, nil)
	if len(on) != 1 || on[0].ID != 0 {
		t.Errorf("Plan boots %v, want the fast reliable node first", on)
	}
}

// A planning round reads the cluster's state index into the manager's
// own scratch: once warm it allocates nothing, whether the fleet is
// idle or the plan boots nodes for a backlog no online node can hold.
func TestPlanDoesNotAllocate(t *testing.T) {
	pm := mustPM(t, 30, 90, 1)
	idle := pmCluster(t, 2000, 1, 0)
	if a := testing.AllocsPerRun(100, func() {
		if on, off := pm.Plan(0, idle, nil); len(on)+len(off) != 0 {
			t.Fatalf("idle fleet plans on=%v off=%v", on, off)
		}
	}); a != 0 {
		t.Errorf("idle-fleet Plan allocates %v times per call", a)
	}

	loaded := pmCluster(t, 2000, 10, 10)
	var queue []*vm.VM
	for i := 0; i < 3; i++ { // overdue, and too big for any working node
		queue = append(queue, vm.New(i, vm.Requirements{CPU: 400, Mem: 5}, 0, 3600, 0))
	}
	if a := testing.AllocsPerRun(100, func() {
		if on, _ := pm.Plan(0, loaded, queue); len(on) != 3 {
			t.Fatalf("backlog plan boots %d nodes, want 3", len(on))
		}
	}); a != 0 {
		t.Errorf("booting Plan allocates %v times per call", a)
	}
}
