package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"energysched/internal/cluster"
	"energysched/internal/policy"
	"energysched/internal/vm"
)

// mustScheduler is NewScheduler for configurations known valid.
func mustScheduler(cfg Config) *Scheduler {
	s, err := NewScheduler(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// testCluster builds n medium nodes, all On.
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

func runningVM(id int, cpu, mem float64, c *cluster.Cluster, node int) *vm.VM {
	v := queuedVM(id, cpu, mem)
	v.State = vm.Running
	v.Host = node
	c.Nodes[node].AddVM(v)
	return v
}

// newShadow is a shadow of one round over nodes and vms.
func newShadow(now float64, nodes []*cluster.Node, vms []*vm.VM) *shadow {
	s := &shadow{}
	s.reset(now, nodes, vms)
	return s
}

func scoreOf(t *testing.T, sch *Scheduler, c *cluster.Cluster, vms []*vm.VM, ni, vi int) float64 {
	t.Helper()
	s := newShadow(0, c.Nodes, vms)
	return sch.score(s, ni, vi)
}

func TestScorePreqInfeasibleArch(t *testing.T) {
	c := testCluster(t, 1)
	sch := mustScheduler(SB0Config())
	v := queuedVM(0, 100, 5)
	v.Req.Arch = "sparc"
	if got := scoreOf(t, sch, c, []*vm.VM{v}, 0, 0); !math.IsInf(got, 1) {
		t.Errorf("incompatible arch score = %v, want +Inf", got)
	}
}

func TestScorePreqOfflineHost(t *testing.T) {
	c := testCluster(t, 1)
	c.Nodes[0].SetState(cluster.Off)
	sch := mustScheduler(SB0Config())
	v := queuedVM(0, 100, 5)
	if got := scoreOf(t, sch, c, []*vm.VM{v}, 0, 0); !math.IsInf(got, 1) {
		t.Errorf("offline host score = %v, want +Inf", got)
	}
}

func TestScorePresOverflow(t *testing.T) {
	c := testCluster(t, 1)
	runningVM(1, 350, 5, c, 0)
	sch := mustScheduler(SB0Config())
	v := queuedVM(0, 100, 5)
	if got := scoreOf(t, sch, c, []*vm.VM{v}, 0, 0); !math.IsInf(got, 1) {
		t.Errorf("overflowing placement score = %v, want +Inf", got)
	}
}

func TestScorePvirtCreation(t *testing.T) {
	c := testCluster(t, 1)
	sch := mustScheduler(SB1Config())
	cfgOff := mustScheduler(SB0Config())
	v := queuedVM(0, 100, 5)
	with := scoreOf(t, sch, c, []*vm.VM{v}, 0, 0)
	without := scoreOf(t, cfgOff, c, []*vm.VM{v}, 0, 0)
	// SB1 adds exactly the creation cost of the medium class (40 s).
	if diff := with - without; math.Abs(diff-40) > 1e-9 {
		t.Errorf("creation penalty = %v, want 40", diff)
	}
}

func TestScorePvirtInOperation(t *testing.T) {
	c := testCluster(t, 2)
	v := runningVM(0, 100, 5, c, 0)
	v.State = vm.Migrating
	sch := mustScheduler(SBConfig())
	if got := scoreOf(t, sch, c, []*vm.VM{v}, 1, 0); !math.IsInf(got, 1) {
		t.Errorf("in-operation move score = %v, want +Inf", got)
	}
}

func TestScorePvirtMigrationShortRemaining(t *testing.T) {
	c := testCluster(t, 2)
	v := runningVM(0, 100, 5, c, 0)
	sch := mustScheduler(SBConfig())
	// At now = 3590, Tr = 10 s < Cm = 60 s → Pm = 2·Cm = 120.
	s := newShadow(3590, c.Nodes, []*vm.VM{v})
	p, inf := sch.pVirtMove(s, 0, c.Nodes[1].Class)
	if inf || math.Abs(p-120) > 1e-9 {
		t.Errorf("short-remaining Pm = %v (inf=%v), want 120", p, inf)
	}
}

func TestScorePvirtMigrationLongRemaining(t *testing.T) {
	c := testCluster(t, 2)
	v := runningVM(0, 100, 5, c, 0)
	sch := mustScheduler(SBConfig())
	// At now = 0, Tr = 3600 ≥ Cm = 60 → Pm = Cm²/(2·Tr) = 0.5.
	s := newShadow(0, c.Nodes, []*vm.VM{v})
	p, inf := sch.pVirtMove(s, 0, c.Nodes[1].Class)
	if inf || math.Abs(p-0.5) > 1e-9 {
		t.Errorf("long-remaining Pm = %v (inf=%v), want 0.5", p, inf)
	}
}

func TestScorePvirtStayIsFree(t *testing.T) {
	c := testCluster(t, 2)
	v := runningVM(0, 100, 5, c, 0)
	sch := mustScheduler(SBConfig())
	s := newShadow(0, c.Nodes, []*vm.VM{v})
	// scoreTime dispatches the stay case: the current host carries no
	// virtualization overhead (and SLA is off in SBConfig).
	if got := sch.scoreTime(s, 0, 0); got != 0 {
		t.Errorf("stay-in-place time-dependent score = %v, want 0", got)
	}
}

func TestScorePconc(t *testing.T) {
	c := testCluster(t, 2)
	c.Nodes[1].BeginCreate()
	c.Nodes[1].BeginCreate()
	c.Nodes[1].BeginMigrate()
	sch := mustScheduler(SB2Config())
	v := queuedVM(0, 100, 5)
	s := newShadow(0, c.Nodes, []*vm.VM{v})
	// Medium class: 2 creations × 40 + 1 migration × 60 = 140.
	got := sch.pConc(c.Nodes[1], v, s, 1, 0)
	if math.Abs(got-140) > 1e-9 {
		t.Errorf("Pconc = %v, want 140", got)
	}
	// No concurrency penalty on the VM's own host.
	r := runningVM(1, 100, 5, c, 1)
	s2 := newShadow(0, c.Nodes, []*vm.VM{r})
	if got := sch.pConc(c.Nodes[1], r, s2, 1, 0); got != 0 {
		t.Errorf("own-host Pconc = %v, want 0", got)
	}
}

func TestScorePpwrEmptyVsOccupied(t *testing.T) {
	c := testCluster(t, 2)
	runningVM(1, 200, 10, c, 0) // node 0 has one VM
	runningVM(2, 100, 5, c, 0)  // and another: not emptiable
	sch := mustScheduler(SB0Config())
	v := queuedVM(0, 100, 5)
	vms := []*vm.VM{v}
	occupied := scoreOf(t, sch, c, vms, 0, 0)
	empty := scoreOf(t, sch, c, vms, 1, 0)
	if occupied >= empty {
		t.Errorf("occupied host (%v) should score below empty host (%v)", occupied, empty)
	}
	// Empty host: Tempty → +Ce; occupation term small.
	wantEmpty := 20.0 - (100.0/400)*40
	if math.Abs(empty-wantEmpty) > 1e-9 {
		t.Errorf("empty host score = %v, want %v", empty, wantEmpty)
	}
}

func TestScorePSLA(t *testing.T) {
	c := testCluster(t, 1)
	cfg := SB0Config()
	cfg.enableSLA = true
	sch := mustScheduler(cfg)
	// A queued VM whose deadline already passed scores +Inf.
	v := queuedVM(0, 100, 5)
	v.Deadline = 10
	s := newShadow(1e6, c.Nodes, []*vm.VM{v})
	if got := sch.score(s, 0, 0); !math.IsInf(got, 1) {
		t.Errorf("hopeless SLA score = %v, want +Inf", got)
	}
	// A mildly at-risk VM pays Csla.
	v2 := queuedVM(1, 100, 5)
	v2.Deadline = 4200 // budget 4200 vs projected 40 + 3600... fulfilled
	s2 := newShadow(1000, c.Nodes, []*vm.VM{v2})
	base := sch.score(s2, 0, 0)
	if math.IsInf(base, 1) {
		t.Fatalf("at-risk score unexpectedly infinite")
	}
	// Fulfillment in (THsla, 1): projected = 1000+40+3600 = 4640 >
	// 4200 → f ≈ 0.905 → +Csla relative to a fulfilled VM.
	v3 := queuedVM(2, 100, 5)
	v3.Deadline = 10000
	s3 := newShadow(1000, c.Nodes, []*vm.VM{v3})
	ok := sch.score(s3, 0, 0)
	if math.Abs((base-ok)-csla) > 1e-9 {
		t.Errorf("SLA penalty = %v, want %v", base-ok, csla)
	}
}

func TestScorePfault(t *testing.T) {
	c := testCluster(t, 1)
	c.Nodes[0].SetReliability(0.9)
	cfg := SB0Config()
	cfg.enableFault = true
	cfg.enablePower = false
	sch := mustScheduler(cfg)
	v := queuedVM(0, 100, 5)
	v.FaultTolerance = 0.02
	got := scoreOf(t, sch, c, []*vm.VM{v}, 0, 0)
	want := ((1 - 0.9) - 0.02) * cfail
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Pfault = %v, want %v", got, want)
	}
}

func TestVariantNames(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{SB0Config(), "SB0"}, {SB1Config(), "SB1"},
		{SB2Config(), "SB2"}, {SBConfig(), "SB"},
	} {
		if got := mustScheduler(c.cfg).Name(); got != c.want {
			t.Errorf("variant name = %q, want %q", got, c.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := DefaultConfig()
	bad.Cempty = -1
	if _, err := NewScheduler(bad); err == nil {
		t.Error("negative Cempty accepted")
	}
	bad = DefaultConfig()
	bad.THempty = -1
	if _, err := NewScheduler(bad); err == nil {
		t.Error("negative THempty accepted")
	}
}

// TestConfigValidateRejectsNaN: each check of Config.Validate fails on
// a NaN, and on an infinite cost, instead of letting it through to a
// hill climb whose comparisons are then all false.
func TestConfigValidateRejectsNaN(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for name, set := range map[string]func(*Config){
		"Cempty NaN":           func(c *Config) { c.Cempty = nan },
		"Cempty +Inf":          func(c *Config) { c.Cempty = inf },
		"Cfill NaN":            func(c *Config) { c.Cfill = nan },
		"Cfill +Inf":           func(c *Config) { c.Cfill = inf },
		"MigrationGainMin NaN": func(c *Config) { c.MigrationGainMin = nan },
	} {
		cfg := DefaultConfig()
		set(&cfg)
		if _, err := NewScheduler(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// --- solver behaviour ---

func ctxFor(c *cluster.Cluster, queue, active []*vm.VM) *policy.Context {
	return &policy.Context{
		Now: 0, Cluster: c, Queue: queue, Active: active,
	}
}

func TestSchedulePlacesQueuedVM(t *testing.T) {
	c := testCluster(t, 3)
	sch := mustScheduler(SB0Config())
	v := queuedVM(0, 100, 5)
	actions := sch.Schedule(ctxFor(c, []*vm.VM{v}, nil))
	if len(actions) != 1 {
		t.Fatalf("actions = %d, want 1", len(actions))
	}
	if pl := actions[0]; pl.Kind != policy.KindPlace || pl.VM.ID != 0 {
		t.Fatalf("unexpected action %+v", pl)
	}
}

func TestSchedulePrefersOccupiedHost(t *testing.T) {
	c := testCluster(t, 3)
	runningVM(1, 200, 10, c, 2)
	runningVM(2, 100, 5, c, 2) // node 2 not emptiable and occupied
	sch := mustScheduler(SB0Config())
	v := queuedVM(0, 100, 5)
	actions := sch.Schedule(ctxFor(c, []*vm.VM{v}, nil))
	if len(actions) != 1 {
		t.Fatalf("actions = %d, want 1", len(actions))
	}
	if pl := actions[0]; pl.Kind != policy.KindPlace {
		t.Fatalf("action kind %d, want a placement", pl.Kind)
	} else if pl.Node != 2 {
		t.Errorf("placed on node %d, want the occupied node 2", pl.Node)
	}
}

func TestScheduleRespectsCapacity(t *testing.T) {
	c := testCluster(t, 1)
	runningVM(1, 400, 5, c, 0) // full node
	sch := mustScheduler(SB0Config())
	v := queuedVM(0, 100, 5)
	actions := sch.Schedule(ctxFor(c, []*vm.VM{v}, nil))
	if len(actions) != 0 {
		t.Fatalf("placed on a full node: %+v", actions)
	}
}

func TestScheduleNoMigrationForStaticVariants(t *testing.T) {
	c := testCluster(t, 3)
	a := runningVM(1, 100, 5, c, 0)
	b := runningVM(2, 100, 5, c, 1)
	sch := mustScheduler(SB2Config())
	actions := sch.Schedule(ctxFor(c, nil, []*vm.VM{a, b}))
	if len(actions) != 0 {
		t.Fatalf("static variant migrated: %+v", actions)
	}
}

func TestScheduleConsolidationMigration(t *testing.T) {
	c := testCluster(t, 2)
	// Two lonely VMs on separate nodes: the full SB policy should
	// consolidate them (gain ≈ Ce + Cf·Δocc clears the hysteresis).
	a := runningVM(1, 300, 15, c, 0)
	b := runningVM(2, 100, 5, c, 1)
	cfg := SBConfig()
	cfg.MigrationGainMin = 1 // isolate the mechanism from the damping
	sch := mustScheduler(cfg)
	actions := sch.Schedule(ctxFor(c, nil, []*vm.VM{a, b}))
	if len(actions) != 1 {
		t.Fatalf("actions = %+v, want one migration", actions)
	}
	mig := actions[0]
	if mig.Kind != policy.KindMigrate {
		t.Fatalf("action kind %d, want a migration", mig.Kind)
	}
	if mig.VM.ID != 2 || mig.Node != 0 {
		t.Errorf("migrated vm%d→%d, want vm2→0 (small VM to fuller host)", mig.VM.ID, mig.Node)
	}
}

func TestScheduleMigrationHysteresis(t *testing.T) {
	c := testCluster(t, 2)
	a := runningVM(1, 300, 15, c, 0)
	b := runningVM(2, 100, 5, c, 1)
	cfg := SBConfig()
	cfg.MigrationGainMin = 1e6 // nothing clears this bar
	sch := mustScheduler(cfg)
	if actions := sch.Schedule(ctxFor(c, nil, []*vm.VM{a, b})); len(actions) != 0 {
		t.Fatalf("hysteresis ignored: %+v", actions)
	}
}

func TestScheduleMigrationCooldown(t *testing.T) {
	mk := func() (*policy.Context, *vm.VM, *vm.VM) {
		c := testCluster(t, 2)
		// Long-running VMs so the user-estimate migration penalty
		// stays small throughout the test window.
		a := vm.New(1, vm.Requirements{CPU: 300, Mem: 15}, 0, 1e5, 2e5)
		a.State, a.Host = vm.Running, 0
		c.Nodes[0].AddVM(a)
		b := vm.New(2, vm.Requirements{CPU: 100, Mem: 5}, 0, 1e5, 2e5)
		b.State, b.Host = vm.Running, 1
		c.Nodes[1].AddVM(b)
		return ctxFor(c, nil, []*vm.VM{a, b}), a, b
	}
	cfg := SBConfig()
	cfg.MigrationGainMin = 1
	sch := mustScheduler(cfg)

	ctx, a, b := mk()
	a.LastMigrate, b.LastMigrate = 0, 0 // both just migrated
	ctx.Now = 10                        // within the cooldown window
	if actions := sch.Schedule(ctx); len(actions) != 0 {
		t.Fatalf("cooldown ignored: %+v", actions)
	}
	ctx2, a2, b2 := mk()
	a2.LastMigrate, b2.LastMigrate = 0, 0
	ctx2.Now = 3700 // past the cooldown
	if actions := sch.Schedule(ctx2); len(actions) != 1 {
		t.Fatalf("move suppressed after cooldown: %+v", actions)
	}
}

func TestScheduleIterationLimit(t *testing.T) {
	c := testCluster(t, 4)
	var queue []*vm.VM
	for i := 0; i < 8; i++ {
		queue = append(queue, queuedVM(i, 100, 5))
	}
	cfg := SB0Config()
	cfg.MaxIterations = 3
	sch := mustScheduler(cfg)
	actions := sch.Schedule(ctxFor(c, queue, nil))
	if len(actions) > 3 {
		t.Fatalf("iteration limit exceeded: %d actions", len(actions))
	}
	if sch.Stats.LimitHits == 0 {
		t.Error("limit hit not recorded")
	}
}

func TestScheduleDeterministic(t *testing.T) {
	mk := func() []policy.Action {
		c := testCluster(t, 5)
		var queue []*vm.VM
		for i := 0; i < 6; i++ {
			queue = append(queue, queuedVM(i, float64(100+(i%3)*100), 5))
		}
		sch := mustScheduler(SBConfig())
		return sch.Schedule(ctxFor(c, queue, nil))
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic action count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		pa, pb := a[i], b[i]
		if pa.Kind != policy.KindPlace || pb.Kind != policy.KindPlace {
			t.Fatalf("action %d: kinds %d and %d, want placements", i, pa.Kind, pb.Kind)
		}
		if pa.VM.ID != pb.VM.ID || pa.Node != pb.Node {
			t.Fatalf("non-deterministic action %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// Property-ish: after a full scheduling round on an arbitrary queue,
// no node's reservation exceeds its capacity (the solver never plans
// an overcommit).
func TestScheduleNeverOvercommits(t *testing.T) {
	for seed := 0; seed < 20; seed++ {
		c := testCluster(t, 4)
		var queue []*vm.VM
		for i := 0; i < 12; i++ {
			cpu := float64(100 * (1 + (i+seed)%4))
			queue = append(queue, queuedVM(i, cpu, 5))
		}
		sch := mustScheduler(SBConfig())
		actions := sch.Schedule(ctxFor(c, queue, nil))
		loads := make(map[int]float64)
		for _, a := range actions {
			if a.Kind != policy.KindPlace {
				continue
			}
			loads[a.Node] += a.VM.Req.CPU
		}
		for node, load := range loads {
			if load > c.Nodes[node].Class.CPU+1e-9 {
				t.Fatalf("seed %d: node %d planned at %v CPU", seed, node, load)
			}
		}
	}
}

// TestShadowResetResolvesHostsAcrossRounds: one shadow reused over
// rounds whose host sets shrink, grow and shift must resolve every
// candidate's host exactly as a linear search of this round's hosts
// does — a node that was a host last round and is not now resolves to
// the virtual host, never to its stale index, although the lookup
// table is never cleared.
func TestShadowResetResolvesHostsAcrossRounds(t *testing.T) {
	c := testCluster(t, 12)
	rng := rand.New(rand.NewSource(7))
	var vms []*vm.VM
	for id := 0; id < 30; id++ {
		if id%3 == 0 {
			vms = append(vms, queuedVM(id, 100, 5))
		} else {
			vms = append(vms, runningVM(id, 100, 5, c, rng.Intn(len(c.Nodes))))
		}
	}
	s := &shadow{}
	for round := 0; round < 200; round++ {
		var hosts []*cluster.Node
		for _, n := range c.Nodes {
			if rng.Intn(3) > 0 {
				hosts = append(hosts, n)
			}
		}
		if round%7 == 0 {
			// Any host order is legal.
			rng.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
		}
		s.reset(float64(round), hosts, vms)
		for vi, v := range vms {
			want := -1
			if v.Active() {
				want = slices.IndexFunc(hosts, func(n *cluster.Node) bool { return n.ID == v.Host })
			}
			if s.assign[vi] != want || s.initial[vi] != want {
				t.Fatalf("round %d vm%d (host %d): assign %d initial %d, want %d",
					round, v.ID, v.Host, s.assign[vi], s.initial[vi], want)
			}
		}
	}
}

// TestCandidatesSortedWhateverTheQueueHolds: active-then-queue is
// sorted as built when the queue holds fresh arrivals, and must come
// out just as sorted when it holds a requeued VM with an ID below the
// active ones.
func TestCandidatesSortedWhateverTheQueueHolds(t *testing.T) {
	c := testCluster(t, 4)
	active := []*vm.VM{runningVM(2, 100, 5, c, 0), runningVM(5, 100, 5, c, 1), runningVM(9, 100, 5, c, 2)}
	sch := mustScheduler(SBConfig())
	for _, tc := range []struct {
		queue []int
		want  []int
	}{
		{nil, []int{2, 5, 9}},
		{[]int{10, 11}, []int{2, 5, 9, 10, 11}},
		{[]int{11, 10}, []int{2, 5, 9, 10, 11}},
		{[]int{3}, []int{2, 3, 5, 9}},
		{[]int{12, 0, 7}, []int{0, 2, 5, 7, 9, 12}},
	} {
		var queue []*vm.VM
		for _, id := range tc.queue {
			queue = append(queue, queuedVM(id, 100, 5))
		}
		ctx := ctxFor(c, queue, active)
		var got []int
		for _, v := range sch.candidates(ctx, nil) {
			got = append(got, v.ID)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("queue %v: candidates %v, want %v", tc.queue, got, tc.want)
		}
		// The kernel's candidate table holds the same list, edited
		// into ID order whatever order the queue meets it in.
		sch.Schedule(ctx)
		checkKernel(t, sch, ctx)
		got = got[:0]
		for _, v := range sch.cands {
			got = append(got, v.ID)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("queue %v: the kernel's candidates %v, want %v", tc.queue, got, tc.want)
		}
	}
}
