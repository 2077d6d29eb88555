package core

import (
	"fmt"
	"slices"
	"testing"

	"energysched/internal/vm"
)

// Dormant rows (kernel.go) must wake on each of their wake conditions.
// Each test below holds one subject VM whose row is proven
// non-improving, keeps every cell of the matrix unchanged, and changes
// only the input one wake condition watches — the subject then must
// migrate, exactly as the naive oracle does.
//
// The cluster: the subject alone on host 0 (base 10: Cempty 20 for an
// emptiable host, −10 for 25 % occupation), host 1 filled to 75 % by
// two VMs outside the round (base −30: the better host by 40, past the
// 35 hysteresis) and hosts 2 and 3 empty (base 10). Whether the subject
// moves is decided by its time terms alone.

// dormantRound is one round of a dormancy scenario.
type dormantRound struct {
	now  float64
	step func(v *vm.VM) // the state change before the round (nil: none)
	want []string       // the oracle's actions
	// dormant: the kernel skips the subject's row as dormant.
	dormant bool
}

// runDormantRounds drives a fresh subject (duration, deadline, remaining
// seconds of work at full allocation) through the rounds on a kernel
// beside the naive oracle.
func runDormantRounds(t *testing.T, cfg Config, duration, deadline, remaining float64, rounds []dormantRound) {
	t.Helper()
	c := testCluster(t, 4)
	runningVM(10, 100, 5, c, 1)
	runningVM(11, 100, 5, c, 1)
	v := vm.New(0, vm.Requirements{CPU: 100, Mem: 5}, 0, duration, deadline)
	v.State, v.Host = vm.Running, 0
	v.Progress = v.Work - remaining*v.Req.CPU
	c.Nodes[0].AddVM(v)

	kern, naive := kernelPair(cfg)
	ctx := ctxFor(c, nil, []*vm.VM{v})
	for i, r := range rounds {
		if r.step != nil {
			r.step(v)
		}
		ctx.Now = r.now
		what := fmt.Sprintf("round %d (t=%v)", i, r.now)
		skips := kern.Stats.DormantSkips
		got := renderActions(diffChecked(t, what, kern, naive, ctx))
		if !slices.Equal(got, r.want) {
			t.Fatalf("%s: actions %v, want %v", what, got, r.want)
		}
		if dormant := kern.Stats.DormantSkips > skips; dormant != r.dormant {
			t.Fatalf("%s: row dormant = %v, want %v", what, dormant, r.dormant)
		}
	}
}

// TestDifferentialDormantWakesOnSLAStep: wake condition 5. The subject
// has 1000 s of work left against a 10 000 s deadline. From t = 8940 its
// move PSLA is Csla while its stay PSLA is still 0, so a move costs 100
// more and the row goes dormant; past t = 9000 the stay PSLA steps to
// Csla too, the move is 40 better again and the row must wake; past
// t = 19 000 the stay is +Inf (fulfillment below THsla) and so is every
// move.
func TestDifferentialDormantWakesOnSLAStep(t *testing.T) {
	cfg := SBConfig()
	cfg.enableSLA = true
	runDormantRounds(t, cfg, 40000, 10000, 1000, []dormantRound{
		{now: 8950},
		{now: 8990, dormant: true},
		{now: 9100, want: []string{"migrate vm0 -> n1"}},
		{now: 19500},
	})
}

// TestDifferentialDormantWakesOnProgress: wake condition 4. The same
// dormant subject at t = 8950; then its Progress accrues (no Touch, as
// the datacenter's accrual) until the move's projected finish is back
// inside the deadline: the move PSLA drops to 0 and the row must wake.
func TestDifferentialDormantWakesOnProgress(t *testing.T) {
	cfg := SBConfig()
	cfg.enableSLA = true
	runDormantRounds(t, cfg, 40000, 10000, 1000, []dormantRound{
		{now: 8950},
		{now: 8955, dormant: true},
		{now: 8960, step: func(v *vm.VM) { v.Progress += 100 * v.Req.CPU }, want: []string{"migrate vm0 -> n1"}},
	})
}

// TestQuietRoundTouchesOnlyStamps: a round on unchanged state reads the
// candidate pass's stamps and nothing past them — no score evaluation,
// no row timed, no arbiter visit, no action — and each check of that
// pass wakes exactly the rows whose input it watches: the stamp (a VM
// touched), the progress (accrued without Touch), the stay term (an SLA
// step) and the clock (rewound: every row). Sixteen running VMs with
// 1000 s of work left sit two to a host on eight hosts; VM 5 alone has
// a near deadline, so its stay PSLA steps to Csla past t = 9000. No
// migration clears the hysteresis, so every round converges without
// acting.
func TestQuietRoundTouchesOnlyStamps(t *testing.T) {
	cfg := SBConfig()
	cfg.enableSLA, cfg.enableFault = true, true
	cfg.MigrationGainMin = 1e6
	var all []int
	for id := range 16 {
		all = append(all, id)
	}
	c := testCluster(t, 8)
	var vms []*vm.VM
	for _, id := range all {
		deadline := 100000.0
		if id == 5 {
			deadline = 10000
		}
		v := vm.New(id, vm.Requirements{CPU: 100, Mem: 5}, 0, 40000, deadline)
		v.State, v.Host = vm.Running, id%8
		v.Progress = v.Work - 1000*v.Req.CPU
		c.Nodes[v.Host].AddVM(v)
		vms = append(vms, v)
	}
	kern, naive := kernelPair(cfg)
	ctx := ctxFor(c, nil, vms)
	H, V := len(c.Nodes), len(vms)
	for _, r := range []struct {
		what  string
		now   float64
		step  func()
		awake []int // the VM IDs whose rows the round timed
		stale int   // rows re-scored, H evaluations each
	}{
		{what: "first", now: 8950, awake: all, stale: V},
		{what: "repeat", now: 8950},
		{what: "later", now: 8990},
		{what: "progress", now: 8990, step: func() { vms[2].Progress += 100 }, awake: []int{2}},
		{what: "touch", now: 8990, step: func() { vms[3].FaultTolerance = 0.01; vms[3].Touch() }, awake: []int{3}, stale: 1},
		{what: "stay", now: 9100, awake: []int{5}},
		{what: "quiet", now: 9100},
		{what: "rewind", now: 8990, awake: all},
	} {
		if r.step != nil {
			r.step()
		}
		ctx.Now = r.now
		what := fmt.Sprintf("%s (t=%v)", r.what, r.now)
		before := kern.Stats
		if acts := diffChecked(t, what, kern, naive, ctx); len(acts) != 0 {
			t.Fatalf("%s: actions %v, want none", what, renderActions(acts))
		}
		st := &kern.kern
		var timed, awake []int
		for vi, ref := range st.rowRef {
			if ref.flags&rowTimed != 0 {
				timed = append(timed, kern.cands[vi].ID)
			}
		}
		for _, vi := range st.awake {
			awake = append(awake, kern.cands[vi].ID)
		}
		slices.Sort(awake)
		d := kern.Stats
		if !slices.Equal(timed, r.awake) || !slices.Equal(awake, r.awake) {
			t.Fatalf("%s: rows timed %v, awake list %v, want %v", what, timed, awake, r.awake)
		}
		evals, stale := d.ScoreEvals-before.ScoreEvals, d.StaleRows-before.StaleRows
		if d.CarryRounds == before.CarryRounds {
			stale = V // the first round carries nothing: every row is new
		}
		if evals != r.stale*H || stale != r.stale {
			t.Fatalf("%s: %d score evaluations over %d stale rows, want %d over %d", what, evals, stale, r.stale*H, r.stale)
		}
		if skips := d.DormantSkips - before.DormantSkips; skips != V-len(r.awake) {
			t.Fatalf("%s: %d arbiter visits skipped, want %d", what, skips, V-len(r.awake))
		}
	}
}

// TestDormantVerdictsDropOnClockRewind: wake condition 6. Ten seconds
// before its user-estimated end the subject's Pvirt is 2·Cm = 120 and
// the row goes dormant; a scheduler reused on a rewound clock (t = 0,
// Pvirt 0.5) must drop the verdict and migrate.
func TestDormantVerdictsDropOnClockRewind(t *testing.T) {
	runDormantRounds(t, SBConfig(), 3600, 5400, 3600, []dormantRound{
		{now: 3590},
		{now: 3595, dormant: true},
		{now: 0, want: []string{"migrate vm0 -> n1"}},
	})
}
