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
// migrate, exactly as the naive oracle does, at every shard count.
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
// seconds of work at full allocation) through the rounds on a kernel at
// K = 1, 2 and 4 beside the naive oracle.
func runDormantRounds(t *testing.T, cfg Config, duration, deadline, remaining float64, rounds []dormantRound) {
	t.Helper()
	for _, k := range []int{1, 2, 4} {
		c := testCluster(t, 4)
		runningVM(10, 100, 5, c, 1)
		runningVM(11, 100, 5, c, 1)
		v := vm.New(0, vm.Requirements{CPU: 100, Mem: 5}, 0, duration, deadline)
		v.State, v.Host = vm.Running, 0
		v.Progress = v.Work - remaining*v.Req.CPU
		c.Nodes[0].AddVM(v)

		kern, naive := kernelPair(cfg, k)
		ctx := ctxFor(c, nil, []*vm.VM{v})
		for i, r := range rounds {
			if r.step != nil {
				r.step(v)
			}
			ctx.Now = r.now
			what := fmt.Sprintf("K=%d round %d (t=%v)", k, i, r.now)
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
	cfg.EnableSLA = true
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
	cfg.EnableSLA = true
	runDormantRounds(t, cfg, 40000, 10000, 1000, []dormantRound{
		{now: 8950},
		{now: 8955, dormant: true},
		{now: 8960, step: func(v *vm.VM) { v.Progress += 100 * v.Req.CPU }, want: []string{"migrate vm0 -> n1"}},
	})
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
