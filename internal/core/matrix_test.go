package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"energysched/internal/policy"
	"energysched/internal/vm"
)

func TestMatrixShapeAndLabels(t *testing.T) {
	c := testCluster(t, 3)
	sch := MustScheduler(SBConfig())
	q := queuedVM(0, 100, 5)
	r := runningVM(1, 200, 10, c, 1)
	m := sch.Matrix(ctxFor(c, []*vm.VM{q}, []*vm.VM{r}))
	if len(m.HostLabels) != 4 || m.HostLabels[3] != "HV" {
		t.Fatalf("host labels = %v", m.HostLabels)
	}
	if len(m.VMLabels) != 2 {
		t.Fatalf("vm labels = %v", m.VMLabels)
	}
	if len(m.Raw) != 4 || len(m.Raw[0]) != 2 {
		t.Fatalf("raw shape %dx%d", len(m.Raw), len(m.Raw[0]))
	}
}

func TestMatrixCenteringAtCurrentHost(t *testing.T) {
	c := testCluster(t, 2)
	sch := MustScheduler(SBConfig())
	r := runningVM(1, 200, 10, c, 0)
	m := sch.Matrix(ctxFor(c, nil, []*vm.VM{r}))
	// The VM's own host centers to exactly zero.
	if got := m.Centered[0][0]; got != 0 {
		t.Errorf("current-host centered score = %v, want 0", got)
	}
	if m.Current[0] != 0 {
		t.Errorf("current row = %d, want 0", m.Current[0])
	}
}

func TestMatrixQueuedVMHugeBenefit(t *testing.T) {
	c := testCluster(t, 1)
	sch := MustScheduler(SBConfig())
	q := queuedVM(0, 100, 5)
	m := sch.Matrix(ctxFor(c, []*vm.VM{q}, nil))
	// Placing a queued VM anywhere feasible is hugely negative
	// (the queue cost dominates).
	if m.Centered[0][0] > -1e6 {
		t.Errorf("queued placement diff = %v, want << 0", m.Centered[0][0])
	}
	// Its current row is the virtual host, centered to zero.
	if m.Current[0] != 1 || m.Centered[1][0] != 0 {
		t.Errorf("virtual-host row: current=%d centered=%v", m.Current[0], m.Centered[1][0])
	}
}

func TestMatrixInfeasibleCells(t *testing.T) {
	c := testCluster(t, 2)
	runningVM(9, 400, 20, c, 0) // node 0 full
	sch := MustScheduler(SBConfig())
	q := queuedVM(0, 100, 5)
	m := sch.Matrix(ctxFor(c, []*vm.VM{q}, nil))
	if !math.IsInf(m.Raw[0][0], 1) {
		t.Errorf("full node raw score = %v, want ∞", m.Raw[0][0])
	}
	if !strings.Contains(m.String(), "∞") {
		t.Errorf("rendering lacks ∞:\n%s", m.String())
	}
}

func TestMatrixBestMoveMatchesSchedule(t *testing.T) {
	c := testCluster(t, 3)
	runningVM(5, 200, 10, c, 2)
	runningVM(6, 100, 5, c, 2)
	sch := MustScheduler(SB0Config())
	q := queuedVM(0, 100, 5)
	ctx := ctxFor(c, []*vm.VM{q}, nil)
	m := sch.Matrix(ctx)
	host, vmIdx, diff, ok := m.BestMove()
	if !ok {
		t.Fatal("no improving move found")
	}
	if vmIdx != 0 || diff >= 0 {
		t.Fatalf("best move = (%d, %d, %v)", host, vmIdx, diff)
	}
	// The solver's first action places the same VM on the same node.
	actions := sch.Schedule(ctx)
	if len(actions) == 0 {
		t.Fatal("scheduler found nothing despite an improving matrix cell")
	}
	pl := actions[0]
	if pl.Kind != policy.KindPlace {
		t.Fatalf("action kind %d, want a placement", pl.Kind)
	}
	if pl.Node != c.Nodes[host].ID {
		t.Errorf("matrix best host %d vs scheduler choice %d", c.Nodes[host].ID, pl.Node)
	}
}

// TestMatrixBestMoveIsFirstMove: BestMove is the move a naive scheduler
// applies first (MaxIterations = 1), round after round of a churning
// 12-node paper-class cluster under SB — with the migration hysteresis
// rejecting small gains and the arbiter's VM-major tie order deciding
// between VMs.
func TestMatrixBestMoveIsFirstMove(t *testing.T) {
	const seeds, rounds = 30, 30
	agree := 0
	for seed := 0; seed < seeds; seed++ {
		cs := newChurnSim(int64(6600+seed), churnCluster(12), 3)
		drive := MustScheduler(SBConfig())
		cfg := SBConfig()
		cfg.NaiveSolver, cfg.MaxIterations = true, 1
		first := MustScheduler(cfg)
		for round := 0; round < rounds; round++ {
			cs.churn()
			ctx := cs.context()
			m := first.Matrix(ctx)
			want := renderActions(first.Schedule(ctx))
			var got []string
			if host, vmIdx, _, ok := m.BestMove(); ok {
				kind := "migrate"
				if m.Current[vmIdx] == len(m.HostLabels)-1 {
					kind = "place"
				}
				got = []string{fmt.Sprintf("%s %s -> %s", kind, strings.ToLower(m.VMLabels[vmIdx]), strings.Replace(m.HostLabels[host], "H", "n", 1))}
			}
			if slices.Equal(got, want) {
				agree++
			} else {
				t.Errorf("seed %d round %d: BestMove %v, first move %v", seed, round, got, want)
			}
			cs.apply(drive.Schedule(ctx))
		}
	}
	if agree != seeds*rounds {
		t.Fatalf("BestMove agreed with the first move in %d of %d rounds", agree, seeds*rounds)
	}
}

func TestMatrixNoImprovingMoves(t *testing.T) {
	c := testCluster(t, 1)
	r := runningVM(1, 400, 20, c, 0) // alone, nowhere else to go
	sch := MustScheduler(SBConfig())
	m := sch.Matrix(ctxFor(c, nil, []*vm.VM{r}))
	if _, _, _, ok := m.BestMove(); ok {
		t.Error("found an improving move on a single-node system")
	}
}

func TestMatrixCurrentCellBracketsInString(t *testing.T) {
	c := testCluster(t, 2)
	r := runningVM(1, 100, 5, c, 0)
	sch := MustScheduler(SBConfig())
	m := sch.Matrix(ctxFor(c, nil, []*vm.VM{r}))
	if !strings.Contains(m.String(), "[") {
		t.Errorf("rendering lacks current-host brackets:\n%s", m.String())
	}
}
