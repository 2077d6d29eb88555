package core

import (
	"fmt"
	"math"
	"testing"

	"energysched/internal/cluster"
	"energysched/internal/vm"
)

// TestDifferentialBandGrowth runs the kernel beside the naive oracle
// on a fleet that is booted a few hosts per round while VMs arrive,
// complete, fail with their hosts and migrate into cooldown: the
// candidate table crosses two band boundaries (row slots past 128),
// the column slots grow past 64 and then past 128 (the stride doubles
// twice), and retired row and column slots are handed out again. Every
// round's actions must equal the oracle's and the kernel must be exact
// (checkKernel) after every round.
func TestDifferentialBandGrowth(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MigrationCooldown = 600
	kern, naive := kernelPair(cfg)
	// Hosts boot in ID order, boot per round from the first; the
	// hosts that fail stay off, so a booting host takes their slots.
	const hosts, boot = 160, 8
	fresh := 40
	cs := newChurnSim(4141, churnCluster(hosts), 16)
	for _, n := range cs.c.Nodes[fresh:] {
		n.SetState(cluster.Off)
	}
	st := &kern.kern
	strides := map[int]bool{}
	rowVM, colNode := map[int]*vm.VM{}, map[int]*cluster.Node{}
	rowReused, colReused := 0, 0
	for round := 0; round < 30; round++ {
		cs.churn()
		for _, n := range cs.c.Nodes[min(fresh, hosts):min(fresh+boot, hosts)] {
			if n.State == cluster.Off {
				n.SetState(cluster.On)
				cs.touchedNodes[n.ID] = true
			}
		}
		fresh += boot
		cs.apply(diffChecked(t, fmt.Sprintf("round %d", round), kern, naive, cs.context()))
		strides[st.stride] = true
		for rs, row := range st.rows {
			if v := row.vm; v != nil {
				if old := rowVM[rs]; old != nil && old != v {
					rowReused++
				}
				rowVM[rs] = v
			}
		}
		for c, col := range st.cols {
			if n := col.node; n != nil {
				if old := colNode[c]; old != nil && old != n {
					colReused++
				}
				colNode[c] = n
			}
		}
	}
	if !strides[64] || !strides[128] || !strides[256] {
		t.Fatalf("strides seen %v, want 64, 128 and 256", strides)
	}
	if len(st.rows) <= 2*bandRows || len(st.bands) < 3 {
		t.Fatalf("%d row slots in %d bands, want more than two band boundaries crossed", len(st.rows), len(st.bands))
	}
	if rowReused == 0 || colReused == 0 {
		t.Fatalf("row slots reused %d times, column slots %d times: want both", rowReused, colReused)
	}
	if got, want := kern.Stats.MaxSlabCells, len(st.bands)*bandRows*st.stride; got != want {
		t.Fatalf("MaxSlabCells = %d, want bands × %d × stride = %d", got, bandRows, want)
	}
}

// grownKernel is a kernel whose matrix holds rows row slots of cols
// column slots, one class, every cell numbered by its position.
func grownKernel(rows, cols int) *slabKernel {
	st := &slabKernel{classes: []*cluster.Class{{}}}
	st.rows, st.cols = make([]rowSlot, rows), make([]colKey, cols)
	st.fit()
	for rs := range rows {
		for c := range cols {
			st.row(rs)[c] = float64(rs*1000 + c)
		}
	}
	return st
}

// checkCells fails unless the first rows row slots of st hold
// grownKernel's numbering in their first cols cells and +Inf in every
// other cell.
func checkCells(t *testing.T, st *slabKernel, rows, cols int) {
	t.Helper()
	for rs := range len(st.bands) * bandRows {
		for c, b := range st.row(rs) {
			want := math.Inf(1)
			if rs < rows && c < cols {
				want = float64(rs*1000 + c)
			}
			if b != want {
				t.Fatalf("cell (%d, %d) = %v, want %v", rs, c, b, want)
			}
		}
	}
}

// TestBandGrowthKeepsRows: row slots past the last band add bands and
// leave every existing row's backing array where it is; only a column
// slot past the stride re-lays the rows, at the next power of two.
func TestBandGrowthKeepsRows(t *testing.T) {
	st := grownKernel(10, 70)
	if st.stride != 128 || len(st.bands) != 1 {
		t.Fatalf("10×70 cells: stride %d in %d bands, want 128 in 1", st.stride, len(st.bands))
	}
	at := make([]*float64, bandRows)
	for rs := range at {
		at[rs] = &st.row(rs)[0]
	}
	st.rows = make([]rowSlot, 3*bandRows+1)
	st.fit()
	if len(st.bands) != 4 || st.stride != 128 {
		t.Fatalf("%d row slots: %d bands at stride %d, want 4 at 128", len(st.rows), len(st.bands), st.stride)
	}
	for rs, p := range at {
		if &st.row(rs)[0] != p {
			t.Fatalf("row slot %d moved when bands were added", rs)
		}
	}
	checkCells(t, st, 10, 70)
	if got := len(st.rec); got != 4*bandRows {
		t.Fatalf("%d records for 4 bands of one class, want %d", got, 4*bandRows)
	}

	st.cols = make([]colKey, 129)
	st.fit()
	if st.stride != 256 || len(st.bands) != 4 {
		t.Fatalf("129 column slots: stride %d in %d bands, want 256 in 4", st.stride, len(st.bands))
	}
	checkCells(t, st, 10, 70)
}

// TestBandGrowthAllocations: one growth of the matrix — more bands, a
// wider stride, or both — allocates its cells in one object and its
// band headers in at most one more.
func TestBandGrowthAllocations(t *testing.T) {
	for _, tc := range []struct {
		name       string
		rows, cols int
	}{
		{"bands", 5 * bandRows, 60},
		{"stride", 10, 200},
		{"both", 5 * bandRows, 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Enough runs that the runtime's own rare allocation during a
			// large one does not lift the (integer) average.
			const runs = 20
			kerns := make([]*slabKernel, runs+1) // AllocsPerRun warms up once
			for i := range kerns {
				kerns[i] = grownKernel(10, 60)
			}
			next := 0
			allocs := testing.AllocsPerRun(runs, func() {
				kerns[next].growBands(tc.rows, tc.cols)
				next++
			})
			if allocs > 2 {
				t.Fatalf("growing to %d×%d cells took %v allocations, want at most 2", tc.rows, tc.cols, allocs)
			}
			checkCells(t, kerns[0], 10, 60)
		})
	}
}
