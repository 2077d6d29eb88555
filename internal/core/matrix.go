package core

import (
	"fmt"
	"math"
	"strings"

	"energysched/internal/policy"
	"energysched/internal/vm"
)

// Matrix is a rendered score matrix, the artifact §III-B of the paper
// walks through: one row per host (plus the scheduler's virtual host
// HV), one column per candidate VM. Raw holds Score(h, vm); Centered
// holds the same values after subtracting each VM's current-host cost,
// so negative cells are improving moves, and BestMove picks among those
// that clear their VM's Threshold the move the hill-climbing solver
// applies first.
//
// It exists for explainability: operators can ask the scheduler *why*
// it placed or moved a VM by dumping the round's matrix.
type Matrix struct {
	// HostLabels has one entry per row, the last being "HV".
	HostLabels []string
	// VMLabels has one entry per column.
	VMLabels []string
	// Raw[i][j] is Score(host i, vm j); +Inf marks infeasibility.
	Raw [][]float64
	// Centered[i][j] = Raw[i][j] − cost of the VM's current host
	// (the queue score for queued VMs).
	Centered [][]float64
	// Current[j] is the row index of VM j's current host (the HV row
	// for queued VMs).
	Current []int
	// Threshold[j] is the largest centered value the solver applies
	// for VM j: −1e-9 for a queued VM, −MigrationGainMin (the migration
	// hysteresis) for a running one.
	Threshold []float64
}

// Matrix computes the score matrix for the given context without
// applying any moves. Candidate selection is shared with Schedule
// (queued VMs always; running VMs only when migration is enabled and
// they are outside the migration cooldown), so operators never see
// columns for VMs the solver would not consider.
func (sch *Scheduler) Matrix(ctx *policy.Context) *Matrix {
	hosts := ctx.Cluster.OnlineNodes()
	cands := sch.candidates(ctx, nil)

	s := newShadow(ctx.Now, hosts, cands)
	m := &Matrix{}
	for _, h := range hosts {
		m.HostLabels = append(m.HostLabels, fmt.Sprintf("H%d", h.ID))
	}
	m.HostLabels = append(m.HostLabels, "HV")
	for _, v := range cands {
		m.VMLabels = append(m.VMLabels, fmt.Sprintf("VM%d", v.ID))
	}

	rows := len(hosts) + 1
	m.Raw = make([][]float64, rows)
	m.Centered = make([][]float64, rows)
	for i := range m.Raw {
		m.Raw[i] = make([]float64, len(cands))
		m.Centered[i] = make([]float64, len(cands))
	}
	m.Current = make([]int, len(cands))
	m.Threshold = make([]float64, len(cands))

	for vi, v := range cands {
		m.Threshold[vi] = -moveEps
		if v.State != vm.Queued {
			m.Threshold[vi] = -sch.cfg.MigrationGainMin
		}
		cur := sch.cfg.QueueScore
		m.Current[vi] = rows - 1
		if s.assign[vi] >= 0 {
			cur = sch.score(s, s.assign[vi], vi)
			m.Current[vi] = s.assign[vi]
		}
		for ni := range hosts {
			raw := sch.score(s, ni, vi)
			m.Raw[ni][vi] = raw
			switch {
			case math.IsInf(raw, 1):
				m.Centered[ni][vi] = math.Inf(1)
			case math.IsInf(cur, 1):
				m.Centered[ni][vi] = math.Inf(-1)
			default:
				m.Centered[ni][vi] = raw - cur
			}
		}
		// The virtual host row: holding a VM unallocated carries the
		// maximum penalty (the paper uses ∞; we render the queue
		// score's centered form).
		m.Raw[rows-1][vi] = math.Inf(1)
		m.Centered[rows-1][vi] = math.Inf(1)
		if s.assign[vi] < 0 {
			// Staying in the queue is the status quo: centered 0.
			m.Raw[rows-1][vi] = sch.cfg.QueueScore
			m.Centered[rows-1][vi] = 0
		}
	}
	return m
}

// BestMove returns the move the solver applies first, or ok=false if no
// move clears its VM's threshold. It scans as the solver's arbiter
// does: VM by VM, the lowest centered cell wins, ties to the lowest
// host index within a VM and to the earliest VM across VMs. An
// infeasible current host centers every feasible cell to −Inf, so the
// VM's first feasible host wins.
func (m *Matrix) BestMove() (host, vmIdx int, diff float64, ok bool) {
	best := -moveEps
	for j, threshold := range m.Threshold {
		for i, row := range m.Centered {
			if d := row[j]; i != m.Current[j] && d <= threshold && d < best {
				best, host, vmIdx, ok = d, i, j, true
			}
		}
	}
	if !ok {
		return 0, 0, 0, false
	}
	return host, vmIdx, best, true
}

// String renders the centered matrix in the paper's layout: hosts as
// rows, VMs as columns, ∞ for infeasible cells.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s", "")
	for _, l := range m.VMLabels {
		fmt.Fprintf(&b, "%9s", l)
	}
	b.WriteByte('\n')
	for i, row := range m.Centered {
		fmt.Fprintf(&b, "%-6s", m.HostLabels[i])
		for j, v := range row {
			cell := formatCell(v)
			if i == m.Current[j] {
				cell = "[" + cell + "]"
			}
			fmt.Fprintf(&b, "%9s", cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func formatCell(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "∞"
	case math.IsInf(v, -1):
		return "-∞"
	default:
		return fmt.Sprintf("%.1f", v)
	}
}
