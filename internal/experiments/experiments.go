// Package experiments contains one driver per table and figure of the
// paper's evaluation (§IV-B and §V), so every published result can be
// regenerated with a single call. The drivers are used by the cmd/
// tools, the benchmark harness and the integration tests.
//
// Index:
//
//	TableI        — virtualized server power usage (§IV-A, Table I)
//	Validation    — simulator validation, real vs simulated power (Fig. 1)
//	LambdaSweep   — power and satisfaction over λmin×λmax (Figs. 2 and 3)
//	TableIIRows   — static policies RD/RR/BF/SB0 without migration
//	TableIIIRows  — score-based variants SB0/SB1/SB2 (+ SB2 @ λ 40–90)
//	TableIVRows   — migration policies DBF/SB (+ SB @ λ 40–90)
//	TableVRows    — consolidation costs (Ce, Cf) sweep
//
// A table row is the energysched.Options of one run under a label:
// RunRow runs it on a trace, and ReplicateTable aggregates every row
// over several seeds with confidence intervals.
package experiments

import (
	"energysched"
	"energysched/internal/workload"
)

// Seed seeds Table I and the Fig. 1 validation runs.
const Seed int64 = 1

// Row is one table row: the options of one run of the public API.
// Options.Trace is set by RunRow.
type Row struct {
	// Label overrides the policy name in the report ("" = policy name).
	Label string
	energysched.Options
}

// RunRow executes one row against a trace.
func RunRow(row Row, trace *workload.Trace) (energysched.Result, error) {
	opts := row.Options
	opts.Trace = trace
	rep, err := energysched.Run(opts)
	if err != nil {
		return energysched.Result{}, err
	}
	if row.Label != "" {
		rep.Policy = row.Label
	}
	return rep, nil
}

// ReplicateTable aggregates every row of a table over the given seeds.
func ReplicateTable(rows []Row, gen workload.GeneratorConfig, seeds []int64) ([]Replication, error) {
	var out []Replication
	for _, row := range rows {
		r, err := Replicate(row, gen, seeds)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// row is a policy at λ = lmin–90 with the paper's consolidation costs.
func row(policy string, lmin float64) Row {
	return Row{Options: energysched.Options{Policy: policy, LambdaMin: lmin, LambdaMax: 90}}
}

// TableIIRows builds the rows of Table II: Random, Round-Robin,
// Backfilling and the basic score-based configuration SB0, all at
// λ = 30–90, without migration.
func TableIIRows() []Row {
	return []Row{row("RD", 30), row("RR", 30), row("BF", 30), row("SB0", 30)}
}

// TableIIIRows builds the virtualization-overhead ablation rows:
// SB0 (power scores only), SB1 (+ creation/migration costs), SB2
// (+ concurrency), and SB2 rerun with the more aggressive λ = 40–90
// that its better SLA headroom allows.
func TableIIIRows() []Row {
	return []Row{row("SB0", 30), row("SB1", 30), row("SB2", 30), row("SB2", 40)}
}

// TableIVRows builds the migration-policy comparison: Dynamic
// Backfilling versus the full score-based policy, plus the
// aggressive-λ variant that yields the paper's headline 15 % saving.
func TableIVRows() []Row {
	return []Row{row("DBF", 30), row("SB", 30), row("SB", 40)}
}

// TableVRows builds the consolidation-cost sweep: no empty-host
// penalty (Ce = 0, which should barely migrate), the paper's typical
// values (20/40), and an aggressive configuration (60/100) that
// over-migrates with diminishing returns.
func TableVRows() []Row {
	costs := func(label string, ce, cf float64) Row {
		r := row("SB", 30)
		r.Label = label
		r.Score = &energysched.ScoreParams{Cempty: ce, Cfill: cf}
		return r
	}
	return []Row{costs("SB-0/40", 0, 40), costs("SB-20/40", 20, 40), costs("SB-60/100", 60, 100)}
}
