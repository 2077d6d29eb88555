// Package experiments contains one driver per table and figure of the
// paper's evaluation (§IV-B and §V), so every published result can be
// regenerated with a single call. The drivers are used by the cmd/
// tools, the benchmark harness and the integration tests.
//
// Index:
//
//	TableI         — virtualized server power usage (§IV-A, Table I)
//	Validation     — simulator validation, real vs simulated power (Fig. 1)
//	LambdaSweep    — power and satisfaction over λmin×λmax (Figs. 2 and 3)
//	TableIIMakers  — static policies RD/RR/BF/SB0 without migration
//	TableIIIMakers — score-based variants SB0/SB1/SB2 (+ SB2 @ λ 40–90)
//	TableIVMakers  — migration policies DBF/SB (+ SB @ λ 40–90)
//	TableVMakers   — consolidation costs (Ce, Cf) sweep
//
// A table is a list of fresh-policy constructors: RunSpec runs one row
// on a trace, and ReplicateTable aggregates every row over several
// seeds with confidence intervals.
package experiments

import (
	"energysched/internal/core"
	"energysched/internal/datacenter"
	"energysched/internal/metrics"
	"energysched/internal/policy"
	"energysched/internal/workload"
)

// Seed is the default seed for all experiments.
const Seed int64 = 1

// Spec describes one table row to execute.
type Spec struct {
	// Label overrides the policy name in the report ("" = policy name).
	Label string
	// Policy is a fresh policy instance for the run.
	Policy policy.Policy
	// LambdaMin, LambdaMax in percent.
	LambdaMin, LambdaMax float64
}

// SpecMaker builds fresh Specs for replicated runs (policies carry
// state and must not be shared across runs).
type SpecMaker struct {
	Label string
	Make  func() Spec
}

// RunSpec executes one row against a trace.
func RunSpec(spec Spec, trace *workload.Trace) (metrics.Report, error) {
	sim, err := datacenter.New(datacenter.Config{
		Trace:     trace,
		Policy:    spec.Policy,
		LambdaMin: spec.LambdaMin,
		LambdaMax: spec.LambdaMax,
		Seed:      Seed,
	})
	if err != nil {
		return metrics.Report{}, err
	}
	rep, err := sim.Run()
	if err != nil {
		return metrics.Report{}, err
	}
	if spec.Label != "" {
		rep.Policy = spec.Label
	}
	return rep, nil
}

// ReplicateTable aggregates every row of a table over the given seeds.
func ReplicateTable(makers []SpecMaker, gen workload.GeneratorConfig, seeds []int64) ([]Replication, error) {
	var out []Replication
	for _, m := range makers {
		r, err := Replicate(m.Label, m.Make, gen, seeds)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func sbSpec(label string, cfg core.Config, lmin, lmax float64) SpecMaker {
	return SpecMaker{Label: label, Make: func() Spec {
		return Spec{Label: label, Policy: core.MustScheduler(cfg), LambdaMin: lmin, LambdaMax: lmax}
	}}
}

// TableIIMakers builds the rows of Table II: Random, Round-Robin,
// Backfilling and the basic score-based configuration SB0, all at
// λ = 30–90, without migration.
func TableIIMakers() []SpecMaker {
	return []SpecMaker{
		{Label: "RD", Make: func() Spec {
			return Spec{Policy: policy.NewRandom(Seed), LambdaMin: 30, LambdaMax: 90}
		}},
		{Label: "RR", Make: func() Spec {
			return Spec{Policy: policy.NewRoundRobin(), LambdaMin: 30, LambdaMax: 90}
		}},
		{Label: "BF", Make: func() Spec {
			return Spec{Policy: policy.NewBackfilling(), LambdaMin: 30, LambdaMax: 90}
		}},
		sbSpec("SB0", core.SB0Config(), 30, 90),
	}
}

// TableIIIMakers builds the virtualization-overhead ablation rows:
// SB0 (power scores only), SB1 (+ creation/migration costs), SB2
// (+ concurrency), and SB2 rerun with the more aggressive λ = 40–90
// that its better SLA headroom allows.
func TableIIIMakers() []SpecMaker {
	return []SpecMaker{
		sbSpec("SB0", core.SB0Config(), 30, 90),
		sbSpec("SB1", core.SB1Config(), 30, 90),
		sbSpec("SB2", core.SB2Config(), 30, 90),
		sbSpec("SB2", core.SB2Config(), 40, 90),
	}
}

// TableIVMakers builds the migration-policy comparison: Dynamic
// Backfilling versus the full score-based policy, plus the
// aggressive-λ variant that yields the paper's headline 15 % saving.
func TableIVMakers() []SpecMaker {
	return []SpecMaker{
		{Label: "DBF", Make: func() Spec {
			return Spec{Policy: policy.NewDynamicBackfilling(), LambdaMin: 30, LambdaMax: 90}
		}},
		sbSpec("SB", core.SBConfig(), 30, 90),
		sbSpec("SB", core.SBConfig(), 40, 90),
	}
}

// TableVMakers builds the consolidation-cost sweep: no empty-host
// penalty (Ce = 0, which should barely migrate), the paper's typical
// values (20/40), and an aggressive configuration (60/100) that
// over-migrates with diminishing returns.
func TableVMakers() []SpecMaker {
	mk := func(ce, cf float64) core.Config {
		cfg := core.SBConfig()
		cfg.Cempty = ce
		cfg.Cfill = cf
		return cfg
	}
	return []SpecMaker{
		sbSpec("SB-0/40", mk(0, 40), 30, 90),
		sbSpec("SB-20/40", mk(20, 40), 30, 90),
		sbSpec("SB-60/100", mk(60, 100), 30, 90),
	}
}
