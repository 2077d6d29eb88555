package experiments

import (
	"fmt"

	"energysched/internal/cluster"
	"energysched/internal/core"
	"energysched/internal/datacenter"
	"energysched/internal/policy"
	"energysched/internal/workload"
)

// SweepPoint is one (λmin, λmax) cell of Figures 2 and 3.
type SweepPoint struct {
	LambdaMin, LambdaMax float64
	// PowerKWh is the total consumption (Fig. 2's z-axis).
	PowerKWh float64
	// Satisfaction is mean client satisfaction S (Fig. 3's z-axis).
	Satisfaction float64
	// AvgWorking, AvgOnline document the consolidation level.
	AvgWorking, AvgOnline float64
}

// SweepConfig parameterizes the λ grid. The paper sweeps λmax from 20
// to 100 and λmin from 10 to 90 (only combinations with
// λmin < λmax are meaningful).
type SweepConfig struct {
	LambdaMins []float64 // percent
	LambdaMaxs []float64 // percent
	// Policy names the scheduler to sweep ("SB" in the paper — "the
	// one that makes a more aggressive consolidation").
	Policy string
	// Classes overrides the fleet (nil = the paper's 100 nodes), so
	// grids can sweep 10k-node heterogeneous scale scenarios.
	Classes []cluster.Class
}

// DefaultSweepConfig returns the paper's grid.
func DefaultSweepConfig() SweepConfig {
	return SweepConfig{
		LambdaMins: []float64{10, 20, 30, 40, 50, 60, 70, 80, 90},
		LambdaMaxs: []float64{20, 30, 40, 50, 60, 70, 80, 90, 100},
		Policy:     "SB",
	}
}

// LambdaSweep runs the grid, skipping infeasible cells (λmin >= λmax)
// which are returned with NaN-free zero values and Skipped = true in
// the point list via omission. Points are ordered λmax-major to match
// the paper's surface plots.
func LambdaSweep(cfg SweepConfig, trace *workload.Trace) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, lmax := range cfg.LambdaMaxs {
		for _, lmin := range cfg.LambdaMins {
			if lmin >= lmax {
				continue
			}
			pol, err := newSweepPolicy(cfg.Policy)
			if err != nil {
				return nil, err
			}
			sim, err := datacenter.New(datacenter.Config{
				Trace:     trace,
				Policy:    pol,
				Classes:   cfg.Classes,
				LambdaMin: lmin,
				LambdaMax: lmax,
				Seed:      Seed,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: sweep λ=%v-%v: %w", lmin, lmax, err)
			}
			rep, err := sim.Run()
			if err != nil {
				return nil, fmt.Errorf("experiments: sweep λ=%v-%v: %w", lmin, lmax, err)
			}
			out = append(out, SweepPoint{
				LambdaMin:    lmin,
				LambdaMax:    lmax,
				PowerKWh:     rep.EnergyKWh,
				Satisfaction: rep.Satisfaction,
				AvgWorking:   rep.AvgWorking,
				AvgOnline:    rep.AvgOnline,
			})
		}
	}
	return out, nil
}

func newSweepPolicy(name string) (policy.Policy, error) {
	switch name {
	case "", "SB":
		return core.NewScheduler(core.SBConfig())
	case "SB2":
		return core.NewScheduler(core.SB2Config())
	case "BF":
		return policy.NewBackfilling(), nil
	case "DBF":
		return policy.NewDynamicBackfilling(), nil
	default:
		return nil, fmt.Errorf("experiments: unsupported sweep policy %q", name)
	}
}
