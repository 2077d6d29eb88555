package experiments

import (
	"fmt"

	"energysched"
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
	// Base is the run every cell varies: its policy ("SB" in the paper
	// — "the one that makes a more aggressive consolidation"), seed and
	// fleet. Each cell sets its Trace, LambdaMin and LambdaMax.
	Base energysched.Options
}

// LambdaSweep runs one simulation per feasible cell of the grid;
// cells with λmin >= λmax are omitted. Points are ordered λmax-major
// to match the paper's surface plots.
func LambdaSweep(cfg SweepConfig, trace *workload.Trace) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, lmax := range cfg.LambdaMaxs {
		for _, lmin := range cfg.LambdaMins {
			if lmin >= lmax {
				continue
			}
			opts := cfg.Base
			opts.Trace, opts.LambdaMin, opts.LambdaMax = trace, lmin, lmax
			rep, err := energysched.Run(opts)
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
