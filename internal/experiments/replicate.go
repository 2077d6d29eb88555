package experiments

import (
	"fmt"
	"math"

	"energysched/internal/metrics"
	"energysched/internal/workload"
)

// Stat is a replicated metric: mean over seeds with a 95 % confidence
// half-width (normal approximation; with the recommended 5–10
// replicas this is within a few percent of the t-quantile).
type Stat struct {
	Mean, CI95 float64
}

func statOf(w *metrics.Welford) Stat {
	s := Stat{Mean: w.Mean()}
	if n := float64(w.N()); n > 1 {
		// Sample stddev from the population variance Welford keeps.
		sd := w.Stddev() * math.Sqrt(n/(n-1))
		s.CI95 = 1.96 * sd / math.Sqrt(n)
	}
	return s
}

// String renders "mean ± ci".
func (s Stat) String() string { return fmt.Sprintf("%.1f ± %.1f", s.Mean, s.CI95) }

// Replication aggregates one experiment row over several seeds: both
// the workload trace and the simulator's stochastic draws change per
// seed, so the intervals reflect full run-to-run variability.
type Replication struct {
	Label        string
	Replicas     int
	EnergyKWh    Stat
	Satisfaction Stat
	Delay        Stat
	Migrations   Stat
	AvgOnline    Stat
}

// String renders the row for reports.
func (r Replication) String() string {
	return fmt.Sprintf("%-9s n=%d  Pwr %s kWh  S %s %%  delay %s %%  mig %s  ON %s",
		r.Label, r.Replicas, r.EnergyKWh, r.Satisfaction, r.Delay, r.Migrations, r.AvgOnline)
}

// Replicate runs the row once per seed, each time at that seed on a
// freshly generated trace with that seed, and aggregates the paper's
// metrics under the row's report name.
func Replicate(row Row, gen workload.GeneratorConfig, seeds []int64) (Replication, error) {
	if len(seeds) == 0 {
		return Replication{}, fmt.Errorf("experiments: no seeds")
	}
	var label string
	var energy, sat, delay, mig, online metrics.Welford
	for _, seed := range seeds {
		g := gen
		g.Seed = seed
		trace, err := workload.Generate(g)
		if err != nil {
			return Replication{}, err
		}
		row.Seed = seed
		rep, err := RunRow(row, trace)
		if err != nil {
			return Replication{}, fmt.Errorf("experiments: seed %d: %w", seed, err)
		}
		label = rep.Policy
		energy.Add(rep.EnergyKWh)
		sat.Add(rep.Satisfaction)
		delay.Add(rep.Delay)
		mig.Add(float64(rep.Migrations))
		online.Add(rep.AvgOnline)
	}
	return Replication{
		Label:        label,
		Replicas:     len(seeds),
		EnergyKWh:    statOf(&energy),
		Satisfaction: statOf(&sat),
		Delay:        statOf(&delay),
		Migrations:   statOf(&mig),
		AvgOnline:    statOf(&online),
	}, nil
}

// Seeds returns the n consecutive seeds first..first+n-1.
func Seeds(first int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = first + int64(i)
	}
	return out
}
