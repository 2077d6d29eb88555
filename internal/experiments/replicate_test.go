package experiments

import (
	"math"
	"strings"
	"testing"

	"energysched"
	"energysched/internal/metrics"
	"energysched/internal/workload"
)

func shortGen() workload.GeneratorConfig {
	g := workload.DefaultGeneratorConfig()
	g.Horizon = 6 * 3600
	return g
}

var bf = Row{Options: energysched.Options{Policy: "BF", LambdaMin: 30, LambdaMax: 90}}

func TestReplicateAggregates(t *testing.T) {
	r, err := Replicate(bf, shortGen(), Seeds(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if r.Replicas != 4 {
		t.Fatalf("replicas = %d", r.Replicas)
	}
	if r.EnergyKWh.Mean <= 0 {
		t.Error("no energy aggregated")
	}
	if r.EnergyKWh.CI95 <= 0 {
		t.Error("no confidence interval with 4 different seeds")
	}
	if r.Satisfaction.Mean < 50 || r.Satisfaction.Mean > 100 {
		t.Errorf("satisfaction mean = %v", r.Satisfaction.Mean)
	}
	if !strings.Contains(r.String(), "BF") {
		t.Errorf("row = %q", r.String())
	}
}

func TestReplicateSingleSeedHasNoCI(t *testing.T) {
	r, err := Replicate(bf, shortGen(), Seeds(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r.EnergyKWh.CI95 != 0 {
		t.Errorf("CI with one replica = %v", r.EnergyKWh.CI95)
	}
}

func TestReplicateNeedsSeeds(t *testing.T) {
	if _, err := Replicate(bf, shortGen(), nil); err == nil {
		t.Error("empty seed list accepted")
	}
}

// A replica varies the simulator with its seed, not only the trace:
// RD's seed-2 replica is the seed-2 run on the seed-2 trace, which
// places differently from the same trace at the default seed.
func TestReplicaSeedsTheSimulator(t *testing.T) {
	rd := TableIIRows()[0]
	r, err := Replicate(rd, shortGen(), []int64{2})
	if err != nil {
		t.Fatal(err)
	}
	g := shortGen()
	g.Seed = 2
	trace := workload.MustGenerate(g)
	seeded := rd
	seeded.Seed = 2
	want, err := RunRow(seeded, trace)
	if err != nil {
		t.Fatal(err)
	}
	if r.EnergyKWh.Mean != want.EnergyKWh || r.Satisfaction.Mean != want.Satisfaction ||
		r.Delay.Mean != want.Delay || r.AvgOnline.Mean != want.AvgOnline {
		t.Errorf("replica of seed 2 = %s, want the seed-2 run %s", r, want)
	}
	if unseeded, err := RunRow(rd, trace); err != nil {
		t.Fatal(err)
	} else if unseeded.EnergyKWh == want.EnergyKWh && unseeded.Delay == want.Delay {
		t.Errorf("RD at seeds 1 and 2 ran alike (%s), so the check above shows nothing", unseeded)
	}
}

func TestSeeds(t *testing.T) {
	s := Seeds(5, 3)
	if len(s) != 3 || s[0] != 5 || s[2] != 7 {
		t.Errorf("Seeds(5, 3) = %v", s)
	}
}

func TestStatMath(t *testing.T) {
	var w metrics.Welford
	for _, x := range []float64{10, 12, 14} {
		w.Add(x)
	}
	s := statOf(&w)
	if s.Mean != 12 {
		t.Errorf("mean = %v", s.Mean)
	}
	// Sample stddev of {10,12,14} = 2; CI95 = 1.96×2/√3 ≈ 2.263.
	if math.Abs(s.CI95-1.96*2/math.Sqrt(3)) > 1e-9 {
		t.Errorf("CI95 = %v", s.CI95)
	}
}
