package datacenter

import (
	"testing"

	"energysched/internal/cluster"
	"energysched/internal/obs/series"
	"energysched/internal/policy"
	"energysched/internal/vm"
	"energysched/internal/workload"
)

func samplingTrace() *workload.Trace {
	return miniTrace(
		job(0, 10, 3600, 100, 5, 1.5),
		job(1, 100, 1800, 200, 10, 1.5),
		job(2, 7200, 600, 100, 5, 1.5),
	)
}

// TestSamplerIsPureObserver is the twin oracle at the simulation
// layer: a run with the accounting sampler attached, energy
// attribution on, and SampleAt hammered mid-tick must produce a report
// byte-identical to the bare run — while actually having recorded one
// sample per housekeeping tick.
func TestSamplerIsPureObserver(t *testing.T) {
	build := func() *Simulation {
		sim, err := New(Config{
			Classes: smallClasses(3),
			Trace:   samplingTrace(),
			Policy:  policy.NewBackfilling(),
			Seed:    1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}

	bare := build()
	bareRep, err := bare.Run()
	if err != nil {
		t.Fatal(err)
	}

	observed := build()
	store := series.NewStore(0)
	observed.AttributeEnergy = true
	observed.Sampler = func(smp series.Sample) {
		store.Add(smp)
		// Re-sampling mid-tick must read the same state, not advance it.
		again := observed.SampleAt(smp.T, nil)
		if again.KWh != smp.KWh || again.Watts != smp.Watts || again.Running != smp.Running {
			t.Errorf("SampleAt not stable at t=%v: %+v vs %+v", smp.T, again, smp)
		}
		// The transition-maintained Running counter must agree with a
		// brute-force sweep of every VM ever created.
		var running int
		for _, v := range observed.VMs() {
			if v.State == vm.Running || v.State == vm.Migrating {
				running++
			}
		}
		if running != smp.Running {
			t.Errorf("running counter %d != swept count %d at t=%v", smp.Running, running, smp.T)
		}
	}
	obsRep, err := observed.Run()
	if err != nil {
		t.Fatal(err)
	}

	if obsRep != bareRep {
		t.Fatalf("sampled run diverged from bare run:\n got %+v\nwant %+v", obsRep, bareRep)
	}
	if store.Count() == 0 {
		t.Fatal("no samples recorded")
	}

	// The series itself is coherent: virtual time and cumulative
	// counters are non-decreasing, and the final sample agrees with
	// the report's totals.
	samples := store.Samples(0)
	for i := 1; i < len(samples); i++ {
		prev, cur := samples[i-1], samples[i]
		if cur.T <= prev.T {
			t.Fatalf("sample %d time went backwards: %v after %v", i, cur.T, prev.T)
		}
		if cur.KWh < prev.KWh || cur.Completed < prev.Completed || cur.Migrations < prev.Migrations {
			t.Fatalf("cumulative counter regressed at %d: %+v after %+v", i, cur, prev)
		}
	}
	// The run ends at the last completion, which lands between ticks —
	// the final sample may trail the report by the jobs that finished
	// after it, but can never lead it.
	last := samples[len(samples)-1]
	if last.Completed > bareRep.JobsCompleted || last.Completed == 0 {
		t.Fatalf("final sample completed = %d, report = %d", last.Completed, bareRep.JobsCompleted)
	}
	if last.KWh <= 0 || last.KWh > bareRep.EnergyKWh {
		t.Fatalf("final sample kwh = %v, report total = %v", last.KWh, bareRep.EnergyKWh)
	}
	// Per-class slices partition the fleet totals.
	var classKWh float64
	var classOn, classOff int
	for _, c := range last.Classes {
		classKWh += c.KWh
		classOn += c.On
		classOff += c.Off
	}
	if classOn != last.On || classOff != last.Off {
		t.Fatalf("class node counts %d/%d do not partition fleet %d/%d",
			classOn, classOff, last.On, last.Off)
	}
	if diff := classKWh - last.KWh; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("class kwh sum %v != fleet kwh %v", classKWh, last.KWh)
	}
}

// TestEnergyAttributionSplitsNodeEnergy: with AttributeEnergy set each
// completed VM carries a positive attributed energy, the attributed
// total never exceeds the fleet's metered energy (idle draw and boots
// stay unattributed), and the report is byte-identical to the
// unattributed run.
func TestEnergyAttributionSplitsNodeEnergy(t *testing.T) {
	build := func(attr bool) (*Simulation, func() error) {
		sim, err := New(Config{
			Classes: smallClasses(3),
			Trace:   samplingTrace(),
			Policy:  policy.NewBackfilling(),
			Seed:    1,
		})
		if err != nil {
			t.Fatal(err)
		}
		sim.AttributeEnergy = attr
		return sim, nil
	}

	plain, _ := build(false)
	plainRep, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range plain.VMs() {
		if v.EnergyKWh != 0 {
			t.Fatalf("attribution off but vm %d has %v kWh", v.ID, v.EnergyKWh)
		}
	}

	attr, _ := build(true)
	attrRep, err := attr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if attrRep != plainRep {
		t.Fatalf("attribution changed the report:\n got %+v\nwant %+v", attrRep, plainRep)
	}
	var sum float64
	for _, v := range attr.VMs() {
		if v.EnergyKWh <= 0 {
			t.Fatalf("vm %d completed with no attributed energy", v.ID)
		}
		sum += v.EnergyKWh
	}
	if sum <= 0 || sum > attrRep.EnergyKWh {
		t.Fatalf("attributed %v kWh of %v total", sum, attrRep.EnergyKWh)
	}
}

// A sample of a multi-class fleet builds its breakdown — laid out in
// the classes' declaration order — in the caller's buffer: with room
// there it allocates nothing and aliases the buffer, and a nil buffer
// costs exactly one allocation that no other sample shares.
func TestSampleAtBuildsIntoCallerBuffer(t *testing.T) {
	classes := cluster.PaperClasses()
	sim, err := New(Config{Classes: classes, Trace: samplingTrace(), Policy: policy.NewBackfilling(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, b := sim.SampleAt(0, nil), sim.SampleAt(0, nil)
	if len(a.Classes) != len(classes) {
		t.Fatalf("%d class samples for %d classes", len(a.Classes), len(classes))
	}
	var nodes int
	for i, c := range a.Classes {
		if c.Class != classes[i].Name || c.On+c.Off != classes[i].Count {
			t.Errorf("class sample %d = %+v, want %q with %d nodes", i, c, classes[i].Name, classes[i].Count)
		}
		nodes += c.On + c.Off
	}
	if nodes != a.On+a.Off {
		t.Errorf("class samples cover %d nodes, fleet sample %d", nodes, a.On+a.Off)
	}
	if &a.Classes[0] == &b.Classes[0] {
		t.Error("two nil-buffer samples share one Classes slice")
	}

	buf := make([]series.ClassSample, 0, len(classes))
	c := sim.SampleAt(0, buf)
	if &c.Classes[0] != &buf[:1][0] {
		t.Error("a sample with room in its buffer did not build the breakdown there")
	}
	for i := range a.Classes {
		if c.Classes[i] != a.Classes[i] {
			t.Fatalf("class %d built in a buffer = %+v, into nil = %+v", i, c.Classes[i], a.Classes[i])
		}
	}
	if n := testing.AllocsPerRun(100, func() { sim.SampleAt(0, buf) }); n != 0 {
		t.Fatalf("SampleAt into a caller buffer allocates %.0f objects per sample, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { sim.SampleAt(0, nil) }); n != 1 {
		t.Fatalf("SampleAt with a nil buffer allocates %.0f objects per sample, want 1", n)
	}
}
