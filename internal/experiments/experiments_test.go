package experiments

import (
	"math"
	"testing"

	"energysched/internal/metrics"
	"energysched/internal/workload"
)

// The experiment tests run on the one-day trace to stay fast; the
// full-week paper comparisons live in EXPERIMENTS.md and the
// benchmarks. What must hold on any trace is the *shape*: who wins
// and in which direction each mechanism pushes.

func day(t *testing.T) *workload.Trace {
	t.Helper()
	cfg := workload.DefaultGeneratorConfig()
	cfg.Horizon = 24 * 3600
	return workload.MustGenerate(cfg)
}

// runTable runs every row of a table once on trace.
func runTable(t *testing.T, makers []SpecMaker, trace *workload.Trace) []metrics.Report {
	t.Helper()
	var rows []metrics.Report
	for _, m := range makers {
		rep, err := RunSpec(m.Make(), trace)
		if err != nil {
			t.Fatalf("%s: %v", m.Label, err)
		}
		rows = append(rows, rep)
	}
	return rows
}

func find(rows []metrics.Report, label string, lambdaMin float64) metrics.Report {
	for _, r := range rows {
		if r.Policy == label && (lambdaMin == 0 || r.LambdaMin == lambdaMin) {
			return r
		}
	}
	return metrics.Report{}
}

func TestTableIIShape(t *testing.T) {
	rows := runTable(t, TableIIMakers(), day(t))
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	rd, rr := find(rows, "RD", 0), find(rows, "RR", 0)
	bf, sb0 := find(rows, "BF", 0), find(rows, "SB0", 0)

	// Non-consolidating policies lose on power...
	if rd.EnergyKWh <= bf.EnergyKWh || rr.EnergyKWh <= bf.EnergyKWh {
		t.Errorf("RD/RR power (%v/%v) should exceed BF (%v)",
			rd.EnergyKWh, rr.EnergyKWh, bf.EnergyKWh)
	}
	// ...and on satisfaction.
	if rd.Satisfaction >= bf.Satisfaction || rr.Satisfaction >= bf.Satisfaction {
		t.Errorf("RD/RR satisfaction (%v/%v) should trail BF (%v)",
			rd.Satisfaction, rr.Satisfaction, bf.Satisfaction)
	}
	// SB0 behaves like Backfilling (within a few percent).
	if math.Abs(sb0.EnergyKWh-bf.EnergyKWh)/bf.EnergyKWh > 0.08 {
		t.Errorf("SB0 (%v) should track BF (%v)", sb0.EnergyKWh, bf.EnergyKWh)
	}
	// All complete the same work.
	for _, r := range rows {
		if r.JobsCompleted != r.JobsTotal {
			t.Errorf("%s completed %d/%d", r.Policy, r.JobsCompleted, r.JobsTotal)
		}
	}
}

func TestTableIIIShape(t *testing.T) {
	rows := runTable(t, TableIIIMakers(), day(t))
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// None of the static score variants migrates.
	for _, r := range rows {
		if r.Migrations != 0 {
			t.Errorf("%s migrated %d times without migration support", r.Policy, r.Migrations)
		}
	}
	// The aggressive λ run of SB2 saves substantial power vs λ 30-90.
	sb2 := find(rows, "SB2", 30)
	sb2a := find(rows, "SB2", 40)
	if sb2a.EnergyKWh >= sb2.EnergyKWh {
		t.Errorf("SB2 λ40-90 (%v) should beat λ30-90 (%v)", sb2a.EnergyKWh, sb2.EnergyKWh)
	}
	// While keeping satisfaction in the high-90s band.
	if sb2a.Satisfaction < 90 {
		t.Errorf("SB2 λ40-90 satisfaction collapsed: %v", sb2a.Satisfaction)
	}
}

func TestTableIVShape(t *testing.T) {
	rows := runTable(t, TableIVMakers(), day(t))
	dbf := find(rows, "DBF", 0)
	sb := find(rows, "SB", 30)
	sbA := find(rows, "SB", 40)

	// The score-based policy beats DBF on power.
	if sb.EnergyKWh >= dbf.EnergyKWh {
		t.Errorf("SB (%v) should consume less than DBF (%v)", sb.EnergyKWh, dbf.EnergyKWh)
	}
	// Both migrate; the aggressive-λ SB run is the paper's headline.
	if sb.Migrations == 0 || dbf.Migrations == 0 {
		t.Errorf("migration counts: SB %d, DBF %d", sb.Migrations, dbf.Migrations)
	}
	if sbA.EnergyKWh >= sb.EnergyKWh {
		t.Errorf("SB λ40-90 (%v) should beat λ30-90 (%v)", sbA.EnergyKWh, sb.EnergyKWh)
	}
}

func TestTableVShape(t *testing.T) {
	rows := runTable(t, TableVMakers(), day(t))
	noCe := find(rows, "SB-0/40", 0)
	mid := find(rows, "SB-20/40", 0)
	agg := find(rows, "SB-60/100", 0)

	// Without the empty-host penalty consolidation barely migrates.
	if noCe.Migrations > mid.Migrations/4 {
		t.Errorf("Ce=0 migrated %d times, mid %d — should be near zero", noCe.Migrations, mid.Migrations)
	}
	// Aggressive parameters migrate the most.
	if agg.Migrations <= mid.Migrations {
		t.Errorf("aggressive (%d) should migrate more than typical (%d)", agg.Migrations, mid.Migrations)
	}
	// And the no-penalty variant has the worst power of the three.
	if noCe.EnergyKWh <= mid.EnergyKWh {
		t.Errorf("Ce=0 (%v) should consume more than typical (%v)", noCe.EnergyKWh, mid.EnergyKWh)
	}
}

func TestLambdaSweepTrends(t *testing.T) {
	cfg := SweepConfig{
		LambdaMins: []float64{10, 30, 50},
		LambdaMaxs: []float64{60, 90},
		Policy:     "SB",
	}
	points, err := LambdaSweep(cfg, day(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("points = %d, want 6", len(points))
	}
	// Fig. 2's headline trend: at fixed λmax, higher λmin (earlier
	// shutdowns) means less power.
	get := func(lmin, lmax float64) SweepPoint {
		for _, p := range points {
			if p.LambdaMin == lmin && p.LambdaMax == lmax {
				return p
			}
		}
		t.Fatalf("point %v/%v missing", lmin, lmax)
		return SweepPoint{}
	}
	if get(50, 90).PowerKWh >= get(10, 90).PowerKWh {
		t.Errorf("aggressive λmin should save power: %v vs %v",
			get(50, 90).PowerKWh, get(10, 90).PowerKWh)
	}
	// Fig. 3's trend: the conservative corner has at least the
	// satisfaction of the aggressive corner.
	if get(10, 60).Satisfaction < get(50, 90).Satisfaction-0.5 {
		t.Errorf("conservative corner S (%v) below aggressive corner (%v)",
			get(10, 60).Satisfaction, get(50, 90).Satisfaction)
	}
	for _, p := range points {
		if p.Satisfaction < 0 || p.Satisfaction > 100 || p.PowerKWh <= 0 {
			t.Errorf("degenerate point %+v", p)
		}
	}
}

func TestLambdaSweepSkipsInfeasible(t *testing.T) {
	cfg := SweepConfig{LambdaMins: []float64{50}, LambdaMaxs: []float64{30}, Policy: "BF"}
	points, err := LambdaSweep(cfg, day(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 0 {
		t.Fatalf("infeasible cells produced points: %+v", points)
	}
}

func TestLambdaSweepUnknownPolicy(t *testing.T) {
	cfg := SweepConfig{Policy: "nonsense", LambdaMins: []float64{30}, LambdaMaxs: []float64{90}}
	if _, err := LambdaSweep(cfg, day(t)); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestTableIMatchesPaper(t *testing.T) {
	rows := TableI()
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	for _, r := range rows {
		if math.Abs(r.MeasuredWatts-r.PaperWatts) > 2 {
			t.Errorf("%s: measured %.1f W vs paper %.0f W", r.Config, r.MeasuredWatts, r.PaperWatts)
		}
	}
}

func TestValidationMatchesPaperShape(t *testing.T) {
	v, err := Validation()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: −2.4 % total error; we accept the same sign and order.
	if v.ErrorPct > 0.5 || v.ErrorPct < -6 {
		t.Errorf("total error = %.2f%%, want a small underestimate (paper −2.4%%)", v.ErrorPct)
	}
	// Instantaneous error of the paper's order (8.62 ± 8.06 W).
	if v.InstMeanErr < 2 || v.InstMeanErr > 20 {
		t.Errorf("instantaneous error = %.2f W, want single-digit-ish", v.InstMeanErr)
	}
	if len(v.Real) != int(1300) || len(v.Sim) != len(v.Real) {
		t.Errorf("trace lengths: real %d, sim %d", len(v.Real), len(v.Sim))
	}
	// Both totals in the paper's ~100 Wh regime.
	if v.RealWh < 80 || v.RealWh > 120 || v.SimWh < 80 || v.SimWh > 120 {
		t.Errorf("totals: real %.1f Wh, sim %.1f Wh", v.RealWh, v.SimWh)
	}
}

func TestPaperTraceCalibration(t *testing.T) {
	tr := workload.MustGenerate(workload.DefaultGeneratorConfig())
	cpuh := tr.TotalCPUHours()
	if cpuh < 4500 || cpuh > 7500 {
		t.Errorf("paper trace = %.0f CPU-h, want ≈6055 (paper)", cpuh)
	}
}
