package energysched_test

// The paper's tables and figures as benchmarks: each table benchmark
// runs one row of internal/experiments through the public API on the
// one-day calibrated trace and reports the paper metrics beside the
// timing. They live outside package energysched because experiments
// imports it.

import (
	"testing"

	"energysched"
	"energysched/internal/experiments"
)

var paperTrace = energysched.GenerateTrace(energysched.TraceOptions{Days: 1})

// benchRow runs one table row per iteration and reports its metrics.
func benchRow(b *testing.B, row experiments.Row) {
	b.Helper()
	var rep energysched.Result
	for i := 0; i < b.N; i++ {
		var err error
		if rep, err = experiments.RunRow(row, paperTrace); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.EnergyKWh, "kWh")
	b.ReportMetric(rep.Satisfaction, "S%")
	b.ReportMetric(float64(rep.Migrations), "migrations")
	b.ReportMetric(rep.AvgOnline, "nodesON")
}

// --- Table II: static policies without migration ---

func BenchmarkTableII_RD(b *testing.B)  { benchRow(b, experiments.TableIIRows()[0]) }
func BenchmarkTableII_RR(b *testing.B)  { benchRow(b, experiments.TableIIRows()[1]) }
func BenchmarkTableII_BF(b *testing.B)  { benchRow(b, experiments.TableIIRows()[2]) }
func BenchmarkTableII_SB0(b *testing.B) { benchRow(b, experiments.TableIIRows()[3]) }

// --- Table III: virtualization-overhead ablation ---

func BenchmarkTableIII_SB1(b *testing.B)            { benchRow(b, experiments.TableIIIRows()[1]) }
func BenchmarkTableIII_SB2(b *testing.B)            { benchRow(b, experiments.TableIIIRows()[2]) }
func BenchmarkTableIII_SB2_Lambda4090(b *testing.B) { benchRow(b, experiments.TableIIIRows()[3]) }

// --- Table IV: migration policies ---

func BenchmarkTableIV_DBF(b *testing.B)           { benchRow(b, experiments.TableIVRows()[0]) }
func BenchmarkTableIV_SB(b *testing.B)            { benchRow(b, experiments.TableIVRows()[1]) }
func BenchmarkTableIV_SB_Lambda4090(b *testing.B) { benchRow(b, experiments.TableIVRows()[2]) }

// --- Table V: consolidation-cost sweep ---

func BenchmarkTableV_Ce0_Cf40(b *testing.B)   { benchRow(b, experiments.TableVRows()[0]) }
func BenchmarkTableV_Ce20_Cf40(b *testing.B)  { benchRow(b, experiments.TableVRows()[1]) }
func BenchmarkTableV_Ce60_Cf100(b *testing.B) { benchRow(b, experiments.TableVRows()[2]) }

// --- Table I and Figure 1: the measurement substrate ---

func BenchmarkTableI_PowerMeasurement(b *testing.B) {
	var rows []experiments.PowerRow
	for i := 0; i < b.N; i++ {
		rows = experiments.TableI()
	}
	b.ReportMetric(rows[0].MeasuredWatts, "W@100%CPU")
	b.ReportMetric(rows[len(rows)-1].MeasuredWatts, "W@idle")
}

func BenchmarkFig1_Validation(b *testing.B) {
	var v experiments.ValidationResult
	var err error
	for i := 0; i < b.N; i++ {
		v, err = experiments.Validation()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(v.ErrorPct, "totalErr%")
	b.ReportMetric(v.InstMeanErr, "instErrW")
}

// --- Figures 2 and 3: λ sweep (one representative column per bench
// iteration keeps the full-grid cost out of -bench=. runs; the cmd/
// sweep tool produces the complete surface) ---

func BenchmarkFig2Fig3_LambdaColumn(b *testing.B) {
	cfg := experiments.SweepConfig{
		LambdaMins: []float64{10, 30, 50, 70},
		LambdaMaxs: []float64{90},
		Base:       energysched.Options{Policy: "SB"},
	}
	var points []experiments.SweepPoint
	var err error
	for i := 0; i < b.N; i++ {
		points, err = experiments.LambdaSweep(cfg, paperTrace)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(points[0].PowerKWh, "kWh@λmin10")
	b.ReportMetric(points[len(points)-1].PowerKWh, "kWh@λmin70")
	b.ReportMetric(points[len(points)-1].Satisfaction, "S%@λmin70")
}
