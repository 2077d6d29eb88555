package main

import (
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	b, ok := parseLine("BenchmarkTable3SB-8   \t       1\t123456789 ns/op\t  2048 B/op\t      17 allocs/op")
	if !ok {
		t.Fatal("result line not recognized")
	}
	if b.Name != "BenchmarkTable3SB" || b.Procs != 8 || b.Iterations != 1 {
		t.Fatalf("parsed %+v", b)
	}
	if b.NsPerOp != 123456789 || b.Metrics["B/op"] != 2048 || b.Metrics["allocs/op"] != 17 {
		t.Fatalf("parsed %+v", b)
	}
}

func TestParseLineCustomMetrics(t *testing.T) {
	b, ok := parseLine("BenchmarkFig5-4 2 5000 ns/op 93.5 satisfaction_pct")
	if !ok || b.Metrics["satisfaction_pct"] != 93.5 {
		t.Fatalf("parsed %+v ok=%v", b, ok)
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	art, err := parse(strings.NewReader(`goos: linux
goarch: amd64
pkg: energysched
BenchmarkTable3SB-8 1 123 ns/op
| policy | joules |   <- a paper table the benchmark prints
PASS
ok  	energysched	1.234s
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Benchmarks) != 1 || art.Benchmarks[0].Name != "BenchmarkTable3SB" {
		t.Fatalf("parsed %+v", art.Benchmarks)
	}
}

func TestParseLineUnsuffixedName(t *testing.T) {
	b, ok := parseLine("BenchmarkSolo 10 42.5 ns/op")
	if !ok || b.Name != "BenchmarkSolo" || b.Procs != 0 || b.NsPerOp != 42.5 {
		t.Fatalf("parsed %+v ok=%v", b, ok)
	}
}

// The CI gate judges what one sample can decide: a paper metric that
// moved at all and allocations that grew past 2 % regress; ns/op is
// reported but never fails; benchmarks missing a side (renamed, new)
// and metrics only one side reported are skipped rather than failed.
func TestGate(t *testing.T) {
	mk := func(name string, ns float64, metrics map[string]float64) Benchmark {
		return Benchmark{Name: name, Procs: 8, Iterations: 1, NsPerOp: ns, Metrics: metrics}
	}
	paper := func(kwh float64) map[string]float64 {
		return map[string]float64{"kWh": kwh, "S%": 99.74, "migrations": 12, "nodesON": 19.43}
	}
	base := &Artifact{Benchmarks: []Benchmark{
		mk("BenchmarkSlow", 1000, paper(213.6)),
		mk("BenchmarkDrift", 1000, paper(213.6)),
		mk("BenchmarkAllocs", 1000, map[string]float64{"B/op": 10000, "allocs/op": 1000}),
		mk("BenchmarkLeaner", 1000, map[string]float64{"B/op": 10000, "allocs/op": 1000}),
		mk("BenchmarkGone", 500, nil),
		mk("BenchmarkNoMem", 1000, map[string]float64{"B/op": 10000}),
	}}
	cand := &Artifact{Benchmarks: []Benchmark{
		mk("BenchmarkSlow", 5000, paper(213.6)), // 5x the ns/op: information only
		mk("BenchmarkDrift", 900, paper(213.5)), // faster, but the energy moved
		mk("BenchmarkAllocs", 1000, map[string]float64{"B/op": 10200, "allocs/op": 1021}),
		mk("BenchmarkLeaner", 1000, map[string]float64{"B/op": 100, "allocs/op": 1}),
		mk("BenchmarkNew", 9999, paper(1)),
		mk("BenchmarkNoMem", 1000, nil), // this run did not report B/op
	}}
	regressions, timings, checked := gate(cand, base)
	if checked != 5 {
		t.Fatalf("checked %d benchmarks, want 5 (all but Gone and New)", checked)
	}
	if len(regressions) != 2 ||
		!strings.Contains(regressions[0], "BenchmarkDrift: kWh = 213.5 vs baseline 213.6") ||
		!strings.Contains(regressions[1], "BenchmarkAllocs: 1021 allocs/op vs baseline 1000 (+2.1%") {
		t.Fatalf("regressions = %q, want Drift's kWh and Allocs' allocs/op (B/op +2.0%% is inside the tolerance)", regressions)
	}
	if len(timings) != 5 || !strings.Contains(timings[0], "BenchmarkSlow: 5000 ns/op vs baseline 1000 (+400.0%, not judged)") {
		t.Fatalf("timings = %q", timings)
	}
}

// Rows are matched by name alone: the committed baselines were recorded
// at GOMAXPROCS=1 and a CI runner has more cores, which used to make
// every key miss and the gate pass having compared nothing.
func TestGateIgnoresGOMAXPROCS(t *testing.T) {
	base := &Artifact{Benchmarks: []Benchmark{
		{Name: "BenchmarkTable", Procs: 0, Metrics: map[string]float64{"kWh": 213.6}},
	}}
	cand := &Artifact{Benchmarks: []Benchmark{
		{Name: "BenchmarkTable", Procs: 4, Metrics: map[string]float64{"kWh": 213.5}},
	}}
	regressions, _, checked := gate(cand, base)
	if checked != 1 || len(regressions) != 1 || !strings.Contains(regressions[0], "BenchmarkTable: kWh") {
		t.Fatalf("checked=%d regressions=%q, want the kWh drift caught across a procs mismatch", checked, regressions)
	}
}

// A gate that matched no row has judged nothing and must fail.
func TestGateFailsWhenNothingCompared(t *testing.T) {
	base := &Artifact{Benchmarks: []Benchmark{{Name: "BenchmarkOld", NsPerOp: 1}}}
	cand := &Artifact{Benchmarks: []Benchmark{{Name: "BenchmarkRenamed", NsPerOp: 1}}}
	regressions, _, checked := gate(cand, base)
	if checked != 0 || len(regressions) != 1 || !strings.Contains(regressions[0], "compared nothing") {
		t.Fatalf("checked=%d regressions=%q, want the empty comparison reported as a failure", checked, regressions)
	}
}
