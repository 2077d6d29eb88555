// Command benchjson converts `go test -bench` output into a
// machine-readable JSON artifact, so CI can persist per-PR benchmark
// history (BENCH_<pr>.json) and later runs can diff against it
// instead of eyeballing logs.
//
//	go test -run '^$' -bench . -benchtime=1x . | benchjson -o BENCH_6.json
//
// Gate mode compares two artifacts and exits non-zero when any
// benchmark present in both changed a paper metric or allocates more
// (timings are printed, not judged — see gate):
//
//	benchjson -compare BENCH_ci.json -against BENCH_6.json
//
// Lines that are not benchmark results (the paper tables the
// benchmarks print, pass/fail trailers, etc.) are ignored, so the
// tool can consume the raw test output verbatim.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the benchmark name with the -N GOMAXPROCS suffix
	// stripped (it lands in Procs).
	Name  string `json:"name"`
	Procs int    `json:"procs,omitempty"`
	// Iterations is b.N for the reported run.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the headline ns/op figure.
	NsPerOp float64 `json:"ns_per_op,omitempty"`
	// Metrics holds every other `value unit` pair on the line
	// (B/op, allocs/op, and custom ReportMetric units).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Artifact is the emitted document.
type Artifact struct {
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	Label      string      `json:"label,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	label := flag.String("label", "", "free-form label recorded in the artifact (e.g. the PR number)")
	compare := flag.String("compare", "", "gate mode: candidate artifact to check for regressions (needs -against)")
	against := flag.String("against", "", "gate mode: baseline artifact to compare -compare with")
	flag.Parse()

	if *compare != "" || *against != "" {
		if *compare == "" || *against == "" {
			fmt.Fprintln(os.Stderr, "benchjson: gate mode needs both -compare and -against")
			os.Exit(2)
		}
		cand, err := load(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		base, err := load(*against)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		regressions, timings, checked := gate(cand, base)
		for _, line := range timings {
			fmt.Fprintln(os.Stderr, "benchjson: info:", line)
		}
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "benchjson: REGRESSION:", r)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks compared against %s, %d regressed\n",
			checked, *against, len(regressions))
		if len(regressions) > 0 {
			os.Exit(1)
		}
		return
	}

	art, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	art.Label = *label

	enc, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func load(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var art Artifact
	if err := json.Unmarshal(data, &art); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &art, nil
}

// exactMetrics are the paper's result columns. The simulation is
// deterministic for a given seed, so any difference — in either
// direction — is a behaviour change, not noise.
var exactMetrics = []string{"kWh", "S%", "migrations", "nodesON"}

// allocMetrics repeat to within 0.1 % between runs of the same code
// (BENCH_15/16/17 on untouched rows), so a 2 % increase is a real one.
var allocMetrics = []string{"B/op", "allocs/op"}

const allocTolerance = 0.02

// gate compares the candidate against the baseline for every benchmark
// present in both — keyed by name alone: everything judged here is
// independent of GOMAXPROCS, and the committed baselines were recorded
// at GOMAXPROCS=1 (no -N suffix) while CI runners are multi-core — and
// judges only what one sample can decide: the paper metrics must be exactly equal, and
// B/op and allocs/op may not grow by more than allocTolerance. ns/op
// is returned as information only — the candidate is a single
// -benchtime=1x sample on a CI runner, the baseline was recorded on
// another machine, and their ratio says nothing about the code (the
// repeatable timing comparison is bench/run.sh). Benchmarks present on
// one side only, and metrics a side did not report, are skipped — new
// benchmarks must not fail the gate. checked is the number of
// benchmarks actually compared; a gate that compared nothing is itself
// a regression, not a pass.
func gate(cand, base *Artifact) (regressions, timings []string, checked int) {
	baseline := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[b.Name] = b
	}
	for _, b := range cand.Benchmarks {
		want, ok := baseline[b.Name]
		if !ok {
			continue
		}
		checked++
		for _, unit := range exactMetrics {
			got, gok := b.Metrics[unit]
			old, ook := want.Metrics[unit]
			if gok && ook && got != old {
				regressions = append(regressions, fmt.Sprintf(
					"%s: %s = %v vs baseline %v (paper metrics must be identical)", b.Name, unit, got, old))
			}
		}
		for _, unit := range allocMetrics {
			got, gok := b.Metrics[unit]
			old, ook := want.Metrics[unit]
			if gok && ook && got > old*(1+allocTolerance) {
				regressions = append(regressions, fmt.Sprintf(
					"%s: %.0f %s vs baseline %.0f (+%.1f%%, tolerance %.0f%%)",
					b.Name, got, unit, old, (got/old-1)*100, allocTolerance*100))
			}
		}
		if b.NsPerOp > 0 && want.NsPerOp > 0 {
			timings = append(timings, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (%+.1f%%, not judged)",
				b.Name, b.NsPerOp, want.NsPerOp, (b.NsPerOp/want.NsPerOp-1)*100))
		}
	}
	if checked == 0 {
		regressions = append(regressions, "no candidate benchmark has a baseline row: the gate compared nothing")
	}
	return regressions, timings, checked
}

func parse(r io.Reader) (*Artifact, error) {
	art := &Artifact{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Benchmarks: []Benchmark{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if b, ok := parseLine(sc.Text()); ok {
			art.Benchmarks = append(art.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return art, nil
}

// parseLine decodes one `BenchmarkName-P  N  v1 u1  v2 u2 ...` line.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	var b Benchmark
	b.Name = fields[0]
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if procs, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Name, b.Procs = b.Name[:i], procs
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b.Iterations = iters
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			b.NsPerOp = val
			continue
		}
		if b.Metrics == nil {
			b.Metrics = make(map[string]float64)
		}
		b.Metrics[unit] = val
	}
	return b, true
}
