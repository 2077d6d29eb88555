package main

import (
	"bytes"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestSmokeAllWorkloads runs every workload end to end at smoke size —
// the untraced pass and the traced pass — and holds what each prints
// against BENCHMARK.json: every metric exactly once with its unit,
// finite values, no failed operation. It asserts no timing.
func TestSmokeAllWorkloads(t *testing.T) {
	bf, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, w := range bf.Workloads {
		declared[w.Name] = true
	}
	all := workloads(true)
	if len(all) != len(bf.Workloads) {
		t.Fatalf("harness has %d workloads, BENCHMARK.json %d", len(all), len(bf.Workloads))
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	if len(perLayer) != len(layerMetrics) {
		t.Errorf("harness has %d per-layer metrics, BENCHMARK.json %d", len(layerMetrics), len(perLayer))
	}

	opt := options{reps: 1, outDir: t.TempDir()}
	for _, w := range all {
		if !declared[w.name] {
			t.Errorf("workload %s is not in BENCHMARK.json", w.name)
		}
		e := &env{seed: 2, smoke: true, scratch: t.TempDir()}
		for _, pass := range []struct {
			name string
			run  func(workloadDef, *env, options) (*result, error)
			want map[string]string
		}{
			{"end-to-end", runWorkload, endToEnd},
			{"traced", traceWorkload, perLayer},
		} {
			res, err := pass.run(w, e, opt)
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, pass.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s %s: correct=%v attempted=%d failed=%d: %s", w.name, pass.name,
					res.Correct, res.Attempted, res.Failed, strings.Join(res.notes, "; "))
			}
			var out bytes.Buffer
			if err := printResult(&out, w.name, res, time.Second); err != nil {
				t.Fatal(err)
			}
			checkPrinted(t, w.name+" "+pass.name, out.String(), pass.want)
		}
	}
}

// checkPrinted holds the human-readable table against the metrics the
// pass must print: each once, with its unit and a finite value.
func checkPrinted(t *testing.T, what, printed string, want map[string]string) {
	t.Helper()
	seen := map[string]int{}
	for _, line := range strings.Split(printed, "\n") {
		f := strings.Fields(line)
		if !strings.HasPrefix(line, "  ") || len(f) != 3 {
			continue
		}
		name, unit := f[0], f[2]
		if name == "ops_attempted" || name == "ops_failed" {
			seen[name]++
			continue
		}
		seen[name]++
		if !metricName.MatchString(name) {
			t.Errorf("%s: metric name %q", what, name)
		}
		if wantUnit, ok := want[name]; !ok {
			t.Errorf("%s: prints %s, which BENCHMARK.json does not name", what, name)
		} else if unit != wantUnit {
			t.Errorf("%s: %s printed in %s, BENCHMARK.json says %s", what, name, unit, wantUnit)
		}
		if strings.ContainsAny(f[1], "NI") { // NaN, +Inf
			t.Errorf("%s: %s = %s", what, name, f[1])
		}
	}
	for name := range want {
		if seen[name] != 1 {
			t.Errorf("%s: %s printed %d times, want once", what, name, seen[name])
		}
	}
	if seen["ops_attempted"] != 1 || seen["ops_failed"] != 1 {
		t.Errorf("%s: ops_attempted/ops_failed printed %d/%d times", what, seen["ops_attempted"], seen["ops_failed"])
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median sorted its argument in place")
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: the helper must sort
		}
		return xs
	}
	for _, c := range []struct {
		n       int
		pct, at float64
	}{
		{5, 50, 3},            // too few for any tail: the median
		{20, 50, 10},          // 10 beyond p50
		{40, 75, 30},          // 10 beyond p75
		{100, 90, 90},         // exactly 10 beyond p90
		{199, 90, 180},        // p95 would leave 9
		{200, 95, 190},        // exactly 10 beyond p95
		{1000, 99, 990},       // exactly 10 beyond p99
		{10000, 99.9, 9990},   // exactly 10 beyond p99.9
		{100000, 99.9, 99900}, // never higher than the top candidate
	} {
		pct, at := tailPercentile(seq(c.n))
		if pct != c.pct || at != c.at {
			t.Errorf("tailPercentile(1..%d) = p%v at %v, want p%v at %v", c.n, pct, at, c.pct, c.at)
		}
	}
}

func TestRefFactor(t *testing.T) {
	// Probes at nominal speed leave the time alone.
	if got := 500 * refFactor(40, 40, 40); got != 500 {
		t.Errorf("nominal probes: %v, want 500", got)
	}
	// A host running 25 % slow (probes 50 instead of 40) took 25 % too
	// long; the correction takes it back.
	if got := 625 * refFactor(50, 50, 40); math.Abs(got-500) > 1e-9 {
		t.Errorf("slow host: %v, want 500", got)
	}
	// A speed change inside the repetition: the mean of the two probes.
	if got := refFactor(40, 60, 40); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("factor across a mode flip: %v, want 0.8", got)
	}
	if got := refFactor(0, 0, 40); got != 1 {
		t.Errorf("factor without probes: %v, want 1", got)
	}
}

func TestPromHistogramDelta(t *testing.T) {
	before, err := parseProm(strings.NewReader(`# HELP energysched_http_request_seconds HTTP request latency.
# TYPE energysched_http_request_seconds histogram
energysched_http_request_seconds_bucket{route="POST /v1/fleets/{fleet}/jobs",le="0.001"} 3
energysched_http_request_seconds_bucket{route="POST /v1/fleets/{fleet}/jobs",le="+Inf"} 4
energysched_http_request_seconds_sum{route="POST /v1/fleets/{fleet}/jobs"} 0.004
energysched_http_request_seconds_count{route="POST /v1/fleets/{fleet}/jobs"} 4
energysched_fleets 1
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(`energysched_http_request_seconds_sum{route="POST /v1/fleets/{fleet}/jobs"} 0.0125
energysched_http_request_seconds_count{route="POST /v1/fleets/{fleet}/jobs"} 10
energysched_wal_append_seconds_sum{fleet="rep000002"} 0.5
energysched_wal_append_seconds_count{fleet="rep000002"} 8
energysched_coalesce_total{endpoint="report",result="hit"} 2 1700000000000
energysched_odd{a="x\"y\\z",b="1"} +Inf
energysched_fleets 2
`))
	if err != nil {
		t.Fatal(err)
	}
	n, sum := after.histDelta(before, "energysched_http_request_seconds", "route", routeSubmit)
	if n != 6 || math.Abs(sum-0.0085) > 1e-12 {
		t.Errorf("route delta = %v calls, %v s; want 6, 0.0085", n, sum)
	}
	// A fleet that did not exist at the first scrape starts from zero.
	n, sum = after.histDelta(before, "energysched_wal_append_seconds", "fleet", "rep000002")
	if n != 8 || sum != 0.5 {
		t.Errorf("new fleet delta = %v calls, %v s; want 8, 0.5", n, sum)
	}
	// Label order in the key does not matter; timestamps are ignored.
	if got := after[seriesKey("energysched_coalesce_total", "result", "hit", "endpoint", "report")]; got != 2 {
		t.Errorf("coalesce hit = %v, want 2", got)
	}
	if got := after[seriesKey("energysched_odd", "a", `x"y\z`, "b", "1")]; !math.IsInf(got, 1) {
		t.Errorf("escaped label value = %v, want +Inf", got)
	}
	if got := after.delta(before, "energysched_fleets"); got != 1 {
		t.Errorf("gauge delta = %v, want 1", got)
	}
	for _, bad := range []string{"name_without_value", `m{a="unterminated} 1`, `m{a=1} 1`, "m notanumber"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) accepted", bad)
		}
	}
}

// TestJobNamesFollowTheSeed pins what -seed changes: the names, and
// nothing a simulation's trajectory depends on.
func TestJobNamesFollowTheSeed(t *testing.T) {
	if jobName(1, 0) == jobName(2, 0) || jobName(1, 0) == jobName(1, 1) {
		t.Error("job names do not depend on seed and id")
	}
	if jobName(3, 7) != jobName(3, 7) || len(jobName(3, 7)) != 8 {
		t.Error("job names are not a fixed-length function of (seed, id)")
	}
	spec := serveSpec{waves: 4, perWave: 2}
	a, b := serveWaves(spec, 1), serveWaves(spec, 2)
	for k := range a {
		if a[k].Name == b[k].Name {
			t.Errorf("wave %d has the same name under two seeds", k)
		}
		a[k].Name, a[k].Submit = "", nil
		b[k].Name, b[k].Submit = "", nil
		if a[k] != b[k] {
			t.Errorf("wave %d differs between seeds beyond its name", k)
		}
	}
}
