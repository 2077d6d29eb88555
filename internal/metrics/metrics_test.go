package metrics

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeAvgConstant(t *testing.T) {
	a := NewTimeAvg(0, 5)
	if got := a.Mean(10); got != 5 {
		t.Errorf("constant mean = %v, want 5", got)
	}
}

func TestTimeAvgStep(t *testing.T) {
	a := NewTimeAvg(0, 0)
	a.Observe(10, 10) // 0 for [0,10), 10 for [10,20)
	if got := a.Mean(20); got != 5 {
		t.Errorf("step mean = %v, want 5", got)
	}
}

func TestTimeAvgMultipleSteps(t *testing.T) {
	a := NewTimeAvg(0, 2)
	a.Observe(5, 4)
	a.Observe(15, 0)
	// 2×5 + 4×10 + 0×5 = 50 over 20 s.
	if got := a.Mean(20); got != 2.5 {
		t.Errorf("mean = %v, want 2.5", got)
	}
}

func TestTimeAvgCurrentAndEarlyMean(t *testing.T) {
	a := NewTimeAvg(3, 7)
	if got := a.Mean(3); got != 7 {
		t.Errorf("Mean at start = %v, want last value", got)
	}
	// No interval to average yet: Mean at the start is the current value.
	a.Observe(5, 9)
	if got := a.Mean(3); got != 9 {
		t.Errorf("Mean at start after a change = %v, want current value 9", got)
	}
}

func TestTimeAvgBackwardsPanics(t *testing.T) {
	a := NewTimeAvg(10, 1)
	defer func() {
		if recover() == nil {
			t.Error("backwards time did not panic")
		}
	}()
	a.Observe(5, 2)
}

// Property: time-weighted mean is always within [min, max] of the
// observed values.
func TestTimeAvgBoundsProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		a := NewTimeAvg(0, float64(vals[0]%100))
		lo, hi := float64(vals[0]%100), float64(vals[0]%100)
		tm := 0.0
		for _, v := range vals[1:] {
			tm += float64(v%50) + 0.5
			val := float64(v % 100)
			a.Observe(tm, val)
			if val < lo {
				lo = val
			}
			if val > hi {
				hi = val
			}
		}
		m := a.Mean(tm + 10)
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if got := w.Mean(); got != 5 {
		t.Errorf("mean = %v, want 5", got)
	}
	if got := w.Var(); got != 4 {
		t.Errorf("var = %v, want 4", got)
	}
	if got := w.Stddev(); got != 2 {
		t.Errorf("stddev = %v, want 2", got)
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.N() != 0 {
		t.Error("empty Welford not zero")
	}
}

func TestWelfordMatchesNaiveProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var w Welford
		var sum float64
		for _, x := range raw {
			w.Add(float64(x))
			sum += float64(x)
		}
		mean := sum / float64(len(raw))
		var m2 float64
		for _, x := range raw {
			d := float64(x) - mean
			m2 += d * d
		}
		variance := m2 / float64(len(raw))
		return math.Abs(w.Mean()-mean) < 1e-6 && math.Abs(w.Var()-variance) < 1e-3*(1+variance)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReportString(t *testing.T) {
	r := Report{
		Policy: "SB", LambdaMin: 30, LambdaMax: 90,
		AvgWorking: 9.7, AvgOnline: 21.0, CPUHours: 6055.8,
		EnergyKWh: 956.4, Satisfaction: 99.1, Delay: 9.0, Migrations: 87,
	}
	s := r.String()
	for _, want := range []string{"SB", "30-90", "9.7", "21.0", "956.4", "99.1", "87"} {
		if !strings.Contains(s, want) {
			t.Errorf("report %q missing %q", s, want)
		}
	}
	if TableHeader() == "" {
		t.Error("empty table header")
	}
}

func TestWriteProm(t *testing.T) {
	var buf bytes.Buffer
	err := WriteProm(&buf, []PromSample{
		{Name: "es_power_watts", Help: "instantaneous draw", Kind: PromGauge, Value: 1234.5},
		{Name: "es_jobs", Help: "jobs by state", Kind: PromGauge,
			Labels: map[string]string{"state": "running"}, Value: 3},
		{Name: "es_jobs", Labels: map[string]string{"state": "queued"}, Value: 0},
		{Name: "es_migrations_total", Help: "completed migrations", Kind: PromCounter, Value: 96},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `# HELP es_power_watts instantaneous draw
# TYPE es_power_watts gauge
es_power_watts 1234.5
# HELP es_jobs jobs by state
# TYPE es_jobs gauge
es_jobs{state="running"} 3
es_jobs{state="queued"} 0
# HELP es_migrations_total completed migrations
# TYPE es_migrations_total counter
es_migrations_total 96
`
	if got := buf.String(); got != want {
		t.Errorf("prom output:\n%s\nwant:\n%s", got, want)
	}
}

func TestWritePromEscaping(t *testing.T) {
	var buf bytes.Buffer
	err := WriteProm(&buf, []PromSample{
		{Name: "es_x", Help: "line1\nline2 \\ tail",
			Labels: map[string]string{"b": `q"v`, "a": "n\nl"}, Value: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "# HELP es_x line1\\nline2 \\\\ tail\n# TYPE es_x gauge\n" +
		`es_x{a="n\nl",b="q\"v"} 1` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("prom output:\n%q\nwant:\n%q", got, want)
	}
	if err := WriteProm(&buf, []PromSample{{}}); err == nil {
		t.Error("empty metric name accepted")
	}
}

// TestWritePromHostileFleetNames: fleet IDs are attacker-controlled
// label values (they come straight from PUT /v1/fleets/{id}), so every
// exposition-format metacharacter must escape to exactly one
// well-formed series line. The want strings are the literal bytes a
// scraper reads.
func TestWritePromHostileFleetNames(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fleet string
		want  string // full expected sample line
	}{
		{"backslash", `a\b`, `es_up{fleet="a\\b"} 1`},
		{"quote", `a"b`, `es_up{fleet="a\"b"} 1`},
		{"newline", "a\nb", `es_up{fleet="a\nb"} 1`},
		{"quote-then-backslash", `"\`, `es_up{fleet="\"\\"} 1`},
		{"all-three", "\\\"\n", `es_up{fleet="\\\"\n"} 1`},
		{"escape-lookalike", `a\nb`, `es_up{fleet="a\\nb"} 1`}, // literal backslash-n stays distinguishable
		{"trailing-backslash", `trail\`, `es_up{fleet="trail\\"} 1`},
		{"unicode", "flotte-\u00e9\u4e16", "es_up{fleet=\"flotte-\u00e9\u4e16\"} 1"},
		{"braces-and-equals", `a{b="c"}`, `es_up{fleet="a{b=\"c\"}"} 1`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := WriteProm(&buf, []PromSample{
				{Name: "es_up", Labels: map[string]string{"fleet": tc.fleet}, Value: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
			// Header line + exactly one sample line: a raw newline in a
			// label value must never produce extra lines.
			if len(lines) != 2 {
				t.Fatalf("%d lines, want 2 (TYPE + sample):\n%q", len(lines), buf.String())
			}
			if lines[1] != tc.want {
				t.Errorf("sample line:\n got %q\nwant %q", lines[1], tc.want)
			}
		})
	}
}

// TestWritePromRejectsBadLabelNames: label names cannot be escaped in
// the exposition format, so invalid ones must error out instead of
// corrupting the scrape.
func TestWritePromRejectsBadLabelNames(t *testing.T) {
	for _, bad := range []string{"", "9lives", "a-b", "a b", "a\"b", "ключ"} {
		var buf bytes.Buffer
		err := WriteProm(&buf, []PromSample{
			{Name: "es_up", Labels: map[string]string{bad: "v"}, Value: 1},
		})
		if err == nil {
			t.Errorf("label name %q accepted", bad)
		}
	}
	// Valid edge cases still pass.
	for _, ok := range []string{"_", "a", "A9", "fleet_id_2"} {
		var buf bytes.Buffer
		err := WriteProm(&buf, []PromSample{
			{Name: "es_up", Labels: map[string]string{ok: "v"}, Value: 1},
		})
		if err != nil {
			t.Errorf("label name %q rejected: %v", ok, err)
		}
	}
}

// TestWritePromSpecialValues: ±Inf and NaN render as the spelled-out
// exposition tokens, not Go's float formatting.
func TestWritePromSpecialValues(t *testing.T) {
	var buf bytes.Buffer
	err := WriteProm(&buf, []PromSample{
		{Name: "es_a", Value: math.Inf(1)},
		{Name: "es_b", Value: math.Inf(-1)},
		{Name: "es_c", Value: math.NaN()},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"es_a +Inf\n", "es_b -Inf\n", "es_c NaN\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
