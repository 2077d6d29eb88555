package slo

import "testing"

// FuzzSLOFile: the objectives file (-slo-file) is operator input read at
// startup. Whatever it holds, Parse never panics; a file it accepts
// holds objectives that each pass Validate under unique names, and an
// engine built from them evaluates a run of observations, violating and
// not, without panicking and with its verdict counters consistent.
func FuzzSLOFile(f *testing.F) {
	for _, seed := range []string{
		`[{"name": "power-budget", "metric": "watts", "max": 1000,
		   "short_window_s": 300, "long_window_s": 1200, "budget": 0.1},
		  {"name": "admit-latency", "metric": "admit_p99_seconds", "max": 100}]`,
		`[{"name": "sla-floor", "metric": "sla_pct", "min": 95}]`,
		`[]`,
		`null`,
		`[{"name": "x", "metric": "watts", "min": 10, "max": 5}]`,
		`[{"name": "x", "metric": "watts", "max": 1, "short_window_s": 7200, "long_window_s": 600}]`,
		`[{"name": "x", "metric": "watts", "max": 1}, {"name": "x", "metric": "kwh", "max": 2}]`,
		`[{"name": "x", "metric": "watts", "max": 1, "budget": 2}]`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		objs, err := Parse(data)
		if err != nil {
			return
		}
		names := make(map[string]bool, len(objs))
		for _, o := range objs {
			if err := o.Validate(); err != nil {
				t.Fatalf("Parse accepted %q, but objective %+v fails Validate: %v", data, o, err)
			}
			if names[o.Name] {
				t.Fatalf("Parse accepted %q with the name %q twice", data, o.Name)
			}
			names[o.Name] = true
		}
		e := NewEngine(objs)
		for i := 0; i < 64; i++ {
			value := float64(i%7) * 1e3
			e.Observe(float64(i)*60, func(string) (float64, bool) { return value, true })
		}
		for _, a := range e.Alerts() {
			if a.FiredTotal < a.ClearedTotal || a.FiredTotal > a.ClearedTotal+1 || (a.State == "firing") != (a.FiredTotal > a.ClearedTotal) {
				t.Fatalf("objective %q: state %s after %d fired and %d cleared", a.Name, a.State, a.FiredTotal, a.ClearedTotal)
			}
		}
	})
}
