package fleet

import (
	"net/http"
	"path/filepath"
	"sync/atomic"
	"testing"

	"energysched"
	"energysched/internal/datacenter"
	"energysched/internal/obs"
	"energysched/internal/obs/series"
	"energysched/internal/obs/slo"
)

// TestFleetAccountingTwin is the side-channel oracle at the fleet
// layer: a fleet with every collector armed — scores-verbosity
// tracing, SLO objectives, and the always-on series/journey stores —
// drains to the exact report of a bare twin, while the collectors
// actually recorded the run.
func TestFleetAccountingTwin(t *testing.T) {
	cfg := Config{
		Sched:          Sched{Policy: "SB", Seed: 1},
		TraceVerbosity: "scores",
		SLOs: []slo.Objective{
			{Name: "power-budget", Metric: "watts", Max: 1, Budget: 0.1},
		},
	}
	f, err := Open("observed", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	submitN(t, f, 12, 0)
	rep, err := f.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if want := drainedReport(t, 12); rep != want {
		t.Fatalf("observed drain diverged from bare twin:\n got %+v\nwant %+v", rep, want)
	}
	if f.SeriesCount() == 0 {
		t.Fatal("no accounting samples recorded")
	}
	if len(f.Journeys().Summaries()) != 12 {
		t.Fatalf("journeys tracked = %d, want 12", len(f.Journeys().Summaries()))
	}
	if len(f.Alerts()) != 1 {
		t.Fatalf("alerts = %+v", f.Alerts())
	}
}

// TestFleetJourneyLifecycle: a drained job's journey tells the whole
// story — submitted, placed with a why-score (journeys force
// action-level tracing even with the ring off), running, completed —
// with attributed energy and SLA satisfaction on the terminal step.
func TestFleetJourneyLifecycle(t *testing.T) {
	f, err := Open("j", Config{Sched: Sched{Policy: "SB", Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	submitN(t, f, 4, 0)
	if _, err := f.Drain(); err != nil {
		t.Fatal(err)
	}

	for id := 0; id < 4; id++ {
		j, err := f.Journey(id)
		if err != nil {
			t.Fatalf("journey %d: %v", id, err)
		}
		if j.Outcome != obs.StepCompleted {
			t.Fatalf("job %d outcome = %q", id, j.Outcome)
		}
		if j.EnergyKWh <= 0 {
			t.Fatalf("job %d completed with no attributed energy", id)
		}
		if j.Satisfaction != 100 {
			t.Fatalf("job %d satisfaction = %v, want 100 for a comfortable deadline", id, j.Satisfaction)
		}
		kinds := make([]string, len(j.Steps))
		for i, st := range j.Steps {
			kinds[i] = st.Kind
		}
		if len(kinds) < 4 || kinds[0] != obs.StepSubmitted || kinds[len(kinds)-1] != obs.StepCompleted {
			t.Fatalf("job %d steps = %v", id, kinds)
		}
		placed := false
		for _, st := range j.Steps {
			if st.Kind == obs.StepPlaced {
				placed = true
				if st.Why == nil || st.Why.To != st.Node {
					t.Fatalf("job %d placed step why = %+v (node %d)", id, st.Why, st.Node)
				}
			}
		}
		if !placed {
			t.Fatalf("job %d has no placed step: %v", id, kinds)
		}
		// Steps are stamped with non-decreasing virtual time.
		for i := 1; i < len(j.Steps); i++ {
			if j.Steps[i].T < j.Steps[i-1].T {
				t.Fatalf("job %d step times regress: %v", id, j.Steps)
			}
		}
	}

	if _, err := f.Journey(99); err == nil {
		t.Fatal("unknown job resolved")
	} else if fe, ok := err.(*Error); !ok || fe.Status != http.StatusNotFound {
		t.Fatalf("unknown job error = %v, want 404", err)
	}
}

// TestFleetAccountingReplaySuppression: crash recovery must not
// double-count the side channels. After a kill and reopen the series
// store and the journey firehose start empty (replayed rounds are
// observations already delivered), while the recovered fleet's drained
// report AND its per-job attributed energy match the uninterrupted
// twin exactly — replayed energy re-accumulates from zero, never
// twice.
func TestFleetAccountingReplaySuppression(t *testing.T) {
	const n = 12
	dir := filepath.Join(t.TempDir(), "f")
	f, err := Open("f", testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	submitN(t, f, n, 0)
	if f.SeriesCount() == 0 || f.Journeys().Seq() == 0 {
		t.Fatal("live run recorded nothing")
	}
	f.Close() // kill

	f2, err := Open("f", testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if c := f2.SeriesCount(); c != 0 {
		t.Fatalf("recovery replay leaked %d samples into the series store", c)
	}
	if s := f2.Journeys().Seq(); s != 0 {
		t.Fatalf("recovery replay leaked %d steps onto the journey firehose", s)
	}
	got, err := f2.Drain()
	if err != nil {
		t.Fatal(err)
	}

	// Uninterrupted twin for the per-job energy comparison.
	ref, err := Open("ref", Config{Sched: Sched{Policy: "SB", Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	submitN(t, ref, n, 0)
	want, err := ref.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("recovered drain diverged:\n got %+v\nwant %+v", got, want)
	}
	for id := 0; id < n; id++ {
		jr, err := f2.Journey(id)
		if err != nil {
			t.Fatalf("recovered journey %d: %v", id, err)
		}
		jw, err := ref.Journey(id)
		if err != nil {
			t.Fatalf("ref journey %d: %v", id, err)
		}
		if jr.EnergyKWh != jw.EnergyKWh {
			t.Fatalf("job %d attributed energy diverged after recovery: %v vs %v",
				id, jr.EnergyKWh, jw.EnergyKWh)
		}
		if jr.Outcome != jw.Outcome || jr.Satisfaction != jw.Satisfaction {
			t.Fatalf("job %d outcome diverged: %+v vs %+v", id, jr, jw)
		}
	}
	// Post-recovery samples resume and stay cumulative from the true
	// total, not from a doubled one: the final kWh matches the twin's.
	rs, ws := f2.SeriesSamples(series.Query{}), ref.SeriesSamples(series.Query{})
	if len(rs) == 0 || len(ws) == 0 {
		t.Fatal("post-recovery drain recorded no samples")
	}
	if rk, wk := rs[len(rs)-1].KWh, ws[len(ws)-1].KWh; rk != wk {
		t.Fatalf("final sampled kWh diverged after recovery: %v vs %v", rk, wk)
	}
}

// TestReplayRunsNoSampler: recovery and API restore replay the log
// without the accounting sampler installed — no replayed tick builds a
// sample only to drop it — and live ticks afterwards sample again.
func TestReplayRunsNoSampler(t *testing.T) {
	var ticks, sampled atomic.Int64
	datacenter.TickHook = func(s *datacenter.Simulation) {
		ticks.Add(1)
		if s.Sampler != nil {
			sampled.Add(1)
		}
	}
	defer func() { datacenter.TickHook = nil }() // after the fleet's deferred Close
	check := func(what string) {
		t.Helper()
		if ticks.Load() == 0 {
			t.Fatalf("%s replayed no tick", what)
		}
		if n := sampled.Load(); n != 0 {
			t.Fatalf("%s ran %d of %d replayed ticks with the sampler installed", what, n, ticks.Load())
		}
		ticks.Store(0)
	}

	cfg := testConfig(filepath.Join(t.TempDir(), "f"))
	cfg.SnapshotDir = t.TempDir()
	f, err := Open("f", cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitN(t, f, 40, 0)
	snap, err := f.Snapshot("mid.json")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	ticks.Store(0)
	sampled.Store(0)

	f, err = Open("f", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	check("recovery")
	if _, err := f.Restore(filepath.Base(snap.Path)); err != nil {
		t.Fatal(err)
	}
	check("restore")
	submitN(t, f, 2, 40)
	if sampled.Load() == 0 || f.SeriesCount() == 0 {
		t.Fatalf("live ticks after the replay sampled %d times, series count %d", sampled.Load(), f.SeriesCount())
	}
}

// TestFleetAccountingBoundedDepth: the ring depths from the config
// actually bound retention while lifetime counters keep counting.
func TestFleetAccountingBoundedDepth(t *testing.T) {
	f, err := Open("small", Config{Sched: Sched{Policy: "SB", Seed: 1}, SeriesDepth: 4, JourneyDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	submitN(t, f, 8, 0)
	if _, err := f.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := len(f.SeriesSamples(series.Query{})); got > 4 {
		t.Fatalf("series retained %d samples, depth 4", got)
	}
	if f.SeriesCount() <= 4 {
		t.Fatalf("SeriesCount = %d, want more than the depth (eviction still counts)", f.SeriesCount())
	}
	// 8 jobs against a 3-record cap: retention never exceeds the cap
	// (evicted jobs may re-enter on their terminal step — by design,
	// the outcome of a long-running job survives even if its early
	// steps were evicted).
	if sums := f.Journeys().Summaries(); len(sums) != 3 {
		t.Fatalf("journeys retained %d, depth 3: %+v", len(sums), sums)
	}
	if f.Journeys().Seq() < 8 {
		t.Fatalf("firehose carried %d steps, want all of them despite eviction", f.Journeys().Seq())
	}
}

// TestFleetSLOFireAndClear drives the canonical alert episode through
// a real fleet: a power-budget ceiling burns while the burst runs,
// fires, then a long idle tail (nodes powered down, zero draw) brings
// the short window back under budget and the alert clears — all in
// virtual time, fully deterministic, with the transition counters and
// the Prometheus families as the record.
func TestFleetSLOFireAndClear(t *testing.T) {
	cfg := Config{
		Sched: Sched{Policy: "SB", Seed: 1},
		SLOs: []slo.Objective{
			// The ceiling sits between the idle floor (one node held
			// on, 725 W) and the busy burst (1297 W): the burst burns
			// budget, the idle tail recovers it.
			{Name: "power-budget", Metric: "watts", Max: 1000,
				ShortWindow: 300, LongWindow: 1200, Budget: 0.1},
			{Name: "admit-p99", Metric: MetricAdmitP99, Max: 100},
		},
	}
	f, err := Open("slo", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// A busy half hour: two chunky jobs hold nodes on and draw well
	// over the ceiling at every tick.
	at0, at60 := 0.0, 60.0
	if _, err := f.Submit(energysched.JobSpec{CPU: 300, Mem: 10, Duration: 1800, Submit: &at0}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Submit(energysched.JobSpec{CPU: 300, Mem: 10, Duration: 1800, Submit: &at60}); err != nil {
		t.Fatal(err)
	}
	// A tiny straggler hours later forces the drain through a long
	// idle tail: nodes power down, draw falls to zero, the short
	// window recovers.
	late := 4 * 3600.0
	if _, err := f.Submit(energysched.JobSpec{CPU: 100, Mem: 5, Duration: 60, Submit: &late}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Drain(); err != nil {
		t.Fatal(err)
	}

	alerts := f.Alerts()
	if len(alerts) != 2 {
		t.Fatalf("alerts = %+v", alerts)
	}
	power := alerts[0]
	if power.Name != "power-budget" {
		t.Fatalf("alert order changed: %+v", alerts)
	}
	if power.FiredTotal < 1 {
		t.Fatalf("power ceiling never fired: %+v", power)
	}
	if power.ClearedTotal < 1 || power.State != "ok" {
		t.Fatalf("power alert never cleared through the idle tail: %+v", power)
	}
	if f.AlertsFiring() != 0 {
		t.Fatalf("AlertsFiring = %d after the run", f.AlertsFiring())
	}
	p99 := alerts[1]
	if p99.State != "ok" || p99.FiredTotal != 0 {
		t.Fatalf("admit-p99 ceiling of 100s fired: %+v", p99)
	}
	if p99.Value <= 0 {
		t.Fatalf("admit-p99 never resolved from the admission histogram: %+v", p99)
	}

	// The run is deterministic: a twin fleet reports the identical
	// alert structs, transition counters included.
	f2, err := Open("slo2", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	for _, at := range []float64{0, 60} {
		at := at
		if _, err := f2.Submit(energysched.JobSpec{CPU: 300, Mem: 10, Duration: 1800, Submit: &at}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f2.Submit(energysched.JobSpec{CPU: 100, Mem: 5, Duration: 60, Submit: &late}); err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Drain(); err != nil {
		t.Fatal(err)
	}
	twin := f2.Alerts()[0]
	if twin.State != power.State || twin.FiredTotal != power.FiredTotal ||
		twin.ClearedTotal != power.ClearedTotal || twin.Since != power.Since {
		t.Fatalf("twin fleets' alert verdicts diverged:\n%+v\n%+v", twin, power)
	}

	// The SLO families reach /metrics.
	samples, err := f.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, s := range samples {
		if s.Labels["objective"] == "power-budget" {
			found[s.Name] = true
			if s.Name == "energysched_slo_fired_total" && s.Value < 1 {
				t.Fatalf("fired_total sample = %v", s.Value)
			}
		}
	}
	for _, name := range []string{
		"energysched_slo_burn_rate", "energysched_slo_firing",
		"energysched_slo_fired_total", "energysched_slo_cleared_total",
	} {
		if !found[name] {
			t.Errorf("metrics missing %s for the power-budget objective", name)
		}
	}
}
