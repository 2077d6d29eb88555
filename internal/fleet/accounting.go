package fleet

import (
	"net/http"

	"energysched"
	"energysched/internal/datacenter"
	"energysched/internal/metrics"
	"energysched/internal/obs"
	"energysched/internal/obs/series"
	"energysched/internal/obs/slo"
	"energysched/internal/sla"
)

// Accounting surface: the per-fleet energy/SLA time-series, the job
// lifecycle journey store, and the SLO burn-rate alerts. All of it is
// the same kind of side channel as the trace ring — written by the
// event loop at tick/event boundaries, read by HTTP handlers, never
// read back by the scheduling path.

// MetricAdmitP99 is the engine-supplied SLO metric resolved from the
// admission-latency histogram rather than the accounting series.
const MetricAdmitP99 = "admit_p99_seconds"

// recordJourney maps one simulation lifecycle event onto a journey
// step. Called from the EventLog callback with replay already
// filtered; node-only events (boots, failures) carry no job and are
// skipped.
func (f *Fleet) recordJourney(sim *datacenter.Simulation, e energysched.Event) {
	if e.VM < 0 {
		return
	}
	st := obs.JourneyStep{T: e.Time, Node: e.Node, Dest: -1}
	switch e.Kind {
	case datacenter.EvArrival:
		st.Kind = obs.StepSubmitted
	case datacenter.EvPlace:
		st.Kind = obs.StepPlaced
	case datacenter.EvCreated:
		st.Kind = obs.StepRunning
	case datacenter.EvMigrateStart:
		st.Kind, st.Dest = obs.StepMigrate, e.Aux
	case datacenter.EvMigrated:
		st.Kind, st.Node = obs.StepMigrated, e.Aux
	case datacenter.EvRequeued:
		st.Kind = obs.StepRequeued
	case datacenter.EvCompleted:
		st.Kind = obs.StepCompleted
		if vms := sim.VMs(); e.VM < len(vms) {
			v := vms[e.VM]
			st.Satisfaction = sla.Satisfaction(v.ExecTime(), v.Deadline-v.Submit)
			st.EnergyKWh = v.EnergyKWh
			if st.Satisfaction < 100 {
				st.Kind = obs.StepViolated
			}
		}
	default:
		return
	}
	f.journeys.Record(e.VM, st)
}

// SeriesSamples evaluates a parsed series query against the fleet's
// accounting store: retained samples since q.Since, downsampled to
// q.Step. The store is internally locked, so this never touches the
// event loop.
func (f *Fleet) SeriesSamples(q series.Query) []series.Sample {
	return series.Downsample(f.series.Samples(q.Since), q.Step)
}

// SeriesCount returns the number of accounting samples ever recorded
// (retained or evicted).
func (f *Fleet) SeriesCount() uint64 { return f.series.Count() }

// Journey returns one job's recorded lifecycle. For a job still in
// flight the attributed energy is overlaid with the engine's live
// value (journeys only store it at the terminal step).
func (f *Fleet) Journey(id int) (obs.Journey, error) {
	j, ok := f.journeys.Get(id)
	if !ok {
		return obs.Journey{}, errf(http.StatusNotFound, "no journey recorded for job %d", id)
	}
	if j.Outcome == "" {
		// Best effort: a closing fleet serves the record as stored.
		_ = f.do(func() {
			if vms := f.sim.VMs(); id >= 0 && id < len(vms) {
				j.EnergyKWh = vms[id].EnergyKWh
			}
		})
	}
	return j, nil
}

// Alerts returns every configured SLO's current verdict (nil without
// objectives).
func (f *Fleet) Alerts() []slo.Alert {
	if f.sloEng == nil {
		return nil
	}
	return f.sloEng.Alerts()
}

// AlertsFiring returns the number of objectives currently firing.
func (f *Fleet) AlertsFiring() int {
	if f.sloEng == nil {
		return 0
	}
	return f.sloEng.Firing()
}

// sloValue resolves an objective's metric against the sample being
// observed; the admission-latency p99 comes from the wall-clock
// histogram instead.
func (f *Fleet) sloValue(smp series.Sample, metric string) (float64, bool) {
	if metric == MetricAdmitP99 {
		if f.hists.admit.Count() == 0 {
			return 0, false
		}
		return f.hists.admit.Quantile(0.99), true
	}
	return series.Value(smp, metric)
}

// accountingSamples appends the accounting layer's Prometheus samples:
// the latest series gauges (fleet-wide and per node class), the
// journey-store counters and the SLO burn-rate families. Call only
// from the event loop (gatherMetrics).
func (f *Fleet) accountingSamples(in []metrics.PromSample) []metrics.PromSample {
	smp := f.sim.SampleAt(f.sim.Now(), f.metricClasses)
	f.metricClasses = smp.Classes
	in = append(in,
		metrics.PromSample{Name: "energysched_utilization_pct", Help: "Reserved CPU as a percentage of online capacity.", Kind: metrics.PromGauge, Value: smp.Utilization},
		metrics.PromSample{Name: "energysched_series_samples_total", Help: "Accounting samples recorded in the time-series store.", Kind: metrics.PromCounter, Value: float64(f.series.Count())},
		metrics.PromSample{Name: "energysched_journeys_tracked", Help: "Job lifecycle journeys currently retained.", Kind: metrics.PromGauge, Value: float64(f.journeys.Len())},
		metrics.PromSample{Name: "energysched_journey_steps_total", Help: "Journey steps emitted on the firehose.", Kind: metrics.PromCounter, Value: float64(f.journeys.Seq())},
	)
	for _, c := range smp.Classes {
		labels := map[string]string{"class": c.Class}
		in = append(in,
			metrics.PromSample{Name: "energysched_class_power_watts", Help: "Power draw by node class.", Kind: metrics.PromGauge, Labels: labels, Value: c.Watts},
			metrics.PromSample{Name: "energysched_class_energy_kwh_total", Help: "Energy consumed by node class since start.", Kind: metrics.PromCounter, Labels: labels, Value: c.KWh},
			metrics.PromSample{Name: "energysched_class_nodes_on", Help: "Nodes powered on (booting included) by class.", Kind: metrics.PromGauge, Labels: labels, Value: float64(c.On)},
			metrics.PromSample{Name: "energysched_class_nodes_working", Help: "Nodes hosting active VMs by class.", Kind: metrics.PromGauge, Labels: labels, Value: float64(c.Working)},
			metrics.PromSample{Name: "energysched_class_nodes_off", Help: "Nodes powered down by class.", Kind: metrics.PromGauge, Labels: labels, Value: float64(c.Off)},
		)
	}
	for _, a := range f.Alerts() {
		firing := 0.0
		if a.State == "firing" {
			firing = 1
		}
		in = append(in,
			metrics.PromSample{Name: "energysched_slo_burn_rate", Help: "SLO burn rate (violated window fraction over budget).", Kind: metrics.PromGauge,
				Labels: map[string]string{"objective": a.Name, "window": "short"}, Value: a.ShortBurn},
			metrics.PromSample{Name: "energysched_slo_burn_rate", Help: "SLO burn rate (violated window fraction over budget).", Kind: metrics.PromGauge,
				Labels: map[string]string{"objective": a.Name, "window": "long"}, Value: a.LongBurn},
			metrics.PromSample{Name: "energysched_slo_firing", Help: "1 while the objective's burn-rate alert is firing.", Kind: metrics.PromGauge,
				Labels: map[string]string{"objective": a.Name}, Value: firing},
			metrics.PromSample{Name: "energysched_slo_fired_total", Help: "Times the objective's alert fired.", Kind: metrics.PromCounter,
				Labels: map[string]string{"objective": a.Name}, Value: float64(a.FiredTotal)},
			metrics.PromSample{Name: "energysched_slo_cleared_total", Help: "Times the objective's alert cleared.", Kind: metrics.PromCounter,
				Labels: map[string]string{"objective": a.Name}, Value: float64(a.ClearedTotal)},
		)
	}
	return in
}
