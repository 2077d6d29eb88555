package fleet

import (
	"encoding/json"
	"time"

	"energysched"
	"energysched/internal/metrics"
	"energysched/internal/obs"
)

// Fleet-side observability: the fleet's three streams — simulation
// events, decision traces, journey steps, each an obs.Ring the HTTP
// layer tails directly — and the latency histograms the /metrics
// endpoint exports. Everything here is a wall-clock side channel — the
// histograms record durations, the ring records what the solver
// already decided — so none of it can perturb the deterministic
// simulation (see internal/obs).

// fleetHists groups one fleet's latency histograms. Histograms are
// internally locked, so the HTTP goroutines may snapshot them while
// the event loop observes.
type fleetHists struct {
	// admit is the admission batch latency: validate + WAL + inject,
	// one observation per admitJobs call (Submit, SubmitBatch).
	admit metrics.Histogram
	// wal is the WAL append+fsync latency, one observation per logged
	// batch (admissions, seals, replicated records).
	wal metrics.Histogram
	// sse is the SSE fan-out latency of the event stream, one
	// observation per published event: ring store + fan-out, plus the
	// marshal when a subscriber is attached.
	sse metrics.Histogram
	// replApply is the replicated-record apply latency on a follower
	// fleet: decode + WAL + inject + clock catch-up.
	replApply metrics.Histogram
	// round is the solver round wall-clock duration, fed by the
	// simulation's RoundTimer hook after every round of any policy;
	// rounds re-run while replaying the WAL are not observed.
	round metrics.Histogram
}

// histSamples appends the fleet's histogram families to samples.
func (h *fleetHists) samples(in []metrics.PromSample) []metrics.PromSample {
	for _, fam := range []struct {
		name, help string
		h          *metrics.Histogram
	}{
		{"energysched_admit_batch_seconds", "Admission batch latency: validate + WAL append/fsync + inject.", &h.admit},
		{"energysched_wal_append_seconds", "WAL append+fsync latency per logged batch.", &h.wal},
		{"energysched_sse_fanout_seconds", "Event-stream publish latency: ring store and subscriber fan-out (with the marshal when someone is subscribed).", &h.sse},
		{"energysched_repl_apply_seconds", "Replicated-record apply latency on a follower fleet.", &h.replApply},
		{"energysched_solver_round_seconds", "Solver round wall-clock duration.", &h.round},
	} {
		in = append(in, metrics.HistogramSamples(fam.name, fam.help, nil, fam.h)...)
	}
	return in
}

// fleetTraceSink is the obs.TraceSink the fleet installs on its
// scheduler. It feeds two consumers: the fleet's trace ring (at the
// ring's configured verbosity) and the journey store, which stages
// every round's applied actions so placed/migrate journey steps carry
// their why-scores regardless of the ring's level. Replayed rounds
// (crash recovery, restore, replication bootstrap) are suppressed
// entirely — they re-run old decisions, and recording them would
// splice stale history into the ring and duplicate journey whys.
//
// Verbosity and Emit are only called by the solver, which runs on the
// fleet's event loop — the same goroutine that flips f.replaying — so
// reading the flag here is race-free.
type fleetTraceSink struct {
	f    *Fleet
	ring *obs.TraceRing
}

// Verbosity implements obs.TraceSink. The journey store needs the
// per-action records, so the effective level is at least TraceActions
// even when the ring records less; Emit strips what the ring did not
// ask for.
func (s *fleetTraceSink) Verbosity() obs.Verbosity {
	if s.f.replaying {
		return obs.TraceOff
	}
	if v := s.ring.Verbosity(); v > obs.TraceActions {
		return v
	}
	return obs.TraceActions
}

// Emit implements obs.TraceSink: stage the round's actions for the
// journey store, then forward the trace to the ring at the ring's own
// verbosity (dropping it entirely at off, stripping the action records
// at rounds). rt.Actions is borrowed from the solver; the journey store
// and the ring each copy what they keep, so at off and rounds nothing
// is copied beyond the staging.
func (s *fleetTraceSink) Emit(rt obs.RoundTrace) {
	s.f.journeys.StageActions(rt.Actions)
	switch v := s.ring.Verbosity(); {
	case v == obs.TraceOff:
		return
	case v < obs.TraceActions:
		rt.Actions = nil
	}
	s.ring.Emit(rt)
}

// publish emits one simulation event on the event ring under its kind
// as the SSE event name; the ring marshals it only when someone reads
// it. The event loop is the only publisher.
func (f *Fleet) publish(e energysched.Event) {
	defer f.hists.sse.ObserveSince(time.Now())
	f.events.Emit(string(e.Kind), e)
}

// encodeEvent renders a simulation event for the event ring. Events do
// not embed their sequence number; it travels as the SSE id.
func encodeEvent(_ uint64, e energysched.Event) []byte {
	data, err := json.Marshal(e)
	if err != nil {
		return nil // Event is a plain struct; cannot happen
	}
	return data
}

// Broker returns the fleet's simulation event stream
// (GET /v1/fleets/{id}/events): the ring that brokers events from the
// event loop to SSE subscribers.
func (f *Fleet) Broker() *obs.Ring[energysched.Event] { return f.events }

// Trace returns the fleet's decision-trace ring and its runtime
// verbosity knob (GET /v1/fleets/{id}/trace). Pure observability: any
// level leaves the fleet's reports and event stream byte-identical.
func (f *Fleet) Trace() *obs.TraceRing { return f.trace }

// Journeys returns the fleet's journey store: the index and the step
// firehose (GET /v1/fleets/{id}/journeys). Single records go through
// Fleet.Journey, which overlays live energy.
func (f *Fleet) Journeys() *obs.JourneyStore { return f.journeys }
