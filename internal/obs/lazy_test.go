package obs_test

import (
	"encoding/json"
	"math"
	"testing"

	"energysched/internal/obs"
	"energysched/internal/obs/obstest"
)

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// A round trace at every verbosity — bare rounds, action records, score
// terms, and the clamped ±Inf scores of an infeasible host — reads back
// on every path as json.Marshal of the trace under its ring sequence.
func TestTraceRingLazyEqualsEager(t *testing.T) {
	place := obs.ActionTrace{Kind: "place", VM: 3, From: -1, To: 7, Current: 1e6, Chosen: -12.5, Gain: -1000012.5}
	infeasible := obs.ActionTrace{Kind: "migrate", VM: 4, From: 2, To: 9,
		Current: obs.ClampJSON(math.Inf(1)), Chosen: 40, Gain: obs.ClampJSON(math.Inf(-1))}
	scored := infeasible
	scored.Terms = &obs.ScoreTerms{Base: 30, Time: 10, Power: obs.ClampJSON(math.NaN()), SLA: 2.5}
	vals := []obs.RoundTrace{
		{Round: 1, Now: 60, Solver: "incremental", WallNanos: 1200, Hosts: 100, Candidates: 3},
		{Round: 2, Now: 120, Solver: "incremental", Moves: 1, ScoreEvals: 300, ReusedCells: 90, StaleRows: 1, StaleCols: 2, LimitHit: true},
		{Round: 3, Now: 180, Solver: "naive", Moves: 2, Actions: []obs.ActionTrace{place, infeasible}},
		{Round: 4, Now: 240, Solver: "incremental", Moves: 1, Actions: []obs.ActionTrace{scored}},
	}
	obstest.LazyEqualsEager(t, obs.EncodeRound,
		func(obs.RoundTrace) string { return obs.EventRound },
		func(seq uint64, rt obs.RoundTrace) []byte {
			rt.Seq = seq
			return mustMarshal(t, rt)
		}, vals)
}

// A firehose step with and without a why-score, and a terminal one.
func TestJourneyFirehoseLazyEqualsEager(t *testing.T) {
	why := obs.ActionTrace{Kind: "place", VM: 5, From: -1, To: 1, Current: 1e6, Chosen: 3, Gain: -999997,
		Terms: &obs.ScoreTerms{Base: 1, Time: 2}}
	vals := []obs.JourneyEvent{
		{Job: 5, JourneyStep: obs.JourneyStep{T: 0, Kind: obs.StepSubmitted, Node: -1, Dest: -1}},
		{Job: 5, JourneyStep: obs.JourneyStep{T: 0, Kind: obs.StepPlaced, Node: 1, Dest: -1, Why: &why}},
		{Job: 5, JourneyStep: obs.JourneyStep{T: 90, Kind: obs.StepMigrate, Node: 1, Dest: 2}},
		{Job: 5, JourneyStep: obs.JourneyStep{T: 700, Kind: obs.StepViolated, Node: 2, Dest: -1, Satisfaction: 87.5, EnergyKWh: 0.042}},
	}
	obstest.LazyEqualsEager(t, obs.EncodeStep,
		func(obs.JourneyEvent) string { return obs.EventStep },
		func(seq uint64, ev obs.JourneyEvent) []byte {
			ev.Seq = seq
			return mustMarshal(t, ev)
		}, vals)
}
