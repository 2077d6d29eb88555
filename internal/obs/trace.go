// Package obs is the observability layer's leaf: the decision-trace
// schema the solver emits, the bounded per-fleet trace ring the API
// serves, and the structured-logging helpers the binaries share. It
// imports nothing above the standard library so every layer — core
// included — can depend on it without cycles.
//
// Determinism contract: everything here is a wall-clock side channel.
// The solver WRITES traces; nothing in the scheduling path ever READS
// one back, so any verbosity (including TraceScores) leaves the
// simulation byte-for-byte identical to a run with tracing off. The
// chaos byte-identity suite enforces this at 10k nodes.
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// ClampJSON maps non-finite scores onto ±MaxFloat64 (and NaN onto 0)
// so trace records survive encoding/json, which has no Inf token. An
// infeasible current host therefore shows up as MaxFloat64 — still
// unmistakably "infinite" next to real scores — instead of failing to
// encode.
func ClampJSON(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	case math.IsNaN(v):
		return 0
	}
	return v
}

// Verbosity selects how much the solver records per round.
type Verbosity int32

const (
	// TraceOff records nothing.
	TraceOff Verbosity = iota
	// TraceRounds records per-round summaries: timings, candidate and
	// host counts, move counts, carry/dirty statistics.
	TraceRounds
	// TraceActions adds one "why" record per applied action: the
	// scores compared and the winning margin.
	TraceActions
	// TraceScores (maximum) adds the score-term breakdown — the
	// green-energy/power and SLA components — to every action record.
	TraceScores
)

// ParseVerbosity maps the flag spellings to a level.
func ParseVerbosity(s string) (Verbosity, error) {
	switch s {
	case "off", "none", "0":
		return TraceOff, nil
	case "rounds", "1":
		return TraceRounds, nil
	case "actions", "2":
		return TraceActions, nil
	case "scores", "full", "max", "3":
		return TraceScores, nil
	}
	return TraceOff, fmt.Errorf("obs: unknown trace verbosity %q (off|rounds|actions|scores)", s)
}

// String renders the canonical flag spelling.
func (v Verbosity) String() string {
	switch v {
	case TraceRounds:
		return "rounds"
	case TraceActions:
		return "actions"
	case TraceScores:
		return "scores"
	}
	return "off"
}

// ScoreTerms is the per-action score decomposition recorded at
// TraceScores: the components of the paper's placement score for the
// chosen target, so a migration is explainable down to which term won.
type ScoreTerms struct {
	// Base is the time-independent half (resource fits, concurrency,
	// power, fault terms) of the chosen cell.
	Base float64 `json:"base"`
	// Time is the time-dependent half (virtualization overhead + SLA)
	// of the chosen cell.
	Time float64 `json:"time"`
	// Power is the green-energy/consolidation term Ppwr of the chosen
	// cell in isolation.
	Power float64 `json:"power"`
	// SLA is the deadline-satisfaction term PSLA of the chosen cell in
	// isolation.
	SLA float64 `json:"sla"`
}

// ActionTrace is one applied solver action and why it won.
type ActionTrace struct {
	// Kind is "place" (from queue) or "migrate".
	Kind string `json:"kind"`
	// VM is the VM's ID.
	VM int `json:"vm"`
	// From is the source node ID, -1 for a placement from the queue.
	From int `json:"from"`
	// To is the chosen target node ID.
	To int `json:"to"`
	// Current is the score of leaving the VM where it is (the queue
	// score for a queued VM, the current host's cell otherwise).
	Current float64 `json:"current"`
	// Chosen is the winning target's score.
	Chosen float64 `json:"chosen"`
	// Gain is the winning margin Chosen − Current; more negative is
	// better (the solver minimizes), and for a migration it cleared
	// the hysteresis threshold.
	Gain float64 `json:"gain"`
	// Terms is the score breakdown (TraceScores only).
	Terms *ScoreTerms `json:"terms,omitempty"`
}

// RoundTrace is one solver round's structured trace.
type RoundTrace struct {
	// Seq is the ring-assigned sequence number, monotonically
	// increasing per fleet (assigned by TraceRing.Emit; 0 before).
	Seq uint64 `json:"seq"`
	// Round is the scheduler's round counter after this round.
	Round int `json:"round"`
	// Now is the simulation's virtual time at the round, in seconds.
	Now float64 `json:"now"`
	// Solver names the engine: "naive" for the reference oracle,
	// "incremental" for the slab kernel.
	Solver string `json:"solver"`
	// WallNanos is the wall-clock duration of the whole round.
	WallNanos int64 `json:"wall_ns"`
	// Hosts and Candidates size the round's score matrix.
	Hosts      int `json:"hosts"`
	Candidates int `json:"candidates"`
	// Moves is the number of actions the hill climber applied.
	Moves int `json:"moves"`
	// ScoreEvals counts full score evaluations this round.
	ScoreEvals int `json:"score_evals"`
	// Carry/dirty statistics for this round: matrix cells reused from
	// the previous round, and rows/columns whose carry keys went stale.
	ReusedCells int `json:"reused_cells"`
	StaleRows   int `json:"stale_rows"`
	StaleCols   int `json:"stale_cols"`
	// LimitHit reports that the round stopped on the iteration cap
	// rather than convergence.
	LimitHit bool `json:"limit_hit,omitempty"`
	// Actions holds the per-action why records (TraceActions and up).
	Actions []ActionTrace `json:"actions,omitempty"`
}

// TraceSink receives solver round traces. The solver consults
// Verbosity() once per round (so a sink may flip levels at runtime)
// and calls Emit for every round when the level is above TraceOff.
// rt.Actions is borrowed: it is valid during Emit only, and a sink that
// keeps the actions copies them.
type TraceSink interface {
	Verbosity() Verbosity
	Emit(rt RoundTrace)
}

// EventRound is the SSE event name round traces are served under.
const EventRound = "round"

// TraceRing is the per-fleet decision log behind GET /trace: a Ring of
// round traces plus the recording level. It implements TraceSink; Emit
// hands the round to the ring, which assigns its sequence number and
// marshals it only when someone reads it. The embedded Ring is what
// the API reads (Seq, Snapshot, Subscribe, Close). Safe for one writer
// (the fleet's event loop) and any number of concurrent readers.
type TraceRing struct {
	*Ring[RoundTrace]
	verb atomic.Int32
}

// NewTraceRing builds a ring holding the last depth rounds (default
// 256 when depth <= 0) at the given verbosity.
func NewTraceRing(verb Verbosity, depth int) *TraceRing {
	r := &TraceRing{Ring: NewRing(depth, encodeRound)}
	r.SetVerbosity(verb)
	return r
}

// encodeRound renders a round trace under its ring sequence number.
func encodeRound(seq uint64, rt RoundTrace) []byte {
	rt.Seq = seq
	return marshal(&rt)
}

// marshal is the rings' JSON encoder. The payloads are plain structs
// that cannot fail to encode; if one ever did, nil drops the event.
func marshal(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		return nil
	}
	return data
}

// Verbosity returns the ring's recording level.
func (r *TraceRing) Verbosity() Verbosity { return Verbosity(r.verb.Load()) }

// SetVerbosity changes the recording level at runtime.
func (r *TraceRing) SetVerbosity(v Verbosity) { r.verb.Store(int32(v)) }

// Emit stores the trace in the ring under the next sequence number and
// forwards it to every live subscriber. The ring keeps a copy of a
// non-empty rt.Actions — its one allocation — so the caller may reuse
// that slice.
func (r *TraceRing) Emit(rt RoundTrace) {
	if len(rt.Actions) > 0 {
		rt.Actions = slices.Clone(rt.Actions)
	} else {
		rt.Actions = nil
	}
	r.Ring.Emit(EventRound, rt)
}
