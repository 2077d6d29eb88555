package core

import (
	"time"

	"energysched/internal/obs"
	"energysched/internal/vm"
)

// Decision tracing. The scheduler optionally carries an obs.TraceSink
// (set directly on the struct — NOT via Config, which must stay a
// comparable value type) and emits one obs.RoundTrace per scheduling
// round: wall-clock timings, matrix dimensions, carry/dirty statistics
// and, at TraceActions and above, one "why" record per applied move.
//
// Determinism contract: tracing is a pure wall-clock side channel.
// Every score recorded here is recomputed against the pre-move shadow
// through the same pure helpers the solvers use, WITHOUT incrementing
// Stats.ScoreEvals (the counters are bumped at solver call sites, not
// inside the score functions — exactly so trace recomputation stays
// invisible to the exported stats). The solvers never read a trace
// back, so any verbosity leaves the action stream, the solver stats
// and the simulation reports byte-identical to a run with tracing off.
// The chaos 10k byte-identity suite runs a TraceScores variant to
// enforce this.

// beginTrace caches the sink's verbosity for the round in flight and
// resets the per-round scratch. Returns the wall-clock start (zero
// when tracing is off).
func (sch *Scheduler) beginTrace() time.Time {
	sch.traceVerb = obs.TraceOff
	if sch.Tracer != nil {
		sch.traceVerb = sch.Tracer.Verbosity()
	}
	if sch.traceVerb == obs.TraceOff {
		return time.Time{}
	}
	sch.traceActs = sch.traceActs[:0]
	return time.Now()
}

// emitRoundTrace builds and emits the round's trace from the stats
// delta accumulated since before.
func (sch *Scheduler) emitRoundTrace(now float64, t0 time.Time, before SolverStats, hosts, cands int) {
	d := sch.Stats
	rt := obs.RoundTrace{
		Round:       d.Rounds,
		Now:         now,
		Solver:      "incremental",
		WallNanos:   time.Since(t0).Nanoseconds(),
		Hosts:       hosts,
		Candidates:  cands,
		Moves:       d.Moves - before.Moves,
		ScoreEvals:  d.ScoreEvals - before.ScoreEvals,
		ReusedCells: d.ReusedCells - before.ReusedCells,
		StaleRows:   d.StaleRows - before.StaleRows,
		StaleCols:   d.StaleCols - before.StaleCols,
		LimitHit:    d.LimitHits > before.LimitHits,
	}
	if sch.cfg.NaiveSolver {
		rt.Solver = "naive"
	}
	// Lent, not given: the sink copies what it keeps, and the next round
	// reuses the buffer.
	rt.Actions = sch.traceActs
	sch.Tracer.Emit(rt)
}

// traceMove records one applied hill-climber move. Called strictly
// before shadow.move, so the recomputed scores see exactly the state
// the solver compared: Current is the cost of leaving the VM where it
// is (the queue score when queued), Chosen the winning target's score,
// Gain the winning margin Chosen − Current that beat the hysteresis
// threshold.
func (sch *Scheduler) traceMove(s *shadow, vi, ni int) {
	v := s.vms[vi]
	cur := queueScore
	if a := s.assign[vi]; a >= 0 {
		cur = sch.score(s, a, vi)
	}
	chosen := sch.score(s, ni, vi)
	at := obs.ActionTrace{
		Kind:    "migrate",
		VM:      v.ID,
		From:    -1,
		To:      s.nodes[ni].ID,
		Current: obs.ClampJSON(cur),
		Chosen:  obs.ClampJSON(chosen),
		Gain:    obs.ClampJSON(chosen - cur),
	}
	if v.State == vm.Queued {
		at.Kind = "place"
	}
	if a := s.assign[vi]; a >= 0 {
		at.From = s.nodes[a].ID
	}
	if sch.traceVerb >= obs.TraceScores {
		at.Terms = sch.traceTerms(s, vi, ni)
	}
	sch.traceActs = append(sch.traceActs, at)
}

// traceTerms decomposes the chosen cell's score at TraceScores: the
// base/time halves plus the power (green-energy/consolidation) and SLA
// terms in isolation, so a migration is explainable down to which
// penalty family won it.
func (sch *Scheduler) traceTerms(s *shadow, vi, ni int) *obs.ScoreTerms {
	cfg := &sch.cfg
	t := &obs.ScoreTerms{
		Base: obs.ClampJSON(sch.scoreBase(s, ni, vi)),
		Time: obs.ClampJSON(sch.scoreTime(s, ni, vi)),
	}
	if cfg.enablePower {
		if occ := s.occupation(ni, vi); occ <= 1.0+1e-9 {
			t.Power = sch.pPower(s, ni, vi, occ)
		}
	}
	if cfg.enableSLA {
		overhead := 0.0
		if ni != s.initial[vi] {
			cl := s.nodes[ni].Class
			overhead = cl.MigrateCost
			if s.vms[vi].State == vm.Queued {
				overhead = cl.CreateCost
			}
		}
		if p, infinite := sch.pSLA(s.vms[vi], s.now, overhead); !infinite {
			t.SLA = p
		}
	}
	return t
}
