package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"energysched/internal/obs"
)

// Decision tracing must be a pure observer: a scheduler with a
// TraceScores sink attached must emit exactly the actions and stats of
// a tracerless twin, on the naive oracle and the slab kernel alike.
// These tests are the core-level half of the determinism contract; the
// chaos 10k byte-identity suite enforces the same thing end to end.

// traceVariants are the engine configurations the determinism sweep
// covers.
func traceVariants() []struct {
	name string
	mut  func(*Config)
} {
	return []struct {
		name string
		mut  func(*Config)
	}{
		{"incremental", func(c *Config) {}},
		{"naive", func(c *Config) { c.NaiveSolver = true }},
	}
}

// TestTraceDeterminism runs randomized rounds on twin schedulers — one
// tracerless, one with a TraceScores ring — and requires identical
// actions and identical SolverStats (including ScoreEvals: trace
// recomputation must not show up in the counters).
func TestTraceDeterminism(t *testing.T) {
	for seed := 0; seed < 60; seed++ {
		r := rand.New(rand.NewSource(int64(9000 + seed)))
		ctx, cfg := randomScenario(r)
		for _, variant := range traceVariants() {
			vCfg := cfg
			variant.mut(&vCfg)
			plain := MustScheduler(vCfg)
			traced := MustScheduler(vCfg)
			ring := obs.NewTraceRing(obs.TraceScores, 0)
			traced.Tracer = ring

			want := renderActions(plain.Schedule(ctx))
			got := renderActions(traced.Schedule(ctx))
			if len(want) != len(got) {
				t.Fatalf("seed %d %s: action count diverged with tracing: %v vs %v", seed, variant.name, got, want)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("seed %d %s: action %d diverged with tracing: %q vs %q", seed, variant.name, i, got[i], want[i])
				}
			}
			if plain.Stats != traced.Stats {
				t.Fatalf("seed %d %s: stats diverged with tracing:\ntraced: %+v\nplain:  %+v", seed, variant.name, traced.Stats, plain.Stats)
			}
			if len(want) > 0 && ring.Seq() == 0 {
				t.Fatalf("seed %d %s: round produced %d actions but no trace was emitted", seed, variant.name, len(want))
			}
		}
	}
}

// TestTraceRoundContents drives each engine until a round applies
// moves, then checks the emitted RoundTrace: solver name, matrix
// dimensions, one "why" record per applied move with a strictly
// negative winning margin, and a populated score breakdown at
// TraceScores.
func TestTraceRoundContents(t *testing.T) {
	for _, variant := range traceVariants() {
		variant := variant
		t.Run(variant.name, func(t *testing.T) {
			for seed := 0; seed < 200; seed++ {
				r := rand.New(rand.NewSource(int64(4400 + seed)))
				ctx, cfg := randomScenario(r)
				variant.mut(&cfg)
				sch := MustScheduler(cfg)
				ring := obs.NewTraceRing(obs.TraceScores, 0)
				sch.Tracer = ring
				sch.Schedule(ctx)
				if sch.Stats.Moves == 0 {
					continue // need a round that actually moved something
				}

				evs := ring.Snapshot(0)
				if len(evs) != 1 {
					t.Fatalf("seed %d: %d trace events after one round, want 1", seed, len(evs))
				}
				var rt obs.RoundTrace
				if err := json.Unmarshal(evs[0].Data, &rt); err != nil {
					t.Fatalf("seed %d: trace does not decode: %v", seed, err)
				}
				if rt.Seq != 1 || rt.Round != 1 {
					t.Errorf("seed %d: Seq/Round = %d/%d, want 1/1", seed, rt.Seq, rt.Round)
				}
				if rt.Solver != variant.name {
					t.Errorf("seed %d: Solver = %q, want %q", seed, rt.Solver, variant.name)
				}
				if bytes.Contains(evs[0].Data, []byte(`"shards"`)) {
					t.Errorf("seed %d: %s round traced a shards key", seed, variant.name)
				}
				if rt.Hosts <= 0 || rt.Candidates <= 0 {
					t.Errorf("seed %d: empty matrix dimensions %d×%d in a round with moves", seed, rt.Candidates, rt.Hosts)
				}
				if rt.Moves != sch.Stats.Moves {
					t.Errorf("seed %d: traced Moves = %d, stats say %d", seed, rt.Moves, sch.Stats.Moves)
				}
				if rt.ScoreEvals != sch.Stats.ScoreEvals {
					t.Errorf("seed %d: traced ScoreEvals = %d, stats say %d", seed, rt.ScoreEvals, sch.Stats.ScoreEvals)
				}
				if len(rt.Actions) != rt.Moves {
					t.Errorf("seed %d: %d action records for %d moves", seed, len(rt.Actions), rt.Moves)
				}
				for i, at := range rt.Actions {
					if at.Kind != "place" && at.Kind != "migrate" {
						t.Errorf("seed %d action %d: Kind = %q", seed, i, at.Kind)
					}
					if at.Kind == "place" && at.From != -1 {
						t.Errorf("seed %d action %d: placement with From = %d", seed, i, at.From)
					}
					if at.Kind == "migrate" && at.From < 0 {
						t.Errorf("seed %d action %d: migration without a source node", seed, i)
					}
					if at.To < 0 {
						t.Errorf("seed %d action %d: To = %d", seed, i, at.To)
					}
					if at.Gain >= 0 {
						t.Errorf("seed %d action %d: non-improving Gain %v traced as applied", seed, i, at.Gain)
					}
					if at.Terms == nil {
						t.Errorf("seed %d action %d: no score breakdown at TraceScores", seed, i)
					}
				}
				return // one moving round per engine is enough
			}
			t.Fatal("no seed produced a round with moves")
		})
	}
}

// TestTraceVerbosityLevels pins what each level records: TraceOff
// emits nothing, TraceRounds omits action records, TraceActions omits
// the score breakdown.
func TestTraceVerbosityLevels(t *testing.T) {
	for seed := 0; seed < 200; seed++ {
		r := rand.New(rand.NewSource(int64(5100 + seed)))
		ctx, cfg := randomScenario(r)
		sch := MustScheduler(cfg)
		if renderActions(sch.Schedule(ctx)) == nil {
			continue // need a round with actions
		}

		off := MustScheduler(cfg)
		offRing := obs.NewTraceRing(obs.TraceOff, 0)
		off.Tracer = offRing
		off.Schedule(ctx)
		if offRing.Seq() != 0 {
			t.Fatalf("seed %d: TraceOff emitted %d traces", seed, offRing.Seq())
		}

		decode := func(verb obs.Verbosity) obs.RoundTrace {
			t.Helper()
			sch := MustScheduler(cfg)
			ring := obs.NewTraceRing(verb, 0)
			sch.Tracer = ring
			sch.Schedule(ctx)
			evs := ring.Snapshot(0)
			if len(evs) != 1 {
				t.Fatalf("seed %d %v: %d trace events, want 1", seed, verb, len(evs))
			}
			var rt obs.RoundTrace
			if err := json.Unmarshal(evs[0].Data, &rt); err != nil {
				t.Fatalf("seed %d %v: trace does not decode: %v", seed, verb, err)
			}
			return rt
		}

		rounds := decode(obs.TraceRounds)
		if len(rounds.Actions) != 0 {
			t.Fatalf("seed %d: TraceRounds recorded %d action records", seed, len(rounds.Actions))
		}
		actions := decode(obs.TraceActions)
		if len(actions.Actions) == 0 {
			t.Fatalf("seed %d: TraceActions recorded no action records in a moving round", seed)
		}
		for i, at := range actions.Actions {
			if at.Terms != nil {
				t.Fatalf("seed %d: TraceActions action %d carries a score breakdown", seed, i)
			}
		}
		return
	}
	t.Fatal("no seed produced a round with actions")
}
