package datacenter

import (
	"testing"

	"energysched/internal/core"
	"energysched/internal/metrics"
	"energysched/internal/obs"
	"energysched/internal/workload"
)

// TestDormantRowsOnPaperDay measures the solver's dormant rows on the
// workload they were built for: one calibrated paper day under SB. Most
// arbiter row visits must find a dormant row, and skipping them must
// leave the report bit-identical to the naive oracle's, which has no
// dormant rows. The solver's counts are pinned: class records settled
// when read, not when a column re-score makes their holder worse, must
// leave every round, move and evaluation where it was and save at least
// 30 % of the record rebuilds.
func TestDormantRowsOnPaperDay(t *testing.T) {
	gen := workload.DefaultGeneratorConfig()
	gen.Horizon = 24 * 3600
	trace := workload.MustGenerate(gen)

	run := func(cfg core.Config, tracer obs.TraceSink) (metrics.Report, core.SolverStats) {
		t.Helper()
		sch := mustScheduler(cfg)
		sch.Tracer = tracer
		sim, err := New(Config{Trace: trace, Policy: sch, LambdaMin: 30, LambdaMax: 90, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep, sch.Stats
	}

	visits := &rowVisits{}
	carry, st := run(core.SBConfig(), visits)
	share := float64(st.DormantSkips) / float64(visits.n)
	t.Logf("%d rounds, %d of %d arbiter row visits dormant (%.1f %%), %d record rebuilds", st.Rounds, st.DormantSkips, visits.n, 100*share, st.RowRescans)
	if share < 0.7 {
		t.Errorf("%.1f %% of arbiter row visits were dormant, want at least 70 %%", 100*share)
	}
	// eagerRescans is the rebuild count of a solver that rebuilt a
	// record at once whenever a column re-score made its holder worse.
	const rounds, moves, evals, colRefreshes, eagerRescans = 4147, 589, 156875, 685, 19027
	if st.Rounds != rounds || st.Moves != moves || st.ScoreEvals != evals || st.ColRefreshes != colRefreshes {
		t.Errorf("rounds, moves, evaluations, column refreshes = %d, %d, %d, %d, want %d, %d, %d, %d",
			st.Rounds, st.Moves, st.ScoreEvals, st.ColRefreshes, rounds, moves, evals, colRefreshes)
	}
	if limit := eagerRescans * 7 / 10; st.RowRescans > limit {
		t.Errorf("%d record rebuilds, want at most %d (70 %% of %d settled eagerly)", st.RowRescans, limit, eagerRescans)
	}

	cfg := core.SBConfig()
	cfg.NaiveSolver = true
	if naive, _ := run(cfg, nil); naive != carry {
		t.Errorf("dormant rows diverged from the naive oracle:\nkernel: %+v\nnaive:  %+v", carry, naive)
	}
}

// rowVisits is a round-level trace sink that counts the arbiter's row
// visits: every candidate once per iteration, and a round iterates once
// per applied move plus once to find none left — unless the iteration
// limit stopped it.
type rowVisits struct{ n int }

func (r *rowVisits) Verbosity() obs.Verbosity { return obs.TraceRounds }

func (r *rowVisits) Emit(rt obs.RoundTrace) {
	iters := rt.Moves
	if !rt.LimitHit {
		iters++
	}
	r.n += rt.Candidates * iters
}
