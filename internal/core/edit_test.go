package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"energysched/internal/cluster"
	"energysched/internal/policy"
)

// TestFeedTwinRandomRounds holds the edit pass fed by a change feed to
// the full pass: a kernel handed exactly what each round's churn
// changed — arrivals, completions, demand updates, the applied
// placements and migrations, progress accrual — beside a twin given no
// feed, which re-checks every row every round. Time alone changes the
// rest: migration cooldowns end and, under PSLA, stay terms step. The
// two must emit byte-identical actions and Stats, and the fed kernel
// must stay exact (checkKernel). Some rounds break the feed — none
// handed over, or a round number skipped — and must fall back to the
// full pass; power transitions change the host set; and the harness
// refuses some actions, leaving their rows moved.
func TestFeedTwinRandomRounds(t *testing.T) {
	const rounds = 80
	for seed := 0; seed < 24; seed++ {
		r := rand.New(rand.NewSource(int64(5300 + seed)))
		classes := make([]cluster.Class, 1+r.Intn(3))
		for i := range classes {
			classes[i] = cluster.Class{
				Name:        fmt.Sprintf("c%d", i),
				Count:       2 + r.Intn(5),
				CPU:         float64(200 + 200*r.Intn(3)),
				Mem:         float64(50 + 50*r.Intn(2)),
				CreateCost:  float64(20 + r.Intn(41)),
				MigrateCost: float64(30 + r.Intn(61)),
				BootTime:    100,
				Arch:        "x86_64",
				Hypervisor:  "xen",
				Reliability: 0.9 + 0.1*r.Float64(),
			}
		}
		cfg := DefaultConfig()
		cfg.enableSLA = r.Float64() < 0.6
		cfg.enableFault = r.Float64() < 0.3
		cfg.Migration = r.Float64() < 0.8
		cfg.MigrationGainMin = []float64{0, 1, 35}[r.Intn(3)]
		cfg.migrationCooldown = []float64{-1, 0, 300, 600}[r.Intn(4)]
		if r.Float64() < 0.2 {
			cfg.MaxIterations = 1 + r.Intn(4) // rounds left without verdicts
		}
		fed, twin := mustScheduler(cfg), mustScheduler(cfg)

		cs := newChurnSim(int64(5400+seed), cluster.MustNew(classes), 3)
		feed := &policy.Feed{}
		for round := range rounds {
			what := fmt.Sprintf("seed %d round %d", seed, round)
			cs.churn()
			ctx := cs.context()
			fctx := *ctx
			cs.feed(feed)
			switch x := r.Float64(); {
			case x < 0.05:
				feed.Round++ // a round this kernel never saw
				fctx.Feed = feed
			case x < 0.1: // no feed
			default:
				fctx.Feed = feed
			}
			acts := fed.Schedule(&fctx)
			checkKernel(t, fed, &fctx)
			got, want := renderActions(acts), renderActions(twin.Schedule(ctx))
			if !slices.Equal(got, want) {
				t.Fatalf("%s: actions diverged:\nfed:  %v\ntwin: %v", what, got, want)
			}
			if fed.Stats != twin.Stats {
				t.Fatalf("%s: stats diverged:\nfed:  %+v\ntwin: %+v", what, fed.Stats, twin.Stats)
			}
			if len(acts) > 0 && r.Float64() < 0.2 {
				// The harness refuses an action: its VM stays as it was,
				// off the feed, and its row is left moved.
				i := r.Intn(len(acts))
				acts = append(acts[:i:i], acts[i+1:]...)
			}
			cs.apply(acts)
		}
		if fed.Stats.CarryRounds == 0 || fed.Stats.DormantSkips == 0 {
			t.Fatalf("seed %d: no round carried rows or kept one dormant: %+v", seed, fed.Stats)
		}
	}
}
