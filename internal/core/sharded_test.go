package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"energysched/internal/cluster"
	"energysched/internal/policy"
	"energysched/internal/vm"
)

// The slab kernel must be observationally identical to the naive
// oracle at every shard count: same actions in the same order, same
// applied moves and limit hits — the deterministic-arbiter contract.
// These tests drive it over the same randomized scenario generator and
// churn simulation as solver_test.go, across shard counts and cluster
// sizes up to 10× the paper's fleet, with real churn between rounds so
// the cross-round carry between differently partitioned slabs is
// exercised too.

// shardCounts are the K values the differential tests sweep: the
// default path (1), even splits, a count that does not divide typical
// host counts (7), and whatever the machine's GOMAXPROCS is.
func shardCounts() []int {
	return []int{1, 2, 4, 7, runtime.GOMAXPROCS(0)}
}

// TestShardedDifferentialRandomRounds compares the kernel at every
// shard count against the naive oracle over randomized single rounds.
func TestShardedDifferentialRandomRounds(t *testing.T) {
	for seed := 0; seed < 120; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		ctx, cfg := randomScenario(r)
		cfg.NaiveSolver = true
		naive := MustScheduler(cfg)
		want := renderActions(naive.Schedule(ctx))
		cfg.NaiveSolver = false
		for _, k := range shardCounts() {
			cfg.Shards = k
			kern := MustScheduler(cfg)
			got := renderActions(kern.Schedule(ctx))
			checkKernel(t, kern)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d K=%d: actions diverged:\nkernel: %v\nnaive:  %v", seed, k, got, want)
			}
			if kern.Stats.Moves != naive.Stats.Moves {
				t.Fatalf("seed %d K=%d: moves diverged: %d vs %d", seed, k, kern.Stats.Moves, naive.Stats.Moves)
			}
			if kern.Stats.LimitHits != naive.Stats.LimitHits {
				t.Fatalf("seed %d K=%d: limit hits diverged: %d vs %d", seed, k, kern.Stats.LimitHits, naive.Stats.LimitHits)
			}
		}
	}
}

// churnCluster builds a cluster of roughly n nodes across the paper's
// three class shapes.
func churnCluster(n int) *cluster.Cluster {
	classes := cluster.PaperClasses()
	scale := float64(n) / 100.0
	for i := range classes {
		classes[i].Count = int(float64(classes[i].Count)*scale + 0.5)
		if classes[i].Count < 1 {
			classes[i].Count = 1
		}
	}
	return cluster.MustNew(classes)
}

// TestShardedDifferentialChurnSizes is the seeded property-based
// differential test: cluster sizes from 10 to 1000 nodes, random churn
// sequences (arrivals, completions, demand updates, power transitions,
// the On-set shrinking from the low-ID end, applied actions), and one
// carrying kernel per K in shardCounts() beside the naive oracle. Each
// round every kernel must emit exactly the oracle's actions with an
// exact cache, and across the run its carry must actually reuse cells.
func TestShardedDifferentialChurnSizes(t *testing.T) {
	sizes := []int{10, 33, 100}
	if testing.Short() {
		sizes = []int{10, 33}
	} else {
		sizes = append(sizes, 1000)
	}
	for _, size := range sizes {
		t.Run(fmt.Sprintf("nodes=%d", size), func(t *testing.T) {
			rounds := 25
			if size >= 1000 {
				t.Parallel()
				rounds = 6 // a 1000-node round is ~30× a 100-node one
			}
			cfg := DefaultConfig()
			cfg.MigrationCooldown = 600
			cfg.NaiveSolver = true
			naive := MustScheduler(cfg)
			cfg.NaiveSolver = false
			var kerns []*Scheduler
			for _, k := range shardCounts() {
				cfg.Shards = k
				kerns = append(kerns, MustScheduler(cfg))
			}

			cs := newChurnSim(int64(7700+size), churnCluster(size), 1+size/20)
			for round := 0; round < rounds; round++ {
				cs.churn()
				ctx := cs.context()
				acts := naive.Schedule(ctx)
				want := renderActions(acts)
				for _, kern := range kerns {
					got := renderActions(kern.Schedule(ctx))
					checkKernel(t, kern)
					if !slices.Equal(got, want) {
						t.Fatalf("K=%d round %d: actions diverged:\nkernel: %v\nnaive:  %v",
							kern.Config().Shards, round, got, want)
					}
				}
				cs.apply(acts)
			}

			for _, kern := range kerns {
				k := kern.Config().Shards
				if kern.Stats.Moves != naive.Stats.Moves {
					t.Fatalf("K=%d: total moves diverged: kernel %d vs naive %d", k, kern.Stats.Moves, naive.Stats.Moves)
				}
				if kern.Stats.ReusedCells == 0 {
					t.Fatalf("K=%d: cross-round carry never reused a cell", k)
				}
				if want := min(k, cs.c.StateCount(cluster.On)); kern.Stats.LastShards != want {
					t.Fatalf("K=%d: last round ran %d shards, want %d", k, kern.Stats.LastShards, want)
				}
			}
		})
	}
}

// TestShardedShardCount pins the Config.Shards resolution: 0 is one
// shard, -1 resolves to GOMAXPROCS, and a K above the host count
// clamps to the host count.
func TestShardedShardCount(t *testing.T) {
	c := testCluster(t, 3)
	mkCtx := func() *policy.Context {
		return ctxFor(c, []*vm.VM{vm.New(0, vm.Requirements{CPU: 100, Mem: 5}, 0, 3600, 7200)}, nil)
	}

	cfg := SBConfig()
	cfg.Shards = 64 // > 3 hosts
	sch := MustScheduler(cfg)
	sch.Schedule(mkCtx())
	if sch.Stats.LastShards != 3 {
		t.Errorf("K=64 over 3 hosts: LastShards = %d, want 3", sch.Stats.LastShards)
	}

	cfg.Shards = -1
	sch = MustScheduler(cfg)
	sch.Schedule(mkCtx())
	if want := min(runtime.GOMAXPROCS(0), 3); sch.Stats.LastShards != want {
		t.Errorf("K=-1: LastShards = %d, want %d", sch.Stats.LastShards, want)
	}

	cfg.Shards = 0
	sch = MustScheduler(cfg)
	sch.Schedule(mkCtx())
	if sch.Stats.LastShards != 1 {
		t.Errorf("K=0: LastShards = %d, want 1", sch.Stats.LastShards)
	}
}

// TestShardedPartitionBalance: round-robin dealing keeps shard sizes
// within one column of each other, and every host lands in exactly one
// shard.
func TestShardedPartitionBalance(t *testing.T) {
	c := churnCluster(100)
	for _, n := range c.Nodes {
		n.SetState(cluster.On)
	}
	hosts := c.AppendOnline(nil)
	var kern slabKernel
	kern.collectClasses(hosts)
	shards := kern.partitionColumns(7, 1)

	seen := make([]int, len(hosts))
	min, max := len(hosts), 0
	for i, sh := range shards {
		if len(sh.cols) < min {
			min = len(sh.cols)
		}
		if len(sh.cols) > max {
			max = len(sh.cols)
		}
		prev := -1
		for _, ni := range sh.cols {
			if ni <= prev {
				t.Fatalf("shard %d columns not strictly ascending: %v", i, sh.cols)
			}
			prev = ni
			seen[ni]++
		}
	}
	if max-min > 1 {
		t.Errorf("shard sizes unbalanced: min %d max %d", min, max)
	}
	for ni, n := range seen {
		if n != 1 {
			t.Errorf("host column %d owned by %d shards", ni, n)
		}
	}
}

// TestShardedFreshMatrixIdentical: the carry ablation toggle must not
// change sharded actions either.
func TestShardedFreshMatrixIdentical(t *testing.T) {
	for seed := 0; seed < 40; seed++ {
		r := rand.New(rand.NewSource(int64(3300 + seed)))
		ctx, cfg := randomScenario(r)
		cfg.Shards = 4
		carry := MustScheduler(cfg)
		freshCfg := cfg
		freshCfg.FreshMatrix = true
		fresh := MustScheduler(freshCfg)
		diffRound(t, seed, carry, fresh, ctx)
	}
}
