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

// TestShardedDifferentialShardCountChange: K follows the host count
// when it falls below Config.Shards. A round at another K than the last
// deals the column slots afresh — every row and column is new — and
// must still match the oracle with an exact cache, on the way down and
// on the way back up.
func TestShardedDifferentialShardCountChange(t *testing.T) {
	c := testCluster(t, 6)
	cs := newChurnSim(5100, c, 1)
	kern, naive := kernelPair(SBConfig(), 4)
	var ks []int
	round := func() {
		t.Helper()
		for i := 0; i < 2; i++ {
			cs.vms = append(cs.vms, vm.New(len(cs.vms), vm.Requirements{CPU: 100, Mem: 5}, cs.now, 3600, cs.now+7200))
		}
		carried := kern.Stats.CarryRounds
		cs.apply(diffChecked(t, fmt.Sprintf("round %d", len(ks)), kern, naive, cs.context()))
		k := kern.Stats.LastShards
		if want := min(4, c.StateCount(cluster.On)); k != want {
			t.Fatalf("round %d ran %d shards over %d hosts, want %d", len(ks), k, c.StateCount(cluster.On), want)
		}
		if sameK := len(ks) > 0 && ks[len(ks)-1] == k; sameK != (kern.Stats.CarryRounds > carried) {
			t.Fatalf("round %d at K=%d after %v: carried = %v", len(ks), k, ks, !sameK)
		}
		ks = append(ks, k)
	}
	round()
	round()
	for _, n := range c.Nodes { // consolidation left most hosts empty
		if len(n.VMs) == 0 && c.StateCount(cluster.On) > 2 {
			n.SetState(cluster.Off)
		}
	}
	round()
	round()
	for _, n := range c.Nodes {
		n.SetState(cluster.On)
	}
	round()
	round()
	if want := []int{4, 4, 2, 2, 4, 4}; !slices.Equal(ks, want) {
		t.Fatalf("shard counts per round = %v, want %v", ks, want)
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

// TestShardedPartitionBalance: dealing column slots round-robin keeps
// shard sizes within one column of each other, and every host lands in
// exactly one slot.
func TestShardedPartitionBalance(t *testing.T) {
	c := churnCluster(100)
	for _, n := range c.Nodes {
		n.SetState(cluster.On)
	}
	cfg := SBConfig()
	cfg.Shards = 7
	sch := MustScheduler(cfg)
	sch.Schedule(ctxFor(c, []*vm.VM{vm.New(0, vm.Requirements{CPU: 100, Mem: 5}, 0, 3600, 7200)}, nil))

	sizes := make([]int, 7)
	seen := map[int]bool{}
	for ni, r := range sch.kern.colRef {
		slot := r.slot
		if seen[slot] {
			t.Fatalf("host column %d shares slot %d", ni, slot)
		}
		seen[slot] = true
		sizes[slot%7]++
	}
	if len(seen) != len(c.Nodes) {
		t.Fatalf("%d of %d hosts have a slot", len(seen), len(c.Nodes))
	}
	if slices.Max(sizes)-slices.Min(sizes) > 1 {
		t.Errorf("shard sizes unbalanced: %v", sizes)
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
