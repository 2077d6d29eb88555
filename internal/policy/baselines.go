package policy

import (
	"sort"

	"energysched/internal/cluster"
	"energysched/internal/simkit"
	"energysched/internal/vm"
)

// Random assigns each queued VM to a random online node that meets
// its hardware requirements, with no occupation check at all — CPU
// and memory are overcommitted freely, so co-located jobs contend and
// stretch, and hot nodes snowball (stretched VMs linger, attracting
// yet more arrivals). This is the paper's RD baseline, which "assigns
// the tasks randomly" and gives the worst results on both criteria.
type Random struct {
	rng *simkit.Stream
}

// NewRandom builds the RD policy with a deterministic stream.
func NewRandom(seed int64) *Random {
	return &Random{rng: simkit.NewStream(seed, "policy-random")}
}

// Name implements Policy.
func (p *Random) Name() string { return "RD" }

// Migratory implements Policy.
func (p *Random) Migratory() bool { return false }

// Schedule implements Policy.
func (p *Random) Schedule(ctx *Context) []Action {
	var out []Action
	for _, v := range ctx.Queue {
		// Candidates: online and hw/sw-compatible. Occupation is
		// deliberately ignored.
		var candidates []*cluster.Node
		for _, n := range ctx.Cluster.Nodes {
			if satisfiesOnline(n, v) {
				candidates = append(candidates, n)
			}
		}
		if len(candidates) == 0 {
			continue
		}
		n := candidates[p.rng.Intn(len(candidates))]
		out = append(out, Action{Kind: KindPlace, VM: v, Node: n.ID})
		// Note: no occupation bookkeeping — the next queued VM may
		// land on the same node. That is the point of the baseline.
	}
	return out
}

// RoundRobin assigns each task to the next available (empty) node,
// maximizing the resources each task receives at the cost of a sparse
// usage of the datacenter (the paper's RR baseline). VMs wait in the
// queue when no empty node is online.
type RoundRobin struct {
	next int
}

// NewRoundRobin builds the RR policy.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Policy.
func (p *RoundRobin) Name() string { return "RR" }

// Migratory implements Policy.
func (p *RoundRobin) Migratory() bool { return false }

// Schedule implements Policy.
func (p *RoundRobin) Schedule(ctx *Context) []Action {
	var out []Action
	n := ctx.Cluster.Size()
	taken := make(map[int]bool)
	for _, v := range ctx.Queue {
		placed := false
		for i := 0; i < n; i++ {
			idx := (p.next + i) % n
			node := ctx.Cluster.Nodes[idx]
			if taken[idx] || !fitsOnline(node, v) {
				continue
			}
			// "A task to each available node": only empty nodes count
			// as available to RR.
			if len(node.VMs) > 0 || node.CreatingOps > 0 || node.MigratingOps > 0 {
				continue
			}
			out = append(out, Action{Kind: KindPlace, VM: v, Node: idx})
			taken[idx] = true
			p.next = (idx + 1) % n
			placed = true
			break
		}
		if !placed {
			continue
		}
	}
	return out
}

// Backfilling packs each queued VM into the most occupied online node
// that can still hold it within 100 % occupation — a best-fit
// consolidation policy without migration (the paper's BF baseline).
type Backfilling struct{}

// NewBackfilling builds the BF policy.
func NewBackfilling() *Backfilling { return &Backfilling{} }

// Name implements Policy.
func (p *Backfilling) Name() string { return "BF" }

// Migratory implements Policy.
func (p *Backfilling) Migratory() bool { return false }

// Schedule implements Policy.
func (p *Backfilling) Schedule(ctx *Context) []Action {
	var out []Action
	// Track occupation deltas from placements made this round so
	// successive queued VMs see each other.
	extraCPU := make(map[int]float64)
	extraMem := make(map[int]float64)
	for _, v := range ctx.Queue {
		best := -1
		bestOcc := -1.0
		for _, n := range ctx.Cluster.Nodes {
			if !satisfiesOnline(n, v) {
				continue
			}
			occAfter := occupationWith(n, extraCPU[n.ID]+v.Req.CPU, extraMem[n.ID]+v.Req.Mem)
			if occAfter > 1.0+1e-9 {
				continue
			}
			occNow := occupationWith(n, extraCPU[n.ID], extraMem[n.ID])
			if occNow > bestOcc {
				bestOcc = occNow
				best = n.ID
			}
		}
		if best < 0 {
			continue
		}
		out = append(out, Action{Kind: KindPlace, VM: v, Node: best})
		extraCPU[best] += v.Req.CPU
		extraMem[best] += v.Req.Mem
	}
	return out
}

// DynamicBackfilling is Backfilling plus consolidation migrations:
// periodically it sweeps the fleet and empties the least-occupied
// working node by migrating its VMs into more occupied nodes that can
// absorb them, so the power manager can turn the drained node off
// (the paper's DBF baseline). Unlike the score-based policy it does
// not price the migration overhead — it migrates whenever a drain is
// structurally possible, which is why it migrates more and gains less.
type DynamicBackfilling struct {
	bf Backfilling
	// DrainInterval is the consolidation sweep period in seconds
	// (<= 0 selects the default, one hour).
	DrainInterval float64
	lastDrain     float64
	started       bool
}

// NewDynamicBackfilling builds the DBF policy.
func NewDynamicBackfilling() *DynamicBackfilling { return &DynamicBackfilling{} }

// Name implements Policy.
func (p *DynamicBackfilling) Name() string { return "DBF" }

// Migratory implements Policy.
func (p *DynamicBackfilling) Migratory() bool { return true }

// Schedule implements Policy.
func (p *DynamicBackfilling) Schedule(ctx *Context) []Action {
	out := p.bf.Schedule(ctx)
	// Consolidation sweep, rate-limited: drain at most one node per
	// interval. Unthrottled draining would chase every completion
	// (each one leaves some node least-occupied) and churn VMs
	// permanently.
	interval := p.DrainInterval
	if interval <= 0 {
		interval = 3600
	}
	if p.started && ctx.Now-p.lastDrain < interval {
		return out
	}
	// Visit working nodes from least to most occupied; drain the
	// first one whose VMs all fit into fuller nodes.
	var working []nodeOcc
	for _, n := range ctx.Cluster.Nodes {
		if n.State == cluster.On && len(n.VMs) > 0 {
			working = append(working, nodeOcc{n, n.Occupation()})
		}
	}
	sort.Slice(working, func(i, j int) bool { return working[i].occ < working[j].occ })
	extraCPU := make(map[int]float64)
	extraMem := make(map[int]float64)
	for _, a := range out {
		if a.Kind == KindPlace {
			extraCPU[a.Node] += a.VM.Req.CPU
			extraMem[a.Node] += a.VM.Req.Mem
		}
	}
	for _, src := range working {
		// Only drain a node if every VM on it can move elsewhere —
		// otherwise the node stays working and nothing is saved.
		moves := p.drain(ctx, src.n, working, extraCPU, extraMem)
		if moves == nil {
			continue
		}
		out = append(out, moves...)
		p.lastDrain = ctx.Now
		p.started = true
		break
	}
	return out
}

// nodeOcc pairs a node with its occupation snapshot for the
// consolidation pass.
type nodeOcc struct {
	n   *cluster.Node
	occ float64
}

// drain plans migrations emptying src, or nil if src cannot be fully
// drained into strictly more occupied nodes.
func (p *DynamicBackfilling) drain(ctx *Context, src *cluster.Node, working []nodeOcc, extraCPU, extraMem map[int]float64) []Action {
	// Copy the deltas so a failed plan leaves no residue.
	dCPU := make(map[int]float64, len(extraCPU))
	dMem := make(map[int]float64, len(extraMem))
	for k, v := range extraCPU {
		dCPU[k] = v
	}
	for k, v := range extraMem {
		dMem[k] = v
	}
	var moves []Action
	for _, v := range src.VMs { // in ID order
		if v.InOperation() || v.State != vm.Running {
			return nil
		}
		placed := false
		// Prefer the fullest destination (best-fit), consistent with
		// the backfilling spirit.
		for i := len(working) - 1; i >= 0; i-- {
			dst := working[i].n
			if dst.ID == src.ID || !satisfiesOnline(dst, v) {
				continue
			}
			if occupationWith(dst, dCPU[dst.ID]+v.Req.CPU, dMem[dst.ID]+v.Req.Mem) > 1.0+1e-9 {
				continue
			}
			moves = append(moves, Action{Kind: KindMigrate, VM: v, Node: dst.ID})
			dCPU[dst.ID] += v.Req.CPU
			dMem[dst.ID] += v.Req.Mem
			placed = true
			break
		}
		if !placed {
			return nil
		}
	}
	return moves
}

// occupationWith mirrors cluster.Node.OccupationWith but with round-
// local deltas folded in.
func occupationWith(n *cluster.Node, extraCPU, extraMem float64) float64 {
	cpu := (n.CPUReserved() + extraCPU) / n.Class.CPU
	mem := 0.0
	if n.Class.Mem > 0 {
		mem = (n.MemReserved() + extraMem) / n.Class.Mem
	}
	if mem > cpu {
		return mem
	}
	return cpu
}
