package core

import (
	"cmp"
	"math"
	"slices"

	"energysched/internal/cluster"
	"energysched/internal/obs"
	"energysched/internal/policy"
	"energysched/internal/vm"
)

// Scheduler is the score-based scheduling policy. It implements
// policy.Policy so the datacenter harness can drive it exactly like
// the baselines.
//
// The solver keeps its working state (candidate slice, shadow loads,
// the persistent base matrix with its records, the returned action
// slice) as buffers on the Scheduler, so steady-state rounds are
// allocation-free.
type Scheduler struct {
	cfg Config
	// Stats accumulates solver diagnostics across rounds.
	Stats SolverStats

	// Tracer, when non-nil, receives one structured decision trace per
	// round (see internal/obs). It lives on the struct rather than in
	// Config so Config stays a comparable value type, and it is a pure
	// wall-clock side channel: the solver writes traces but never reads
	// one back, so any verbosity leaves the action stream and Stats
	// byte-identical to a run with tracing off.
	Tracer obs.TraceSink

	// traceVerb caches the sink's verbosity for the round in flight;
	// traceActs is the round's action-trace scratch (see trace.go).
	traceVerb obs.Verbosity
	traceActs []obs.ActionTrace

	// --- scratch buffers reused across rounds ---
	hosts []*cluster.Node
	cands []*vm.VM
	sh    shadow
	moved []int // the naive oracle's moved candidates (see Schedule)
	out   []policy.Action
	kern  slabKernel // see kernel.go
}

// SolverStats counts solver work for the complexity ablation.
type SolverStats struct {
	// Rounds is the number of scheduling rounds executed.
	Rounds int
	// Moves is the number of improving moves applied.
	Moves int
	// ScoreEvals is the number of Score(h,vm) evaluations.
	ScoreEvals int
	// LimitHits counts rounds stopped by the iteration limit.
	LimitHits int
	// ColRefreshes counts dirty-column recomputations performed by the
	// incremental solver: two per applied migration, one per queue
	// placement (a queued VM has no source column to invalidate).
	ColRefreshes int
	// RowRescans counts ⟨VM, class⟩ minimum records rebuilt from the
	// cached cells (no score evaluations are spent on a rescan): the
	// records of a re-scored row, and each unsettled record settled
	// when the arbiter reads it (a re-scored column leaves a record
	// unsettled when its holder got worse).
	RowRescans int

	// --- cross-round reuse (see buildKernel) ---

	// CarryRounds counts rounds that started from the previous round's
	// matrix (cross-round reuse active).
	CarryRounds int
	// StaleRows counts candidate rows re-scored at the top of a carry
	// round because the VM was new or its real state changed since its
	// cells were computed (arrival, migration, demand update, requeue).
	StaleRows int
	// StaleCols counts host columns re-scored at the top of a carry
	// round because the node was new or its real state changed
	// (power transition, VM set change, operation begin/end).
	StaleCols int
	// ReusedCells counts base-matrix cells carried across rounds
	// without re-evaluation: V×H minus the round-start evaluations.
	ReusedCells int
	// DormantSkips counts arbiter row visits skipped because the row
	// was dormant: provably non-improving since an earlier round's
	// verdict (see kernel.go).
	DormantSkips int
	// MaxSlabCells is the most cells the persistent matrix has had
	// allocated: bands × 64 row slots × the stride — the kernel's
	// memory bound.
	MaxSlabCells int
}

// NewScheduler builds a score-based scheduler with the given
// configuration.
func NewScheduler(cfg Config) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Scheduler{cfg: cfg}, nil
}

// MustScheduler is NewScheduler that panics on error.
func MustScheduler(cfg Config) *Scheduler {
	s, err := NewScheduler(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Name implements policy.Policy.
func (sch *Scheduler) Name() string { return sch.cfg.variantName() }

// Migratory implements policy.Policy.
func (sch *Scheduler) Migratory() bool { return sch.cfg.Migration }

// Config returns the scheduler's configuration.
func (sch *Scheduler) Config() Config { return sch.cfg }

// candidates collects the VMs the solver considers this round into
// buf, sorted by ID: every queued VM, plus — when migration is enabled
// — every running VM outside its migration cooldown (creating and
// migrating VMs are pinned by the in-operation rule and only add
// noise, so they are left out of the matrix entirely). The naive oracle
// selects candidates through here, and the slab kernel's candidate
// table (editRows) holds the VMs the same filter keeps, in the same
// order, so both solvers consider the same VMs.
//
// ctx.Active is already in ID order and a queue of fresh arrivals
// carries the highest IDs, so active-then-queue is usually sorted as
// built; only a round that finds it out of order (a requeued VM) sorts.
// IDs are unique, so either way it is the same slice.
func (sch *Scheduler) candidates(ctx *policy.Context, buf []*vm.VM) []*vm.VM {
	cands := buf[:0]
	if sch.cfg.Migration {
		cooldown := sch.cooldown()
		for _, v := range ctx.Active {
			if movable(v, ctx.Now, cooldown) {
				cands = append(cands, v)
			}
		}
	}
	cands = append(cands, ctx.Queue...)
	for i := 1; i < len(cands); i++ {
		if cands[i-1].ID > cands[i].ID {
			slices.SortFunc(cands, func(a, b *vm.VM) int { return cmp.Compare(a.ID, b.ID) })
			break
		}
	}
	return cands
}

// anyCandidate reports whether candidates would return any VM.
func (sch *Scheduler) anyCandidate(ctx *policy.Context) bool {
	if len(ctx.Queue) > 0 {
		return true
	}
	if sch.cfg.Migration {
		cooldown := sch.cooldown()
		for _, v := range ctx.Active {
			if movable(v, ctx.Now, cooldown) {
				return true
			}
		}
	}
	return false
}

// cooldown is the configured migration cooldown (0 selects one hour).
func (sch *Scheduler) cooldown() float64 {
	if sch.cfg.MigrationCooldown == 0 {
		return 3600
	}
	return sch.cfg.MigrationCooldown
}

// movable reports whether active VM v is a migration candidate at now:
// running, and outside its cooldown (a negative cooldown is none) —
// anti-thrash: recently migrated VMs stay put.
func movable(v *vm.VM, now, cooldown float64) bool {
	return v.State == vm.Running && !(cooldown > 0 && v.LastMigrate >= 0 && now-v.LastMigrate < cooldown)
}

// moveEps is the least improvement the hill climber applies.
const moveEps = 1e-9

// iterationLimit bounds the hill-climbing loop for a round over n
// candidates.
func (sch *Scheduler) iterationLimit(n int) int {
	limit := sch.cfg.MaxIterations
	if limit <= 0 {
		limit = 4 * n
		if limit < 32 {
			limit = 32
		}
	}
	return limit
}

// Schedule implements policy.Policy: it builds the score matrix over
// operational hosts × candidate VMs and hill-climbs it (Algorithm 1),
// returning the placements and migrations that realize the improved
// assignment.
//
// The slab kernel (kernel.go) keeps the matrix across rounds and
// maintains it incrementally: a move touches only the loads of its two
// endpoint hosts, so after each move only those two columns and the
// moved VM's row are recomputed, and each iteration picks the global
// best move from per-⟨VM, class⟩ minimum records instead of rescoring
// the full V×H matrix. Config.NaiveSolver selects the reference
// evaluator for differential verification; both emit identical actions.
//
// The returned slice is the scheduler's own scratch: it is valid until
// the next Schedule on this scheduler.
func (sch *Scheduler) Schedule(ctx *policy.Context) []policy.Action {
	sch.Stats.Rounds++

	sch.hosts = ctx.Cluster.AppendOnline(sch.hosts[:0])
	hosts := sch.hosts
	if len(hosts) == 0 || !sch.anyCandidate(ctx) {
		return nil
	}

	t0 := sch.beginTrace()
	before := sch.Stats

	s := &sch.sh
	var moved []int // candidate indices, among them every one the climb moved
	if sch.cfg.NaiveSolver {
		sch.cands = sch.candidates(ctx, sch.cands)
		s.reset(ctx.Now, hosts, sch.cands)
		moved = sch.solveNaive(s, hosts, sch.cands)
	} else {
		moved = sch.solveKernel(ctx, s, hosts)
	}
	cands := sch.cands

	// Emit the actions that realize the final assignment, in candidate
	// order: only a VM the climb moved can be off its round-start host.
	slices.Sort(moved)
	out := sch.out[:0]
	if out == nil { // the first round: room for every action up front
		out = make([]policy.Action, 0, len(moved))
	}
	for _, vi := range moved {
		v := cands[vi]
		from, to := s.initial[vi], s.assign[vi]
		if from == to || to < 0 {
			continue
		}
		node := hosts[to].ID
		kind := policy.KindMigrate
		if v.State == vm.Queued {
			kind = policy.KindPlace
		}
		out = append(out, policy.Action{Kind: kind, VM: v, Node: node})
	}
	sch.out = out
	if sch.traceVerb > obs.TraceOff {
		sch.emitRoundTrace(ctx.Now, t0, before, len(hosts), len(cands))
	}
	return out
}

// solveNaive is the reference hill climber: every iteration rescans
// the entire V×H matrix, recomputing each score against the current
// shadow. O(I·V·H) score evaluations; kept as the differential-test
// oracle for the slab kernel. It returns the candidates it moved.
func (sch *Scheduler) solveNaive(s *shadow, hosts []*cluster.Node, cands []*vm.VM) []int {
	// currentScore(vi): the cost of keeping the VM where it is — the
	// virtual-host queue cost for queued VMs, its present host's
	// score for running ones. Recomputed each iteration because moves
	// change host loads and therefore sibling scores.
	currentScore := func(vi int) float64 {
		if s.assign[vi] < 0 {
			return sch.cfg.QueueScore
		}
		sch.Stats.ScoreEvals++
		return sch.score(s, s.assign[vi], vi)
	}

	limit := sch.iterationLimit(len(cands))
	moves := 0
	sch.moved = sch.moved[:0]
	if sch.moved == nil { // the first round: room for every candidate up front
		sch.moved = make([]int, 0, len(cands))
	}
	for iter := 0; iter < limit; iter++ {
		// Find the most negative improvement in the whole matrix.
		bestVI, bestNI := -1, -1
		bestDiff := -moveEps
		for vi := range cands {
			cur := currentScore(vi)
			// Migration hysteresis: moving an already-running VM must
			// beat the configured gain (queued VMs and VMs on
			// infeasible hosts always move).
			threshold := -moveEps
			if cands[vi].State != vm.Queued && !math.IsInf(cur, 1) {
				threshold = -sch.cfg.MigrationGainMin
			}
			for ni := range hosts {
				if ni == s.assign[vi] {
					continue
				}
				sch.Stats.ScoreEvals++
				sc := sch.score(s, ni, vi)
				if math.IsInf(sc, 1) {
					continue
				}
				var diff float64
				if math.IsInf(cur, 1) {
					diff = math.Inf(-1)
				} else {
					diff = sc - cur
				}
				if diff > threshold {
					continue
				}
				if diff < bestDiff {
					bestDiff = diff
					bestVI, bestNI = vi, ni
				}
			}
		}
		if bestVI < 0 {
			break // no negative values left: suboptimal solution found
		}
		if sch.traceVerb >= obs.TraceActions {
			sch.traceMove(s, bestVI, bestNI)
		}
		if !slices.Contains(sch.moved, bestVI) {
			sch.moved = append(sch.moved, bestVI)
		}
		s.move(bestVI, bestNI)
		moves++
		if iter == limit-1 {
			sch.Stats.LimitHits++
		}
	}
	sch.Stats.Moves += moves
	return sch.moved
}

// RankOff sorts idle nodes in place by descending turn-off preference
// and returns them, per §III-C: the scheduler selects the machines
// whose matrix row carries the highest aggregate penalty —
// operationally, the nodes that are least attractive for hosting (slow
// creation/migration, low reliability) go first. (The turn-on
// preference is the order cluster.Cluster keeps its Off nodes in.)
func RankOff(idle []*cluster.Node) []*cluster.Node {
	slices.SortFunc(idle, func(a, b *cluster.Node) int {
		sa := a.Class.CreateCost + a.Class.MigrateCost + 100*(1-a.Reliability)
		sb := b.Class.CreateCost + b.Class.MigrateCost + 100*(1-b.Reliability)
		if c := cmp.Compare(sb, sa); c != 0 {
			return c
		}
		return cmp.Compare(b.ID, a.ID)
	})
	return idle
}
