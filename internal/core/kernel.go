package core

import (
	"math"
	"runtime"
	"slices"
	"sync"

	"energysched/internal/cluster"
	"energysched/internal/obs"
	"energysched/internal/vm"
)

// The slab kernel is the incremental form of Algorithm 1 and the only
// solver besides the naive oracle (solveNaive). It exploits the
// structure of Score(h, vm): a cell depends only on (a) round-static
// node and VM attributes, (b) the shadow load of host h, and (c)
// whether the VM is currently assigned to h. Applying move(vi, a→b)
// therefore invalidates exactly the two endpoint columns a and b
// (their loads changed for every VM) and the moved VM's own row (its
// assignment changed) — every other cell is provably unchanged, so the
// cached value is bit-identical to a fresh evaluation and the kernel
// replays the naive hill climber's decisions exactly. On top of the
// cached matrix it keeps one best-move record per VM, so each
// iteration picks the globally best move in O(V) instead of O(V·H),
// turning a round from O(I·V·H) into O(V·H + I·(V+H)) evaluations.
//
// Across rounds the kernel carries the time-independent half of the
// matrix (scoreBase). A cell of that half depends only on the
// observable state of its node (power state, loads, in-flight
// operations, reliability, class) and its VM (requirements, fault
// tolerance, current host) — state that a scheduling round leaves
// untouched for most of the datacenter. carryState snapshots those
// inputs per row and per column; at the top of the next round the
// build diffs the snapshot against reality and re-scores only the rows
// and columns whose real state changed (VM arrivals/exits, migrations,
// demand updates, power transitions, operation churn). The
// time-dependent half (scoreTime) is recomputed every round, but costs
// only O(V·C) evaluations for C node classes.
//
// The V×H matrix — the memory and CPU bound of a round — is
// partitioned by host column into K shards (Config.Shards; one by
// default), each owning a contiguous V×⌈H/K⌉ slab of the base and
// full matrices plus the per-VM best-move records over its own
// columns. At K > 1 the expensive phases (the round-start build and
// the dirty-column/row refresh after every applied move) fan out over
// one worker per shard; no shard ever touches another shard's slab or
// records, and the shadow state is read-only while workers run, so the
// fan-out is race-free by construction. At K = 1 the slab is the whole
// matrix and both phases run on the caller's goroutine without
// building a closure: handing even a single shard's work to the
// fan-out costs one heap object per build and per move (+42 % objects
// per job on the paper week), which is why the two dispatch helpers
// special-case it.
//
// Determinism: every cell is a pure function of the shadow state, so
// its value does not depend on which shard computes it. Each shard's
// records hold "lowest global node index achieving the minimum finite
// score over my columns", and the arbiter merges them with a stable
// ordering (lowest score first, then lowest node index, earliest VM on
// iteration ties) — exactly the naive evaluator's full-matrix scan
// order. The chosen action sequence is therefore byte-identical to
// the naive solver's at any K; the differential tests in
// sharded_test.go and solver_test.go and the datacenter
// full-simulation test enforce this.

// rowKey identifies a matrix row (candidate VM) and snapshots every
// VM-side input of scoreBase. A row is carried over only if the same
// VM object matches the whole key — the epoch guards against mutations
// the value fields cannot see, the value fields guard against
// mutations that bypassed Touch.
type rowKey struct {
	vm    *vm.VM
	epoch uint64
	// scoreBase inputs: requirements, fault tolerance, resolved
	// current host (node ID, -1 when queued or unresolvable).
	cpu, mem  float64
	arch, hyp string
	ftol      float64
	initial   int
}

// colKey identifies a matrix column (host) and snapshots every
// node-side input of scoreBase.
type colKey struct {
	node  *cluster.Node
	class *cluster.Class
	epoch uint64
	state cluster.PowerState
	// Reservation sums as seeded into the shadow; bit-stable for an
	// unchanged node because the Node maintains them incrementally.
	cpu, mem  float64
	count     int
	creating  int
	migrating int
	rel       float64
}

// carryState is the cross-round snapshot: the previous round's base
// slabs and the keys they were computed from, in matrix order (rows
// by ascending VM ID, columns by ascending node ID). Row r of the
// column cols[c] is base[r*stride+pos[c]].
type carryState struct {
	valid  bool
	rows   []rowKey
	cols   []colKey
	pos    []int
	stride int
	base   []float64
}

// solverShard owns one column partition of the score matrix: the slab
// that starts at off in the kernel's matrices.
type solverShard struct {
	off  int
	cols []int // global column (host) indices, ascending

	// Per-VM best-move records over this shard's columns only, with
	// global node indices. bestNi[vi] is the lowest column achieving
	// the minimum finite score in row vi excluding the VM's current
	// assignment (-1 = none) and bestSc[vi] that score (+Inf when
	// none). firstNi[vi] is the lowest column with any finite score:
	// it reproduces the naive tie-break when the VM's current host is
	// infeasible — every feasible target then improves by -Inf and the
	// naive scan keeps the first one it meets, not the cheapest.
	bestNi  []int
	bestSc  []float64
	firstNi []int

	// timeMove is build scratch: the row in hand's scoreTimeMove per
	// node class.
	timeMove []float64

	// stats is the shard's private counter set; a worker only ever
	// touches its own, and the round folds them into Scheduler.Stats.
	stats SolverStats
}

// slabKernel is the kernel's working state on the Scheduler. All
// slices are scratch reused across rounds.
type slabKernel struct {
	shards []*solverShard // the round uses shards[:K]

	// m holds the score matrix and base its scoreBase half at round
	// start (the hill climb only mutates m), as one slab per shard,
	// back to back and all stride cells wide — the widest shard's
	// column count, so one row offset serves every slab. The cell of
	// VM vi on host column ni is m[vi*stride+pos[ni]]. The cell at a
	// VM's current assignment holds its current-host cost (the
	// centering value) and is excluded from the shards' records.
	m, base []float64
	pos     []int
	stride  int

	carry carryState
	// This round's keys, swapped into carry when the round publishes,
	// and the carry sources: rowSrc[vi] is the row's previous offset
	// (row × stride) and colSrc[ni] the column's previous pos in
	// carry.base (-1 = stale, re-score).
	nextRows []rowKey
	nextCols []colKey
	rowSrc   []int
	colSrc   []int

	// The round's distinct node classes (first-appearance order), each
	// host's index into them and each class's host count; see
	// collectClasses.
	classes []*cluster.Class
	classOf []int
	classN  []int
}

// shardCount resolves Config.Shards for a round over h hosts.
func (c Config) shardCount(h int) int {
	k := c.Shards
	if k < 0 {
		k = runtime.GOMAXPROCS(0)
	}
	if k > h {
		k = h
	}
	if k < 1 {
		k = 1
	}
	return k
}

// fanOut runs fn once per shard, one worker each, and waits for all.
func fanOut(shards []*solverShard, fn func(sh *solverShard)) {
	var wg sync.WaitGroup
	wg.Add(len(shards))
	for _, sh := range shards {
		go func(sh *solverShard) {
			defer wg.Done()
			fn(sh)
		}(sh)
	}
	wg.Wait()
}

// buildShards fills every shard's slabs and records for the round.
func (sch *Scheduler) buildShards(s *shadow, shards []*solverShard) {
	if len(shards) == 1 {
		shards[0].build(sch, s)
		return
	}
	fanOut(shards, func(sh *solverShard) { sh.build(sch, s) })
}

// refreshShards re-scores the region move(vi, from→to) dirtied, each
// shard its own part, against the already updated (and, while workers
// run, read-only) shadow.
func (sch *Scheduler) refreshShards(s *shadow, shards []*solverShard, vi, from, to int) {
	if len(shards) == 1 {
		shards[0].refreshMove(sch, s, vi, from, to)
		return
	}
	fanOut(shards, func(sh *solverShard) { sh.refreshMove(sch, s, vi, from, to) })
}

// collectClasses gathers the round's distinct node classes
// (first-appearance order) into k.classes, fills k.classOf with each
// host's class index, for the once-per-⟨VM, class⟩ time terms, and
// counts each class's hosts into k.classN.
func (k *slabKernel) collectClasses(hosts []*cluster.Node) {
	k.classes = k.classes[:0]
	k.classN = k.classN[:0]
	k.classOf = grow(k.classOf, len(hosts))
	for ni, n := range hosts {
		idx := slices.Index(k.classes, n.Class)
		if idx < 0 {
			idx = len(k.classes)
			k.classes = append(k.classes, n.Class)
			k.classN = append(k.classN, 0)
		}
		k.classOf[ni] = idx
		k.classN[idx]++
	}
}

// partitionColumns deals the host columns to n shards for a round over
// v candidates and lays the shards' slabs out: hosts are grouped by
// node class and each group is dealt round-robin, with the cursor
// continuing across groups so shard sizes stay within one of each
// other. Grouping by class first keeps every shard's class mix
// representative, so the per-move column refreshes — whose cost
// follows the column's class feasibility profile — stay balanced
// across workers. Consumes k.classN.
func (k *slabKernel) partitionColumns(n, v int) []*solverShard {
	for len(k.shards) < n {
		k.shards = append(k.shards, &solverShard{})
	}
	shards := k.shards[:n]
	H := len(k.classOf)
	// The deal starts at shard 0, which therefore is the widest.
	k.stride = (H + n - 1) / n
	for i, sh := range shards {
		sh.off = i * v * k.stride
		sh.cols = sh.cols[:0]
	}
	// Turn each class's count into the shard its group's deal starts
	// at, then deal in one ascending pass: every shard's columns come
	// out in ascending global order, the naive scan order.
	cursor := 0
	for g, cnt := range k.classN {
		k.classN[g] = cursor % n
		cursor += cnt
	}
	k.pos = grow(k.pos, H)
	for ni, g := range k.classOf {
		sh := shards[k.classN[g]]
		if k.classN[g]++; k.classN[g] == n {
			k.classN[g] = 0
		}
		k.pos[ni] = sh.off + len(sh.cols)
		sh.cols = append(sh.cols, ni)
	}
	return shards
}

// solveKernel runs the hill climber against the cached matrix, split
// over k column shards. It applies exactly the same sequence of moves
// as solveNaive.
func (sch *Scheduler) solveKernel(s *shadow, hosts []*cluster.Node, cands []*vm.VM, k int) {
	V := len(cands)
	st := &sch.kern
	shards := sch.buildKernel(s, hosts, cands, k)

	limit := sch.iterationLimit(V)
	const eps = 1e-9
	moves := 0
	for iter := 0; iter < limit; iter++ {
		// The arbiter: merge the per-shard records into the globally
		// best move. Ordering is deterministic — lowest score wins,
		// ties broken by lowest node index within a VM and by earliest
		// VM across VMs (strict < on the scan) — which is exactly the
		// naive evaluator's full-matrix scan order.
		bestVI, bestNI := -1, -1
		bestDiff := -eps
		for vi := 0; vi < V; vi++ {
			cur := sch.cfg.QueueScore
			if a := s.assign[vi]; a >= 0 {
				cur = st.m[vi*st.stride+st.pos[a]]
			}
			ni := -1
			var diff float64
			if math.IsInf(cur, 1) {
				// Current host infeasible: any feasible target is an
				// infinite improvement; the naive scan keeps the first.
				for _, sh := range shards {
					if f := sh.firstNi[vi]; f >= 0 && (ni < 0 || f < ni) {
						ni = f
					}
				}
				if ni < 0 {
					continue
				}
				diff = math.Inf(-1)
			} else {
				sc := math.Inf(1)
				for _, sh := range shards {
					if b := sh.bestNi[vi]; b >= 0 && (sh.bestSc[vi] < sc || (sh.bestSc[vi] == sc && b < ni)) {
						sc, ni = sh.bestSc[vi], b
					}
				}
				if ni < 0 {
					continue
				}
				diff = sc - cur
				threshold := -eps
				if cands[vi].State != vm.Queued {
					// Migration hysteresis (queued VMs are exempt).
					threshold = -sch.cfg.MigrationGainMin
				}
				if diff > threshold {
					continue
				}
			}
			if diff < bestDiff {
				bestDiff = diff
				bestVI, bestNI = vi, ni
			}
		}
		if bestVI < 0 {
			break // no negative values left: suboptimal solution found
		}
		if sch.traceVerb >= obs.TraceActions {
			sch.traceMove(s, bestVI, bestNI)
		}
		from := s.assign[bestVI]
		s.move(bestVI, bestNI)
		moves++
		if iter == limit-1 {
			sch.Stats.LimitHits++
		}
		sch.refreshShards(s, shards, bestVI, from, bestNI)
	}
	sch.Stats.Moves += moves
	sch.Stats.LastShards = k
	for _, sh := range shards {
		sch.Stats.ScoreEvals += sh.stats.ScoreEvals
		sch.Stats.ReusedCells += sh.stats.ReusedCells
		sch.Stats.ColRefreshes += sh.stats.ColRefreshes
		sch.Stats.RowRescans += sh.stats.RowRescans
		sh.stats = SolverStats{}
	}

	// Publish this round's snapshot by swapping buffers with the
	// previous one (base still holds round-start values). Any
	// real-state change the round's own actuation causes will bump
	// epochs and show up in next round's diff.
	cr := &st.carry
	cr.rows, st.nextRows = st.nextRows, cr.rows
	cr.cols, st.nextCols = st.nextCols, cr.cols
	cr.base, st.base = st.base, cr.base
	cr.pos, st.pos = st.pos, cr.pos
	cr.stride = st.stride
	cr.valid = true
}

// buildKernel partitions the round's columns into k shards and fills
// the matrices and the shards' best-move records, carrying the
// time-independent half of unchanged cells from the previous round's
// snapshot.
func (sch *Scheduler) buildKernel(s *shadow, hosts []*cluster.Node, cands []*vm.VM, k int) []*solverShard {
	V, H := len(cands), len(hosts)
	st := &sch.kern
	cr := &st.carry
	carry := cr.valid && !sch.cfg.FreshMatrix

	st.collectClasses(hosts)
	shards := st.partitionColumns(k, V)
	slab := V * st.stride
	st.m = grow(st.m, k*slab)
	st.base = grow(st.base, k*slab)
	if slab > sch.Stats.MaxSlabCells {
		sch.Stats.MaxSlabCells = slab
	}

	// Column and row keys: snapshot each host's and each candidate's
	// scoreBase inputs and pair it with the previous snapshot's entry
	// for the same object. Hosts arrive in ascending node ID and
	// candidates in ascending VM ID, as the previous round's did, so
	// one merge scan each pairs them without a lookup structure.
	st.nextCols = grow(st.nextCols, H)
	st.colSrc = grow(st.colSrc, H)
	staleCols, pc := 0, 0
	for ni, n := range hosts {
		key := colKey{
			node: n, class: n.Class, epoch: n.Epoch, state: n.State,
			cpu: s.cpu[ni], mem: s.mem[ni], count: s.count[ni],
			creating: n.CreatingOps, migrating: n.MigratingOps, rel: n.Reliability,
		}
		st.nextCols[ni] = key
		src := -1
		if carry {
			for pc < len(cr.cols) && cr.cols[pc].node.ID < n.ID {
				pc++
			}
			if pc < len(cr.cols) && cr.cols[pc] == key {
				src = cr.pos[pc]
			}
		}
		st.colSrc[ni] = src
		if src < 0 {
			staleCols++
		}
	}
	st.nextRows = grow(st.nextRows, V)
	st.rowSrc = grow(st.rowSrc, V)
	staleRows, pr := 0, 0
	for vi, v := range cands {
		initial := -1
		if a := s.assign[vi]; a >= 0 {
			initial = hosts[a].ID
		}
		key := rowKey{
			vm: v, epoch: v.Epoch,
			cpu: v.Req.CPU, mem: v.Req.Mem, arch: v.Req.Arch, hyp: v.Req.Hypervisor,
			ftol: v.FaultTolerance, initial: initial,
		}
		st.nextRows[vi] = key
		src := -1
		if carry {
			for pr < len(cr.rows) && cr.rows[pr].vm.ID < v.ID {
				pr++
			}
			if pr < len(cr.rows) && cr.rows[pr] == key {
				src = pr * cr.stride
			}
		}
		st.rowSrc[vi] = src
		if src < 0 {
			staleRows++
		}
	}

	sch.buildShards(s, shards)

	if carry {
		sch.Stats.CarryRounds++
		sch.Stats.StaleRows += staleRows
		sch.Stats.StaleCols += staleCols
	}

	return shards
}

// build fills one shard's slab of both matrices and its records. Each
// cell is composed as scoreBase + scoreTime, the time half evaluated
// once per ⟨VM, class⟩, in exactly the float grouping score uses, so
// carried and fresh cells are bit-identical. May run on a worker:
// touches only the shard's own slab and records plus read-only
// scheduler and shadow state.
func (sh *solverShard) build(sch *Scheduler, s *shadow) {
	st := &sch.kern
	V := len(s.vms)
	sh.bestNi = grow(sh.bestNi, V)
	sh.bestSc = grow(sh.bestSc, V)
	sh.firstNi = grow(sh.firstNi, V)
	sh.timeMove = grow(sh.timeMove, len(st.classes))

	prev, colSrc, classOf, timeMove := st.carry.base, st.colSrc, st.classOf, sh.timeMove
	evals, reused := 0, 0
	for vi := 0; vi < V; vi++ {
		assign, prow := s.assign[vi], st.rowSrc[vi]
		for g, cl := range st.classes {
			timeMove[g] = sch.scoreTimeMove(s, vi, cl)
		}
		stay := 0.0
		if assign >= 0 {
			stay = sch.scoreTimeStay(s, vi)
		}
		m := sh.row(st.m, vi*st.stride)
		base := sh.row(st.base, vi*st.stride)
		best, bestn, first := math.Inf(1), -1, -1
		for li, ni := range sh.cols {
			var b float64
			if pc := colSrc[ni]; prow >= 0 && pc >= 0 {
				b = prev[prow+pc]
				reused++
			} else {
				b = sch.scoreBase(s, ni, vi)
				evals++
			}
			base[li] = b
			sc := b
			if !math.IsInf(b, 1) {
				t := stay
				if ni != assign {
					t = timeMove[classOf[ni]]
				}
				if math.IsInf(t, 1) {
					sc = t
				} else {
					sc = b + t
				}
			}
			m[li] = sc
			if ni == assign || math.IsInf(sc, 1) {
				continue
			}
			if first < 0 {
				first = ni
			}
			if sc < best {
				best, bestn = sc, ni
			}
		}
		sh.bestSc[vi], sh.bestNi[vi], sh.firstNi[vi] = best, bestn, first
	}
	sh.stats.ScoreEvals += evals
	sh.stats.ReusedCells += reused
}

// refreshMove repairs the shard's part of the region move(vi, from→to)
// dirtied: the endpoint columns if it owns them (from is -1 when the
// VM left the queue) for every VM, then its slice of the moved VM's
// row, whose assignment changed, then its record for that VM.
func (sh *solverShard) refreshMove(sch *Scheduler, s *shadow, vi, from, to int) {
	if from >= 0 {
		sh.refreshColumn(sch, s, vi, from)
	}
	sh.refreshColumn(sch, s, vi, to)
	m := sh.row(sch.kern.m, vi*sch.kern.stride)
	for li, ni := range sh.cols {
		if ni == from || ni == to {
			continue // the column refresh already re-scored these
		}
		sh.stats.ScoreEvals++
		m[li] = sch.score(s, ni, vi)
	}
	sh.rescanRow(m, s.assign[vi], vi)
}

// row returns the shard's slab of the row at offset at (row × stride)
// of matrix mat.
func (sh *solverShard) row(mat []float64, at int) []float64 {
	return mat[sh.off+at : sh.off+at+len(sh.cols)]
}

// refreshColumn re-scores host column c for every VM, if the shard
// owns it, and repairs the per-VM records that invalidates.
func (sh *solverShard) refreshColumn(sch *Scheduler, s *shadow, movedVI, c int) {
	st := &sch.kern
	V, p := len(s.vms), st.pos[c]
	if p < sh.off || p >= sh.off+len(sh.cols) {
		return // another shard's column
	}
	sh.stats.ColRefreshes++
	sh.stats.ScoreEvals += V
	for vj := 0; vj < V; vj++ {
		old := st.m[vj*st.stride+p]
		sc := sch.score(s, c, vj)
		st.m[vj*st.stride+p] = sc
		if sc == old {
			continue // unchanged (including +Inf staying +Inf)
		}
		if vj == movedVI {
			continue // full row refresh + rescan follows in refreshMove
		}
		if c == s.assign[vj] {
			continue // the cell is vj's current-host cost, not a target
		}
		if c == sh.bestNi[vj] {
			if sc <= sh.bestSc[vj] {
				// The cached best improved in place: still the lowest
				// index achieving the (now smaller) minimum.
				sh.bestSc[vj] = sc
				continue
			}
			sh.rescanRow(sh.row(st.m, vj*st.stride), s.assign[vj], vj)
			continue
		}
		if math.IsInf(sc, 1) {
			if c == sh.firstNi[vj] {
				sh.rescanRow(sh.row(st.m, vj*st.stride), s.assign[vj], vj)
			}
			continue
		}
		if sh.firstNi[vj] < 0 || c < sh.firstNi[vj] {
			sh.firstNi[vj] = c
		}
		if sh.bestNi[vj] < 0 || sc < sh.bestSc[vj] || (sc == sh.bestSc[vj] && c < sh.bestNi[vj]) {
			sh.bestNi[vj], sh.bestSc[vj] = c, sc
		}
	}
}

// rescanRow rebuilds VM vi's record from m, the shard's slab of its
// cached row (no score evaluations), excluding the current assignment.
func (sh *solverShard) rescanRow(m []float64, assign, vi int) {
	sh.stats.RowRescans++
	best, bestn, first := math.Inf(1), -1, -1
	for li, ni := range sh.cols {
		if ni == assign {
			continue
		}
		sc := m[li]
		if math.IsInf(sc, 1) {
			continue
		}
		if first < 0 {
			first = ni
		}
		if sc < best {
			best, bestn = sc, ni
		}
	}
	sh.bestSc[vi], sh.bestNi[vi], sh.firstNi[vi] = best, bestn, first
}
