package core

import (
	"cmp"
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
// structure of Score(h, vm) = scoreBase + scoreTime:
//
//   - scoreBase depends only on (a) the observable state of its node
//     (power state, loads, in-flight operations, reliability, class),
//     (b) the VM's requirements and (c) whether h is the VM's current
//     or round-start host. Applying move(vi, a→b) therefore invalidates
//     exactly the two endpoint columns a and b (their loads changed for
//     every VM) and the moved VM's own row (its assignment changed),
//     and between rounds only the rows and columns whose real state
//     changed (arrivals/exits, migrations, demand updates, power
//     transitions, operation churn). Every other cell is provably
//     unchanged, so the cached value is bit-identical to a fresh one.
//   - scoreTime changes every round but depends on the host only
//     through its class and through whether it is the VM's round-start
//     host: C+1 values per VM for C node classes, never per cell.
//
// The kernel therefore keeps only the base matrix, and keeps it across
// rounds: every candidate VM owns a row slot and every On host a
// column slot for as long as it stays in the matrix, so an unchanged
// cell simply stays where it is. rowKey/colKey record the inputs each
// slot's cells were computed from; the round-start build pairs this
// round's candidates and hosts with last round's by an ascending-ID
// merge scan (handing out and retiring slots as it goes), diffs the
// keys against reality and re-scores the stale rows and columns in
// place. The hill climb writes its hypothetical values into the same
// matrix and its shadow loads into the touched keys (a moved row's key
// is voided), so the next diff re-scores whatever actuation did not
// turn into exactly that reality.
//
// The full score is never materialised. Per ⟨row, class⟩ a classRec
// holds the minimum base over the class's columns, so the best move of
// a row is a C-way combine of min + time(class) — base + time is the
// float grouping score uses, and +Inf absorbs in either operand — and
// each iteration picks the globally best move in O(V·C) instead of
// O(V·H). A carry round thus costs O(V·C + stale rows·H + stale
// columns·V) and a move O(V + H) evaluations.
//
// Column slots are dealt to K shards (Config.Shards; one by default),
// slot c to shard c mod K, each owning its own slab of the matrix and
// the records over its own columns. At K > 1 the re-scoring — at round
// start and after every applied move, the same code — fans out over
// one worker per shard; no shard ever touches another shard's slab or
// records, and the shadow and the slot tables are read-only while
// workers run, so the fan-out is race-free by construction. At K = 1
// it runs on the caller's goroutine without building a closure
// (handing even a single shard's work to the fan-out costs one heap
// object per build and per move). A different K than last round's —
// the host count fell below Config.Shards — drops the state: every
// row and column is new.
//
// Determinism: every cell is a pure function of the shadow state, so
// its value does not depend on which shard computes it. The records
// hold "lowest host index achieving the minimum", and the arbiter
// merges them with a stable ordering (lowest score first, then lowest
// host index, earliest VM on iteration ties) — exactly the naive
// evaluator's full-matrix scan order. The chosen action sequence is
// therefore byte-identical to the naive solver's at any K; the
// differential tests in sharded_test.go and solver_test.go and the
// datacenter full-simulation test enforce this.
//
// Dormant rows: a round that ends with no improving move (not by the
// iteration limit) proves every row non-improving at its Now, and the
// row keeps that verdict — the VM's progress, stored beside its key —
// until one of these wakes it:
//
//  1. the row is stale (new or changed key) or moved;
//  2. a column re-score lowers one of its record minima (offered, or the
//     holder improved; a rescan only ever raises a minimum);
//  3. the cell of its current or round-start host changes;
//  4. the VM's Progress differs from the verdict's;
//  5. its stay term (scoreTimeStay) differs from the one at the
//     verdict's time;
//  6. the kernel resets, FreshMatrix is set (both make every row
//     stale), or Now is earlier than the verdicts' time.
//
// A dormant row skips its C scoreTimeMove evaluations and every arbiter
// visit; a row woken mid-round is timed before its first bestTarget.
// This is exact because the arbiter only picks a row whose diff clears
// its threshold, and a dormant row's diff can only rise: with no record
// minimum lower, the current cell and progress unchanged, the move half
// rises with Now — Pvirt = Cm²/(2·Tr) as Tr falls, with its jump to
// 2·Cm upward; PSLA as sla.Fulfillment falls — while the stay half is
// unchanged, and every IEEE operation involved is monotone, so
// fl(min + t_move) − fl(base_cur + t_stay) never falls.

// rowKey identifies a matrix row (candidate VM) and records every
// VM-side input its cells were computed from. A row is carried over
// only if the same VM matches the whole key — the epoch guards against
// mutations the value fields cannot see, the value fields guard
// against mutations that bypassed Touch.
type rowKey struct {
	vm    *vm.VM
	epoch uint64
	// scoreBase inputs: requirements, fault tolerance, resolved
	// current host (node ID, -1 when queued or unresolvable, moved
	// when the hill climb left the row on another host than reality).
	cpu, mem  float64
	arch, hyp string
	ftol      float64
	initial   int
}

// moved voids a rowKey: no real host resolves to it.
const moved = -2

// rowSlot is a row slot's key plus the row's verdict (see "Dormant
// rows"): the VM's Progress when the latest round that ended without an
// improving move, at slabKernel.verdictNow, found the row non-improving
// — NaN when the row has no verdict or something woke it since. Every
// verdict dates from verdictNow, so its stay term is recomputed there
// rather than stored: one word per row.
type rowSlot struct {
	rowKey
	progress float64
}

// rowFlags are a candidate's per-round marks.
type rowFlags uint8

const (
	rowStale rowFlags = 1 << iota // re-score the row's cells
	rowTimed                      // the row's move terms are this round's
	rowWoke                       // a wake condition voided the verdict
)

// colKey identifies a matrix column (host) and records every node-side
// input its cells were computed from.
type colKey struct {
	node  *cluster.Node
	class *cluster.Class
	epoch uint64
	state cluster.PowerState
	// Reservation sums as seeded into the shadow (bit-stable for an
	// unchanged node because the Node maintains them incrementally),
	// then as the hill climb's moves left them.
	cpu, mem  float64
	count     int
	creating  int
	migrating int
	rel       float64
}

// classRec summarises, for one row, one shard's columns of one node
// class — all of which share the row's time term — leaving out the
// row's current and round-start hosts, which the arbiter scores itself
// (the first is not a target, the second's time term is stay).
type classRec struct {
	// min is the lowest base (+Inf = no feasible column) and slot the
	// column slot of the lowest host index achieving it (-1 = none).
	min  float64
	slot int
	// low is a lower bound on the bases at host indices below slot's.
	// fl(base+time) is monotone in base but not strictly: a lower
	// index whose base is a few ulps above min can tie with it once the
	// time term is added, and the naive scan then keeps that one. The
	// arbiter detects the possibility as fl(low+time) ≤ fl(min+time).
	low float64
}

var noRec = classRec{min: math.Inf(1), slot: -1, low: math.Inf(1)}

// offer folds the base b of column slot c, host index ni, into the
// record. Valid for any order of offers and for re-offering a column
// whose base dropped; a holder whose base rose needs a rescan.
func (r *classRec) offer(b float64, c, ni int, colNi []int) {
	if math.IsInf(b, 1) {
		return
	}
	holder := math.MaxInt
	if r.slot >= 0 {
		holder = colNi[r.slot]
	}
	switch {
	case b < r.min || (b == r.min && ni < holder):
		if ni > holder {
			r.low = r.min // the old minimum bounds everything below ni
		}
		r.min, r.slot = b, c
	case ni < holder && b < r.low:
		r.low = b
	}
}

// solverShard owns the column slots c with c mod K == id: its slab of
// the base matrix and the class records over those columns.
type solverShard struct {
	id int
	// base[row slot × stride + c/K] is scoreBase of the pair; for a
	// live row the cells of column slots not in the matrix are +Inf.
	base []float64
	rec  []classRec // [row slot × nclass + class]
	// byClass lists, per class, the shard's columns in the matrix (as
	// c/K) in ascending node ID: what a record rebuild scans.
	byClass [][]int
	// woke are the shard's wake marks by candidate index at K > 1,
	// folded into the kernel's flags after the fan-out (at K = 1 the
	// shard marks the flags directly).
	woke []bool

	// stats is the shard's private counter set; a worker only ever
	// touches its own, and the round folds them into Scheduler.Stats.
	stats SolverStats
}

// slabKernel is the kernel's state on the Scheduler, persistent across
// rounds but for the per-round tables at the end.
type slabKernel struct {
	shards []*solverShard // the state lives in shards[:k]
	k      int            // shard count the slots are dealt over (0 = no state)
	// Slab geometry: row slots, column slots per shard, records per row.
	rowCap, stride, nclass int

	// Slot tables. Retired slots wait in the free lists; a column
	// slot retires at the end of the build its host left in, after the
	// records that pointed at it are repaired.
	rows             []rowSlot
	cols             []colKey
	colNi            []int // host index this round, -1 = not in the matrix
	colClass         []int // index into classes
	rowFree, colFree []int
	// classes are the node classes met so far, in first-appearance
	// order; a class whose hosts all left keeps its (empty) records.
	classes []*cluster.Class

	// This round's tables: the slot of each candidate and each host
	// (ascending IDs — next round's merge scan input), and per
	// candidate scoreTimeMove for each class (rowTimed rows only), then
	// scoreTimeStay.
	rowOrd, colOrd []int
	time           []float64

	// The re-scoring work list: the marks of each candidate (rowStale
	// rows are re-scored), stale columns by slot (a column that left is
	// re-scored to +Inf).
	flags     []rowFlags
	staleCols []int
	prev      []int // merge-scan scratch: last round's rowOrd or colOrd
	// verdictNow is the Now of the latest round that gave verdicts.
	verdictNow float64
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

// rescoreShards re-scores the kernel's work list, each shard its own
// part, against the (while workers run, read-only) shadow, and folds
// the shards' wake marks into the flags.
func (sch *Scheduler) rescoreShards(s *shadow) {
	st := &sch.kern
	shards := st.shards[:st.k]
	if len(shards) == 1 {
		shards[0].rescore(sch, s)
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(shards))
	for _, sh := range shards {
		go func() {
			defer wg.Done()
			sh.rescore(sch, s)
		}()
	}
	wg.Wait()
	for _, sh := range shards {
		for vi, w := range sh.woke[:len(s.vms)] {
			if w {
				st.flags[vi] |= rowWoke
				sh.woke[vi] = false
			}
		}
	}
}

// wake voids row vi's verdict: a wake condition fired on the shard.
func (sh *solverShard) wake(st *slabKernel, vi int) {
	if st.k == 1 {
		st.flags[vi] |= rowWoke
	} else {
		sh.woke[vi] = true
	}
}

// timeRow evaluates row vi's move terms for the round, one
// scoreTimeMove per class.
func (sch *Scheduler) timeRow(s *shadow, vi int) {
	st := &sch.kern
	time := st.time[vi*(len(st.classes)+1):]
	for g, cl := range st.classes {
		time[g] = sch.scoreTimeMove(s, vi, cl)
	}
	st.flags[vi] |= rowTimed
}

// score is Score(ni, vi) composed from the cached base cell and the
// round's time terms (scoreTime's in-operation pin aside: the arbiter
// skips pinned rows).
func (st *slabKernel) score(s *shadow, vi, ni int) float64 {
	c, C := st.colOrd[ni], len(st.classes)
	g := st.colClass[c]
	if ni == s.initial[vi] {
		g = C
	}
	return st.shards[c%st.k].base[st.rowOrd[vi]*st.stride+c/st.k] + st.time[vi*(C+1)+g]
}

// bestTarget is the arbiter's per-row step: the lowest score in row vi
// off its current host and the lowest host index achieving it (+Inf
// and -1 when no target is feasible), combined from the shards' class
// records plus the round-start host of a VM that has moved.
func (st *slabKernel) bestTarget(s *shadow, vi int) (best float64, bestNi int) {
	best, bestNi = math.Inf(1), -1
	C := len(st.classes)
	time := st.time[vi*(C+1):][:C]
	for _, sh := range st.shards[:st.k] {
		for g, r := range sh.rec[st.rowOrd[vi]*C:][:C] {
			sc := r.min + time[g]
			if math.IsInf(sc, 1) {
				continue
			}
			ni := st.colNi[r.slot]
			if r.low+time[g] <= sc {
				ni = sh.tieHolder(st, s, vi, g, sc)
			}
			if sc < best || (sc == best && ni < bestNi) {
				best, bestNi = sc, ni
			}
		}
	}
	if i0 := s.initial[vi]; i0 >= 0 && i0 != s.assign[vi] {
		if sc := st.score(s, vi, i0); sc < best || (sc == best && i0 < bestNi) {
			best, bestNi = sc, i0
		}
	}
	return best, bestNi
}

// tieHolder settles a possible rounding tie exactly: the lowest host
// index among row vi's targets of class g in the shard whose score is
// sc, the class's minimum.
func (sh *solverShard) tieHolder(st *slabKernel, s *shadow, vi, g int, sc float64) int {
	t := st.time[vi*(len(st.classes)+1)+g]
	row := sh.base[st.rowOrd[vi]*st.stride:]
	for _, p := range sh.byClass[g] {
		if ni := st.colNi[p*st.k+sh.id]; row[p]+t == sc && ni != s.assign[vi] && ni != s.initial[vi] {
			return ni
		}
	}
	panic("core: class record without a holder")
}

// firstTarget is the lowest host index with a finite score in row vi
// off its current host: when that host is infeasible every feasible
// target improves by -Inf and the naive scan keeps the first one it
// meets, not the cheapest. Rare, so scanned on demand.
func (st *slabKernel) firstTarget(s *shadow, vi int) int {
	for ni := range s.nodes {
		if ni != s.assign[vi] && !math.IsInf(st.score(s, vi, ni), 1) {
			return ni
		}
	}
	return -1
}

// solveKernel runs the hill climber against the cached matrix, split
// over k column shards. It applies exactly the same sequence of moves
// as solveNaive.
func (sch *Scheduler) solveKernel(s *shadow, hosts []*cluster.Node, cands []*vm.VM, k int) {
	V := len(cands)
	st := &sch.kern
	sch.buildKernel(s, hosts, cands, k)

	limit := sch.iterationLimit(V)
	moves, skips, converged := 0, 0, false
	for iter := 0; iter < limit; iter++ {
		// The arbiter: pick the globally best move from the per-row
		// bests. Ordering is deterministic — lowest score wins, ties
		// broken by lowest host index within a VM and by earliest VM
		// across VMs (strict < on the scan) — which is exactly the
		// naive evaluator's full-matrix scan order.
		bestVI, bestNI := -1, -1
		bestDiff := -moveEps
		for vi := 0; vi < V; vi++ {
			f := st.flags[vi]
			if f&(rowTimed|rowWoke) == 0 {
				skips++
				continue // dormant: provably above its threshold
			}
			if sch.pinned(s, vi) {
				continue // every cell of the row is +Inf
			}
			if f&rowTimed == 0 {
				sch.timeRow(s, vi)
			}
			sc, ni := st.bestTarget(s, vi)
			if ni < 0 {
				continue
			}
			cur := sch.cfg.QueueScore
			if a := s.assign[vi]; a >= 0 {
				cur = st.score(s, vi, a)
			}
			diff := sc - cur
			if math.IsInf(cur, 1) {
				ni, diff = st.firstTarget(s, vi), math.Inf(-1)
			} else {
				threshold := -moveEps
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
			converged = true
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

		// The move dirtied its endpoint columns (from is -1 when the VM
		// left the queue) and the moved row. Their cells now follow the
		// shadow, so the keys do too: next round's diff compares reality
		// with what the cells hold, not with what they held at round
		// start.
		st.staleCols = st.staleCols[:0]
		for _, ni := range [2]int{from, bestNI} {
			if ni < 0 {
				continue
			}
			c := st.colOrd[ni]
			key := &st.cols[c]
			key.cpu, key.mem, key.count = s.cpu[ni], s.mem[ni], s.count[ni]
			st.staleCols = append(st.staleCols, c)
			sch.Stats.ColRefreshes++
		}
		key := &st.rows[st.rowOrd[bestVI]]
		key.initial = moved
		if bestNI == s.initial[bestVI] {
			key.initial = hosts[bestNI].ID // moved back: as at round start
		}
		st.flags[bestVI] |= rowStale
		sch.rescoreShards(s)
		st.flags[bestVI] &^= rowStale
	}

	// Hand out the verdicts: every row when the climb converged, else
	// keep only those of the rows that stayed dormant throughout (they
	// still date from verdictNow).
	for vi, f := range st.flags[:V] {
		rs := &st.rows[st.rowOrd[vi]]
		switch {
		case converged:
			rs.progress = cands[vi].Progress
		case f&(rowTimed|rowWoke) != 0:
			rs.progress = math.NaN()
		}
	}
	if converged {
		st.verdictNow = s.now
	}
	sch.Stats.DormantSkips += skips
	sch.Stats.Moves += moves
	sch.Stats.LastShards = k
	for _, sh := range st.shards[:k] {
		sch.Stats.ScoreEvals += sh.stats.ScoreEvals
		sch.Stats.RowRescans += sh.stats.RowRescans
		sh.stats = SolverStats{}
	}
}

// reset drops the kernel's state and deals the slots over k shards.
func (st *slabKernel) reset(k int) {
	for len(st.shards) < k {
		st.shards = append(st.shards, &solverShard{id: len(st.shards)})
	}
	st.k, st.rowCap, st.stride = k, 0, 0
	st.rows, st.cols, st.colNi, st.colClass = st.rows[:0], st.cols[:0], st.colNi[:0], st.colClass[:0]
	st.rowFree, st.colFree, st.classes = st.rowFree[:0], st.colFree[:0], st.classes[:0]
	st.rowOrd, st.colOrd = st.rowOrd[:0], st.colOrd[:0]
	for _, sh := range st.shards[:k] {
		sh.byClass = sh.byClass[:0]
	}
}

// fit makes room for the slots and classes handed out so far. A slab
// that grows keeps every cell and record where its slots say it is.
func (st *slabKernel) fit() {
	rows, cols, C := len(st.rows), len(st.cols), len(st.classes)
	if rows <= st.rowCap && cols <= st.stride*st.k && C == st.nclass {
		return
	}
	rowCap, stride := st.rowCap, st.stride
	if rows > rowCap {
		rowCap = rows + rows/2
	}
	if cols > stride*st.k {
		stride = (cols + cols/2 + st.k - 1) / st.k
	}
	for _, sh := range st.shards[:st.k] {
		base := make([]float64, rowCap*stride)
		for i := range base {
			base[i] = math.Inf(1)
		}
		rec := make([]classRec, rowCap*C)
		for i := range rec {
			rec[i] = noRec
		}
		for r := 0; r < st.rowCap; r++ {
			copy(base[r*stride:], sh.base[r*st.stride:][:st.stride])
			copy(rec[r*C:], sh.rec[r*st.nclass:][:st.nclass])
		}
		sh.base, sh.rec = base, rec
	}
	st.rowCap, st.stride, st.nclass = rowCap, stride, C
}

// takeSlot pops a retired slot, or returns next, the first slot never
// handed out.
func takeSlot(free *[]int, next int) int {
	if n := len(*free); n > 0 {
		next, *free = (*free)[n-1], (*free)[:n-1]
	}
	return next
}

// buildKernel brings the persistent matrix up to date with the round's
// hosts and candidates: it pairs both with last round's slots, re-
// scores what changed since and evaluates the round's time terms.
func (sch *Scheduler) buildKernel(s *shadow, hosts []*cluster.Node, cands []*vm.VM, k int) {
	V, H := len(cands), len(hosts)
	st := &sch.kern
	carry := st.k == k && !sch.cfg.FreshMatrix
	if st.k != k {
		st.reset(k)
	}
	shards := st.shards[:k]

	// Hosts arrive in ascending node ID and candidates in ascending VM
	// ID, as last round's did, so one merge scan each pairs them with
	// their slots without a lookup structure. A column that left is
	// re-scored too, to +Inf: that repairs the records pointing at it.
	st.prev = append(st.prev[:0], st.colOrd...)
	st.colOrd = grow(st.colOrd, H)
	st.staleCols = st.staleCols[:0]
	dropColumn := func(c int) {
		list := &shards[c%k].byClass[st.colClass[c]]
		at := slices.Index(*list, c/k)
		*list = slices.Delete(*list, at, at+1)
		st.cols[c], st.colNi[c] = colKey{}, -1
		st.staleCols = append(st.staleCols, c)
	}
	staleCols, pc := 0, 0
	for ni, n := range hosts {
		c := -1
		for ; c < 0 && pc < len(st.prev) && st.cols[st.prev[pc]].node.ID <= n.ID; pc++ {
			if c = st.prev[pc]; st.cols[c].node != n {
				dropColumn(c)
				c = -1
			}
		}
		if c < 0 {
			if c = takeSlot(&st.colFree, len(st.cols)); c == len(st.cols) {
				st.cols, st.colNi, st.colClass = append(st.cols, colKey{}), append(st.colNi, -1), append(st.colClass, 0)
			}
			g := slices.Index(st.classes, n.Class)
			if g < 0 {
				g = len(st.classes)
				st.classes = append(st.classes, n.Class)
				for _, sh := range shards {
					sh.byClass = append(sh.byClass, nil)
				}
			}
			st.colClass[c] = g
			sh := shards[c%k]
			at, _ := slices.BinarySearchFunc(sh.byClass[g], n.ID, func(p, id int) int { return cmp.Compare(st.cols[p*k+sh.id].node.ID, id) })
			sh.byClass[g] = slices.Insert(sh.byClass[g], at, c/k)
		}
		key := colKey{
			node: n, class: n.Class, epoch: n.Epoch, state: n.State,
			cpu: s.cpu[ni], mem: s.mem[ni], count: s.count[ni],
			creating: n.CreatingOps, migrating: n.MigratingOps, rel: n.Reliability,
		}
		if st.cols[c] != key {
			st.cols[c] = key
			st.staleCols = append(st.staleCols, c)
			staleCols++
		}
		st.colOrd[ni], st.colNi[c] = c, ni
	}
	for _, c := range st.prev[pc:] {
		dropColumn(c)
	}

	st.prev = append(st.prev[:0], st.rowOrd...)
	st.rowOrd = grow(st.rowOrd, V)
	st.flags = grow(st.flags, V)
	dropRow := func(r int) {
		st.rows[r] = rowSlot{}
		st.rowFree = append(st.rowFree, r)
	}
	staleRows, pr := 0, 0
	for vi, v := range cands {
		r := -1
		for ; r < 0 && pr < len(st.prev) && st.rows[st.prev[pr]].vm.ID <= v.ID; pr++ {
			if r = st.prev[pr]; st.rows[r].vm.ID != v.ID {
				dropRow(r)
				r = -1
			}
		}
		if r < 0 {
			if r = takeSlot(&st.rowFree, len(st.rows)); r == len(st.rows) {
				st.rows = append(st.rows, rowSlot{})
			}
		}
		initial := -1
		if a := s.assign[vi]; a >= 0 {
			initial = hosts[a].ID
		}
		key := rowKey{
			vm: v, epoch: v.Epoch,
			cpu: v.Req.CPU, mem: v.Req.Mem, arch: v.Req.Arch, hyp: v.Req.Hypervisor,
			ftol: v.FaultTolerance, initial: initial,
		}
		st.rowOrd[vi], st.flags[vi] = r, 0
		if !carry || st.rows[r].rowKey != key {
			st.rows[r] = rowSlot{rowKey: key, progress: math.NaN()}
			st.flags[vi] = rowStale
			staleRows++
		}
	}
	for _, r := range st.prev[pr:] {
		dropRow(r)
	}

	st.fit()
	if k > 1 {
		for _, sh := range shards {
			sh.woke = grow(sh.woke, V)
			clear(sh.woke)
		}
	}
	// Every row gets its stay term; only a row whose verdict does not
	// hold gets its move terms (wake conditions 1 and 4–6; a NaN
	// progress is no verdict).
	C := len(st.classes)
	st.time = grow(st.time, V*(C+1))
	rewound := s.now < st.verdictNow
	for vi, v := range cands {
		stay := 0.0
		if s.assign[vi] >= 0 {
			stay = sch.scoreTimeStay(s, vi)
		}
		st.time[vi*(C+1)+C] = stay
		if rewound || st.rows[st.rowOrd[vi]].progress != v.Progress || s.assign[vi] >= 0 && stay != sch.stayAt(v, st.verdictNow) {
			sch.timeRow(s, vi)
		}
	}

	sch.rescoreShards(s)
	for vi := range st.flags[:V] {
		st.flags[vi] &^= rowStale
	}
	for _, c := range st.staleCols {
		if st.colNi[c] < 0 {
			st.colFree = append(st.colFree, c)
		}
	}

	built := 0
	for _, sh := range shards {
		built += sh.stats.ScoreEvals
	}
	sch.Stats.ReusedCells += V*H - built
	sch.Stats.MaxSlabCells = max(sch.Stats.MaxSlabCells, st.rowCap*st.stride)
	if carry {
		sch.Stats.CarryRounds++
		sch.Stats.StaleRows += staleRows
		sch.Stats.StaleCols += staleCols
	}
}

// rescore re-scores the shard's part of the kernel's work list — the
// stale columns it owns, then its slab of every stale row — and
// repairs the records that invalidates. May run on a worker: touches
// only the shard's own slab, records and wake marks plus read-only
// scheduler, kernel and shadow state.
func (sh *solverShard) rescore(sch *Scheduler, s *shadow) {
	st := &sch.kern
	flags := st.flags[:len(s.vms)]
	for _, c := range st.staleCols {
		if c%st.k == sh.id {
			sh.rescoreColumn(sch, s, c, flags)
		}
	}
	for vi, f := range flags {
		if f&rowStale == 0 {
			continue
		}
		row := sh.base[st.rowOrd[vi]*st.stride:]
		for p, c := 0, sh.id; c < len(st.cols); p, c = p+1, c+st.k {
			row[p] = math.Inf(1)
			if ni := st.colNi[c]; ni >= 0 {
				row[p] = sch.scoreBase(s, ni, vi)
				sh.stats.ScoreEvals++
			}
		}
		sh.rescan(st, s, vi, -1)
	}
}

// rescoreColumn re-scores column slot c in place for every row that is
// not stale itself and repairs the ⟨row, class⟩ records that
// invalidates: a cell that did not change needs nothing, a holder that
// improved stays the holder, a holder that got worse costs a rescan of
// that class of that row, and any other cell is offered. A changed cell
// of the row's own hosts and a lowered record minimum wake the row.
func (sh *solverShard) rescoreColumn(sch *Scheduler, s *shadow, c int, flags []rowFlags) {
	st := &sch.kern
	ni, g, p, C := st.colNi[c], st.colClass[c], c/st.k, len(st.classes)
	for vi, f := range flags {
		if f&rowStale != 0 {
			continue
		}
		rs := st.rowOrd[vi]
		b := math.Inf(1)
		if ni >= 0 {
			b = sch.scoreBase(s, ni, vi)
			sh.stats.ScoreEvals++
		}
		old := sh.base[rs*st.stride+p]
		if b == old {
			continue // unchanged (including +Inf staying +Inf)
		}
		sh.base[rs*st.stride+p] = b
		if ni >= 0 && (ni == s.assign[vi] || ni == s.initial[vi]) {
			sh.wake(st, vi)
			continue // not in the records
		}
		switch r := &sh.rec[rs*C+g]; {
		case r.slot != c:
			if b < r.min {
				sh.wake(st, vi)
			}
			r.offer(b, c, ni, st.colNi)
		case b < old:
			r.min = b
			sh.wake(st, vi)
		default:
			sh.rescan(st, s, vi, g)
		}
	}
}

// rescan rebuilds row vi's record of class g — of every class when g
// is negative — from the shard's cached cells (no score evaluations).
func (sh *solverShard) rescan(st *slabKernel, s *shadow, vi, g int) {
	rs := st.rowOrd[vi]
	row := sh.base[rs*st.stride:]
	for i, list := range sh.byClass {
		if g >= 0 && i != g {
			continue
		}
		sh.stats.RowRescans++
		r := noRec
		for _, p := range list { // ascending host index: the naive scan order
			if b := row[p]; b < r.min {
				if ni := st.colNi[p*st.k+sh.id]; ni != s.assign[vi] && ni != s.initial[vi] {
					r = classRec{min: b, slot: p*st.k + sh.id, low: r.min}
				}
			}
		}
		sh.rec[rs*len(st.classes)+i] = r
	}
}
