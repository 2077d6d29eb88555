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
// cell simply stays where it is. Each slot carries a stamp — the
// entity, its change Epoch and, for a row, its resolved round-start
// host — taken when its cells were computed. The setters that change a
// scored field advance the Epoch (cluster.Node's mutators, vm.VM.Touch):
// that is the contract, and checkKernel, which holds every carried cell
// to a fresh evaluation, is its oracle, as cluster.CheckIndex is for
// the state index.
//
// A round starts with one pass over its hosts (pairColumns) and one
// over its candidates (pairRows). Each pairs the round's entities with
// last round's slots by an ascending-ID merge over last round's ID
// table, and checks each stamp; the host pass also seeds the shadow
// loads, and the candidate pass applies the cooldown filter, resolves
// the round-start hosts and checks each carried row's verdict (see
// "Dormant rows"). Only what fails a check — stale rows and columns,
// rows whose verdict no longer holds — goes on the round's work lists:
// the stale rows and columns are re-scored in place, and the awake
// rows are the only ones the arbiter, the verdict hand-out and the
// action emission visit. A quiet round, where nothing changed, thus
// reads one stamp per host and one stamp, progress and stay term per
// candidate, and evaluates nothing. The hill climb writes its
// hypothetical values into the same matrix and voids the stamps of
// what it moved (a column whose loads come back to the real ones
// bit-exactly keeps its stamp), so the next round re-scores whatever
// actuation did not turn into exactly that reality.
//
// The full score is never materialised. Per ⟨row, class⟩ a classRec
// holds the minimum base over the class's columns, so the best move of
// a row is a C-way combine of min + time(class) — base + time is the
// float grouping score uses, and +Inf absorbs in either operand — and
// each iteration picks the globally best move in O(awake·C) instead of
// O(V·H). A round thus costs O(V + H) stamp checks, plus stale rows·H
// and stale columns·V evaluations, plus O(awake·C) per iteration; a
// move costs O(V + H) evaluations.
//
// Determinism: every cell is a pure function of the shadow state. The
// records hold "lowest host index achieving the minimum", and the
// arbiter merges them with a stable ordering (lowest score first, then
// lowest host index, earliest VM on iteration ties) — exactly the naive
// evaluator's full-matrix scan order. The chosen action sequence is
// therefore byte-identical to the naive solver's; the differential
// tests in solver_test.go and dormant_test.go and the datacenter
// full-simulation test enforce this.
//
// Dormant rows: a round that ends with no improving move (not by the
// iteration limit) proves every row non-improving at its Now, and the
// row keeps that verdict — the VM's progress and stay term, stored in
// its slot — until one of these wakes it:
//
//  1. the row is stale (new or changed stamp) or moved;
//  2. a column re-score lowers one of its record minima (offered, or the
//     holder improved; a rescan only ever raises a minimum);
//  3. the cell of its current or round-start host changes;
//  4. the VM's Progress differs from the verdict's;
//  5. its stay term (scoreTimeStay) differs from the verdict's;
//  6. Now is earlier than the verdicts' time.
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

// rowKey stamps a matrix row (candidate VM): the VM, its Epoch and its
// resolved round-start host (node ID, -1 when queued or unresolvable,
// moved when the hill climb left the row on another host than reality)
// when the row's cells were computed. The VM's requirements and fault
// tolerance change only together with its Epoch.
type rowKey struct {
	vm      *vm.VM
	epoch   uint64
	initial int
}

// moved voids a rowKey: no real host resolves to it.
const moved = -2

// rowSlot is a row slot's stamp plus the row's verdict (see "Dormant
// rows"): the VM's Progress and stay term when the latest round that
// ended without an improving move found the row non-improving —
// progress NaN when the row has no verdict or something woke it since.
type rowSlot struct {
	rowKey
	progress, stay float64
}

// colKey stamps a matrix column (host): the node and its Epoch when the
// column's cells were computed. The node's power state, operation
// counts, reliability and reservation sums change only together with
// its Epoch.
type colKey struct {
	node  *cluster.Node
	epoch uint64
}

// voided is the epoch of a column stamp the hill climb left on loads
// other than the node's real ones: no node reaches it.
const voided = math.MaxUint64

// rowFlags are a candidate's per-round marks.
type rowFlags uint8

const (
	rowStale rowFlags = 1 << iota // re-score the row's cells
	rowTimed                      // the row's move terms are this round's
	rowWoke                       // a wake condition voided the verdict
)

// awake reports whether the marks put a row on the awake list.
func (f rowFlags) awake() bool { return f&(rowTimed|rowWoke) != 0 }

// ref is one entry of a round's slot tables, by host or candidate
// index: the entity's ID — the next round's merge reads it here, not
// through the entity — and its slot; for a candidate also its marks and
// its stay term this round (NaN until evaluated).
type ref struct {
	id, slot int
	stay     float64
	flags    rowFlags
}

// classRec summarises, for one row, the columns of one node class — all
// of which share the row's time term — leaving out the row's current
// and round-start hosts, which the arbiter scores itself (the first is
// not a target, the second's time term is stay).
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

// slabKernel is the kernel's state on the Scheduler, persistent across
// rounds but for the per-round tables at the end.
type slabKernel struct {
	// base[row slot × stride + column slot] is scoreBase of the pair;
	// for a live row the cells of column slots not in the matrix are
	// +Inf.
	base []float64
	rec  []classRec // [row slot × nclass + class]
	// byClass lists, per class, the column slots in the matrix in
	// ascending node ID: what a record rebuild scans.
	byClass [][]int
	// Slab geometry: row slots, column slots, records per row.
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

	// This round's tables: an entry per host and per candidate
	// (ascending IDs — next round's merge scan input), and per
	// candidate scoreTimeMove for each class (rowTimed rows only).
	colRef, rowRef []ref
	time           []float64

	// The round's work lists: the stale columns by slot (a column that
	// left is re-scored to +Inf) and the awake candidates (timed or
	// woken), in marking order — the candidate pass marks in candidate
	// order, and the stale rows, whose cells are re-scored, are among
	// the rows it marks.
	staleCols, awake []int
	staleRows        int // marked by this round's candidate pass

	// Merge-scan scratch: last round's colRef or rowRef, and the
	// candidate pass's position in it and last ID.
	prev   []ref
	pr     int
	lastID int
	// carry and rewound are the round's: the state carries over, and
	// Now is earlier than verdictNow, the Now of the latest round that
	// gave verdicts.
	carry, rewound bool
	verdictNow     float64
}

// wake marks row vi woken, putting it on the awake list once.
func (st *slabKernel) wake(vi int) {
	r := &st.rowRef[vi]
	if !r.flags.awake() {
		st.awake = append(st.awake, vi)
	}
	r.flags |= rowWoke
}

// timeRow evaluates row vi's time terms for the round: one
// scoreTimeMove per class, and the stay term unless the candidate pass
// already has it.
func (sch *Scheduler) timeRow(s *shadow, vi int) {
	st := &sch.kern
	r := &st.rowRef[vi]
	if math.IsNaN(r.stay) {
		r.stay = sch.scoreTimeStay(s, vi)
	}
	time := st.time[vi*len(st.classes):][:len(st.classes)]
	for g, cl := range st.classes {
		time[g] = sch.scoreTimeMove(s, vi, cl)
	}
	r.flags |= rowTimed
}

// score is Score(ni, vi) composed from the cached base cell and the
// round's time terms (scoreTime's in-operation pin aside: the arbiter
// skips pinned rows).
func (st *slabKernel) score(s *shadow, vi, ni int) float64 {
	c, r := st.colRef[ni].slot, &st.rowRef[vi]
	b := st.base[r.slot*st.stride+c]
	if ni == s.initial[vi] {
		return b + r.stay
	}
	return b + st.time[vi*len(st.classes)+st.colClass[c]]
}

// bestTarget is the arbiter's per-row step: the lowest score in row vi
// off its current host and the lowest host index achieving it (+Inf
// and -1 when no target is feasible), combined from the row's class
// records plus the round-start host of a VM that has moved.
func (st *slabKernel) bestTarget(s *shadow, vi int) (best float64, bestNi int) {
	best, bestNi = math.Inf(1), -1
	C := len(st.classes)
	time := st.time[vi*C:][:C]
	for g, r := range st.rec[st.rowRef[vi].slot*C:][:C] {
		sc := r.min + time[g]
		if math.IsInf(sc, 1) {
			continue
		}
		ni := st.colNi[r.slot]
		if r.low+time[g] <= sc {
			ni = st.tieHolder(s, vi, g, sc)
		}
		if sc < best || (sc == best && ni < bestNi) {
			best, bestNi = sc, ni
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
// index among row vi's targets of class g whose score is sc, the
// class's minimum.
func (st *slabKernel) tieHolder(s *shadow, vi, g int, sc float64) int {
	t := st.time[vi*len(st.classes)+g]
	row := st.base[st.rowRef[vi].slot*st.stride:]
	for _, c := range st.byClass[g] {
		if ni := st.colNi[c]; row[c]+t == sc && ni != s.assign[vi] && ni != s.initial[vi] {
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

// solveKernel runs the hill climber against the cached matrix on the
// round's hosts and the candidates it collects into sch.cands. It
// applies exactly the same sequence of moves as solveNaive, and returns
// the candidates it may have moved: the awake list when it moved any (a
// row the arbiter moved is awake).
func (sch *Scheduler) solveKernel(ctx *policy.Context, s *shadow, hosts []*cluster.Node) []int {
	st := &sch.kern
	sch.buildKernel(ctx, s, hosts)
	cands := sch.cands
	V := len(cands)

	limit := sch.iterationLimit(V)
	moves, skips, converged := 0, 0, false
	for iter := 0; iter < limit; iter++ {
		// The arbiter: pick the globally best move from the per-row
		// bests of the awake rows (a dormant row is provably above its
		// threshold). Ordering is deterministic — lowest score wins, ties
		// broken by lowest host index within a VM and by earliest VM
		// across VMs — which is exactly the naive evaluator's
		// full-matrix scan order.
		bestVI, bestNI := -1, -1
		bestDiff := -moveEps
		skips += V - len(st.awake)
		for _, vi := range st.awake {
			if sch.pinned(s, vi) {
				continue // every cell of the row is +Inf
			}
			if st.rowRef[vi].flags&rowTimed == 0 {
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
			if diff < bestDiff || diff == bestDiff && vi < bestVI {
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
		// shadow, so their stamps hold only where the shadow is reality:
		// a column whose loads are the node's real ones again keeps its
		// stamp, any other is voided, and so is the moved row's unless
		// the VM is back on its round-start host.
		st.staleCols = st.staleCols[:0]
		for _, ni := range [2]int{from, bestNI} {
			if ni < 0 {
				continue
			}
			c := st.colRef[ni].slot
			st.cols[c].epoch = voided
			if s.atRest(ni) {
				st.cols[c].epoch = hosts[ni].Epoch
			}
			st.staleCols = append(st.staleCols, c)
			sch.Stats.ColRefreshes++
		}
		r := &st.rowRef[bestVI]
		key := &st.rows[r.slot]
		key.initial = moved
		if bestNI == s.initial[bestVI] {
			key.initial = hosts[bestNI].ID // moved back: as at round start
		}
		r.flags |= rowStale
		sch.rescore(s)
		st.rowRef[bestVI].flags &^= rowStale
	}

	// Hand out the verdicts: every awake row gets one when the climb
	// converged — a dormant row's still holds, at the new Now too —
	// and else loses its own.
	for _, vi := range st.awake {
		r := &st.rowRef[vi]
		rs := &st.rows[r.slot]
		rs.progress = math.NaN()
		if converged {
			rs.progress, rs.stay = cands[vi].Progress, r.stay
		}
	}
	if converged {
		st.verdictNow = s.now
	}
	sch.Stats.DormantSkips += skips
	sch.Stats.Moves += moves
	if moves == 0 {
		return nil
	}
	return st.awake
}

// fit makes room for the slots and classes handed out so far. A slab
// that grows keeps every cell and record where its slots say it is.
func (st *slabKernel) fit() {
	rows, cols, C := len(st.rows), len(st.cols), len(st.classes)
	if rows <= st.rowCap && cols <= st.stride && C == st.nclass {
		return
	}
	rowCap, stride := st.rowCap, st.stride
	if rows > rowCap {
		rowCap = rows + rows/2
	}
	if cols > stride {
		stride = cols + cols/2
	}
	base := make([]float64, rowCap*stride)
	for i := range base {
		base[i] = math.Inf(1)
	}
	rec := make([]classRec, rowCap*C)
	for i := range rec {
		rec[i] = noRec
	}
	for r := 0; r < st.rowCap; r++ {
		copy(base[r*stride:], st.base[r*st.stride:][:st.stride])
		copy(rec[r*C:], st.rec[r*st.nclass:][:st.nclass])
	}
	st.base, st.rec = base, rec
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

// buildKernel brings the persistent matrix up to date with the round:
// one pass pairs the hosts with last round's column slots, one pass
// collects the candidates and pairs them with last round's row slots,
// and then only the stale rows and columns are re-scored and only the
// awake rows timed.
func (sch *Scheduler) buildKernel(ctx *policy.Context, s *shadow, hosts []*cluster.Node) {
	st := &sch.kern
	st.carry = len(st.cols) > 0 // an earlier round built the matrix

	s.begin(ctx.Now, hosts, hosts[len(hosts)-1].ID)
	st.rewound = s.now < st.verdictNow
	staleCols := st.pairColumns(s, hosts)
	sch.pairRows(ctx, s)
	V, H := len(sch.cands), len(hosts)

	st.fit()
	st.time = grow(st.time, V*len(st.classes))
	for _, vi := range st.awake {
		sch.timeRow(s, vi)
	}
	evals := sch.Stats.ScoreEvals
	sch.rescore(s)
	for _, vi := range st.awake {
		st.rowRef[vi].flags &^= rowStale
	}
	for _, c := range st.staleCols {
		if st.colNi[c] < 0 {
			st.colFree = append(st.colFree, c)
		}
	}

	sch.Stats.ReusedCells += V*H - (sch.Stats.ScoreEvals - evals)
	sch.Stats.MaxSlabCells = max(sch.Stats.MaxSlabCells, st.rowCap*st.stride)
	if st.carry {
		sch.Stats.CarryRounds++
		sch.Stats.StaleRows += st.staleRows
		sch.Stats.StaleCols += staleCols
	}
}

// pairColumns is the round's one pass over its hosts, which arrive in
// ascending node ID as last round's did. Per host it seeds the shadow
// loads and files the host's index (seed), pairs the host with its
// column slot by a merge scan over last round's IDs — handing out a
// slot to a new host, retiring those of hosts that left — and checks
// the slot's stamp; a new or changed column goes on the stale list,
// and so does a column that left, to be re-scored to +Inf: that repairs
// the records pointing at it. It returns the number of stale columns
// still in the matrix.
func (st *slabKernel) pairColumns(s *shadow, hosts []*cluster.Node) (stale int) {
	// Room for this round's hosts, which next round's copy of colRef
	// needs: the first round sizes it.
	st.prev = append(slices.Grow(st.prev[:0], len(hosts)), st.colRef...)
	st.colRef = slices.Grow(st.colRef[:0], len(hosts))
	st.staleCols = st.staleCols[:0]
	pc := 0
	for ni, n := range hosts {
		s.seed(ni, n)
		for ; pc < len(st.prev) && st.prev[pc].id < n.ID; pc++ {
			st.dropColumn(st.prev[pc].slot)
		}
		c := -1
		if pc < len(st.prev) && st.prev[pc].id == n.ID {
			if c = st.prev[pc].slot; st.cols[c].node != n {
				st.dropColumn(c)
				c = -1
			}
			pc++
		}
		if c < 0 {
			c = st.newColumn(n)
		}
		if key := (colKey{node: n, epoch: n.Epoch}); st.cols[c] != key {
			st.cols[c] = key
			st.staleCols = append(st.staleCols, c)
			stale++
		}
		st.colRef = append(st.colRef, ref{id: n.ID, slot: c})
		st.colNi[c] = ni
	}
	for _, p := range st.prev[pc:] {
		st.dropColumn(p.slot)
	}
	return stale
}

// newColumn hands node n a column slot and files it in its class list.
func (st *slabKernel) newColumn(n *cluster.Node) int {
	c := takeSlot(&st.colFree, len(st.cols))
	if c == len(st.cols) {
		st.cols, st.colNi, st.colClass = append(st.cols, colKey{}), append(st.colNi, -1), append(st.colClass, 0)
	}
	g := slices.Index(st.classes, n.Class)
	if g < 0 {
		g = len(st.classes)
		st.classes = append(st.classes, n.Class)
		st.byClass = append(st.byClass, nil)
	}
	st.colClass[c] = g
	at, _ := slices.BinarySearchFunc(st.byClass[g], n.ID, func(p, id int) int { return cmp.Compare(st.cols[p].node.ID, id) })
	st.byClass[g] = slices.Insert(st.byClass[g], at, c)
	return c
}

// dropColumn takes column slot c out of the matrix; it retires at the
// end of the build, after the re-score to +Inf.
func (st *slabKernel) dropColumn(c int) {
	list := &st.byClass[st.colClass[c]]
	at := slices.Index(*list, c)
	*list = slices.Delete(*list, at, at+1)
	st.cols[c], st.colNi[c] = colKey{}, -1
	st.staleCols = append(st.staleCols, c)
}

// pairRows is the round's one pass over its candidates: the movable
// active VMs, then the queue. It collects them into sch.cands and, per
// candidate, pairs it with its row slot, resolves its round-start host
// into the shadow and checks its stamp, then its verdict (pairRow). The
// pass retires the slots of the rows it passes over; one that meets the
// candidates out of ID order (a requeued VM) takes those slots back,
// sorts the candidates and runs again. The new rows get their slots
// after the pass.
func (sch *Scheduler) pairRows(ctx *policy.Context, s *shadow) {
	st := &sch.kern
	n := len(ctx.Queue) // at most the queue and the active VMs
	if sch.cfg.Migration {
		n += len(ctx.Active)
	}
	st.prev = append(st.prev[:0], st.rowRef...)
	free := len(st.rowFree)
	st.beginRows(s, n)
	cands, ordered := sch.cands[:0], true
	if sch.cfg.Migration {
		cooldown := sch.cooldown()
		for _, v := range ctx.Active {
			if movable(v, ctx.Now, cooldown) {
				cands = append(cands, v)
				ordered = ordered && sch.pairRow(s, v)
			}
		}
	}
	for _, v := range ctx.Queue {
		cands = append(cands, v)
		ordered = ordered && sch.pairRow(s, v)
	}
	if !ordered {
		st.rowFree = st.rowFree[:free]
		slices.SortFunc(cands, func(a, b *vm.VM) int { return cmp.Compare(a.ID, b.ID) })
		st.beginRows(s, n)
		for _, v := range cands {
			sch.pairRow(s, v)
		}
	}
	sch.cands, s.vms = cands, cands

	// Retire the slots of the rows past the last candidate, then hand
	// slots to the new rows and stamp every stale one.
	for _, p := range st.prev[st.pr:] {
		st.dropRow(p.slot)
	}
	for _, vi := range st.awake {
		r := &st.rowRef[vi]
		if r.flags&rowStale == 0 {
			continue
		}
		if r.slot < 0 {
			if r.slot = takeSlot(&st.rowFree, len(st.rows)); r.slot == len(st.rows) {
				st.rows = append(st.rows, rowSlot{})
			}
		}
		st.rows[r.slot] = rowSlot{rowKey: rowKeyOf(cands[vi], s.initial[vi]), progress: math.NaN()}
	}
}

// beginRows empties the candidate pass's tables, with room for n
// candidates.
func (st *slabKernel) beginRows(s *shadow, n int) {
	st.rowRef, st.awake = slices.Grow(st.rowRef[:0], n), slices.Grow(st.awake[:0], n)
	s.assign, s.initial = slices.Grow(s.assign[:0], n), slices.Grow(s.initial[:0], n)
	st.pr, st.lastID, st.staleRows = 0, -1, 0
}

// dropRow retires row slot r. The slot keeps its stamp and cells until
// it is handed out again, so a pass that runs again can take it back.
func (st *slabKernel) dropRow(r int) { st.rowFree = append(st.rowFree, r) }

// rowKeyOf is the stamp of candidate v resolved to host index ni.
func rowKeyOf(v *vm.VM, ni int) rowKey {
	key := rowKey{vm: v, epoch: v.Epoch, initial: -1}
	if ni >= 0 {
		key.initial = v.Host
	}
	return key
}

// pairRow is the candidate pass's step for v, the next candidate. It
// advances the merge scan to v's row slot (a candidate without one gets
// it after the pass), resolves v's round-start host and checks, in
// order, the slot's stamp (a mismatch makes the row stale), the verdict's
// progress and the verdict's stay term. A row that fails a check is
// awake; one that passes them all is dormant and costs nothing further.
// It reports false, doing nothing, for a candidate whose ID is not
// above the last one's.
func (sch *Scheduler) pairRow(s *shadow, v *vm.VM) bool {
	st := &sch.kern
	if v.ID <= st.lastID {
		return false
	}
	st.lastID = v.ID
	vi := len(st.rowRef)
	for ; st.pr < len(st.prev) && st.prev[st.pr].id < v.ID; st.pr++ {
		st.dropRow(st.prev[st.pr].slot)
	}
	r := ref{id: v.ID, slot: -1}
	if st.pr < len(st.prev) && st.prev[st.pr].id == v.ID {
		r.slot = st.prev[st.pr].slot
		st.pr++
	}
	ni := s.hostOf(v)
	s.assign, s.initial = append(s.assign, ni), append(s.initial, ni)
	if ni >= 0 {
		r.stay = math.NaN()
	}
	switch {
	case r.slot < 0 || !st.carry || st.rows[r.slot].rowKey != rowKeyOf(v, ni):
		r.flags = rowStale | rowWoke
		st.staleRows++
	case st.rewound || st.rows[r.slot].progress != v.Progress:
		r.flags = rowWoke
	case ni >= 0:
		r.stay = sch.stayAt(v, s.now)
		if r.stay != st.rows[r.slot].stay {
			r.flags = rowWoke
		}
	}
	if r.flags != 0 {
		st.awake = append(st.awake, vi)
	}
	st.rowRef = append(st.rowRef, r)
	return true
}

// rescore re-scores the kernel's work list — the stale columns, then
// every stale row — against the shadow, and repairs the records that
// invalidates.
func (sch *Scheduler) rescore(s *shadow) {
	st := &sch.kern
	for _, c := range st.staleCols {
		sch.rescoreColumn(s, c)
	}
	for _, vi := range st.awake {
		if st.rowRef[vi].flags&rowStale == 0 {
			continue
		}
		row := st.base[st.rowRef[vi].slot*st.stride:][:len(st.cols)]
		for c, ni := range st.colNi {
			row[c] = math.Inf(1)
			if ni >= 0 {
				row[c] = sch.scoreBase(s, ni, vi)
				sch.Stats.ScoreEvals++
			}
		}
		sch.rescan(s, vi, -1)
	}
}

// rescoreColumn re-scores column slot c in place for every row that is
// not stale itself and repairs the ⟨row, class⟩ records that
// invalidates: a cell that did not change needs nothing, a holder that
// improved stays the holder, a holder that got worse costs a rescan of
// that class of that row, and any other cell is offered. A changed cell
// of the row's own hosts and a lowered record minimum wake the row.
func (sch *Scheduler) rescoreColumn(s *shadow, c int) {
	st := &sch.kern
	ni, g, C := st.colNi[c], st.colClass[c], len(st.classes)
	for vi, r := range st.rowRef {
		if r.flags&rowStale != 0 {
			continue
		}
		rs := r.slot
		b := math.Inf(1)
		if ni >= 0 {
			b = sch.scoreBase(s, ni, vi)
			sch.Stats.ScoreEvals++
		}
		old := st.base[rs*st.stride+c]
		if b == old {
			continue // unchanged (including +Inf staying +Inf)
		}
		st.base[rs*st.stride+c] = b
		if ni >= 0 && (ni == s.assign[vi] || ni == s.initial[vi]) {
			st.wake(vi)
			continue // not in the records
		}
		switch r := &st.rec[rs*C+g]; {
		case r.slot != c:
			if b < r.min {
				st.wake(vi)
			}
			r.offer(b, c, ni, st.colNi)
		case b < old:
			r.min = b
			st.wake(vi)
		default:
			sch.rescan(s, vi, g)
		}
	}
}

// rescan rebuilds row vi's record of class g — of every class when g
// is negative — from the cached cells (no score evaluations).
func (sch *Scheduler) rescan(s *shadow, vi, g int) {
	st := &sch.kern
	rs := st.rowRef[vi].slot
	row := st.base[rs*st.stride:]
	for i, list := range st.byClass {
		if g >= 0 && i != g {
			continue
		}
		sch.Stats.RowRescans++
		r := noRec
		for _, c := range list { // ascending host index: the naive scan order
			if b := row[c]; b < r.min {
				if ni := st.colNi[c]; ni != s.assign[vi] && ni != s.initial[vi] {
					r = classRec{min: b, slot: c, low: r.min}
				}
			}
		}
		st.rec[rs*len(st.classes)+i] = r
	}
}
