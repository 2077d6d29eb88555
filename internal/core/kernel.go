package core

import (
	"cmp"
	"math"
	"slices"
	"sort"

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
// edit of its candidate table (editRows). The host pass pairs the
// round's hosts with last round's column slots by an ascending-ID merge
// over last round's ID table, seeds the shadow loads and checks each
// stamp. The candidate table — the candidates in ascending ID with
// their row slots and resolved round-start hosts — is kept from round
// to round, and the edit pass visits only the VMs that may have changed
// since: the ones the harness's change feed (policy.Feed) lists, the
// ones a due list says time may have changed, and the rows the last
// round moved or left without a verdict. It inserts the new candidates,
// removes the rows that are no longer candidates (the cooldown filter)
// and checks each visited row's stamp and verdict (see "Dormant rows");
// a round without a trusted feed re-checks every row and every VM of
// its context instead. Only what fails a check — stale rows and
// columns, rows whose verdict no longer holds — goes on the round's
// work lists: the stale rows and columns are re-scored in place, and
// the awake rows are the only ones the arbiter, the verdict hand-out
// and the action emission visit. A quiet round, with an empty feed and
// nothing due, thus reads one stamp per host, visits no row and
// evaluates nothing. The hill climb writes its hypothetical values into
// the same matrix and voids the stamps of what it moved (a column whose
// loads come back to the real ones bit-exactly keeps its stamp), so the
// next round re-scores whatever actuation did not turn into exactly
// that reality.
//
// The full score is never materialised. Per ⟨row, class⟩ a classRec
// holds the minimum base over the class's columns, so the best move of
// a row is a C-way combine of min + time(class) — base + time is the
// float grouping score uses, and +Inf absorbs in either operand — and
// each iteration picks the globally best move in O(awake·C) instead of
// O(V·H). A round thus costs O(H) stamp checks and O(F log V) edit work
// (plus memmove) for the F VMs it re-checks, plus stale rows·H and
// stale columns·V evaluations, plus O(awake·C) per iteration; a move
// costs O(V + H) evaluations.
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
// The edit pass checks 1, 4, 5 and 6 on the rows it visits, and visits
// every row that may fail one: a changed stamp or Progress reaches it
// through the feed (every vm.VM.Touch, every Progress change and every
// VM joining the queue); a moved row is re-checked the next round; a
// stay term changes with Now alone, so a verdict on a host is filed on
// the stays list, due conservatively before its term can step (see
// stayDue), and re-checked from then on every round until it steps; a
// rewound clock re-checks every row. Conditions 2 and 3 come from the
// column re-scores, which visit every row. Rows left without a verdict
// (the iteration limit) are re-checked every round, and a running VM in
// migration cooldown waits on the cooldown list, in time order because
// LastMigrate only grows, to be re-checked, and then inserted, once
// movable says its cooldown is over.
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
// progress NaN when the row has no verdict or something woke it since —
// and the verdict's due time on the stays list (+Inf: not on it).
type rowSlot struct {
	rowKey
	progress, stay, due float64
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

// ref is one entry of the slot tables, by host or candidate index: the
// entity's ID — the merge and the edit pass read it here, not through
// the entity — and its slot; for a candidate also its marks and its
// stay term as of the round that last checked or timed it (NaN until
// evaluated).
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
// rounds but for the round's work lists.
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

	// The slot tables by host index and by candidate index, in
	// ascending IDs: colRef is this round's, rowRef the candidate
	// table's, edited from round to round beside sch.cands and the
	// shadow's assignments. time is per candidate scoreTimeMove for each
	// class (rowTimed rows only).
	colRef, rowRef []ref
	time           []float64

	// The round's work lists: the stale columns by slot (a column that
	// left is re-scored to +Inf) and the awake candidates (timed or
	// woken), in marking order — the edit pass marks in ascending ID,
	// and the stale rows, whose cells are re-scored, are among the rows
	// it marks.
	staleCols, awake []int
	staleRows        int // marked by this round's edit pass

	// prev is last round's colRef: the column pass's merge-scan input,
	// and what the edit pass maps carried host indices through.
	prev []ref
	// carry and rewound are the round's: the state carries over, and
	// Now is earlier than verdictNow, the Now of the latest round that
	// gave verdicts.
	carry, rewound bool
	verdictNow     float64

	// The candidate table's edit state (see editRows). feed and round
	// name the change feed and round the latest build consumed (feed
	// nil: none), lastNow its Now; edits is the round's edit list.
	feed    *policy.Feed
	round   uint64
	lastNow float64
	edits   []edit
	// The due lists: cool holds the running VMs in migration cooldown,
	// due when the cooldown may end, and stays one entry per row slot
	// whose due is finite, due when the verdict's stay term may step.
	cool, stays dueList
}

// edit is an entry of the round's edit list: a VM to re-check, and
// whether it is a candidate.
type edit struct {
	id   int // v.ID, kept here for the sort
	v    *vm.VM
	want bool
}

// due is an entry of a due list: re-check VM v from Now at on.
type due struct {
	at float64
	v  *vm.VM
}

// dueList is a list of dues in ascending time.
type dueList []due

// insert files e unless the list already holds it.
func (l *dueList) insert(e due) {
	i := sort.Search(len(*l), func(i int) bool { return (*l)[i].at > e.at })
	for j := i - 1; j >= 0 && (*l)[j].at == e.at; j-- {
		if (*l)[j].v == e.v {
			return
		}
	}
	*l = slices.Insert(*l, i, e)
}

// remove deletes e from the list.
func (l *dueList) remove(e due) {
	for i := sort.Search(len(*l), func(i int) bool { return (*l)[i].at >= e.at }); i < len(*l) && (*l)[i].at == e.at; i++ {
		if (*l)[i].v == e.v {
			*l = slices.Delete(*l, i, i+1)
			return
		}
	}
}

// dueMargin is how early, in virtual seconds, a due list reports a
// step computed from the model's formulas: the float evaluation the
// step is decided by may round to either side of the real-valued time.
// At the magnitudes of a simulated week (Now ≈ 6·10⁵ s, deadlines and
// remaining times of the same order) an ulp is ~10⁻¹⁰ s and each step
// takes a handful of roundings, so the two differ by nanoseconds at
// most; one second is a margin of nine orders of magnitude. An entry
// that comes due early is re-checked every round until its step comes.
const dueMargin = 1.0

// stayDue is the earliest Now, minus dueMargin, from which v's stay term
// (stayAt) may differ from its value at now, +Inf when it never will.
// From sla.Fulfillment without overhead, the term steps from 0 to Csla
// when v's projected finish passes its deadline, and to +Inf when the
// fulfilment falls to THsla; it never steps back while v's Progress is
// unchanged, and a Progress change reaches the kernel through the feed.
func (sch *Scheduler) stayDue(v *vm.VM, now float64) float64 {
	budget := v.Deadline - v.Submit
	if !sch.cfg.EnableSLA || !(budget > 0) {
		return math.Inf(1)
	}
	run := v.Remaining() / v.Req.CPU
	for _, step := range [2]float64{v.Submit + budget - run, v.Submit + budget/sch.cfg.THsla - run} {
		if now < step+dueMargin {
			return step - dueMargin
		}
	}
	return math.Inf(1)
}

// coolDue is the due time of running VM v's migration cooldown.
func coolDue(v *vm.VM, cooldown float64) float64 { return v.LastMigrate + cooldown - dueMargin }

// setDue files row slot rs's stay due time at, dropping its old one.
func (st *slabKernel) setDue(rs int, at float64) {
	row := &st.rows[rs]
	if row.due == at {
		return
	}
	if !math.IsInf(row.due, 1) {
		st.stays.remove(due{row.due, row.vm})
	}
	if row.due = at; !math.IsInf(at, 1) {
		st.stays.insert(due{at, row.vm})
	}
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
// scoreTimeMove per class, and the stay term unless the edit pass
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
	// and else loses its own. A verdict on a host is due on the stays
	// list from when its stay term may step.
	for _, vi := range st.awake {
		r := &st.rowRef[vi]
		rs, at := &st.rows[r.slot], math.Inf(1)
		rs.progress = math.NaN()
		if converged {
			rs.progress, rs.stay = cands[vi].Progress, r.stay
			if s.initial[vi] >= 0 {
				at = sch.stayDue(cands[vi], s.now)
			}
		}
		st.setDue(r.slot, at)
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
// one pass pairs the hosts with last round's column slots, the edit
// pass brings the candidate table up to date and checks the rows that
// may have changed, and then only the stale rows and columns are
// re-scored and only the awake rows timed.
func (sch *Scheduler) buildKernel(ctx *policy.Context, s *shadow, hosts []*cluster.Node) {
	st := &sch.kern
	st.carry = len(st.cols) > 0 // an earlier round built the matrix

	s.begin(ctx.Now, hosts, hosts[len(hosts)-1].ID)
	st.rewound = s.now < st.verdictNow
	staleCols, reindexed := st.pairColumns(s, hosts)
	sch.editRows(ctx, s, reindexed)
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
// still in the matrix, and whether the host set changed, which shifts
// host indices.
func (st *slabKernel) pairColumns(s *shadow, hosts []*cluster.Node) (stale int, reindexed bool) {
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
			reindexed = true
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
			reindexed = true
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
		reindexed = true
	}
	return stale, reindexed
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

// editRows brings the candidate table — sch.cands with its row refs and
// the shadow's assignments, in ascending VM ID, kept from last round —
// up to date with the round, and checks the rows that may have changed
// (checkRow). It is fed an edit list: VMs to re-check, each with whether
// it is a candidate (see candidates). It inserts the candidates the
// table lacks, removes the rows that are no longer candidates, re-checks
// the rest, and visits no other row.
//
// A round is fed what the context's change feed lists, the entries of
// the due lists that came due and the rows the last round left without
// a verdict or moved; it also undoes the last round's climb. A changed
// host set shifts host indices: each row's round-start host is mapped
// to its new index, and a row whose host left is re-checked. When the
// feed cannot be trusted to be complete — the first round, no feed, a
// feed that does not continue the last round this kernel consumed, or a
// rewound clock — the pass is full: it is fed every current row and
// every VM of the context, and rebuilds the cooldown list.
func (sch *Scheduler) editRows(ctx *policy.Context, s *shadow, reindexed bool) {
	st := &sch.kern
	feed, now, cooldown := ctx.Feed, s.now, sch.cooldown()
	full := !st.carry || feed == nil || feed != st.feed || feed.Round != st.round+1 || now < st.lastNow
	st.feed, st.lastNow = feed, now
	if feed != nil {
		st.round = feed.Round
	}

	// Gather the edit list.
	most := len(ctx.Queue) // candidates, at most
	if sch.cfg.Migration {
		most += len(ctx.Active)
	}
	n := len(sch.cands) + most
	if !full {
		n = len(st.awake) + len(st.cool) + len(st.stays) + len(feed.VMs)
	}
	in := slices.Grow(st.edits[:0], n)
	switch {
	case full:
		for vi, v := range sch.cands {
			in = append(in, edit{id: st.rowRef[vi].id, v: v})
		}
	case reindexed:
		for vi, oi := range s.initial {
			if oi < 0 {
				continue
			}
			ni := st.colNi[st.prev[oi].slot]
			if s.initial[vi], s.assign[vi] = ni, ni; ni < 0 {
				v := sch.cands[vi]
				in = append(in, edit{id: v.ID, v: v, want: sch.candidate(v, now)})
			}
		}
	}
	for _, vi := range st.awake {
		r := &st.rowRef[vi]
		r.flags = 0
		s.assign[vi] = s.initial[vi]
		if rs := &st.rows[r.slot]; !full && (math.IsNaN(rs.progress) || rs.initial == moved) {
			v := sch.cands[vi]
			in = append(in, edit{id: v.ID, v: v, want: sch.candidate(v, now)})
		}
	}
	st.awake, st.staleRows = st.awake[:0], 0
	if full {
		st.cool = st.cool[:0]
		if sch.cfg.Migration {
			st.cool = slices.Grow(st.cool, len(ctx.Active))
			for _, v := range ctx.Active {
				switch {
				case movable(v, now, cooldown):
					in = append(in, edit{id: v.ID, v: v, want: true})
				case v.State == vm.Running:
					st.cool = append(st.cool, due{coolDue(v, cooldown), v})
				}
			}
			slices.SortFunc(st.cool, func(a, b due) int { return cmp.Compare(a.at, b.at) })
		}
		for _, v := range ctx.Queue {
			in = append(in, edit{id: v.ID, v: v, want: true})
		}
	} else {
		// A cooldown that is due ends when movable says so; until then
		// its entry stays and is re-checked every round. An entry whose
		// VM left Running or migrated again is stale: the change that
		// made it so was fed.
		keep, i := 0, 0
		for ; i < len(st.cool) && st.cool[i].at <= now; i++ {
			switch e := st.cool[i]; {
			case e.v.State != vm.Running || coolDue(e.v, cooldown) != e.at:
			case movable(e.v, now, cooldown):
				in = append(in, edit{id: e.v.ID, v: e.v, want: true})
			default:
				st.cool[keep] = e
				keep++
			}
		}
		st.cool = append(st.cool[:keep], st.cool[i:]...)
		for _, e := range st.stays {
			if e.at > now {
				break
			}
			in = append(in, edit{id: e.v.ID, v: e.v, want: sch.candidate(e.v, now)})
		}
		for _, v := range feed.VMs {
			in = append(in, edit{id: v.ID, v: v, want: sch.candidate(v, now)})
		}
	}
	st.edits = in
	slices.SortFunc(in, func(a, b edit) int { return cmp.Compare(a.id, b.id) })

	// Apply the edits in ascending ID, one per ID: the candidate's, if
	// any — a duplicate, or a VM that took over the ID. Each one's row is
	// at or past the cursor vi, and an insertion or removal there leaves
	// the indices below it alone.
	if room := most - len(st.rowRef); room > 0 {
		sch.cands, st.rowRef = slices.Grow(sch.cands, room), slices.Grow(st.rowRef, room)
		s.assign, s.initial = slices.Grow(s.assign, room), slices.Grow(s.initial, room)
	}
	st.awake = slices.Grow(st.awake, max(most, len(st.rowRef)))
	vi := 0
	for k := 0; k < len(in); {
		e := in[k]
		for k++; k < len(in) && in[k].id == e.id; k++ {
			if in[k].want {
				e = in[k]
			}
		}
		if vi < len(st.rowRef) && st.rowRef[vi].id < e.id {
			vi += sort.Search(len(st.rowRef)-vi, func(i int) bool { return st.rowRef[vi+i].id >= e.id })
		}
		switch in := vi < len(st.rowRef) && st.rowRef[vi].id == e.id; {
		case e.want && !in:
			sch.cands = slices.Insert(sch.cands, vi, e.v)
			st.rowRef = slices.Insert(st.rowRef, vi, ref{id: e.id, slot: -1})
			s.assign, s.initial = slices.Insert(s.assign, vi, -1), slices.Insert(s.initial, vi, -1)
		case !e.want && in:
			st.dropRow(st.rowRef[vi].slot)
			sch.cands = slices.Delete(sch.cands, vi, vi+1)
			st.rowRef = slices.Delete(st.rowRef, vi, vi+1)
			s.assign, s.initial = slices.Delete(s.assign, vi, vi+1), slices.Delete(s.initial, vi, vi+1)
		}
		if !e.want {
			if !full && sch.cfg.Migration && e.v.State == vm.Running && !movable(e.v, now, cooldown) {
				st.cool.insert(due{coolDue(e.v, cooldown), e.v})
			}
			continue
		}
		sch.cands[vi] = e.v
		sch.checkRow(s, vi)
		vi++
	}
	s.vms = sch.cands

	// Hand slots to the new rows and stamp every stale one.
	for _, vi := range st.awake {
		r := &st.rowRef[vi]
		if r.flags&rowStale == 0 {
			continue
		}
		if r.slot < 0 {
			if r.slot = takeSlot(&st.rowFree, len(st.rows)); r.slot == len(st.rows) {
				st.rows = append(st.rows, rowSlot{due: math.Inf(1)})
			}
		}
		st.setDue(r.slot, math.Inf(1))
		st.rows[r.slot] = rowSlot{rowKey: rowKeyOf(sch.cands[vi], s.initial[vi]), progress: math.NaN(), due: math.Inf(1)}
	}
}

// candidate reports whether VM v is a candidate at now by its own state
// (see candidates): queued, or — with migration — movable. It holds for
// the VMs of a context a harness built from its real state; a hand-built
// one has no feed, and a full edit pass takes its lists as they are.
func (sch *Scheduler) candidate(v *vm.VM, now float64) bool {
	return v.State == vm.Queued || sch.cfg.Migration && movable(v, now, sch.cooldown())
}

// dropRow retires row slot r, taking its verdict off the stays list.
func (st *slabKernel) dropRow(r int) {
	st.setDue(r, math.Inf(1))
	st.rowFree = append(st.rowFree, r)
}

// rowKeyOf is the stamp of candidate v resolved to host index ni.
func rowKeyOf(v *vm.VM, ni int) rowKey {
	key := rowKey{vm: v, epoch: v.Epoch, initial: -1}
	if ni >= 0 {
		key.initial = v.Host
	}
	return key
}

// checkRow is the edit pass's check of candidate vi: it resolves the
// VM's round-start host into the shadow and checks, in order, the row
// slot's stamp (a mismatch, or no slot yet, makes the row stale), the
// verdict's progress and the verdict's stay term. A row that fails a
// check is awake; one that passes them all is dormant and costs
// nothing further but its stay term's due time.
func (sch *Scheduler) checkRow(s *shadow, vi int) {
	st := &sch.kern
	v, r := sch.cands[vi], &st.rowRef[vi]
	ni := s.hostOf(v)
	s.assign[vi], s.initial[vi] = ni, ni
	r.stay, r.flags = 0, 0
	if ni >= 0 {
		r.stay = math.NaN()
	}
	switch rs := r.slot; {
	case rs < 0 || st.rows[rs].rowKey != rowKeyOf(v, ni):
		r.flags = rowStale | rowWoke
		st.staleRows++
	case st.rewound || st.rows[rs].progress != v.Progress:
		r.flags = rowWoke
	case ni >= 0:
		if r.stay = sch.stayAt(v, s.now); r.stay != st.rows[rs].stay {
			r.flags = rowWoke
		} else {
			st.setDue(rs, sch.stayDue(v, s.now))
		}
	}
	if r.flags != 0 {
		st.awake = append(st.awake, vi)
	}
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
