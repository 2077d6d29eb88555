package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"energysched/internal/cluster"
	"energysched/internal/obs"
	"energysched/internal/policy"
	"energysched/internal/vm"
)

// The incremental solver must be observationally identical to the
// naive reference evaluator: same actions in the same order, same
// number of applied moves and limit hits — only ScoreEvals may differ
// (that is the point). These tests drive both solvers over randomized
// rounds covering host heterogeneity, offline/overcommitted nodes,
// in-flight operations, queue/migration mixes, cooldowns and the
// iteration limit.

// renderActions flattens an action list into a comparable form.
func renderActions(actions []policy.Action) []string {
	out := make([]string, 0, len(actions))
	for _, a := range actions {
		switch a.Kind {
		case policy.KindPlace:
			out = append(out, fmt.Sprintf("place vm%d -> n%d", a.VM.ID, a.Node))
		case policy.KindMigrate:
			out = append(out, fmt.Sprintf("migrate vm%d -> n%d", a.VM.ID, a.Node))
		default:
			out = append(out, fmt.Sprintf("unknown kind %d", a.Kind))
		}
	}
	return out
}

// randomScenario builds one scheduling round: a heterogeneous cluster
// in a mixed power state and a population of queued, running,
// creating and migrating VMs, some overcommitted, some cooling down.
func randomScenario(r *rand.Rand) (*policy.Context, Config) {
	nClasses := 1 + r.Intn(3)
	classes := make([]cluster.Class, nClasses)
	for i := range classes {
		arch := "x86_64"
		if r.Float64() < 0.15 {
			arch = "arm64"
		}
		classes[i] = cluster.Class{
			Name:        fmt.Sprintf("c%d", i),
			Count:       1 + r.Intn(6),
			CPU:         float64(200 + 200*r.Intn(3)),
			Mem:         float64(50 + 50*r.Intn(2)),
			CreateCost:  float64(20 + r.Intn(41)),
			MigrateCost: float64(30 + r.Intn(61)),
			BootTime:    100,
			Arch:        arch,
			Hypervisor:  "xen",
			Reliability: 0.9 + 0.1*r.Float64(),
		}
	}
	c := cluster.MustNew(classes)
	for _, n := range c.Nodes {
		switch {
		case r.Float64() < 0.75:
			n.SetState(cluster.On)
		case r.Float64() < 0.5:
			n.SetState(cluster.Off)
		default:
			n.SetState(cluster.Booting)
		}
		if n.State == cluster.On && r.Float64() < 0.2 {
			for i := r.Intn(3); i > 0; i-- {
				n.BeginCreate()
			}
			for i := r.Intn(2); i > 0; i-- {
				n.BeginMigrate()
			}
		}
	}

	now := 5000 * r.Float64()
	var queue, active []*vm.VM
	nVMs := r.Intn(21)
	for id := 0; id < nVMs; id++ {
		req := vm.Requirements{
			CPU: float64(50 * (1 + r.Intn(8))),
			Mem: float64(5 * (1 + r.Intn(6))),
		}
		if r.Float64() < 0.1 {
			req.Arch = "sparc" // infeasible everywhere
		}
		submit := now * r.Float64()
		duration := 600 + 7200*r.Float64()
		v := vm.New(id, req, submit, duration, submit+2*duration)
		v.FaultTolerance = 0.05 * r.Float64()
		switch {
		case r.Float64() < 0.4:
			queue = append(queue, v)
		default:
			// Place on a random node regardless of capacity:
			// overcommit exercises the infeasible-current-host path.
			n := c.Nodes[r.Intn(len(c.Nodes))]
			v.Host = n.ID
			n.AddVM(v)
			v.Progress = v.Work * r.Float64()
			switch {
			case r.Float64() < 0.15:
				v.State = vm.Creating
				n.BeginCreate()
			case r.Float64() < 0.15:
				v.State = vm.Migrating
				n.BeginMigrate()
			default:
				v.State = vm.Running
				if r.Float64() < 0.3 {
					// Recently migrated: inside or near the cooldown.
					v.LastMigrate = now - 4000*r.Float64()
				}
			}
			active = append(active, v)
		}
	}

	cfg := DefaultConfig()
	cfg.EnableVirt = r.Float64() < 0.8
	cfg.EnableConc = r.Float64() < 0.8
	cfg.enablePower = r.Float64() < 0.9
	cfg.enableSLA = r.Float64() < 0.3
	cfg.enableFault = r.Float64() < 0.3
	cfg.Migration = r.Float64() < 0.7
	cfg.MigrationGainMin = []float64{0, 1, 35, 80}[r.Intn(4)]
	cfg.migrationCooldown = []float64{-1, 0, 600, 3600}[r.Intn(4)]
	if r.Float64() < 0.3 {
		cfg.MaxIterations = 1 + r.Intn(6) // exercise LimitHits parity
	}

	ctx := &policy.Context{
		Now:     now,
		Cluster: c,
		Queue:   queue,
		Active:  active,
	}
	return ctx, cfg
}

func diffRound(t *testing.T, seed int, inc, nai *Scheduler, ctx *policy.Context) {
	t.Helper()
	incActs := renderActions(inc.Schedule(ctx))
	naiActs := renderActions(nai.Schedule(ctx))
	if len(incActs) != len(naiActs) {
		t.Fatalf("seed %d: action count diverged: incremental %v vs naive %v", seed, incActs, naiActs)
	}
	for i := range incActs {
		if incActs[i] != naiActs[i] {
			t.Fatalf("seed %d: action %d diverged: incremental %q vs naive %q", seed, i, incActs[i], naiActs[i])
		}
	}
}

// TestDifferentialRandomRounds compares the two solvers over many
// randomized single rounds with fresh schedulers.
func TestDifferentialRandomRounds(t *testing.T) {
	for seed := 0; seed < 300; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		ctx, cfg := randomScenario(r)
		inc := mustScheduler(cfg)
		naiCfg := cfg
		naiCfg.NaiveSolver = true
		nai := mustScheduler(naiCfg)
		diffRound(t, seed, inc, nai, ctx)
		if inc.Stats.Moves != nai.Stats.Moves {
			t.Fatalf("seed %d: moves diverged: %d vs %d", seed, inc.Stats.Moves, nai.Stats.Moves)
		}
		if inc.Stats.LimitHits != nai.Stats.LimitHits {
			t.Fatalf("seed %d: limit hits diverged: %d vs %d", seed, inc.Stats.LimitHits, nai.Stats.LimitHits)
		}
	}
}

// TestShardedDifferentialRandomRounds compares the kernel against the
// naive oracle over randomized single rounds and holds its state exact
// (checkKernel) after each. The name dates from the sharded kernel,
// which this test once swept over shard counts; the one-width kernel
// is what it checks now.
func TestShardedDifferentialRandomRounds(t *testing.T) {
	for seed := 0; seed < 120; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		ctx, cfg := randomScenario(r)
		cfg.NaiveSolver = true
		naive := mustScheduler(cfg)
		want := renderActions(naive.Schedule(ctx))
		cfg.NaiveSolver = false
		kern := mustScheduler(cfg)
		got := renderActions(kern.Schedule(ctx))
		checkKernel(t, kern, ctx)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: actions diverged:\nkernel: %v\nnaive:  %v", seed, got, want)
		}
		if kern.Stats.Moves != naive.Stats.Moves {
			t.Fatalf("seed %d: moves diverged: %d vs %d", seed, kern.Stats.Moves, naive.Stats.Moves)
		}
		if kern.Stats.LimitHits != naive.Stats.LimitHits {
			t.Fatalf("seed %d: limit hits diverged: %d vs %d", seed, kern.Stats.LimitHits, naive.Stats.LimitHits)
		}
	}
}

// TestDifferentialScratchReuse drives one scheduler pair through many
// rounds of different shapes, so the scratch buffers (candidate slice,
// shadow, matrix) are exercised across reuse boundaries.
func TestDifferentialScratchReuse(t *testing.T) {
	cfg := SBConfig()
	inc := mustScheduler(cfg)
	naiCfg := cfg
	naiCfg.NaiveSolver = true
	nai := mustScheduler(naiCfg)
	for seed := 1000; seed < 1100; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		ctx, _ := randomScenario(r)
		diffRound(t, seed, inc, nai, ctx)
	}
}

// churnSim is a cluster and VM population driven through consecutive
// scheduling rounds with real churn between them — VM arrivals,
// completions, demand updates, node power transitions, applied
// placements and migrations — all through the epoch-bumping mutation
// methods the datacenter harness uses. Schedule never mutates real
// state, so any number of schedulers can be diffed against one
// simulation: run them all on context(), then apply one action list.
type churnSim struct {
	r        *rand.Rand
	c        *cluster.Cluster
	vms      []*vm.VM // every VM ever created, indexed by ID
	now      float64
	arrivals int // up to this many VMs arrive per round (at least one)

	// touchedVMs and touchedNodes hold the IDs whose real state changed
	// since the previous round: the churn plus the actions applied.
	touchedVMs, touchedNodes map[int]bool
	// progressed holds the VMs whose Progress accrued since the previous
	// round.
	progressed []*vm.VM
}

func newChurnSim(seed int64, c *cluster.Cluster, arrivals int) *churnSim {
	for _, n := range c.Nodes {
		n.SetState(cluster.On)
	}
	return &churnSim{
		r: rand.New(rand.NewSource(seed)), c: c, arrivals: arrivals,
		touchedVMs: map[int]bool{}, touchedNodes: map[int]bool{},
	}
}

// complete finishes a running VM and frees its host.
func (cs *churnSim) complete(v *vm.VM) {
	cs.c.Nodes[v.Host].RemoveVM(v)
	cs.touchedNodes[v.Host] = true
	v.State = vm.Completed
	v.Touch()
	cs.touchedVMs[v.ID] = true
}

// churn applies one round's worth of real-state changes. Every round
// sees at least one arrival, so every round builds a matrix.
func (cs *churnSim) churn() {
	r := cs.r
	for a := r.Intn(cs.arrivals) + 1; a > 0; a-- {
		v := vm.New(len(cs.vms), vm.Requirements{
			CPU: float64(50 * (1 + r.Intn(8))),
			Mem: float64(5 * (1 + r.Intn(6))),
		}, cs.now, 600+7200*r.Float64(), cs.now+3600+14400*r.Float64())
		cs.vms = append(cs.vms, v)
		cs.touchedVMs[v.ID] = true
	}
	if r.Float64() < 0.3 { // a running VM completes
		if running := runningVMs(cs.vms); len(running) > 0 {
			cs.complete(running[r.Intn(len(running))])
		}
	}
	if r.Float64() < 0.3 { // power transition
		n := cs.c.Nodes[r.Intn(len(cs.c.Nodes))]
		switch {
		case n.State == cluster.Off:
			n.SetState(cluster.On)
			cs.touchedNodes[n.ID] = true
		case n.State == cluster.On && len(n.VMs) == 0 && cs.c.StateCount(cluster.On) > 1:
			n.SetState(cluster.Off)
			cs.touchedNodes[n.ID] = true
		}
	}
	if r.Float64() < 0.2 && cs.c.StateCount(cluster.On) > 1 {
		// The On-set shrinks from the low-ID end (the node fails and
		// takes its VMs with it): every surviving column changes index,
		// and must still be carried.
		n := cs.c.AppendOnline(nil)[0]
		for _, v := range runningVMs(cs.vms) {
			if v.Host == n.ID {
				cs.complete(v)
			}
		}
		n.SetState(cluster.Off)
		cs.touchedNodes[n.ID] = true
	}
	if r.Float64() < 0.2 { // demand update on a queued VM
		for _, v := range cs.vms {
			if v.State == vm.Queued {
				v.Req.CPU = float64(50 * (1 + r.Intn(8)))
				v.Touch()
				cs.touchedVMs[v.ID] = true
				break
			}
		}
	}
}

// context is the scheduling context of the current real state.
func (cs *churnSim) context() *policy.Context {
	var queue, active []*vm.VM
	for _, v := range cs.vms {
		switch {
		case v.State == vm.Queued:
			queue = append(queue, v)
		case v.Active():
			active = append(active, v)
		}
	}
	return &policy.Context{
		Now: cs.now, Cluster: cs.c, Queue: queue, Active: active,
	}
}

// apply actuates a round's actions instantly, restarts the touched
// sets from them, accrues progress and advances the clock to the next
// round.
func (cs *churnSim) apply(acts []policy.Action) {
	clear(cs.touchedVMs)
	clear(cs.touchedNodes)
	for _, act := range acts {
		switch act.Kind {
		case policy.KindPlace:
			v := act.VM
			v.State = vm.Running
			v.Host = act.Node
			v.Touch()
			cs.c.Nodes[act.Node].AddVM(v)
			cs.touchedVMs[v.ID] = true
			cs.touchedNodes[act.Node] = true
		case policy.KindMigrate:
			v := act.VM
			cs.c.Nodes[v.Host].RemoveVM(v)
			cs.touchedNodes[v.Host] = true
			cs.c.Nodes[act.Node].AddVM(v)
			cs.touchedNodes[act.Node] = true
			v.Host = act.Node
			v.LastMigrate = cs.now
			v.Migrations++
			v.Touch()
			cs.touchedVMs[v.ID] = true
		}
	}
	// Progress accrues without Touch, as the datacenter's accrual does
	// (lazily, at node events): here on a rotating third of the running
	// VMs per round.
	cs.progressed = cs.progressed[:0]
	for _, v := range cs.vms {
		if v.State == vm.Running && (v.ID+int(cs.now/60))%3 == 0 {
			v.Progress += v.Req.CPU * 60
			cs.progressed = append(cs.progressed, v)
		}
	}
	cs.now += 60
}

// feed fills f as a harness's change feed for the next round: every VM
// the churn or the applied actions changed, arrivals among them, and
// every VM whose Progress accrued, in map order.
func (cs *churnSim) feed(f *policy.Feed) {
	f.Round++
	f.VMs = append(f.VMs[:0], cs.progressed...)
	for id := range cs.touchedVMs {
		f.VMs = append(f.VMs, cs.vms[id])
	}
}

// checkKernel fails the test when kernelFault finds one.
func checkKernel(t *testing.T, sch *Scheduler, ctx *policy.Context) {
	t.Helper()
	if err := kernelFault(sch, ctx); err != nil {
		t.Fatal(err)
	}
}

// kernelFault verifies, after a round on ctx that built a matrix, the
// invariants the kernel's correctness rests on — that each run is
// right, not merely that two runs agree — against the round's final
// shadow, and reports the first one broken. The table: the carried
// candidate table is the context's candidates, by ID and in order. The
// stamps: a column's stamp is its node's Epoch exactly when the shadow
// left the node's real loads, else void; a row's is its VM's Epoch and
// resolved host, void when the row moved. The values behind the stamps:
// every persistent base cell of a live ⟨row, column⟩ equals a fresh
// scoreBase — a carried cell that does not is a stale key, a scored
// field written around its setter or Touch — and composes with the
// round's time terms to a fresh score; the cells of a live row in column
// slots outside the matrix are +Inf; every settled ⟨row, class⟩ record
// equals a brute-force scan and its low field really is a lower bound,
// and every unsettled one's floor is at most the scan's minimum; the
// arbiter's per-row best equals a naive-order scan of the full scores;
// the awake list holds each awake row once; and every dormant row is
// non-improving. What the edit pass did not visit: every dormant row's
// verdict passes the stamp, progress and stay checks at this Now — the
// change feed missed nothing — every row's stay due is on the stays
// list and no later than the verdict's stay term can step, and every
// running VM in migration cooldown has a cooldown entry due no later
// than the cooldown ends.
func kernelFault(sch *Scheduler, ctx *policy.Context) error {
	if len(sch.hosts) == 0 || !sch.anyCandidate(ctx) {
		return nil // the round returned before building
	}
	s, st := &sch.sh, &sch.kern
	C := len(st.classes)
	if want := sch.candidates(ctx, nil); !slices.Equal(sch.cands, want) {
		return fmt.Errorf("candidate table %v, the context's candidates %v", vmIDs(sch.cands), vmIDs(want))
	}
	for ni, r := range st.colRef {
		c, n := r.slot, s.nodes[ni]
		if st.colNi[c] != ni || st.cols[c].node != n || r.id != n.ID || st.classes[st.colClass[c]] != n.Class {
			return fmt.Errorf("host index %d: slot %d says host index %d, node %v, ID %d, class %d", ni, c, st.colNi[c], st.cols[c].node, r.id, st.colClass[c])
		}
		want := uint64(voided)
		if s.atRest(ni) {
			want = n.Epoch
		}
		if st.cols[c].epoch != want {
			return fmt.Errorf("host index %d: stamp epoch %d, node epoch %d, shadow loads (%v, %v, %d) real (%v, %v, %d)",
				ni, st.cols[c].epoch, n.Epoch, s.cpu[ni], s.mem[ni], s.count[ni], n.CPUReserved(), n.MemReserved(), len(n.VMs))
		}
	}
	awake := map[int]bool{}
	for _, vi := range st.awake {
		if awake[vi] || !st.rowRef[vi].flags.awake() {
			return fmt.Errorf("vm index %d: on the awake list twice or with marks %b", vi, st.rowRef[vi].flags)
		}
		awake[vi] = true
	}
	for vi, v := range s.vms {
		r := st.rowRef[vi]
		rs := r.slot
		if r.flags&rowStale != 0 || r.id != v.ID || r.flags.awake() != awake[vi] {
			return fmt.Errorf("vm index %d: ref %+v, on the awake list %v", vi, r, awake[vi])
		}
		want := rowKeyOf(v, s.initial[vi])
		if s.assign[vi] != s.initial[vi] {
			want.initial = moved
		}
		if st.rows[rs].rowKey != want {
			return fmt.Errorf("vm index %d: row slot %d stamped %+v, want %+v", vi, rs, st.rows[rs].rowKey, want)
		}
		stay := 0.0
		if s.initial[vi] >= 0 {
			stay = sch.scoreTimeStay(s, vi)
		}
		if r.stay != stay {
			return fmt.Errorf("vm index %d: stay term %v, fresh %v", vi, r.stay, stay)
		}
		if err := verdictFault(sch, vi, !r.flags.awake()); err != nil {
			return err
		}
		// A dormant row's move terms are not this round's: it must be
		// non-improving against the fresh scores instead. The stay term
		// is every row's.
		timed, dormant := r.flags&rowTimed != 0, !r.flags.awake()
		if dormant && s.assign[vi] != s.initial[vi] {
			return fmt.Errorf("vm index %d: dormant row moved", vi)
		}
		cur, threshold := queueScore, -moveEps
		if a := s.assign[vi]; a >= 0 {
			cur = sch.score(s, a, vi)
		}
		if v.State != vm.Queued && !math.IsInf(cur, 1) {
			threshold = -sch.cfg.MigrationGainMin
		}
		recs := make([]classRec, C)
		for g := range recs {
			recs[g] = noRec
		}
		for c, ni := range st.colNi {
			got := st.row(rs)[c]
			if ni < 0 {
				if !math.IsInf(got, 1) {
					return fmt.Errorf("cell (vm index %d, free slot %d) = %v, want +Inf", vi, c, got)
				}
				continue
			}
			b := sch.scoreBase(s, ni, vi)
			if got != b {
				return fmt.Errorf("stale key: cell (vm %d stamped at epoch %d, node %d stamped at epoch %d) holds %v, a fresh base is %v",
					v.ID, st.rows[rs].epoch, s.nodes[ni].ID, st.cols[c].epoch, got, b)
			}
			if ni == s.assign[vi] || ni == s.initial[vi] {
				continue
			}
			// Brute force: the minimum, the lowest index achieving it.
			w := &recs[st.colClass[c]]
			if b < w.min || (b == w.min && w.slot >= 0 && ni < st.colNi[w.slot]) {
				w.min, w.slot = b, c
			}
		}
		// The records as the round left them, before this oracle's own
		// bestTarget settles any: a settled one is exact, an unsettled
		// one's floor is at or below the class minimum.
		for g, w := range recs {
			r := st.rec[rs*C+g]
			if r.slot == unsettled {
				if r.min > w.min {
					return fmt.Errorf("unsettled record (vm index %d, class %d) has floor %v above the class minimum %v at slot %d",
						vi, g, r.min, w.min, w.slot)
				}
				continue
			}
			if r.min != w.min || r.slot != w.slot {
				return fmt.Errorf("record (vm index %d, class %d) = %v at slot %d, scan says %v at slot %d",
					vi, g, r.min, r.slot, w.min, w.slot)
			}
			for c, ni := range st.colNi {
				if r.slot < 0 || ni < 0 || ni >= st.colNi[r.slot] || st.colClass[c] != g || ni == s.assign[vi] || ni == s.initial[vi] {
					continue
				}
				if b := st.row(rs)[c]; b < r.low {
					return fmt.Errorf("record (vm index %d, class %d) low = %v, but host index %d below the holder has base %v",
						vi, g, r.low, ni, b)
				}
			}
		}
		// Naive-order scan of the fresh full scores.
		best, bestn, first := math.Inf(1), -1, -1
		for ni := range s.nodes {
			sc := sch.score(s, ni, vi)
			if !sch.pinned(s, vi) && (timed || ni == s.initial[vi]) {
				if got := st.score(s, vi, ni); got != sc {
					return fmt.Errorf("composed score (vm index %d, host index %d) = %v, fresh score %v", vi, ni, got, sc)
				}
			}
			if ni == s.assign[vi] || math.IsInf(sc, 1) {
				continue
			}
			if first < 0 {
				first = ni
			}
			if sc < best {
				best, bestn = sc, ni
			}
			if diff := sc - cur; dormant && (math.IsInf(cur, 1) || diff <= threshold && diff < -moveEps) {
				return fmt.Errorf("dormant row of vm index %d improves by %v on host index %d (threshold %v)", vi, diff, ni, threshold)
			}
		}
		if !sch.pinned(s, vi) && timed {
			// bestTarget settles the row's records: put them and the
			// count back, so that checking leaves the kernel as it was.
			saved, rescans := slices.Clone(st.rec[rs*C:][:C]), sch.Stats.RowRescans
			sc, ni := sch.bestTarget(s, vi)
			copy(st.rec[rs*C:], saved)
			sch.Stats.RowRescans = rescans
			if sc != best || ni != bestn {
				return fmt.Errorf("best target of vm index %d = %v at %d, naive scan says %v at %d", vi, sc, ni, best, bestn)
			}
			if ni := st.firstTarget(s, vi); ni != first {
				return fmt.Errorf("first target of vm index %d = %d, naive scan says %d", vi, ni, first)
			}
		}
	}
	return dueFault(sch, ctx)
}

// verdictFault checks the verdict of row vi, which is dormant when the
// edit pass may have left it unvisited: a dormant row's verdict must
// pass the edit pass's checks at this Now, and every verdict of a row
// on a host must be due on the stays list no later than its stay term
// can step — stay is monotone in Now, so it is enough that the term
// just before the due time is the verdict's.
func verdictFault(sch *Scheduler, vi int, dormant bool) error {
	s, st := &sch.sh, &sch.kern
	v, rs := sch.cands[vi], &st.rows[st.rowRef[vi].slot]
	onHost := s.initial[vi] >= 0
	if dormant && (rs.progress != v.Progress || onHost && rs.stay != sch.stayAt(v, s.now) || st.rewound) {
		return fmt.Errorf("dormant row of vm %d: verdict (progress %v, stay %v), now (progress %v, stay %v): the feed missed a change",
			v.ID, rs.progress, rs.stay, v.Progress, sch.stayAt(v, s.now))
	}
	if math.IsNaN(rs.progress) || !onHost {
		if !math.IsInf(rs.due, 1) {
			return fmt.Errorf("row of vm %d: due at %v without a verdict on a host", v.ID, rs.due)
		}
		return nil
	}
	before := math.MaxFloat64 // +Inf: the term never steps
	if !math.IsInf(rs.due, 1) {
		if !slices.Contains(st.stays, due{rs.due, v}) {
			return fmt.Errorf("row of vm %d: due at %v, not on the stays list", v.ID, rs.due)
		}
		before = math.Nextafter(rs.due, math.Inf(-1))
	}
	if before > s.now && sch.stayAt(v, before) != rs.stay {
		return fmt.Errorf("row of vm %d: stay term %v steps to %v before its due time %v", v.ID, rs.stay, sch.stayAt(v, before), rs.due)
	}
	return nil
}

// dueFault checks the due lists: each ascends; the stays list holds one
// entry per row slot with a finite due time, and the cooldown list an
// entry for every running VM of ctx in migration cooldown, due no later
// than the cooldown ends.
func dueFault(sch *Scheduler, ctx *policy.Context) error {
	st := &sch.kern
	byAt := func(a, b due) int { return cmp.Compare(a.at, b.at) }
	if !slices.IsSortedFunc(st.stays, byAt) || !slices.IsSortedFunc(st.cool, byAt) {
		return fmt.Errorf("a due list is out of order: stays %v, cool %v", st.stays, st.cool)
	}
	dues := 0
	for _, r := range st.rowRef {
		if !math.IsInf(st.rows[r.slot].due, 1) {
			dues++
		}
	}
	if dues != len(st.stays) {
		return fmt.Errorf("%d rows are due, the stays list holds %d entries", dues, len(st.stays))
	}
	if !sch.cfg.Migration {
		return nil
	}
	cooldown := sch.cooldown()
	for _, v := range ctx.Active {
		if v.State != vm.Running || movable(v, ctx.Now, cooldown) {
			continue
		}
		e := due{coolDue(v, cooldown), v}
		if !slices.Contains(st.cool, e) || movable(v, e.at, cooldown) {
			return fmt.Errorf("vm %d in cooldown since %v: entry %v on the cooldown list %v", v.ID, v.LastMigrate, e, st.cool)
		}
	}
	return nil
}

func vmIDs(vms []*vm.VM) []int {
	ids := make([]int, len(vms))
	for i, v := range vms {
		ids[i] = v.ID
	}
	return ids
}

// TestCheckKernelDetectsStaleKey: the kernel carries a slot whose stamp
// matches, and the stamps trust the setters that advance an Epoch
// (cluster.Node's mutators, vm.VM.Touch). A scored field written around
// them leaves a carried cell on a stale value, and the oracle must
// report it, as cluster.CheckIndex does for the state index.
func TestCheckKernelDetectsStaleKey(t *testing.T) {
	for name, corrupt := range map[string]func(c *cluster.Cluster, v *vm.VM){
		"node ops":   func(c *cluster.Cluster, _ *vm.VM) { c.Nodes[1].CreatingOps++ },
		"vm demand":  func(_ *cluster.Cluster, v *vm.VM) { v.Req.CPU += 50 },
		"vm touched": func(_ *cluster.Cluster, v *vm.VM) { v.FaultTolerance = 0.01; v.Touch() },
	} {
		c := testCluster(t, 3)
		a, b := runningVM(1, 100, 5, c, 0), runningVM(2, 100, 5, c, 2)
		cfg := SBConfig()
		cfg.enableFault = true
		cfg.MigrationGainMin = 1e6
		sch := mustScheduler(cfg)
		ctx := ctxFor(c, nil, []*vm.VM{a, b})
		sch.Schedule(ctx)
		if err := kernelFault(sch, ctx); err != nil {
			t.Fatalf("%s, before: %v", name, err)
		}
		corrupt(c, a)
		sch.Schedule(ctx)
		err := kernelFault(sch, ctx)
		if bypass := name != "vm touched"; bypass != (err != nil) || err != nil && !strings.Contains(err.Error(), "stale key") {
			t.Fatalf("%s: the oracle reports %v", name, err)
		}
	}
}

// TestDifferentialMultiRoundChurn drives small random clusters through
// many consecutive churn rounds. Each round the carrying kernel and
// the naive oracle must emit identical actions, the kernel's cache
// must be exact (checkKernel), and the cross-round invalidation must
// stay within the churn: the number of rows/columns re-scored at the
// top of a round is bounded by the entities actually touched since the
// previous round (plus rows/columns that are new to the matrix) — in
// particular, a column whose index shifted because a lower-ID node
// went away is not re-scored.
func TestDifferentialMultiRoundChurn(t *testing.T) {
	const rounds = 60
	for seed := 0; seed < 8; seed++ {
		r := rand.New(rand.NewSource(int64(9000 + seed)))

		classes := make([]cluster.Class, 1+r.Intn(3))
		for i := range classes {
			classes[i] = cluster.Class{
				Name:        fmt.Sprintf("c%d", i),
				Count:       2 + r.Intn(4),
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
		cfg.enableSLA = r.Float64() < 0.3
		cfg.enableFault = r.Float64() < 0.3
		cfg.migrationCooldown = 600
		inc := mustScheduler(cfg)
		naiCfg := cfg
		naiCfg.NaiveSolver = true
		nai := mustScheduler(naiCfg)

		cs := newChurnSim(int64(9100+seed), cluster.MustNew(classes), 2)
		prevRows := map[int]bool{}
		prevCols := map[int]bool{}
		shrunk := 0

		for round := 0; round < rounds; round++ {
			lowest := cs.c.AppendOnline(nil)[0]
			cs.churn()
			if lowest.State != cluster.On {
				shrunk++
			}
			ctx := cs.context()
			curRows := map[int]bool{}
			for _, v := range inc.candidates(ctx, nil) {
				curRows[v.ID] = true
			}
			curCols := map[int]bool{}
			for _, n := range cs.c.AppendOnline(nil) {
				curCols[n.ID] = true
			}

			before := inc.Stats
			incActs := inc.Schedule(ctx)
			checkKernel(t, inc, ctx)
			ia, na := renderActions(incActs), renderActions(nai.Schedule(ctx))
			if !slices.Equal(ia, na) {
				t.Fatalf("seed %d round %d: actions diverged:\nkernel: %v\nnaive:  %v", seed, round, ia, na)
			}
			after := inc.Stats

			// --- invalidation bounded by the actual churn ---
			if after.CarryRounds > before.CarryRounds {
				budget := len(cs.touchedVMs)
				for id := range curRows {
					if !prevRows[id] {
						budget++
					}
				}
				if stale := after.StaleRows - before.StaleRows; stale > budget {
					t.Fatalf("seed %d round %d: %d stale rows, churn allows %d",
						seed, round, stale, budget)
				}
				budget = len(cs.touchedNodes)
				for id := range curCols {
					if !prevCols[id] {
						budget++
					}
				}
				if stale := after.StaleCols - before.StaleCols; stale > budget {
					t.Fatalf("seed %d round %d: %d stale columns, churn allows %d",
						seed, round, stale, budget)
				}
			} else if round > 0 {
				t.Fatalf("seed %d round %d: no cross-round carry", seed, round)
			}

			cs.apply(incActs)
			prevRows, prevCols = curRows, curCols
		}

		if inc.Stats.ReusedCells == 0 {
			t.Fatalf("seed %d: cross-round carry never reused a cell", seed)
		}
		if inc.Stats.Moves != nai.Stats.Moves {
			t.Fatalf("seed %d: moves diverged: %d vs %d", seed, inc.Stats.Moves, nai.Stats.Moves)
		}
		if shrunk == 0 {
			t.Fatalf("seed %d: the On-set never shrank from the low-ID end", seed)
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

// TestDifferentialChurnSizes is the seeded property-based differential
// test: cluster sizes from 10 to 1000 nodes, random churn sequences
// (arrivals, completions, demand updates, power transitions, the On-set
// shrinking from the low-ID end, applied actions), and a carrying kernel
// beside the naive oracle. Each round the kernel must emit exactly the
// oracle's actions with an exact cache, and across the run its carry
// must actually reuse cells.
func TestDifferentialChurnSizes(t *testing.T) {
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
			cfg.migrationCooldown = 600
			kern, naive := kernelPair(cfg)

			cs := newChurnSim(int64(7700+size), churnCluster(size), 1+size/20)
			for round := 0; round < rounds; round++ {
				cs.churn()
				cs.apply(diffChecked(t, fmt.Sprintf("round %d", round), kern, naive, cs.context()))
			}
			if kern.Stats.Moves != naive.Stats.Moves {
				t.Fatalf("total moves diverged: kernel %d vs naive %d", kern.Stats.Moves, naive.Stats.Moves)
			}
			if kern.Stats.ReusedCells == 0 {
				t.Fatal("cross-round carry never reused a cell")
			}
		})
	}
}

// kernelPair builds a carrying kernel and the naive oracle over one
// configuration.
func kernelPair(cfg Config) (kern, naive *Scheduler) {
	cfg.NaiveSolver = false
	kern = mustScheduler(cfg)
	cfg.NaiveSolver = true
	return kern, mustScheduler(cfg)
}

// diffChecked runs one round on both schedulers: identical actions and
// an exact kernel (checkKernel). It returns the actions.
func diffChecked(t *testing.T, what string, kern, naive *Scheduler, ctx *policy.Context) []policy.Action {
	t.Helper()
	acts := naive.Schedule(ctx)
	got, want := renderActions(kern.Schedule(ctx)), renderActions(acts)
	checkKernel(t, kern, ctx)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: actions diverged:\nkernel: %v\nnaive:  %v", what, got, want)
	}
	return acts
}

// TestDifferentialRoundingTie is the rounding hazard of the factored
// score by construction: two hosts of one class carry the same load
// but for one ulp — 0.3 reserved at once against 0.1 + 0.2 — so the
// higher index has the strictly lower base, and a creation cost three
// binades up absorbs the ulp: the full scores tie and the naive scan
// keeps the lower index. A kernel that trusts the class record's
// holder places on the higher one; the low bound must send it to the
// exact scan instead. In the second case an empty host below the tie
// scores worse than it, so the exact scan must match the score, not
// just skip the VM's own hosts.
func TestDifferentialRoundingTie(t *testing.T) {
	for _, c := range []struct {
		hosts, lo, hi int
	}{{3, 0, 2}, {4, 1, 3}} {
		cls := cluster.PaperClasses()[1]
		cls.Count, cls.CPU, cls.Mem, cls.CreateCost = c.hosts, 1, 1000, 1000
		cl := cluster.MustNew([]cluster.Class{cls})
		for _, n := range cl.Nodes {
			n.SetState(cluster.On)
		}
		runningVM(1, 0.3, 1, cl, c.lo)
		runningVM(2, 0.1, 1, cl, c.hi)
		runningVM(3, 0.2, 1, cl, c.hi)
		queue := []*vm.VM{queuedVM(0, 0.05, 1)}

		kern, naive := kernelPair(SB2Config())
		kernMoves, naiveMoves := &moveLog{}, &moveLog{}
		kern.Tracer, naive.Tracer = kernMoves, naiveMoves
		s := newShadow(0, cl.Nodes, queue)
		blo, bhi := kern.scoreBase(s, c.lo, 0), kern.scoreBase(s, c.hi, 0)
		if slo, shi := kern.score(s, c.lo, 0), kern.score(s, c.hi, 0); !(bhi < blo) || slo != shi {
			t.Fatalf("not the hazard: bases %v and %v, scores %v and %v", blo, bhi, slo, shi)
		}
		if c.lo > 0 && !(kern.score(s, 0, 0) > kern.score(s, c.lo, 0)) {
			t.Fatalf("host 0 scores %v, not above the tie's %v", kern.score(s, 0, 0), kern.score(s, c.lo, 0))
		}
		what := fmt.Sprintf("tie of hosts %d and %d", c.lo, c.hi)
		acts := diffChecked(t, what, kern, naive, ctxFor(cl, queue, nil))
		if got, want := renderActions(acts), fmt.Sprintf("place vm0 -> n%d", c.lo); !slices.Equal(got, []string{want}) {
			t.Fatalf("%s: naive actions = %v, want %s, the lower index of the tie", what, got, want)
		}
		// The kernel takes the naive scan's one move: a holder off the
		// tie would place first and then correct itself with a second.
		if got, want := traceMoves(kernMoves), traceMoves(naiveMoves); !slices.Equal(got, want) || len(got) != 1 {
			t.Fatalf("%s: kernel moves %v, naive moves %v", what, got, want)
		}
	}
}

// traceMoves renders a move log's moves as "vm from->to".
func traceMoves(m *moveLog) []string {
	out := make([]string, len(m.moves))
	for i, a := range m.moves {
		out[i] = fmt.Sprintf("vm%d %d->%d", a.VM, a.From, a.To)
	}
	return out
}

// moveLog is a trace sink that keeps every applied move.
type moveLog struct{ moves []obs.ActionTrace }

func (m *moveLog) Verbosity() obs.Verbosity { return obs.TraceActions }
func (m *moveLog) Emit(rt obs.RoundTrace)   { m.moves = append(m.moves, rt.Actions...) }

// TestDifferentialMoveBack: a VM the climber moved A→B keeps A, its
// round-start host, as a legal target whose time half is stay, not its
// class's move term — and in these scenarios it is moved back there
// within the round (the trace proves the hazard occurs). The kernel
// must follow, and a second round over the unactuated state must find
// the moved-back row's stamp restored and everything else re-scored.
func TestDifferentialMoveBack(t *testing.T) {
	for _, seed := range []int64{861, 1169, 1415} {
		ctx, cfg := randomScenario(rand.New(rand.NewSource(seed)))
		kern, naive := kernelPair(cfg)
		log := &moveLog{}
		naive.Tracer = log
		what := fmt.Sprintf("seed %d", seed)
		diffChecked(t, what, kern, naive, ctx)
		start, back := map[int]int{}, false
		for _, m := range log.moves {
			if from, seen := start[m.VM]; !seen {
				start[m.VM] = m.From
			} else if from >= 0 && m.To == from {
				back = true
			}
		}
		if !back {
			t.Fatalf("%s: no VM moved back to its round-start host; the test is vacuous", what)
		}
		diffChecked(t, what+" round 2", kern, naive, ctx)
	}
}

// TestDifferentialSlotReuse: a host leaves On while a persistent row's
// class record points at it, and the next round another host enters
// and takes its column slot.
func TestDifferentialSlotReuse(t *testing.T) {
	c := testCluster(t, 5)
	c.Nodes[3].SetState(cluster.Off)
	c.Nodes[4].SetState(cluster.Off)
	cs := &churnSim{c: c, touchedVMs: map[int]bool{}, touchedNodes: map[int]bool{}}
	// The persistent row: its only targets are the empty hosts 1 and
	// 2, equally good, so its record holds host 1.
	stay := runningVM(0, 100, 5, c, 0)
	cs.vms = append(cs.vms, stay)
	kern, naive := kernelPair(SBConfig())
	round := func(what string) {
		t.Helper()
		cs.apply(diffChecked(t, what, kern, naive, cs.context()))
	}
	round("start")
	st := &kern.kern
	left := st.colRef[1].slot
	if r := st.rec[st.rowRef[0].slot*len(st.classes)]; r.slot != left {
		t.Fatalf("the record of the persistent row holds slot %d, want host 1's slot %d", r.slot, left)
	}
	c.Nodes[1].SetState(cluster.Off)
	round("host 1 left")
	c.Nodes[4].SetState(cluster.On)
	cs.vms = append(cs.vms, vm.New(1, vm.Requirements{CPU: 100, Mem: 5}, cs.now, 3600, cs.now+7200))
	round("host 4 entered")
	if got := st.colRef[len(st.colRef)-1].slot; got != left {
		t.Fatalf("host 4 took slot %d, want the slot %d host 1 left", got, left)
	}
	if stay.Host != 0 || st.rows[st.rowRef[0].slot].vm != stay {
		t.Fatalf("the persistent row did not persist")
	}
	round("after")
}

// TestDifferentialSB0Churn is the churn differential without Pvirt —
// the configuration under which scoreTime's in-operation pin, not the
// penalty family, keeps a VM under an operation in place — with VMs
// left creating for a round so the pin has rows to act on.
func TestDifferentialSB0Churn(t *testing.T) {
	// The pin by construction: a creating VM on an overcommitted host
	// is moved to the first feasible host (the empty host 1), and the
	// pin then keeps it there although host 2 is 40 better.
	c := testCluster(t, 3)
	runningVM(1, 400, 5, c, 0)
	runningVM(2, 200, 5, c, 2)
	pinned := runningVM(0, 100, 5, c, 0)
	pinned.State = vm.Creating
	kern, naive := kernelPair(SB0Config())
	acts := diffChecked(t, "pin", kern, naive, ctxFor(c, []*vm.VM{pinned}, nil))
	if got := renderActions(acts); !slices.Equal(got, []string{"migrate vm0 -> n1"}) {
		t.Fatalf("pinned VM: naive actions = %v, want it left on host 1", got)
	}

	cfg := SB0Config()
	cfg.Migration = true
	cfg.MigrationGainMin = 1
	cfg.migrationCooldown = -1
	kern, naive = kernelPair(cfg)
	cs := newChurnSim(4400, churnCluster(20), 3)
	for round := 0; round < 40; round++ {
		cs.churn()
		ctx := cs.context()
		// Hand the solver some active VMs as if still creating: rows
		// that are in operation (the harness never queues those, but
		// the pin must hold for whoever does).
		var creating []*vm.VM
		for _, v := range ctx.Active {
			if v.ID%3 == 0 {
				v.State = vm.Creating
				creating = append(creating, v)
			}
		}
		ctx.Queue = append(ctx.Queue, creating...)
		acts := diffChecked(t, fmt.Sprintf("round %d", round), kern, naive, ctx)
		for _, v := range creating {
			v.State = vm.Running
		}
		kept := acts[:0:0]
		for _, a := range acts {
			if a.Kind != policy.KindMigrate || !slices.Contains(creating, a.VM) {
				kept = append(kept, a)
			}
		}
		cs.apply(kept)
	}
	if kern.Stats.Moves != naive.Stats.Moves || kern.Stats.Moves == 0 {
		t.Fatalf("moves %d vs naive %d", kern.Stats.Moves, naive.Stats.Moves)
	}
}

func runningVMs(vms []*vm.VM) []*vm.VM {
	var out []*vm.VM
	for _, v := range vms {
		if v.State == vm.Running {
			out = append(out, v)
		}
	}
	return out
}

// TestIncrementalFewerEvals pins the complexity win: on a round big
// enough to move many VMs, the incremental solver must spend far
// fewer score evaluations than the naive one for the same actions.
func TestIncrementalFewerEvals(t *testing.T) {
	mkCtx := func() *policy.Context {
		cls := cluster.PaperClasses()
		c := cluster.MustNew(cls)
		for _, n := range c.Nodes {
			n.SetState(cluster.On)
		}
		var queue []*vm.VM
		for i := 0; i < 48; i++ {
			queue = append(queue, vm.New(i, vm.Requirements{CPU: float64(100 * (1 + i%4)), Mem: 5}, 0, 3600, 7200))
		}
		return &policy.Context{Now: 0, Cluster: c, Queue: queue}
	}
	inc := mustScheduler(SBConfig())
	naiCfg := SBConfig()
	naiCfg.NaiveSolver = true
	nai := mustScheduler(naiCfg)
	diffRound(t, -1, inc, nai, mkCtx())
	if inc.Stats.Moves == 0 {
		t.Fatal("scenario applied no moves; the eval comparison is vacuous")
	}
	if inc.Stats.ScoreEvals*5 > nai.Stats.ScoreEvals {
		t.Errorf("incremental solver spent %d evals vs naive %d; want ≥5× fewer",
			inc.Stats.ScoreEvals, nai.Stats.ScoreEvals)
	}
}

// TestWorkedMatrixExampleBothSolvers is the §III-B worked example as a
// regression test: two medium hosts, a queued VM and a running one.
// Both solvers must place VM0 on H0 (the host already running VM1).
func TestWorkedMatrixExampleBothSolvers(t *testing.T) {
	mk := func() *policy.Context {
		cls := cluster.PaperClasses()[1]
		cls.Count = 2
		c := cluster.MustNew([]cluster.Class{cls})
		for _, n := range c.Nodes {
			n.SetState(cluster.On)
		}
		queued := vm.New(0, vm.Requirements{CPU: 100, Mem: 5}, 0, 3600, 7200)
		running := vm.New(1, vm.Requirements{CPU: 200, Mem: 10}, 0, 3600, 7200)
		running.State = vm.Running
		running.Host = 0
		c.Nodes[0].AddVM(running)
		return &policy.Context{
			Now:     0,
			Cluster: c,
			Queue:   []*vm.VM{queued},
			Active:  []*vm.VM{running},
		}
	}

	for _, naive := range []bool{false, true} {
		cfg := SBConfig()
		cfg.NaiveSolver = naive
		sch := mustScheduler(cfg)
		acts := renderActions(sch.Schedule(mk()))
		if len(acts) != 1 || acts[0] != "place vm0 -> n0" {
			t.Fatalf("naive=%v: actions = %v, want [place vm0 -> n0]", naive, acts)
		}
	}
}

// TestZeroMemoryClassOccupiesByCPU: a class with Mem 0 declares no
// memory, so the memory of the VMs its node hosts does not count: the
// occupation is the CPU share alone, and both solvers place a VM next
// to one that needs memory (hosted there without the scheduler, whose
// Preq gate keeps such VMs off the class).
func TestZeroMemoryClassOccupiesByCPU(t *testing.T) {
	mk := func() *policy.Context {
		cls := cluster.PaperClasses()[1]
		cls.Count, cls.Mem = 1, 0
		c := cluster.MustNew([]cluster.Class{cls})
		c.Nodes[0].SetState(cluster.On)
		return ctxFor(c, []*vm.VM{queuedVM(0, 100, 0)}, []*vm.VM{runningVM(1, 100, 5, c, 0)})
	}
	ctx := mk()
	n := ctx.Cluster.Nodes[0]
	if got, want := newShadow(0, ctx.Cluster.Nodes, ctx.Queue).occupation(0, 0), 200/n.Class.CPU; got != want {
		t.Fatalf("occupation = %v, want the CPU share %v", got, want)
	}
	for _, naive := range []bool{false, true} {
		cfg := SBConfig()
		cfg.NaiveSolver = naive
		acts := renderActions(mustScheduler(cfg).Schedule(mk()))
		if len(acts) != 1 || acts[0] != "place vm0 -> n0" {
			t.Fatalf("naive=%v: actions = %v, want [place vm0 -> n0]", naive, acts)
		}
	}
}

// TestScheduleSteadyStateAllocationFree verifies the scratch-buffer
// contract: after a warm-up round, a carry round performs no heap
// allocations, whether it emits nothing or acts: the returned slice is
// scratch too and an action is a value appended to it.
func TestScheduleSteadyStateAllocationFree(t *testing.T) {
	c := testCluster(t, 4)
	// Two running VMs, hysteresis too high to move them: the solver
	// scores the full matrix but emits nothing.
	a := runningVM(1, 300, 15, c, 0)
	b := runningVM(2, 100, 5, c, 1)
	cfg := SBConfig()
	cfg.MigrationGainMin = 1e6
	sch := mustScheduler(cfg)
	ctx := ctxFor(c, nil, []*vm.VM{a, b})
	sch.Schedule(ctx) // warm up scratch buffers
	allocs := testing.AllocsPerRun(50, func() {
		if acts := sch.Schedule(ctx); len(acts) != 0 {
			t.Fatalf("unexpected actions: %v", acts)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state round allocates %.1f objects, want 0", allocs)
	}

	// A queued VM the round places: nothing actuates it, so every
	// round finds the moved row and the touched column dirty,
	// re-scores them and places it again.
	ctx.Queue = []*vm.VM{queuedVM(0, 100, 5)}
	sch.Schedule(ctx)
	carried := sch.Stats.CarryRounds
	allocs = testing.AllocsPerRun(50, func() {
		if acts := sch.Schedule(ctx); len(acts) != 1 {
			t.Fatalf("actions = %v, want one placement", acts)
		}
	})
	if allocs != 0 {
		t.Errorf("acting carry round allocates %.1f objects, want 0", allocs)
	}
	if sch.Stats.CarryRounds-carried != 51 || sch.Stats.StaleRows == 0 {
		t.Errorf("the acting rounds did not carry and re-score")
	}

	// Traced, the acting round lends its action records to the sink
	// rather than copying them for it.
	sink := &lentActions{}
	sch.Tracer = sink
	sch.Schedule(ctx)
	allocs = testing.AllocsPerRun(50, func() { sch.Schedule(ctx) })
	if allocs != 0 || sink.actions != 51 {
		t.Errorf("traced acting round allocates %.1f objects with %d of 51 actions lent, want 0",
			allocs, sink.actions)
	}
}

// lentActions is a TraceSink at TraceActions that keeps nothing: it
// counts the action records lent to it, after the first round's.
type lentActions struct{ rounds, actions int }

func (l *lentActions) Verbosity() obs.Verbosity { return obs.TraceActions }
func (l *lentActions) Emit(rt obs.RoundTrace) {
	if l.rounds++; l.rounds > 1 {
		l.actions += len(rt.Actions)
	}
}
