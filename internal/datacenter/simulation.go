package datacenter

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"time"
	"unsafe"

	"energysched/internal/cluster"
	"energysched/internal/core"
	"energysched/internal/metrics"
	"energysched/internal/obs/series"
	"energysched/internal/policy"
	"energysched/internal/power"
	"energysched/internal/simkit"
	"energysched/internal/sla"
	"energysched/internal/vm"
	"energysched/internal/workload"
	"energysched/internal/xen"
)

// nodeRT is the per-node runtime bookkeeping the harness keeps on top
// of the cluster model: power metering and the time of the last
// progress advance. Simulation.rt holds one per node, by ID.
type nodeRT struct {
	node *cluster.Node
	// class indexes Simulation.classTmpl: the node's slot in a sample's
	// per-class breakdown.
	class       int
	meter       power.Meter
	lastAdvance float64
	failTimer   *simkit.Timer
	// eff is the current thrash efficiency: the useful fraction of
	// each granted CPU cycle (1 unless the node is overcommitted).
	eff float64

	// Allocator memo: the power state, owner set and demand vector the
	// Xen allocator last ran for on this node. When an actuation
	// recomputes the node and nothing in this signature changed, the
	// allocations, efficiency, draw and completion ETAs are all
	// unchanged too, and recomputeNode only accrues progress (see the
	// ROADMAP PR 2 note on per-round recomputeNode cost).
	memoValid   bool
	memoState   cluster.PowerState
	memoOwners  []int // owner VM IDs, in demand order
	memoDemands []xen.Demand
}

// Simulation is one run in progress. Build with New, execute with
// Run or RunSource, then read the Report.
type Simulation struct {
	cfg      Config
	eng      *simkit.Engine
	cluster  *cluster.Cluster
	pm       *core.PowerManager
	adaptive *core.Adaptive
	rt       []nodeRT // by node ID; call sites take &s.rt[id]
	// classTmpl is a sample's per-class breakdown before any node is
	// counted — one zeroed entry per node class, named, in declaration
	// order — fixed at construction and copied by every SampleAt.
	// tickClasses is the buffer the tick's sample is built in.
	classTmpl   []series.ClassSample
	tickClasses []series.ClassSample
	// Event handlers, bound once in New: scheduling an event hands the
	// engine one of these plus the *vm.VM or *cluster.Node it acts on, so
	// no event allocates a closure or a method value.
	arrivalFn, createdFn, migratedFn, completionFn func(any) // payload *vm.VM
	bootedFn, failureFn, repairedFn                func(any) // payload *cluster.Node
	tickFn, checkpointFn                           func()

	queue []*vm.VM // FIFO virtual-host queue
	vms   []*vm.VM // all VMs ever created, by ID
	// vmSlab is the chunk Inject carves the next VM record from. A full
	// chunk is replaced, never grown, so no record ever moves and every
	// *vm.VM handed out stays valid.
	vmSlab []vm.VM
	// activeVMs holds the VMs occupying node resources (Creating,
	// Running, Migrating) in ID order — what filtering vms by Active()
	// would give, maintained at place/complete/requeue so a round never
	// walks every VM ever admitted.
	activeVMs []*vm.VM

	// completionTimer tracks the pending completion event per VM ID.
	completionTimer map[int]*simkit.Timer

	creation  *simkit.Stream
	migration *simkit.Stream
	failures  *simkit.Stream

	workAvg  *metrics.TimeAvg
	onAvg    *metrics.TimeAvg
	satAgg   metrics.Welford
	delayAgg metrics.Welford

	cpuSeconds  float64 // job CPU·s actually executed
	migrations  int
	failCount   int
	completed   int
	active      int // VMs currently Running or Migrating, maintained on state transitions
	roundActive bool
	started     bool
	sealed      bool
	done        bool

	// ctx and ctxQueue are the per-round policy context and its queue
	// copy, reused so steady-state rounds don't allocate.
	ctx      policy.Context
	ctxQueue []*vm.VM

	// ownScratch and demScratch are recomputeNode's demand-build
	// buffers and allocScratch the allocator's result buffer, accScratch
	// is accrue's owner buffer and onScratch is checkpointTick's node
	// buffer, reused so actuations don't allocate.
	ownScratch   []*vm.VM
	demScratch   []xen.Demand
	allocScratch []float64
	accScratch   []*vm.VM
	onScratch    []*cluster.Node

	// PowerTrace, when non-nil, receives (time, totalWatts) samples
	// at every power change (used by the validation experiment).
	PowerTrace func(t, watts float64)

	// Sampler, when non-nil, receives one accounting sample at every
	// housekeeping tick (see SampleAt). Samples are pure reads of the
	// simulation's virtual-time state, so attaching a sampler never
	// alters the trajectory — the same observer contract PowerTrace
	// keeps. smp.Classes is borrowed: it is valid during the call only,
	// and a sampler that keeps it copies it (series.Store.Add does).
	Sampler func(smp series.Sample)

	// AttributeEnergy, when set, splits each node's energy across its
	// hosted VMs in proportion to their allocations as progress
	// accrues, into the write-only vm.VM.EnergyKWh field. Nothing in
	// the scheduling path reads it back, and no existing accumulator's
	// float operations change, so enabling it leaves reports
	// byte-identical.
	AttributeEnergy bool
}

// New builds a simulation from the configuration.
func New(cfg Config) (*Simulation, error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cl, err := cluster.New(cfg.Classes)
	if err != nil {
		return nil, err
	}
	pm, err := core.NewPowerManager(cfg.LambdaMin, cfg.LambdaMax, cfg.MinExec)
	if err != nil {
		return nil, err
	}
	s := &Simulation{
		cfg:             cfg,
		eng:             simkit.NewEngine(),
		cluster:         cl,
		pm:              pm,
		completionTimer: make(map[int]*simkit.Timer),
		creation:        simkit.NewStream(cfg.Seed, "creation"),
		migration:       simkit.NewStream(cfg.Seed, "migration"),
		failures:        simkit.NewStream(cfg.Seed, "failures"),
	}
	if cfg.AdaptiveTarget > 0 {
		ad, err := core.NewAdaptive(pm)
		if err != nil {
			return nil, err
		}
		ad.TargetS = cfg.AdaptiveTarget
		s.adaptive = ad
	}
	s.arrivalFn = func(a any) { s.onArrival(a.(*vm.VM)) }
	s.createdFn = func(a any) { s.onCreated(a.(*vm.VM)) }
	s.migratedFn = func(a any) { s.onMigrated(a.(*vm.VM)) }
	s.completionFn = func(a any) { s.onCompletion(a.(*vm.VM)) }
	s.bootedFn = func(a any) { s.onBooted(a.(*cluster.Node)) }
	s.failureFn = func(a any) { s.onFailure(a.(*cluster.Node)) }
	s.repairedFn = func(a any) { s.onRepaired(a.(*cluster.Node)) }
	s.tickFn = s.tick
	s.checkpointFn = s.checkpointTick
	classIdx := make(map[*cluster.Class]int)
	s.rt = make([]nodeRT, len(cl.Nodes))
	for i, n := range cl.Nodes {
		if cfg.StartOnline {
			n.SetState(cluster.On)
		}
		ci, ok := classIdx[n.Class]
		if !ok {
			ci = len(s.classTmpl)
			classIdx[n.Class] = ci
			s.classTmpl = append(s.classTmpl, series.ClassSample{Class: n.Class.Name})
		}
		rt := &s.rt[i]
		rt.node, rt.class, rt.eff = n, ci, 1
		rt.meter.Observe(0, n.Watts(0))
	}
	s.workAvg = metrics.NewTimeAvg(0, 0)
	s.onAvg = metrics.NewTimeAvg(0, 0)
	return s, nil
}

// Engine exposes the simulation engine (tests drive partial runs).
func (s *Simulation) Engine() *simkit.Engine { return s.eng }

// Cluster exposes the cluster model.
func (s *Simulation) Cluster() *cluster.Cluster { return s.cluster }

// Policy exposes the scheduling policy driving this simulation (the
// server harness reads solver statistics off it).
func (s *Simulation) Policy() policy.Policy { return s.cfg.Policy }

// QueueLen returns the number of VMs waiting in the virtual host.
func (s *Simulation) QueueLen() int { return len(s.queue) }

// AppendQueue appends the queued VMs in FIFO order to buf and returns
// it (an observability snapshot for the server harness).
func (s *Simulation) AppendQueue(buf []*vm.VM) []*vm.VM {
	return append(buf, s.queue...)
}

// VMs returns all VMs materialized so far (indexed by ID).
func (s *Simulation) VMs() []*vm.VM { return s.vms }

// Now returns the current virtual time in seconds.
func (s *Simulation) Now() float64 { return s.eng.Now() }

// WattsNow returns the datacenter's instantaneous power draw.
func (s *Simulation) WattsNow() float64 { return s.currentWatts() }

// NodeWatts returns node id's most recently observed draw.
func (s *Simulation) NodeWatts(id int) float64 { return s.rt[id].meter.CurrentWatts() }

// Run executes the configured trace to completion (or cfg.MaxTime) and
// returns the report: RunSource over the trace.
func (s *Simulation) Run() (metrics.Report, error) {
	if s.cfg.Trace == nil || len(s.cfg.Trace.Jobs) == 0 {
		return metrics.Report{}, fmt.Errorf("datacenter: config needs a non-empty trace")
	}
	return s.RunSource(workload.NewTraceSource(s.cfg.Trace))
}

// RunSource is the offline ingestion loop: every offline run — from a
// file, the generator or a built trace — goes through it. Start, then
// for each job pulled from src Inject it and StepBefore the admission
// watermark (the largest submit time seen), then Drain; the engine
// only ever holds the current instant's arrivals, so a week-long
// source is never materialized. Because Inject gives admissions
// injection priority and the watermark trails the submit times, the
// run is byte-identical to preloading every job before Start — the
// online-equals-offline contract the fleet admission path and its WAL
// replay rest on. The config's Trace is not consulted.
func (s *Simulation) RunSource(src workload.JobSource) (metrics.Report, error) {
	s.Start()
	count := 0
	var watermark float64
	for {
		j, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return metrics.Report{}, err
		}
		if _, err := s.Inject(j); err != nil {
			return metrics.Report{}, err
		}
		count++
		if j.Submit > watermark {
			watermark = j.Submit
			s.StepBefore(watermark)
		}
	}
	if count == 0 {
		return metrics.Report{}, fmt.Errorf("datacenter: streaming workload yielded no jobs")
	}
	return s.Drain(), nil
}

// vmChunk is the length of a VM slab chunk: as many records as fit in
// Go's 8 KiB size class (36 of 224 B), so a chunk's allocation wastes
// less than one record. A rounder 64 would take 14 336 B, which the
// allocator rounds up to 16 KiB.
const vmChunk = 8192 / int(unsafe.Sizeof(vm.VM{}))

// Inject admits one job into the simulation: it validates the job,
// materializes its VM (IDs are assigned in admission order) and
// schedules the arrival with injection priority (simkit.AtFront), so
// a job admitted online before the clock reaches its submit time is
// processed exactly as if it had been part of a pre-loaded trace.
// Submit times in the engine's past and admissions after Seal are
// rejected.
func (s *Simulation) Inject(j workload.Job) (*vm.VM, error) {
	if s.sealed {
		return nil, fmt.Errorf("datacenter: workload is sealed, job %d rejected", j.ID)
	}
	if err := j.Validate(); err != nil {
		return nil, err
	}
	if j.Submit < s.eng.Now() {
		return nil, fmt.Errorf("datacenter: job %d submits at %.3f, before virtual now %.3f",
			j.ID, j.Submit, s.eng.Now())
	}
	if len(s.vmSlab) == cap(s.vmSlab) {
		s.vmSlab = make([]vm.VM, 0, vmChunk)
	}
	s.vmSlab = append(s.vmSlab, vm.Make(len(s.vms), vm.Requirements{
		CPU: j.CPU, Mem: j.Mem, Arch: j.Arch, Hypervisor: j.Hypervisor,
	}, j.Submit, j.Duration, j.Deadline()))
	v := &s.vmSlab[len(s.vmSlab)-1]
	v.Name = j.Name
	v.FaultTolerance = j.FaultTolerance
	s.vms = append(s.vms, v)
	s.eng.AtFrontCall(j.Submit, s.arrivalFn, v)
	return v, nil
}

// Start arms the background machinery: failure processes for nodes
// that are already online, the housekeeping tick and the checkpoint
// tick. RunSource calls it before its first Inject; an online harness
// calls it once before driving the engine stepwise. Start is
// idempotent.
func (s *Simulation) Start() {
	if s.started {
		return
	}
	s.started = true
	for _, n := range s.cluster.Nodes {
		if n.State == cluster.On {
			s.armFailure(n)
		}
	}
	s.eng.At(s.eng.Now(), s.tickFn)
	if s.cfg.CheckpointInterval > 0 {
		s.eng.At(s.eng.Now()+s.cfg.CheckpointInterval, s.checkpointFn)
	}
}

// Seal declares the workload complete: no further Inject is accepted,
// and once every admitted VM completes, the engine stops and the
// simulation is done. Sealing with every admitted job already
// completed (including the zero-job case) marks it done immediately.
func (s *Simulation) Seal() {
	if s.sealed {
		return
	}
	s.sealed = true
	if s.completed == len(s.vms) {
		s.done = true
	}
}

// Sealed reports whether the workload has been sealed.
func (s *Simulation) Sealed() bool { return s.sealed }

// Done reports whether a sealed simulation has completed every
// admitted job.
func (s *Simulation) Done() bool { return s.done }

// StepBefore fires every event scheduled strictly before virtual time
// t and advances the clock to t (see simkit.Engine.RunBefore). An
// online harness keeps t at its admission watermark — the largest
// submit time admitted so far — so jobs can still be injected at the
// boundary instant with full determinism.
func (s *Simulation) StepBefore(t float64) float64 {
	return s.eng.RunBefore(t)
}

// Drain seals the workload and runs the remaining events until every
// admitted job completes (or the safety horizon passes), then returns
// the final report — the tail of RunSource, callable from an online
// harness.
func (s *Simulation) Drain() metrics.Report {
	s.Seal()
	if !s.done {
		s.eng.Run(s.horizon())
	}
	// Close the books: commit progress and energy through the final
	// instant (this also materializes Progress on any VM cut off by a
	// MaxTime horizon, for the per-job CSV). ReportAt then reads the
	// same values with zero-width extensions.
	end := s.eng.Now()
	for i := range s.rt {
		rt := &s.rt[i]
		s.advanceNode(rt, end)
		rt.meter.Close(end)
	}
	return s.ReportAt(end)
}

func (s *Simulation) horizon() float64 {
	h := s.cfg.MaxTime
	if h <= 0 {
		// Safety net relative to the current clock (an online harness
		// may already sit at a large watermark); Stop() fires first.
		h = s.eng.Now() + 400*24*3600
	}
	if now := s.eng.Now(); h < now {
		// Never hand the engine a horizon behind the clock: jobs
		// admitted past MaxTime would otherwise rewind virtual time
		// and panic the progress/energy accounting.
		h = now
	}
	return h
}

// ReportAt returns the paper metrics as of virtual time t (extending
// every node's progress and energy integral to t) WITHOUT mutating
// any simulation state. The purity matters beyond hygiene: interim
// reports and metric scrapes must not split the float integration
// intervals of the progress/energy accumulators, or a served report
// would perturb the final report's last ulps and break the
// online-equals-offline byte-identity contract.
func (s *Simulation) ReportAt(t float64) metrics.Report {
	return metrics.Report{
		Policy:        s.cfg.Policy.Name(),
		LambdaMin:     s.cfg.LambdaMin * unitPercent(s.cfg.LambdaMin),
		LambdaMax:     s.cfg.LambdaMax * unitPercent(s.cfg.LambdaMax),
		AvgWorking:    s.workAvg.Mean(t),
		AvgOnline:     s.onAvg.Mean(t),
		CPUHours:      s.cpuSecondsAt(t) / 100 / 3600,
		EnergyKWh:     s.totalKWhAt(t),
		Satisfaction:  s.satAgg.Mean(),
		Delay:         s.delayAgg.Mean(),
		Migrations:    s.migrations,
		JobsCompleted: s.completed,
		JobsTotal:     len(s.vms),
		Failures:      s.failCount,
		SimEnd:        t,
	}
}

func unitPercent(v float64) float64 {
	if v <= 1 {
		return 100
	}
	return 1
}

// totalKWhAt extends every meter's integral to t without mutation.
func (s *Simulation) totalKWhAt(t float64) float64 {
	var kwh float64
	for i := range s.rt {
		kwh += s.rt[i].meter.KWhAt(t)
	}
	return kwh
}

// cpuSecondsAt extends the executed-work accumulator to t without
// mutation, mirroring advanceNode's accrual exactly (same terms, same
// order) so the result is bit-identical to committing the advance.
func (s *Simulation) cpuSecondsAt(t float64) float64 {
	acc := s.cpuSeconds
	for i := range s.rt {
		acc = s.accrue(&s.rt[i], t, false, acc)
	}
	return acc
}

// --- progress and power accounting ---

// advanceNode accrues job progress and leaves the meter positioned at
// time t with its previous draw (the caller recomputes the new draw).
func (s *Simulation) advanceNode(rt *nodeRT, t float64) {
	s.cpuSeconds = s.accrue(rt, t, true, s.cpuSeconds)
	rt.lastAdvance = t
}

// accrue adds the CPU-seconds each hosted VM executes on rt between
// rt.lastAdvance and t to acc, committing them to the VMs' Progress
// when commit is set, and returns the new acc. Terms are accumulated
// in ascending VM-ID order — NOT map order — so the float sum is
// identical across runs and across simulation instances; the
// online/offline/restore byte-identity contract rests on this.
func (s *Simulation) accrue(rt *nodeRT, t float64, commit bool, acc float64) float64 {
	dt := t - rt.lastAdvance
	if dt < 0 {
		panic(fmt.Sprintf("datacenter: node %d time going backwards", rt.node.ID))
	}
	if dt == 0 {
		return acc
	}
	// The accruing set is exactly the allocator's owner set (a
	// migrating-in VM runs on the source for now); share the one
	// definition so the two can never drift apart.
	buf := s.appendOwners(rt, s.accScratch[:0])
	// Energy attribution: the meter still holds the draw that applied
	// over [lastAdvance, t] (recomputeNode observes the new level only
	// after advancing), so the interval's energy splits across the
	// owners by allocation share. This is a pure addition on top of
	// the existing terms — Progress and acc see the same operations in
	// the same order whether attribution is on or off.
	var share float64
	if commit && s.AttributeEnergy && len(buf) > 0 {
		var sumAlloc float64
		for _, v := range buf {
			sumAlloc += v.Alloc
		}
		if sumAlloc > 0 {
			share = rt.meter.CurrentWatts() * dt / 3.6e6 / sumAlloc
		}
	}
	for _, v := range buf {
		term := v.Alloc * rt.eff * dt
		if commit {
			v.Progress += term
			if share > 0 {
				v.EnergyKWh += share * v.Alloc
			}
		}
		acc += term
	}
	s.accScratch = buf[:0]
	return acc
}

// recomputeNode re-runs the Xen allocator on a node after any change
// in its hosted set or operations, refreshes the power draw, and
// reschedules completion events for its running VMs. When the node's
// power state, owner set and demand vector are unchanged since the
// previous recompute, the allocation, efficiency, draw and completion
// ETAs are unchanged too and everything past the progress accrual is
// skipped. A PowerTrace subscriber still receives its sample on the
// skip path (same cadence, same values as a full recompute), so
// attaching an observer never alters the simulation's trajectory.
func (s *Simulation) recomputeNode(rt *nodeRT) {
	now := s.eng.Now()
	s.advanceNode(rt, now)
	n := rt.node

	// Build the demand set: guest domains hosted here plus dom0
	// service work for in-flight operations.
	owners := s.appendOwners(rt, s.ownScratch[:0])
	demands := s.demScratch[:0]
	for _, v := range owners {
		demands = append(demands, xen.Demand{Weight: v.Weight, Cap: v.Req.CPU, Want: v.Req.CPU})
	}
	ops := n.CreatingOps + n.MigratingOps
	for i := 0; i < ops; i++ {
		demands = append(demands, xen.Demand{Weight: s.cfg.OpWeight, Cap: s.cfg.OpOverheadCPU, Want: s.cfg.OpOverheadCPU})
	}
	s.ownScratch, s.demScratch = owners[:0], demands[:0]

	if rt.memoValid && rt.memoMatches(n.State, owners, demands) {
		// The draw is unchanged; the meter extrapolates the current
		// level, so no observation is needed.
		if s.PowerTrace != nil {
			s.PowerTrace(now, s.currentWatts())
		}
		return
	}

	var util float64
	rt.eff = 1
	if n.State == cluster.On {
		alloc := xen.Allocate(n.Class.CPU, demands, s.allocScratch)
		s.allocScratch = alloc
		for i, v := range owners {
			v.Alloc = alloc[i]
		}
		for _, a := range alloc {
			util += a
		}
		// Thrash: overcommit wastes a fraction of every cycle.
		if demand := xen.TotalDemand(demands); demand > n.Class.CPU && s.cfg.ThrashFactor > 0 {
			rt.eff = 1 / (1 + s.cfg.ThrashFactor*(demand/n.Class.CPU-1))
		}
	} else {
		for _, v := range owners {
			v.Alloc = 0
		}
	}
	rt.memoize(n.State, owners, demands)

	watts := n.Watts(util)
	rt.meter.Observe(now, watts)
	if s.PowerTrace != nil {
		s.PowerTrace(now, s.currentWatts())
	}

	// Refresh completion events.
	for _, v := range owners {
		s.rescheduleCompletion(v)
	}
}

// appendOwners collects the node's demand-set owners — guest domains
// hosted here in Running or Migrating state — into buf, in ID order
// (the order of the node's VM set).
func (s *Simulation) appendOwners(rt *nodeRT, buf []*vm.VM) []*vm.VM {
	n := rt.node
	for _, v := range n.VMs {
		if v.Host != n.ID {
			continue
		}
		if v.State != vm.Running && v.State != vm.Migrating {
			continue
		}
		buf = append(buf, v)
	}
	return buf
}

func vmByID(a, b *vm.VM) int { return cmp.Compare(a.ID, b.ID) }

// memoMatches reports whether the node's allocator inputs are
// unchanged since the last full recompute.
func (rt *nodeRT) memoMatches(state cluster.PowerState, owners []*vm.VM, demands []xen.Demand) bool {
	if state != rt.memoState || len(owners) != len(rt.memoOwners) || len(demands) != len(rt.memoDemands) {
		return false
	}
	for i, v := range owners {
		if v.ID != rt.memoOwners[i] {
			return false
		}
	}
	for i, d := range demands {
		if d != rt.memoDemands[i] {
			return false
		}
	}
	return true
}

// memoize records the allocator inputs the node was last computed for.
func (rt *nodeRT) memoize(state cluster.PowerState, owners []*vm.VM, demands []xen.Demand) {
	rt.memoValid = true
	rt.memoState = state
	rt.memoOwners = rt.memoOwners[:0]
	for _, v := range owners {
		rt.memoOwners = append(rt.memoOwners, v.ID)
	}
	rt.memoDemands = append(rt.memoDemands[:0], demands...)
}

func (s *Simulation) currentWatts() float64 {
	var w float64
	for i := range s.rt {
		w += s.rt[i].meter.CurrentWatts()
	}
	return w
}

func (s *Simulation) rescheduleCompletion(v *vm.VM) {
	old := s.completionTimer[v.ID]
	if v.State != vm.Running && v.State != vm.Migrating {
		s.cancelCompletion(v, old)
		return
	}
	if v.Alloc <= 0 || v.Host < 0 {
		s.cancelCompletion(v, old)
		return // starved; a later recompute will revisit
	}
	rate := v.Alloc * s.rt[v.Host].eff
	if rate <= 0 {
		s.cancelCompletion(v, old)
		return
	}
	eta := s.eng.Now() + v.Remaining()/rate
	if old.Pending() && old.Time() == eta {
		return // allocation unchanged: the scheduled completion is still exact
	}
	s.cancelCompletion(v, old)
	s.completionTimer[v.ID] = s.eng.ScheduleCall(eta, s.completionFn, v)
}

// cancelCompletion cancels and forgets t, v's entry in completionTimer
// (nil when v has no completion event pending).
func (s *Simulation) cancelCompletion(v *vm.VM, t *simkit.Timer) {
	if t != nil {
		t.Cancel()
		delete(s.completionTimer, v.ID)
	}
}

// touchCounts refreshes the time-weighted node-count averages.
func (s *Simulation) touchCounts() {
	working, online := s.cluster.Counts()
	now := s.eng.Now()
	s.workAvg.Observe(now, float64(working))
	s.onAvg.Observe(now, float64(online))
}

// setActive files v in, or removes it from, the active-VM list when
// its state crosses the Active() boundary.
func (s *Simulation) setActive(v *vm.VM, active bool) {
	i, found := slices.BinarySearchFunc(s.activeVMs, v, vmByID)
	switch {
	case active && !found:
		s.activeVMs = slices.Insert(s.activeVMs, i, v)
	case !active && found:
		s.activeVMs = slices.Delete(s.activeVMs, i, i+1)
	}
}

// --- event handlers ---

func (s *Simulation) onArrival(v *vm.VM) {
	s.queue = append(s.queue, v)
	s.emit(EvArrival, v.ID, -1, -1)
	s.round()
}

func (s *Simulation) onCompletion(v *vm.VM) {
	delete(s.completionTimer, v.ID)
	rt := &s.rt[v.Host]
	s.advanceNode(rt, s.eng.Now())
	if v.Remaining() > 1e-6 {
		// Stale event (allocation changed after scheduling); the
		// recompute that changed it also rescheduled us, so this
		// handler only fires at a true completion — defensive guard.
		s.rescheduleCompletion(v)
		return
	}
	if v.State == vm.Migrating {
		// Completing mid-migration: the job is done; tear down the
		// reservation on the destination too.
		if v.MigrateTo >= 0 {
			dst := s.cluster.Node(v.MigrateTo)
			dst.RemoveVM(v)
			dst.EndMigrate()
			rt.node.EndMigrate()
			v.MigrateTo = -1
			s.recomputeNode(&s.rt[dst.ID])
		}
	}
	rt.node.RemoveVM(v)
	s.active--
	s.setActive(v, false)
	v.State = vm.Completed
	v.Finish = s.eng.Now()
	v.Alloc = 0
	v.Touch()
	s.completed++
	s.emit(EvCompleted, v.ID, rt.node.ID, -1)

	exec := v.ExecTime()
	sat := sla.Satisfaction(exec, v.Deadline-v.Submit)
	s.satAgg.Add(sat)
	s.delayAgg.Add(sla.Delay(exec, v.Duration))
	if s.adaptive != nil {
		s.adaptive.Add(sat)
	}

	s.recomputeNode(rt)
	s.round()

	if s.sealed && s.completed == len(s.vms) {
		s.done = true
		s.eng.Stop()
	}
}

// tick is the periodic housekeeping round.
func (s *Simulation) tick() {
	if s.adaptive != nil {
		s.adaptive.Tick(s.eng.Now())
	}
	s.round()
	if s.Sampler != nil {
		// Sample after the round so the observation reflects the
		// tick's power-management and placement decisions. SampleAt is
		// pure, so the sampler sees — never steers — the trajectory.
		smp := s.SampleAt(s.eng.Now(), s.tickClasses)
		s.tickClasses = smp.Classes
		s.Sampler(smp)
	}
	if TickHook != nil {
		TickHook(s)
	}
	if !s.done {
		s.eng.After(s.cfg.TickInterval, s.tickFn)
	}
}

func (s *Simulation) checkpointTick() {
	// Progress is materialized lazily at node events; bring every
	// node that can host a running VM — the On ones, in the ID order
	// the executed-work sum has always been taken in — current so the
	// checkpoint captures real progress.
	now := s.eng.Now()
	s.onScratch = s.cluster.AppendOnline(s.onScratch[:0])
	for _, n := range s.onScratch {
		s.advanceNode(&s.rt[n.ID], now)
	}
	for _, v := range s.activeVMs {
		if v.State == vm.Running {
			v.Checkpoint = v.Progress
		}
	}
	if !s.done {
		s.eng.After(s.cfg.CheckpointInterval, s.checkpointFn)
	}
}

// round runs one scheduling round: power management first, then the
// policy, then action application.
func (s *Simulation) round() {
	if s.roundActive {
		// Rounds are not reentrant; state changes inside a round
		// trigger follow-up work in the same pass.
		return
	}
	s.roundActive = true
	defer func() { s.roundActive = false }()

	// Power manager.
	on, off := s.pm.Plan(s.eng.Now(), s.cluster, s.queue)
	for _, n := range off {
		s.turnOff(n)
	}
	for _, n := range on {
		s.turnOn(n)
	}

	// Policy. The queue is copied because applying a Place mutates
	// s.queue while actions are still being iterated; the active list
	// is only read until Schedule returns, so the policy sees it live.
	s.ctxQueue = append(s.ctxQueue[:0], s.queue...)
	s.ctx = policy.Context{
		Now:       s.eng.Now(),
		Cluster:   s.cluster,
		Queue:     s.ctxQueue,
		Active:    s.activeVMs,
		LambdaMin: s.pm.LambdaMin,
		LambdaMax: s.pm.LambdaMax,
	}
	var roundStart time.Time
	if s.cfg.RoundTimer != nil {
		roundStart = time.Now()
	}
	actions := s.cfg.Policy.Schedule(&s.ctx)
	if s.cfg.RoundTimer != nil {
		s.cfg.RoundTimer(time.Since(roundStart).Seconds())
	}
	for _, a := range actions {
		switch a.Kind {
		case policy.KindPlace:
			s.applyPlace(a)
		case policy.KindMigrate:
			s.applyMigrate(a)
		}
	}
	s.touchCounts()
}
