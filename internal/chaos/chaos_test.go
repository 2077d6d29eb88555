package chaos_test

import (
	"errors"
	"io"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"energysched"
	"energysched/internal/chaos"
	"energysched/internal/datacenter"
	"energysched/internal/fleet"
	"energysched/internal/obs"
	"energysched/internal/obs/series"
	"energysched/internal/workload"
)

// checkEveryTick asserts datacenter.CheckInvariants — state index ≡
// sweep, active-VM list ≡ filter, no VM on a non-On node — at every
// housekeeping tick of every simulation the test runs from here on,
// including the ones fleets drive on their own goroutines.
func checkEveryTick(t *testing.T) {
	t.Helper()
	var mu sync.Mutex
	ticks, failed := 0, false
	datacenter.TickHook = func(s *datacenter.Simulation) {
		err := s.CheckInvariants()
		mu.Lock()
		defer mu.Unlock()
		ticks++
		if err != nil && !failed {
			failed = true
			t.Errorf("tick at t=%.0f: %v", s.Now(), err)
		}
	}
	// Cleanups run after the test's deferred fleet Closes.
	t.Cleanup(func() {
		datacenter.TickHook = nil
		if ticks == 0 {
			t.Error("the tick hook never ran")
		}
	})
}

// TestScenario10kByteIdentity is the acceptance oracle at scale: the
// canonical 10k-node heterogeneous scenario — a two-day streaming
// trace with three one-shot node crashes and a flapping node armed as
// engine timers — must produce byte-identical reports when the
// admission clock is jittered into seeded partial steps, and when every
// observer is armed. Any divergence means scale or faults leaked
// nondeterminism into the round engine.
func TestScenario10kByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node scenario; skipped in -short")
	}
	checkEveryTick(t)
	s := chaos.Scenario10k()
	serial, err := s.Run(false)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Failures < chaos.Crashes {
		t.Fatalf("only %d node failures recorded, want >= %d injected crashes",
			serial.Failures, chaos.Crashes)
	}
	if serial.JobsCompleted == 0 || serial.JobsCompleted != serial.JobsTotal {
		t.Fatalf("scenario completed %d of %d jobs", serial.JobsCompleted, serial.JobsTotal)
	}
	jittered, err := s.Run(true)
	if err != nil {
		t.Fatalf("jittered-clock: %v", err)
	}
	if jittered != serial {
		t.Fatalf("jittered-clock diverged from serial run:\n got %+v\nwant %+v", jittered, serial)
	}

	// Maximum-verbosity tracing is a write-only side channel: the
	// traced run's report is byte-identical to the untraced one, while
	// the ring actually recorded every round with per-action score
	// terms.
	ring := obs.NewTraceRing(obs.TraceScores, 4096)
	traced, err := s.RunWithTrace(false, ring)
	if err != nil {
		t.Fatalf("traced-scores: %v", err)
	}
	if traced != serial {
		t.Fatalf("traced-scores diverged from serial run:\n got %+v\nwant %+v", traced, serial)
	}
	if ring.Seq() == 0 {
		t.Fatal("scores-verbosity run recorded no traces")
	}

	// Every collector at once — scores-verbosity tracing, the
	// accounting sampler, and per-job energy attribution — is still a
	// write-only side channel: the fully observed run matches the bare
	// one byte for byte while the series store actually recorded a
	// sample per housekeeping tick.
	ring2 := obs.NewTraceRing(obs.TraceScores, 4096)
	store := series.NewStore(0)
	observed, err := s.RunWithObservers(false, ring2, store.Add)
	if err != nil {
		t.Fatalf("observed: %v", err)
	}
	if observed != serial {
		t.Fatalf("fully observed run diverged from serial run:\n got %+v\nwant %+v", observed, serial)
	}
	if store.Count() == 0 {
		t.Fatal("observed run recorded no accounting samples")
	}
	if smps := store.Samples(0); len(smps) == 0 || smps[len(smps)-1].KWh <= 0 || smps[len(smps)-1].Completed == 0 {
		t.Fatalf("accounting samples look empty: %+v", smps)
	}
}

// offlineReport is the online ≡ offline contract's reference for a
// scenario: the report of energysched.RunStream over the scenario's
// stream, as a drained fleet serves it, and the stream's job count.
func offlineReport(t *testing.T, s chaos.Scenario, classes []energysched.NodeClass) (energysched.ServiceReport, int) {
	t.Helper()
	src, err := workload.NewGeneratorSource(s.GeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := energysched.RunStream(energysched.Options{Policy: "SB", Seed: s.Seed, Classes: classes, Failures: true}, src)
	if err != nil {
		t.Fatal(err)
	}
	return fleet.ServiceReportOf(res, true), res.JobsTotal
}

// TestScenario10kFleetKillRecoverUnderFaults is the durable half of
// the acceptance oracle: the same 10k-node two-day trace streamed into
// a compacting WAL-backed fleet (organic reliability failures on) with
// two live WAL faults mid-stream — a disk-full append and a torn write
// — and a process kill between them, plus a kill between a
// compaction's temp write and its rename, must drain to a report
// byte-identical to the offline run of the identical stream.
// Crash/recover and live faults collapse into one == comparison.
func TestScenario10kFleetKillRecoverUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node scenario; skipped in -short")
	}
	checkEveryTick(t)
	s := chaos.Scenario10k()
	classes := energysched.ScaleClasses(s.Nodes)

	spec := func(j workload.Job) energysched.JobSpec {
		submit := j.Submit
		return energysched.JobSpec{
			Name: j.Name, CPU: j.CPU, Mem: j.Mem, Duration: j.Duration,
			Submit: &submit, DeadlineFactor: j.DeadlineFactor,
			FaultTolerance: j.FaultTolerance, Arch: j.Arch, Hypervisor: j.Hypervisor,
		}
	}

	// Reference: the offline run of the same stream.
	want, total := offlineReport(t, s, classes)

	// Chaos run: durable, with a scripted disk-full append
	// before the kill and a torn write after recovery. Both faults
	// must reject cleanly (full rollback) so a single retry readmits
	// the job and the acknowledged stream stays identical.
	// Skips are consumed sequentially (a step counts only calls made
	// after its predecessor fired): the disk-full lands ~1/4 into the
	// stream and the torn write ~1/2 a stream later, i.e. ~3/4 in —
	// one fault on each side of the mid-stream kill.
	// The first compaction's rename fails as a kill there would leave it:
	// the new timeline written to a temp file, wal.log still the old one.
	script := &chaos.FaultScript{}
	script.FailOnce("append", total/4, errors.New("no space left on device"))
	script.FailOnce("append", total/2, fleet.ErrTornWrite)
	script.FailOnce("rename", 0, errors.New("killed before the rename"))
	hook := script.Hook()
	renameFailed := false // set on the fleet's loop, read after the submit it served
	dir := filepath.Join(t.TempDir(), "chaos")
	cfg := fleet.Config{
		Sched: fleet.Sched{Policy: "SB", Seed: s.Seed, Classes: classes, Failures: true},
		Dir:   dir, SnapshotInterval: total / 5, WALSync: fleet.SyncOS,
		WALFault: func(op string) error {
			err := hook(op)
			renameFailed = renameFailed || (op == "rename" && err != nil)
			return err
		},
	}
	unpublished := func() []string {
		stale, _ := filepath.Glob(filepath.Join(dir, "wal.log.tmp*"))
		return stale
	}
	f, err := fleet.Open("chaos", cfg)
	if err != nil {
		t.Fatal(err)
	}
	retried := 0
	submitOne := func(j workload.Job) {
		t.Helper()
		if _, err := f.Submit(spec(j)); err != nil {
			// A live WAL fault fired; the rollback must have been
			// clean, so the retry has to succeed.
			if _, err2 := f.Submit(spec(j)); err2 != nil {
				t.Fatalf("retry after live WAL fault failed: %v (fault: %v)", err2, err)
			}
			retried++
		}
	}
	src, err := workload.NewGeneratorSource(s.GeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	streamed := 0
	for {
		j, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		submitOne(j)
		streamed++
		if renameFailed {
			// Kill between the compaction's temp write and its rename:
			// the restart removes the temp and recovers the old timeline.
			renameFailed = false
			f.Close()
			if len(unpublished()) == 0 {
				t.Fatal("a failed rename left no temp file behind")
			}
			if f, err = fleet.Open("chaos", cfg); err != nil {
				t.Fatalf("reopen after a kill before the rename: %v", err)
			}
			if stale := unpublished(); len(stale) != 0 {
				t.Fatalf("reopen kept the unpublished timeline %v", stale)
			}
		}
		if streamed == total/2 {
			// Kill mid-stream and recover from the WAL.
			f.Close()
			if f, err = fleet.Open("chaos", cfg); err != nil {
				t.Fatalf("reopen after kill: %v", err)
			}
		}
	}
	defer f.Close()
	if streamed != total {
		t.Fatalf("streamed %d jobs, the offline run had %d", streamed, total)
	}
	if script.Fired() != 3 || retried != 2 {
		t.Fatalf("fired %d faults with %d retries, want 3 and 2 (an append fault each side of the kill, and the rename)",
			script.Fired(), retried)
	}
	got, err := f.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("chaos fleet diverged from the offline run:\n got %+v\nwant %+v", got, want)
	}
}

// TestScenario10kAdmissionByteIdentity extends the scale oracle
// to the admission path: the same 10k-node two-day stream batched
// through the admission router (bounded queue → event-loop turn) must
// drain byte-identical to the offline run of the stream — any
// divergence means the router leaked something other than the
// requests into the engine.
func TestScenario10kAdmissionByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node scenario; skipped in -short")
	}
	checkEveryTick(t)
	s := chaos.Scenario10k()
	classes := energysched.ScaleClasses(s.Nodes)

	spec := func(j workload.Job) energysched.JobSpec {
		submit := j.Submit
		return energysched.JobSpec{
			Name: j.Name, CPU: j.CPU, Mem: j.Mem, Duration: j.Duration,
			Submit: &submit, DeadlineFactor: j.DeadlineFactor,
			FaultTolerance: j.FaultTolerance, Arch: j.Arch, Hypervisor: j.Hypervisor,
		}
	}

	// Reference: the offline run of the same stream.
	want, total := offlineReport(t, s, classes)

	f, err := fleet.Open("router", fleet.Config{
		Sched: fleet.Sched{Policy: "SB", Seed: s.Seed, Classes: classes, Failures: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src, err := workload.NewGeneratorSource(s.GeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The same 64-job batches, but through SubmitBatch — the full
	// queue → turn admission path.
	streamed := 0
	batch := make([]energysched.JobSpec, 0, 64)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		if _, err := f.SubmitBatch(batch); err != nil {
			t.Fatalf("batch at %d: %v", streamed, err)
		}
		streamed += len(batch)
		batch = batch[:0]
	}
	for {
		j, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, spec(j))
		if len(batch) == 64 {
			flush()
		}
	}
	flush()
	if streamed != total {
		t.Fatalf("streamed %d jobs, the offline run had %d", streamed, total)
	}
	got, err := f.Drain()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got != want {
		t.Fatalf("router admission diverged from the offline run:\n got %+v\nwant %+v", got, want)
	}
}

// TestNewPlanDeterministic: the fault schedule is a pure function of
// its config — same seed, same crashes — and lands inside the loaded
// middle of the horizon, sorted by time.
func TestNewPlanDeterministic(t *testing.T) {
	cfg := chaos.PlanConfig{Seed: 11, Horizon: 48 * 3600, Nodes: 10_000}
	a, b := chaos.NewPlan(cfg), chaos.NewPlan(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config drew different plans:\n a %+v\n b %+v", a, b)
	}
	if got, want := len(a.Crashes), chaos.Crashes+3*chaos.Flaps; got != want {
		t.Fatalf("plan has %d crashes, want %d", got, want)
	}
	flapFires := map[int]int{}
	for i, c := range a.Crashes {
		if c.Time < 0.1*cfg.Horizon {
			t.Fatalf("crash %d at %.0f fires before 10%% of the horizon", i, c.Time)
		}
		if c.Rank < 0 || c.Rank >= cfg.Nodes {
			t.Fatalf("crash %d has rank %d outside the fleet", i, c.Rank)
		}
		if i > 0 && a.Crashes[i].Time < a.Crashes[i-1].Time {
			t.Fatalf("plan not sorted by time at %d", i)
		}
		if c.Flap != 0 {
			flapFires[c.Flap]++
		}
	}
	for id, n := range flapFires {
		if n != 3 {
			t.Fatalf("flap group %d fires %d times, want 3", id, n)
		}
	}
	// A different seed must draw a different schedule.
	cfg.Seed = 12
	if reflect.DeepEqual(a, chaos.NewPlan(cfg)) {
		t.Fatal("different seeds drew identical plans")
	}
}

// TestFaultScript: each step fires exactly once after its skip count,
// steps for one op fire in registration order, and other ops pass
// through untouched.
func TestFaultScript(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	fs := &chaos.FaultScript{}
	fs.FailOnce("append", 2, errA)
	fs.FailOnce("append", 0, errB)
	hook := fs.Hook()

	if err := hook("sync"); err != nil {
		t.Fatalf("unmatched op failed: %v", err)
	}
	want := []error{nil, nil, errA, errB, nil}
	for i, w := range want {
		if got := hook("append"); got != w {
			t.Fatalf("append call %d = %v, want %v", i+1, got, w)
		}
	}
	if fs.Fired() != 2 {
		t.Fatalf("Fired() = %d, want 2", fs.Fired())
	}
}
