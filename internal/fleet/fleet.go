// Package fleet hosts independent datacenter.Simulation instances —
// fleets — each wrapped in its own single-threaded actor event loop
// with its own clock pace, SSE event ring, and durability layer. A
// Manager (manager.go) registers many fleets per process behind the
// energyschedd HTTP API (internal/server).
//
// Durability is one write-ahead log per fleet (wal.go): every admission
// decision is appended to it before it is applied, and once the records
// after its header number both SnapshotInterval and the jobs the header
// holds, the log is compacted — replaced, in one
// atomic step, by a new file whose first frame is the event-sourced
// snapshot of the state. Crash recovery therefore reads one file: the
// snapshot and the records after it — and because the engine is
// deterministic, the recovered fleet's reports are byte-identical to an
// uninterrupted run (the snapshot contract, enforced across
// kill-and-restart).
package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"energysched"
	"energysched/internal/cluster"
	"energysched/internal/core"
	"energysched/internal/datacenter"
	"energysched/internal/metrics"
	"energysched/internal/obs"
	"energysched/internal/obs/series"
	"energysched/internal/obs/slo"
	"energysched/internal/vm"
	"energysched/internal/workload"
)

// Sched is a fleet's scheduling configuration: the paper's tunables a
// replay's determinism depends on. It is stored as is — a snapshot's
// "config" object is this value — so the logged jobs replay under
// exactly the config they were acknowledged with.
type Sched struct {
	// Policy selects the scheduler (same names as energysched.Run;
	// default "SB").
	Policy string `json:"policy"`
	// Seed drives all stochastic components (default 1).
	Seed int64 `json:"seed"`
	// LambdaMin, LambdaMax are the power-manager thresholds in percent
	// (defaults 30, 90).
	LambdaMin float64 `json:"lambda_min"`
	LambdaMax float64 `json:"lambda_max"`
	// Cempty, Cfill and THempty override the consolidation costs when
	// HasScore is set (unset = the paper's values).
	Cempty   float64 `json:"cempty,omitempty"`
	Cfill    float64 `json:"cfill,omitempty"`
	THempty  int     `json:"th_empty,omitempty"`
	HasScore bool    `json:"has_score,omitempty"`
	// Failures enables reliability-driven node crashes.
	Failures bool `json:"failures,omitempty"`
	// CheckpointSeconds > 0 checkpoints running VMs periodically.
	CheckpointSeconds float64 `json:"checkpoint_s,omitempty"`
	// AdaptiveTarget > 0 enables dynamic λmin adjustment.
	AdaptiveTarget float64 `json:"adaptive_target,omitempty"`
	// Classes overrides the fleet (nil = the paper's 100 nodes).
	Classes []energysched.NodeClass `json:"classes,omitempty"`
}

// options maps the scheduling config onto the engine's: the one place
// the fields are listed, shared by rebuild and validate.
func (s Sched) options() energysched.Options {
	o := energysched.Options{
		Policy:            s.Policy,
		LambdaMin:         s.LambdaMin,
		LambdaMax:         s.LambdaMax,
		Seed:              s.Seed,
		Failures:          s.Failures,
		CheckpointSeconds: s.CheckpointSeconds,
		AdaptiveTarget:    s.AdaptiveTarget,
		Classes:           s.Classes,
	}
	if s.HasScore {
		o.Score = &energysched.ScoreParams{Cempty: s.Cempty, Cfill: s.Cfill, THempty: s.THempty}
	}
	return o
}

// Config parameterizes one fleet: the scheduling section plus the
// service fields. A manifest entry's "config" object is this value; the
// fields tagged "-" are supplied at runtime by whoever opens the fleet.
type Config struct {
	Sched
	// Pace is the virtual-seconds-per-wall-second acceleration; <= 0
	// selects max pacing (watermark-gated, fully deterministic).
	Pace float64 `json:"pace,omitempty"`
	// SnapshotDir receives API-named snapshots (default ".").
	SnapshotDir string `json:"snapshot_dir,omitempty"`
	// EventRing is the replay-ring depth for the events stream
	// (default 4096).
	EventRing int `json:"event_ring,omitempty"`
	// Dir is the fleet's durable directory (its WAL). Empty disables
	// durability: the fleet is in-memory only.
	Dir string `json:"-"`
	// SnapshotInterval is the fewest records after the WAL's header
	// that compact it into a fresh snapshot (0 = never compact
	// automatically). A header of more jobs raises the threshold to its
	// job count, so the headers written grow geometrically.
	SnapshotInterval int `json:"snapshot_interval,omitempty"`
	// WALSync is the append sync policy: SyncAlways (default) fsyncs
	// every acknowledged admission, SyncOS leaves flushing to the OS.
	WALSync string `json:"wal_sync,omitempty"`
	// WALFault, when non-nil, is consulted before every WAL append
	// ("append"), sync ("sync") and rollback ("rewind"), and before a
	// new timeline's temp write ("replace") and its rename over the log
	// ("rename"); a non-nil return fails the op with that error.
	// ErrTornWrite on an append additionally leaves half a frame on
	// disk, and a failed rename leaves the temp file behind, as a crash
	// would. This is the chaos harness's live fault-injection hook
	// (disk-full, torn writes, kills); leave nil in production.
	WALFault func(op string) error `json:"-"`
	// TraceVerbosity selects the decision-trace recording level of the
	// fleet's trace ring: "off" (default), "rounds", "actions" or
	// "scores". Pure observability — any level leaves the simulation
	// byte-identical (see internal/obs).
	TraceVerbosity string `json:"trace_verbosity,omitempty"`
	// TraceDepth is how many round traces the ring retains (default
	// 256).
	TraceDepth int `json:"trace_depth,omitempty"`
	// SeriesDepth is how many accounting samples the time-series ring
	// retains (default 4096). Like the trace ring this is pure
	// observability: any depth leaves the simulation byte-identical.
	SeriesDepth int `json:"series_depth,omitempty"`
	// JourneyDepth is how many jobs the lifecycle journey store retains
	// (default 2048); the journey firehose ring holds the same number
	// of recent steps.
	JourneyDepth int `json:"journey_depth,omitempty"`
	// SLOs are declarative service-level objectives evaluated against
	// the accounting series at every tick (nil = no SLO engine). Must
	// be pre-validated (slo.Parse does). They are the daemon's
	// (-slo-file), not the fleet's, so the manifest does not carry them.
	SLOs []slo.Objective `json:"-"`
	// AdmitQueue bounds the admission queue in front of the event loop
	// (default 256). A full queue sheds with 429 + Retry-After instead
	// of blocking.
	AdmitQueue int `json:"admit_queue,omitempty"`
	// RateLimit throttles admission to this many jobs per second via a
	// token bucket (0 = unlimited). Over-limit requests are shed with
	// 429 + Retry-After before they touch the WAL or the event loop.
	RateLimit float64 `json:"rate_limit,omitempty"`
	// RateBurst is the token bucket's capacity in jobs (default one
	// second's worth of RateLimit, at least 1).
	RateBurst int `json:"rate_burst,omitempty"`
	// Logf, when non-nil, receives fleet log lines.
	Logf func(format string, args ...interface{}) `json:"-"`
}

// maxDepth caps every queue and ring depth a config may ask for: each is
// sized, and partly allocated, when the fleet opens. 2^20 series samples
// are two years of 60-second ticks.
const maxDepth = 1 << 20

// maxPace and minCheckpointSeconds keep the event loop moving. A paced
// fleet steps every paceTick to the wall clock times the pace, inside
// one loop turn: at a million virtual seconds per wall second a step
// owes 1 667 housekeeping ticks, and at 1e300 a step never ends. A
// checkpoint round runs every CheckpointSeconds of virtual time: at
// 1e-300 the next round lands on the current instant and the clock
// never moves. The interval also changes results (a failed VM rolls
// back to its last checkpoint), so its floor sits far below any
// interval the fault model would choose, not at the housekeeping tick.
const (
	maxPace              = 1e6
	minCheckpointSeconds = 1.0
)

// checkBounds refuses a pace or a checkpoint interval that would stall
// the loop. A negative pace selects max pacing, like 0. Only new input
// is checked — Manager.Create and restore — so the fleets and snapshots
// already on disk open as they were written.
func (c Config) checkBounds() error {
	if !(c.Pace <= maxPace) {
		return fmt.Errorf("pace must be at most %g virtual seconds per wall second (0 = max pacing), got %g", float64(maxPace), c.Pace)
	}
	return c.Sched.checkBounds()
}

func (s Sched) checkBounds() error {
	if s.CheckpointSeconds != 0 && !(s.CheckpointSeconds >= minCheckpointSeconds && s.CheckpointSeconds <= math.MaxFloat64) {
		return fmt.Errorf("checkpoint_s must be 0 (off) or a finite interval of at least %g virtual second, got %g",
			minCheckpointSeconds, s.CheckpointSeconds)
	}
	return nil
}

// validate refuses, with a 400, a config the fleet could not run under,
// and returns the parsed trace verbosity. Open calls it before recover
// touches the disk, so a refused config leaves nothing behind. The
// scheduling checks are the engine's own constructors, so they cannot
// drift from what rebuild would refuse. Call on a defaulted config.
func (c Config) validate() (obs.Verbosity, error) {
	bad := func(err error) (obs.Verbosity, error) {
		return obs.TraceOff, errf(http.StatusBadRequest, "%v", err)
	}
	o := c.options()
	if _, err := energysched.NewPolicy(o.Policy, o.Seed, o.Score); err != nil {
		return bad(err)
	}
	if _, err := core.NewPowerManager(c.LambdaMin, c.LambdaMax, 0); err != nil {
		return bad(err)
	}
	for _, d := range []struct {
		name  string
		depth int
	}{
		{"admit_queue", c.AdmitQueue}, {"event_ring", c.EventRing}, {"trace_depth", c.TraceDepth},
		{"series_depth", c.SeriesDepth}, {"journey_depth", c.JourneyDepth},
	} {
		if d.depth < 0 || d.depth > maxDepth {
			return bad(fmt.Errorf("%s must be in [0, %d], got %d", d.name, maxDepth, d.depth))
		}
	}
	if c.RateLimit < 0 || c.RateBurst < 0 {
		return bad(errors.New("rate_limit and rate_burst must be >= 0"))
	}
	if c.TraceVerbosity == "" {
		return obs.TraceOff, nil
	}
	verb, err := obs.ParseVerbosity(c.TraceVerbosity)
	if err != nil {
		return bad(err)
	}
	return verb, nil
}

func (c Config) withDefaults() Config {
	if c.Policy == "" {
		c.Policy = "SB"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.LambdaMin == 0 && c.LambdaMax == 0 {
		c.LambdaMin, c.LambdaMax = 30, 90
	}
	if c.SnapshotDir == "" {
		c.SnapshotDir = "."
	}
	if c.WALSync == "" {
		c.WALSync = SyncAlways
	}
	if c.AdmitQueue == 0 {
		c.AdmitQueue = 256
	}
	if c.EventRing == 0 {
		c.EventRing = 4096
	}
	return c
}

// Error is a status-coded fleet error; the HTTP layer maps Status
// onto the response code.
type Error struct {
	Status int
	Msg    string
	// RetryAfter, in seconds, hints when the client should retry a
	// 429/503; the HTTP layer emits it as a Retry-After header, which
	// the client's RetryPolicy honors.
	RetryAfter int
}

// Error implements the error interface.
func (e *Error) Error() string { return e.Msg }

func errf(status int, format string, args ...interface{}) *Error {
	return &Error{Status: status, Msg: fmt.Sprintf(format, args...)}
}

// idError is an error that begins by naming the fleet it came from.
type idError struct {
	id  string
	err error
}

func (e *idError) Error() string { return "fleet " + e.id + ": " + e.err.Error() }

func (e *idError) Unwrap() error { return e.err }

func (f *Fleet) errorf(format string, args ...any) error {
	return &idError{f.id, fmt.Errorf(format, args...)}
}

// Named returns err beginning "fleet <id>: ", naming the fleet once: an
// error from Open that already names it is returned as it is.
func Named(id string, err error) error {
	var ie *idError
	if errors.As(err, &ie) && ie.id == id {
		return err
	}
	return &idError{id, err}
}

// ErrClosed is returned by every operation on a shut-down fleet.
var ErrClosed = errors.New("fleet: shut down")

// Fleet is one hosted scheduler instance: a simulation behind an
// actor event loop, plus its event streams and durability layer.
type Fleet struct {
	id string
	// cfg's service fields are fixed at Open. cfg.Sched is event-loop
	// state: the config the admission log replays under, which rebuild
	// replaces whole (recovery, restore, follower bootstrap).
	cfg      Config
	events   *obs.Ring[energysched.Event] // the simulation event stream behind GET /events
	repl     *replFeed
	trace    *obs.TraceRing
	hists    fleetHists
	series   *series.Store
	journeys *obs.JourneyStore
	sloEng   *slo.Engine // nil without objectives
	router   *admitRouter

	cmds     chan *loopCall
	stopc    chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// --- event-loop state: touch only from inside do()/loop() ---
	sim       *datacenter.Simulation
	jobs      jobLog  // admission log, in VM-ID order
	watermark float64 // largest admitted submit time (max pacing)
	final     *energysched.ServiceReport
	replaying bool
	wallStart time.Time
	virtStart float64
	wal       *wal
	walBroken bool                 // an append failed and could not be rolled back
	stats     energysched.WALStats // durability counters; Records is filled in by walStats
	gen       int64                // timeline generation; bumped when restore replaces the log
	// metricClasses is the buffer /metrics builds its class breakdown in,
	// queued the one /cluster lists the queue in.
	metricClasses []series.ClassSample
	queued        []*vm.VM
	// scratch is the admission path's storage for one turn: the jobs of
	// the request being admitted, and its records' frames, encoded
	// back to back into buf.
	scratch struct {
		jobs   []workload.Job
		frames [][]byte
		buf    []byte
	}
	// recordEncodes counts admission records encoded, so tests can pin
	// that a fleet nobody logs or follows encodes no record at all.
	recordEncodes int
}

// Open builds a fleet, recovers its durable state when Config.Dir is
// set (the WAL's snapshot + the records after it), starts its event
// loop, and returns it.
func Open(id string, cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	verb, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		id:       id,
		cfg:      cfg,
		cmds:     make(chan *loopCall),
		stopc:    make(chan struct{}),
		events:   obs.NewRing(cfg.EventRing, encodeEvent),
		repl:     newReplFeed(),
		trace:    obs.NewTraceRing(verb, cfg.TraceDepth),
		series:   series.NewStore(cfg.SeriesDepth),
		journeys: obs.NewJourneyStore(cfg.JourneyDepth, cfg.JourneyDepth),
		gen:      1,
	}
	if len(cfg.SLOs) > 0 {
		f.sloEng = slo.NewEngine(cfg.SLOs)
	}
	snap, err := f.recover()
	if err == nil {
		err = f.rebuild(snap)
	}
	if err != nil {
		f.wal.close()
		return nil, err
	}
	f.wallStart = time.Now()
	f.router = newAdmitRouter(f)
	f.wg.Add(1)
	go f.loop()
	return f, nil
}

// recover loads the durable state — the WAL's header snapshot plus the
// records after it — as the snapshot rebuild starts the fleet from: the
// reconstructed admission log, the watermark to fast-forward to, whether
// the workload was sealed, and the config the log replays under.
func (f *Fleet) recover() (snap snapshotFile, err error) {
	snap = snapshotFile{Config: f.cfg.Sched}
	if f.cfg.Dir == "" {
		return snap, nil
	}
	if err := os.MkdirAll(f.cfg.Dir, 0o755); err != nil {
		return snap, f.errorf("creating durable dir: %w", err)
	}
	// Once the log exists, only a new timeline's rename moves the
	// directory's mtime for good: a failed attempt (wal.replace) and the
	// cleanup below put it back. So it is when the header was written —
	// unless a process was killed mid-attempt, whose temp file's
	// creation it then keeps.
	dirInfo, err := os.Stat(f.cfg.Dir)
	if err != nil {
		return snap, f.errorf("%w", err)
	}
	// The two-file layout of releases before e0300a6 is refused before
	// anything below can remove, create or truncate a file.
	walPath := filepath.Join(f.cfg.Dir, walName)
	if _, err := os.Stat(filepath.Join(f.cfg.Dir, "snapshot.json")); err == nil && !headed(walPath) {
		return snap, f.errorf("%s is in the two-file layout of releases before e0300a6 (snapshot.json beside a wal.log "+
			"without a header): open it once with a release from e0300a6 to 2f5bbe1, which converts it", f.cfg.Dir)
	}
	// A crash between a new timeline's temp write and its rename leaves
	// the temp behind; wal.log is then still the whole old timeline.
	stale, _ := filepath.Glob(filepath.Join(f.cfg.Dir, walTemp))
	for _, p := range stale {
		if err := os.Remove(p); err != nil {
			return snap, f.errorf("removing an unpublished wal: %w", err)
		}
	}
	if len(stale) > 0 {
		_ = os.Chtimes(f.cfg.Dir, time.Time{}, dirInfo.ModTime()) // best effort: only the reported snapshot time
	}
	w, head, recs, dropped, werr := openWAL(walPath, f.cfg.WALSync, f.cfg.WALFault)
	if werr != nil {
		return snap, f.errorf("%w", werr)
	}
	f.wal = w
	f.stats.TornTail = dropped > 0
	f.stats.TruncatedBytes = dropped
	if dropped > 0 {
		f.logf("wal: torn tail detected and dropped (%d bytes); recovered the intact prefix (%d records)", dropped, len(recs))
	}
	if head != nil {
		// The header's config is the one the records were acknowledged
		// under: an API restore may have changed it since the fleet was
		// opened, and the restore wrote it here.
		snap = *head
		f.gen = snap.Gen
		f.stats.LastSnapshotUnix = dirInfo.ModTime().Unix()
	}
	// Without a header the log is the empty timeline under the opened
	// config: nothing but a header changes a fleet's config.
	for _, rec := range recs {
		// Each record is the log's next admission, or the seal of an
		// unsealed log.
		next := rec.Kind == walKindSeal || rec.Kind == walKindAdmit && rec.Job != nil && rec.Job.ID == snap.Jobs.Len()
		if snap.Sealed || !next {
			// The log does not describe one timeline past here. Serve the
			// consistent prefix, but refuse to acknowledge new admissions
			// a future recovery would mis-replay.
			f.walBroken = true
			f.logf("wal: a %s record does not follow the log's %d jobs (sealed=%v); ignoring the rest of the log and going read-only",
				rec.Kind, snap.Jobs.Len(), snap.Sealed)
			break
		}
		if rec.Kind == walKindSeal {
			snap.Sealed = true
		} else {
			snap.Jobs.Append(*rec.Job)
		}
		f.stats.Replayed++
	}
	if f.stats.Replayed > 0 || snap.Jobs.Len() > 0 {
		f.logf("recovered %d jobs (%d replayed from the wal tail, sealed=%v)", snap.Jobs.Len(), f.stats.Replayed, snap.Sealed)
	}
	snap.SavedVirtual = maxWatermark(snap.SavedVirtual, &snap.Jobs)
	return snap, nil
}

// headed reports whether the log at path starts with a header frame,
// or with one this release cannot read, which openWAL then refuses.
func headed(path string) bool {
	log, err := os.Open(path)
	if err != nil {
		return false
	}
	head, _, _, _, err := scanWAL(log)
	log.Close()
	return head != nil || err != nil
}

// maxWatermark returns the admission watermark implied by a snapshot
// time and a job log: the largest submit time seen.
func maxWatermark(now float64, jobs *jobLog) float64 {
	for _, j := range jobs.All() {
		if j.Submit > now {
			now = j.Submit
		}
	}
	return now
}

// ID returns the fleet's registry identifier.
func (f *Fleet) ID() string { return f.id }

// Close stops the event loop, closes the WAL and disconnects every
// stream subscriber. In-flight requests receive ErrClosed.
func (f *Fleet) Close() {
	f.stopOnce.Do(func() { close(f.stopc) })
	f.wg.Wait()
	f.events.Close()
	f.repl.dropAll(true)
	f.trace.Close()
	f.journeys.Close()
	f.wal.close()
}

func (f *Fleet) logf(format string, args ...interface{}) {
	if f.cfg.Logf != nil {
		f.cfg.Logf("fleet %s: "+format, append([]interface{}{f.id}, args...)...)
	}
}

// --- event loop ---

// loopCall is one do or call turn on its way to the event loop. Calls
// are pooled (loopCalls): the loop runs fn (or fnErr, keeping its
// error) and signals done, and the caller puts the call back once it
// has taken the signal.
type loopCall struct {
	fn    func()
	fnErr func() error
	err   error
	// done is buffered (capacity 1) so the loop never blocks on a
	// caller that left through stopc.
	done chan struct{}
}

var loopCalls = sync.Pool{New: func() any { return &loopCall{done: make(chan struct{}, 1)} }}

// run is the loop's half of a call.
func (c *loopCall) run() {
	if c.fn != nil {
		c.fn()
	} else {
		c.err = c.fnErr()
	}
	c.done <- struct{}{}
}

// do runs fn on the event loop and waits for it; every access to the
// simulation goes through here, which is what makes the HTTP surface
// safe under -race with concurrent submitters.
func (f *Fleet) do(fn func()) error { return f.send(fn, nil) }

// call is do for a turn that can fail: it returns fn's error, or
// ErrClosed when the loop did not run it to completion.
func (f *Fleet) call(fn func() error) error { return f.send(nil, fn) }

// send runs fn or fnErr on the event loop in a pooled call and returns
// the turn's error. A call the fleet closed under is not put back: the
// loop may still be running it.
func (f *Fleet) send(fn func(), fnErr func() error) error {
	c := loopCalls.Get().(*loopCall)
	c.fn, c.fnErr = fn, fnErr
	select {
	case f.cmds <- c:
	case <-f.stopc:
		c.fn, c.fnErr = nil, nil
		loopCalls.Put(c)
		return ErrClosed
	}
	select {
	case <-c.done:
	case <-f.stopc:
		return ErrClosed
	}
	err := c.err
	c.fn, c.fnErr, c.err = nil, nil, nil
	loopCalls.Put(c)
	return err
}

// paceTick is the wall-clock granularity of real-time pacing.
const paceTick = 100 * time.Millisecond

func (f *Fleet) loop() {
	defer f.wg.Done()
	var ticker *time.Ticker
	var tick <-chan time.Time
	if f.cfg.Pace > 0 {
		ticker = time.NewTicker(paceTick)
		tick = ticker.C
		defer ticker.Stop()
	}
	for {
		select {
		case c := <-f.cmds:
			c.run()
		case req := <-f.router.queue:
			f.router.turn(req)
		case <-tick:
			f.advanceRealtime()
		case <-f.stopc:
			return
		}
	}
}

// advanceRealtime moves virtual time to the wall-derived target.
func (f *Fleet) advanceRealtime() {
	if f.sim.Done() {
		return
	}
	target := f.virtStart + time.Since(f.wallStart).Seconds()*f.cfg.Pace
	if target > f.watermark {
		f.watermark = target
	}
	f.sim.StepBefore(f.watermark)
}

// rebuild replaces the simulation, and the scheduling config, with a
// fresh simulation under snap.Config replaying snap's admission log up
// to its virtual time. A sealed snapshot is drained to completion. On
// error the previous state is kept.
func (f *Fleet) rebuild(snap snapshotFile) error {
	jobs, now := snap.Jobs, snap.SavedVirtual
	// sim is captured by the journey recorder below before it is built:
	// the closure only runs behind !f.replaying, which stays set until
	// after the assignment, so it never sees a nil simulation.
	var sim *datacenter.Simulation
	opts := snap.Config.options()
	opts.EventLog = func(e energysched.Event) {
		if f.replaying {
			return
		}
		f.publish(e)
		f.recordJourney(sim, e)
	}
	opts.RoundTimer = func(seconds float64) {
		if !f.replaying {
			f.hists.round.Observe(seconds)
		}
	}
	var err error
	sim, err = energysched.NewSimulation(opts)
	if err != nil {
		return err
	}
	// Attach the decision-trace sink directly on the scheduler struct
	// (never via its comparable Config). Replayed rounds are suppressed
	// by the sink itself while f.replaying is set.
	if sch, ok := sim.Policy().(*core.Scheduler); ok {
		sch.Tracer = &fleetTraceSink{f: f, ring: f.trace}
	}
	// Energy attribution stays on during replay — it is a pure addition
	// the engine computes identically everywhere, and a rebuilt
	// simulation's fresh VMs must re-accumulate their energy or a
	// recovered fleet would under-report it.
	sim.AttributeEnergy = true
	f.replaying = true
	defer func() { f.replaying = false }()
	sim.Start()
	for _, j := range jobs.All() {
		if _, err := sim.Inject(*j); err != nil {
			return f.errorf("replaying job %d: %w", j.ID, err)
		}
	}
	sim.StepBefore(now)
	f.cfg.Sched = snap.Config
	f.sim = sim
	f.jobs = jobs
	f.watermark = now
	f.final = nil
	f.wallStart = time.Now()
	f.virtStart = now
	if snap.Sealed {
		rep := ServiceReportOf(sim.Drain(), true)
		f.final = &rep
	}
	// The accounting sampler goes on once the replay (and a sealed
	// drain) is over: replayed ticks are observations the store already
	// holds, or deliberately dropped, and re-adding them would
	// double-count the replayed span in the series and burn the SLO
	// windows twice — so they are not sampled at all.
	sim.Sampler = func(smp series.Sample) {
		f.series.Add(smp)
		if f.sloEng != nil {
			f.sloEng.Observe(smp.T, func(metric string) (float64, bool) {
				return f.sloValue(smp, metric)
			})
		}
	}
	return nil
}

// --- admission ---

// Submit admits one job through the admission router: rate-limited,
// queued, merged into an event-loop turn (admit.go). Over-limit and
// full-queue requests come back as 429 fleet.Errors with Retry-After.
func (f *Fleet) Submit(spec energysched.JobSpec) (energysched.JobStatus, error) {
	req := admitRequests.Get().(*admitRequest)
	req.one[0] = spec
	req.specs, req.out = req.one[:], req.oneOut[:]
	if err := f.router.submit(req); err != nil {
		return energysched.JobStatus{}, err
	}
	st := req.out[0]
	req.release()
	return st, nil
}

// SubmitBatch admits a batch of jobs atomically, in order, in a
// single event-loop turn: either every job is admitted or none is,
// and virtual time does not advance between the batch's admissions —
// which makes a batch at max pacing byte-identical to submitting the
// same jobs sequentially. Batches ride the admission router like
// Submit, so rate limits and queue bounds apply.
func (f *Fleet) SubmitBatch(specs []energysched.JobSpec) ([]energysched.JobStatus, error) {
	out := make([]energysched.JobStatus, len(specs))
	req := admitRequests.Get().(*admitRequest)
	req.specs, req.out = specs, out
	if err := f.router.submit(req); err != nil {
		return nil, err
	}
	req.release()
	return out, nil
}

// admit is the leader's half of an admission request: it turns each
// spec into a job — an omitted submit time is the fleet's clock — and
// hands the batch to admitJobs, which writes the admitted jobs'
// statuses into out. Call only from the event loop.
func (f *Fleet) admit(specs []energysched.JobSpec, out []energysched.JobStatus) error {
	now := f.sim.Now()
	jobs := slices.Grow(f.scratch.jobs[:0], len(specs))[:len(specs)]
	f.scratch.jobs = jobs
	for i, spec := range specs {
		jobs[i] = workload.Job{
			Name:           spec.Name,
			Submit:         now,
			Duration:       spec.Duration,
			CPU:            spec.CPU,
			Mem:            spec.Mem,
			DeadlineFactor: spec.DeadlineFactor,
			FaultTolerance: spec.FaultTolerance,
			Arch:           spec.Arch,
			Hypervisor:     spec.Hypervisor,
		}
		if spec.Submit != nil {
			jobs[i].Submit = *spec.Submit
		}
	}
	return f.admitJobs(jobs, out)
}

// admitJobs validates a batch against the clock and the log, numbering
// its jobs after the log's and filling in the default deadline factor,
// encodes its records if anyone will read them, and hands the run to
// commit. Everything is validated before anything is logged, so the
// batch either fully applies or fully rejects. Call only from the
// event loop.
func (f *Fleet) admitJobs(jobs []workload.Job, out []energysched.JobStatus) error {
	defer f.hists.admit.ObserveSince(time.Now())
	if len(jobs) == 0 {
		return errf(http.StatusBadRequest, "empty batch")
	}
	if f.sim.Sealed() {
		return errf(http.StatusConflict, "workload is sealed (drained); submit rejected")
	}
	if f.walBroken {
		return errf(http.StatusInternalServerError, "admission log is broken; fleet is read-only")
	}
	now := f.sim.Now()
	prev := now
	for i := range jobs {
		j := &jobs[i]
		j.ID = f.jobs.Len() + i
		if j.DeadlineFactor == 0 {
			j.DeadlineFactor = 1.5
		}
		if j.Submit < now {
			return errf(http.StatusConflict,
				"job %d: submit_s %.3f is in the virtual past (now %.3f)", i, j.Submit, now)
		}
		if j.Submit < prev {
			return errf(http.StatusBadRequest,
				"job %d: batch submit times must be non-decreasing (%.3f after %.3f)", i, j.Submit, prev)
		}
		prev = j.Submit
		if err := j.Validate(); err != nil {
			return errf(http.StatusBadRequest, "job %d: %v", i, err)
		}
	}
	// A record is encoded only when something will read it — the WAL
	// or a replication session — and then exactly once, straight into
	// its frame: the WAL gets the frame and a session its payload, the
	// same bytes, so a follower's WAL is byte-identical to the leader's.
	// Sessions register on this event loop (ReplSubscribe), so none can
	// appear between this check and commit's publish; a later one is
	// served from the admission log by the same encoder.
	var frames [][]byte
	if f.wal != nil || f.repl.live() {
		var err error
		if frames, err = f.admitFrames(jobs); err != nil {
			return errf(http.StatusInternalServerError, "encoding wal record: %v", err)
		}
	}
	// Max pacing: virtual time chases the admission watermark, the
	// batch's last submit time. A paced fleet's clock belongs to its
	// ticker: stepping to the pre-admission clock leaves it where it is.
	stepTo := now
	if f.cfg.Pace <= 0 {
		stepTo = prev
	}
	// The run is announced with the pre-admission clock: every submit
	// in the batch was validated against it, so a follower stepping to
	// it can still inject every record that follows on the stream.
	return f.commit(logRun{jobs: jobs, frames: frames, out: out, now: now, stepTo: stepTo})
}

// appendAdmitFrame appends one admission's log record to buf as a
// frame: the one encoder behind the leader's WAL, the live replication
// feed and a session's backlog, so the three cannot drift. Call only
// from the event loop.
func (f *Fleet) appendAdmitFrame(buf []byte, j *workload.Job) ([]byte, error) {
	f.recordEncodes++
	return appendRecordFrame(buf, walRecord{Kind: walKindAdmit, Job: j})
}

// admitRecord returns one admission's record payload in an allocation
// of its own, for a session's backlog.
func (f *Fleet) admitRecord(j *workload.Job) ([]byte, error) {
	frame, err := f.appendAdmitFrame(nil, j)
	if err != nil {
		return nil, err
	}
	return frame[walHeaderSize:], nil
}

// admitFrames encodes the frames of jobs' admission records back to
// back into the loop's scratch buffer and returns them, cut from it.
// The bytes stay scratch when only the WAL reads them, which writes
// them before the turn ends; a replication session keeps what it is
// sent, so then the run gets one allocation of its own. Call only
// from the event loop.
func (f *Fleet) admitFrames(jobs []workload.Job) ([][]byte, error) {
	buf, frames := f.scratch.buf[:0], f.scratch.frames[:0]
	for i := range jobs {
		start := len(buf)
		var err error
		if buf, err = f.appendAdmitFrame(buf, &jobs[i]); err != nil {
			return nil, err
		}
		// Only the frame's length counts until buf stops moving.
		frames = append(frames, buf[start:])
	}
	f.scratch.buf, f.scratch.frames = buf, frames
	if f.repl.live() {
		buf = bytes.Clone(buf)
	}
	for i, off := range frames {
		n := len(off)
		frames[i], buf = buf[:n:n], buf[n:]
	}
	return frames, nil
}

// logRun is a run of consecutive log records on its way through commit:
// a batch of validated admissions (jobs, IDs continuing f.jobs) or the
// seal.
type logRun struct {
	jobs []workload.Job
	seal bool
	// frames are the records' frames, one per record: what the WAL
	// stores, and after walHeaderSize what the replication feed
	// carries. Nil when neither will read them (an in-memory leader
	// nobody follows).
	frames [][]byte
	// out, when set, receives the admitted jobs' statuses, one per job.
	out []energysched.JobStatus
	// now is the leader clock the records are announced with; stepTo is
	// where the watermark goes once the admissions are in. A leader at
	// max pacing steps to the batch's last submit time; a follower
	// steps to, and passes on, the clock its leader stamped.
	now, stepTo float64
}

// sealRecord is the seal record's frame and sealPayload its payload: a
// constant, encoded once and shared read-only by the WAL, every session
// and every backlog. (A record of one string cannot fail to encode.)
var (
	sealRecord, _ = appendRecordFrame(nil, walRecord{Kind: walKindSeal})
	sealPayload   = sealRecord[walHeaderSize:]
)

// commit is the one path a run of log records takes into the fleet: the
// leader's admissions (admit), a follower's replicated records and seal
// (applyRecord), the leader's seal (Drain). The caller has validated
// the run; commit makes it durable, applies it and announces it — in
// that fixed order, each step where it is for the reason given at it.
// It writes the admitted jobs' statuses into run.out. Call only from
// the event loop.
func (f *Fleet) commit(run logRun) error {
	base := f.logOffset()
	// 1. WAL append + one flush, before any effect and before the
	// acknowledgment: a crash from here on replays the run, a failure
	// here rewinds the log and leaves memory untouched, so disk and
	// memory never disagree about a record. (A fleet whose log is
	// broken refuses admissions before they get here, but can still be
	// drained: that seal is then not logged.)
	if !f.walBroken {
		if err := f.logFrames(run.frames); err != nil {
			return err
		}
	}
	if run.seal {
		// 2+3 for the seal: drain the engine and fix the final report.
		rep := ServiceReportOf(f.sim.Drain(), true)
		f.final = &rep
		f.watermark = f.sim.Now()
		f.logf("drained: %s", rep.Table)
	} else {
		// 2. Apply. Injection cannot fail after validation; if it ever
		// does the WAL is ahead of memory, and the fleet goes read-only
		// rather than diverge. Statuses are taken before the clock
		// moves: the 202 shows the job as admitted, not as of later.
		for i, j := range run.jobs {
			v, err := f.sim.Inject(j)
			if err != nil {
				f.walBroken = f.wal != nil
				return errf(http.StatusInternalServerError, "applying logged job %d: %v", j.ID, err)
			}
			f.jobs.Append(j)
			if run.out != nil {
				run.out[i] = jobStatus(v)
			}
		}
		// 3. Clock step, once the whole run is queued: an arrival at
		// instant t is in the engine before any event at t fires (the
		// online ≡ offline argument, simkit.Engine.RunBefore).
		if run.stepTo > f.watermark {
			f.watermark = run.stepTo
		}
		f.sim.StepBefore(f.watermark)
	}
	// 4. Announce, after apply: a session never carries a record its
	// own fleet has not taken, and it carries the bytes the WAL got.
	for i, frame := range run.frames {
		f.repl.publish(ReplRecord{Offset: base + int64(i) + 1, Now: run.now, Data: frame[walHeaderSize:]})
	}
	// 5. Compaction last: it covers exactly what was applied and
	// announced, and nothing waits on it — a failed snapshot leaves the
	// WAL as it was and is retried at the next interval.
	f.maybeCompact(run.seal)
	return nil
}

// logFrames appends encoded WAL record frames and flushes once. On
// failure the log is rolled back to its pre-batch length so disk and
// memory stay consistent; if even that fails, the fleet goes read-only
// rather than diverging. commit is its only caller.
func (f *Fleet) logFrames(frames [][]byte) error {
	if f.wal == nil {
		return nil
	}
	defer f.hists.wal.ObserveSince(time.Now())
	off, records := f.wal.tell()
	var err error
	for i := 0; i < len(frames) && err == nil; i++ {
		err = f.wal.appendFrame(frames[i], false)
	}
	if err == nil {
		err = f.wal.flush()
	}
	if err == nil {
		f.stats.Appended += len(frames)
		return nil
	}
	if rerr := f.wal.rewind(off, records); rerr != nil {
		f.walBroken = true
		f.logf("wal: append failed (%v) and rollback failed (%v); fleet is read-only", err, rerr)
		return errf(http.StatusInternalServerError, "admission log broken: %v", err)
	}
	return errf(http.StatusInternalServerError, "admission log append: %v", err)
}

// maybeCompact compacts the log once the records after its header
// number SnapshotInterval and the jobs the header holds — or right away
// with force (the seal: the drained state is final, no later record
// will trigger it). A compaction re-encodes every job, so the job-count
// threshold grows the headers geometrically, as append grows a slice:
// compaction costs amortised O(1) per job, and the log never holds many
// more records than its header holds jobs. Call only from the event
// loop.
func (f *Fleet) maybeCompact(force bool) {
	if force || (f.wal != nil && f.cfg.SnapshotInterval > 0 && f.wal.records >= max(f.cfg.SnapshotInterval, f.wal.jobs)) {
		f.compact()
	}
}

// compact starts a new timeline on disk: the log becomes one header
// frame holding the current event-sourced state, in one atomic step
// (wal.replace). On failure before the rename the old log stays, still
// consistent with memory on the admission path; callers for whom that
// is NOT true — restore, which just replaced the timeline — must go
// read-only.
func (f *Fleet) compact() error {
	if f.wal == nil {
		return nil
	}
	snap := f.snapshotState()
	if err := f.wal.replace(snap); err != nil {
		f.logf("compaction failed (will retry next interval): %v", err)
		return err
	}
	f.stats.Snapshots++
	f.stats.LastSnapshotUnix = time.Now().Unix()
	f.logf("compacted: snapshot of %d jobs at t=%.1fs", snap.Jobs.Len(), snap.SavedVirtual)
	return nil
}

// --- observation ---

// Jobs returns every admitted job's status, in admission order.
func (f *Fleet) Jobs() ([]energysched.JobStatus, error) {
	var out []energysched.JobStatus
	err := f.do(func() {
		vms := f.sim.VMs()
		out = make([]energysched.JobStatus, 0, len(vms))
		for _, v := range vms {
			out = append(out, jobStatus(v))
		}
	})
	return out, err
}

// Job returns one job's status.
func (f *Fleet) Job(id int) (st energysched.JobStatus, err error) {
	err = f.call(func() error {
		vms := f.sim.VMs()
		if id < 0 || id >= len(vms) {
			return errf(http.StatusNotFound, "job %d not found", id)
		}
		st = jobStatus(vms[id])
		return nil
	})
	return st, err
}

// Cluster returns the fleet's node-level status. The queue and every
// node's VM list are carved from one slice sized up front.
func (f *Fleet) Cluster() (energysched.ClusterStatus, error) {
	var st energysched.ClusterStatus
	err := f.do(func() {
		cl := f.sim.Cluster()
		working, online := cl.Counts()
		f.queued = f.sim.AppendQueue(f.queued[:0])
		n := len(f.queued)
		for _, node := range cl.Nodes {
			n += len(node.VMs)
		}
		ids := make([]int, 0, n)
		for _, v := range f.queued {
			ids = append(ids, v.ID)
		}
		st = energysched.ClusterStatus{
			Now:          f.sim.Now(),
			Sealed:       f.sim.Sealed(),
			Done:         f.sim.Done(),
			NodesOn:      online,
			NodesWorking: working,
			TotalWatts:   f.sim.WattsNow(),
			Nodes:        make([]energysched.NodeStatus, len(cl.Nodes)),
		}
		if len(ids) > 0 {
			st.Queue = ids[:len(ids):len(ids)]
		}
		for i, node := range cl.Nodes {
			start := len(ids)
			ids = ids[:start+len(node.VMs)]
			st.Nodes[i] = nodeStatus(node, f.sim.NodeWatts(node.ID), ids[start:start:len(ids)])
		}
	})
	return st, err
}

// Report returns the paper metrics accumulated so far (final after a
// drain).
func (f *Fleet) Report() (energysched.ServiceReport, error) {
	var rep energysched.ServiceReport
	err := f.do(func() {
		if f.final != nil {
			rep = *f.final
		} else {
			rep = ServiceReportOf(f.sim.ReportAt(f.sim.Now()), false)
		}
	})
	return rep, err
}

// walStats returns the durability counters with the log's live record
// count, nil for an in-memory fleet. Call only from the event loop.
func (f *Fleet) walStats() *energysched.WALStats {
	if f.wal == nil {
		return nil
	}
	st := f.stats
	st.Records = f.wal.records
	return &st
}

// Info summarizes the fleet for the registry listing.
func (f *Fleet) Info() (energysched.FleetInfo, error) {
	var info energysched.FleetInfo
	err := f.do(func() {
		info = energysched.FleetInfo{
			ID:     f.id,
			Policy: f.cfg.Policy,
			Seed:   f.cfg.Seed,
			Pace:   f.cfg.Pace,
			Now:    f.sim.Now(),
			Sealed: f.sim.Sealed(),
			Done:   f.sim.Done(),
			Jobs:   f.jobs.Len(),
			WAL:    f.walStats(),
		}
	})
	return info, err
}

// Status returns the fleet's half of its status report, read in one
// turn: everything but the daemon's role and a follower's position.
func (f *Fleet) Status() (energysched.FleetStatus, error) {
	var st energysched.FleetStatus
	err := f.do(func() {
		st = energysched.FleetStatus{
			ID:                     f.id,
			Now:                    f.sim.Now(),
			Sealed:                 f.sim.Sealed(),
			Done:                   f.sim.Done(),
			Jobs:                   f.jobs.Len(),
			Replication:            energysched.ReplicationStatus{Gen: f.gen, Offset: f.logOffset()},
			WAL:                    f.walStats(),
			LastSnapshotAgeSeconds: -1,
		}
	})
	if st.WAL != nil && st.WAL.LastSnapshotUnix > 0 {
		st.LastSnapshotAgeSeconds = time.Since(time.Unix(st.WAL.LastSnapshotUnix, 0)).Seconds()
	}
	return st, err
}

// Drain seals the workload, runs every admitted job to completion and
// returns the final report. The seal is durable: commit logs it to the
// WAL before the drain and compacts the drained state after.
func (f *Fleet) Drain() (rep energysched.ServiceReport, err error) {
	err = f.call(func() error {
		if f.final == nil {
			seal := logRun{seal: true, frames: [][]byte{sealRecord}, now: f.sim.Now()}
			if err := f.commit(seal); err != nil {
				return err
			}
		}
		rep = *f.final
		return nil
	})
	return rep, err
}

// --- snapshot / restore ---

// resolveSnapshotPath confines API-supplied snapshot paths to the
// fleet's snapshot directory: the request names a file, never a
// location. The HTTP surface is unauthenticated, so honoring client
// paths verbatim would let any network peer overwrite or probe
// arbitrary files as the daemon user. (The operator's -restore flag
// goes through RestoreFile and is not confined.) It reads f.jobs, so
// it runs on the event loop only.
func (f *Fleet) resolveSnapshotPath(path string) (string, error) {
	if path == "" {
		return filepath.Join(f.cfg.SnapshotDir, fmt.Sprintf("energyschedd-%s-%d.snapshot.json", f.id, f.jobs.Len())), nil
	}
	name := filepath.Base(filepath.Clean(path))
	if name == "." || name == ".." || name == string(filepath.Separator) {
		return "", errf(http.StatusBadRequest, "bad snapshot name %q", path)
	}
	return filepath.Join(f.cfg.SnapshotDir, name), nil
}

// Snapshot writes an API-named snapshot (confined to SnapshotDir; an
// empty path picks a name).
func (f *Fleet) Snapshot(path string) (info energysched.SnapshotInfo, err error) {
	err = f.call(func() error {
		p, err := f.resolveSnapshotPath(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return errf(http.StatusInternalServerError, "%v", err)
		}
		snap := f.snapshotState()
		if err := writeSnapshot(p, snap); err != nil {
			return errf(http.StatusInternalServerError, "%v", err)
		}
		f.logf("snapshot: %d jobs at t=%.1fs -> %s", snap.Jobs.Len(), snap.SavedVirtual, p)
		info = energysched.SnapshotInfo{
			Path: p, Jobs: snap.Jobs.Len(), Now: snap.SavedVirtual, Sealed: snap.Sealed,
		}
		return nil
	})
	return info, err
}

// Restore replaces the fleet's state with an API-named snapshot's
// (confined to SnapshotDir).
func (f *Fleet) Restore(path string) (info energysched.SnapshotInfo, err error) {
	if path == "" {
		return info, errf(http.StatusBadRequest, "restore needs a snapshot path")
	}
	err = f.call(func() error {
		p, err := f.resolveSnapshotPath(path)
		if err == nil {
			info, err = f.restore(p)
		}
		return err
	})
	return info, err
}

// RestoreFile loads a snapshot from an operator-supplied path (the
// -restore flag); unlike Restore it is not confined to SnapshotDir.
func (f *Fleet) RestoreFile(path string) (info energysched.SnapshotInfo, err error) {
	err = f.call(func() (e error) { info, e = f.restore(path); return e })
	return info, err
}

// restore rebuilds the fleet from a snapshot file. The fleet starts a
// new timeline: the generation is bumped so a replication follower
// re-bootstraps instead of splicing pre- and post-restore history.
// Call only from the event loop.
func (f *Fleet) restore(path string) (energysched.SnapshotInfo, error) {
	snap, err := readSnapshot(path)
	if err == nil {
		err = snap.Config.checkBounds()
	}
	if err != nil {
		return energysched.SnapshotInfo{}, errf(http.StatusUnprocessableEntity, "%v", err)
	}
	if err := f.applySnapshot(snap, f.gen+1, path); err != nil {
		return energysched.SnapshotInfo{}, err
	}
	return energysched.SnapshotInfo{
		Path: path, Jobs: snap.Jobs.Len(), Now: snap.SavedVirtual, Sealed: snap.Sealed,
	}, nil
}

// applySnapshot replaces the fleet's state with a snapshot's, on
// timeline generation gen: the restore path (which bumps it) and the
// replication bootstrap (which adopts the leader's) share it. Call
// only from the event loop.
func (f *Fleet) applySnapshot(snap snapshotFile, gen int64, source string) error {
	// The snapshot's scheduling configuration wins: determinism of the
	// replay depends on it. A failed replay keeps config, simulation
	// and generation.
	if err := f.rebuild(snap); err != nil {
		return errf(http.StatusUnprocessableEntity, "%v", err)
	}
	f.gen = gen
	// The new timeline supersedes the WAL: start the log anew from it so
	// a crash after this point recovers it, not the pre-restore one. If
	// that fails, the WAL on disk still describes the OLD timeline —
	// stop acknowledging admissions a future recovery would mis-replay.
	if err := f.compact(); err != nil {
		f.walBroken = true
		f.logf("restore succeeded in memory but its log did not persist; fleet is read-only: %v", err)
	}
	// The pre-restore timeline no longer describes this fleet: clear
	// the replay ring (sequence numbers stay monotonic) and mark the
	// discontinuity for connected stream consumers. Replication
	// sessions are cut for the same reason — reconnecting followers
	// observe the generation change and re-bootstrap; without the cut
	// an idle timeline would never surface the swap.
	f.repl.dropAll(false)
	f.events.Reset()
	f.publish(energysched.Event{
		Time: snap.SavedVirtual, Kind: "restore", VM: -1, Node: -1, Aux: -1,
	})
	f.logf("restored %d jobs at t=%.1fs from %s", snap.Jobs.Len(), snap.SavedVirtual, source)
	return nil
}

// --- metrics ---

// Metrics gathers the fleet's Prometheus samples (without the fleet
// label; the serving layer attaches it).
func (f *Fleet) Metrics() ([]metrics.PromSample, error) {
	var samples []metrics.PromSample
	err := f.do(func() { samples = f.gatherMetrics() })
	return samples, err
}

func (f *Fleet) gatherMetrics() []metrics.PromSample {
	rep := f.sim.ReportAt(f.sim.Now())
	cl := f.sim.Cluster()
	working, online := cl.Counts()
	jobCount := map[string]int{}
	for _, v := range f.sim.VMs() {
		jobCount[v.State.String()]++
	}
	samples := []metrics.PromSample{
		{Name: "energysched_virtual_time_seconds", Help: "Current virtual time of the simulation.", Kind: metrics.PromGauge, Value: f.sim.Now()},
		{Name: "energysched_queue_length", Help: "VMs waiting in the scheduler's virtual host.", Kind: metrics.PromGauge, Value: float64(f.sim.QueueLen())},
		{Name: "energysched_power_watts", Help: "Instantaneous datacenter power draw.", Kind: metrics.PromGauge, Value: f.sim.WattsNow()},
		{Name: "energysched_energy_kwh_total", Help: "Energy consumed since start of the run.", Kind: metrics.PromCounter, Value: rep.EnergyKWh},
		{Name: "energysched_cpu_hours_total", Help: "CPU work executed.", Kind: metrics.PromCounter, Value: rep.CPUHours},
		{Name: "energysched_nodes_working", Help: "Nodes that are on and hosting work.", Kind: metrics.PromGauge, Value: float64(working)},
		{Name: "energysched_nodes_online", Help: "Nodes powered on.", Kind: metrics.PromGauge, Value: float64(online)},
	}
	for _, state := range []cluster.PowerState{cluster.Off, cluster.Booting, cluster.On, cluster.Down} {
		samples = append(samples, metrics.PromSample{
			Name: "energysched_nodes", Help: "Nodes by power state.", Kind: metrics.PromGauge,
			Labels: map[string]string{"state": state.String()}, Value: float64(cl.StateCount(state)),
		})
	}
	for _, state := range []string{"queued", "creating", "running", "migrating", "completed", "failed"} {
		samples = append(samples, metrics.PromSample{
			Name: "energysched_jobs", Help: "Admitted jobs by lifecycle state.", Kind: metrics.PromGauge,
			Labels: map[string]string{"state": state}, Value: float64(jobCount[state]),
		})
	}
	samples = append(samples,
		metrics.PromSample{Name: "energysched_jobs_admitted_total", Help: "Jobs admitted since start.", Kind: metrics.PromCounter, Value: float64(f.jobs.Len())},
		metrics.PromSample{Name: "energysched_migrations_total", Help: "Completed live migrations.", Kind: metrics.PromCounter, Value: float64(rep.Migrations)},
		metrics.PromSample{Name: "energysched_failures_total", Help: "Node failures injected.", Kind: metrics.PromCounter, Value: float64(rep.Failures)},
		metrics.PromSample{Name: "energysched_satisfaction_pct", Help: "Mean client satisfaction of completed jobs.", Kind: metrics.PromGauge, Value: rep.Satisfaction},
		metrics.PromSample{Name: "energysched_delay_pct", Help: "Mean execution delay of completed jobs.", Kind: metrics.PromGauge, Value: rep.Delay},
		metrics.PromSample{Name: "energysched_events_published_total", Help: "Simulation events published to the stream.", Kind: metrics.PromCounter, Value: float64(f.events.Seq())},
	)
	if st := f.walStats(); st != nil {
		samples = append(samples,
			metrics.PromSample{Name: "energysched_wal_records", Help: "Records currently in the admission WAL (replayed on crash).", Kind: metrics.PromGauge, Value: float64(st.Records)},
			metrics.PromSample{Name: "energysched_wal_appended_total", Help: "WAL records appended since open.", Kind: metrics.PromCounter, Value: float64(st.Appended)},
			metrics.PromSample{Name: "energysched_wal_replayed_total", Help: "WAL-tail records replayed during recovery at open.", Kind: metrics.PromCounter, Value: float64(st.Replayed)},
			metrics.PromSample{Name: "energysched_wal_snapshots_total", Help: "Compaction snapshots written since open.", Kind: metrics.PromCounter, Value: float64(st.Snapshots)},
			metrics.PromSample{Name: "energysched_wal_truncated_bytes", Help: "Torn/corrupt tail bytes dropped by WAL recovery at open.", Kind: metrics.PromGauge, Value: float64(st.TruncatedBytes)},
			metrics.PromSample{Name: "energysched_wal_offset", Help: "Logical log offset: admissions plus the seal since the timeline began.", Kind: metrics.PromGauge, Value: float64(f.logOffset())},
		)
		if st.LastSnapshotUnix > 0 {
			samples = append(samples, metrics.PromSample{
				Name: "energysched_wal_snapshot_age_seconds", Help: "Wall-clock age of the newest compaction snapshot.",
				Kind: metrics.PromGauge, Value: time.Since(time.Unix(st.LastSnapshotUnix, 0)).Seconds(),
			})
		}
	}
	if sch, ok := f.sim.Policy().(*core.Scheduler); ok {
		st := sch.Stats
		solver := []struct {
			name, help string
			v          int
		}{
			{"energysched_solver_rounds_total", "Scheduling rounds executed.", st.Rounds},
			{"energysched_solver_moves_total", "Improving moves applied.", st.Moves},
			{"energysched_solver_score_evals_total", "Score(h,vm) evaluations.", st.ScoreEvals},
			{"energysched_solver_limit_hits_total", "Rounds stopped by the iteration limit.", st.LimitHits},
			{"energysched_solver_col_refreshes_total", "Dirty-column recomputations.", st.ColRefreshes},
			{"energysched_solver_row_rescans_total", "Per-VM class records rebuilt: those of re-scored rows, and those settled when read.", st.RowRescans},
			{"energysched_solver_carry_rounds_total", "Rounds starting from a carried matrix.", st.CarryRounds},
			{"energysched_solver_stale_rows_total", "Candidate rows re-scored on carry.", st.StaleRows},
			{"energysched_solver_stale_cols_total", "Host columns re-scored on carry.", st.StaleCols},
			{"energysched_solver_reused_cells_total", "Base-matrix cells carried across rounds.", st.ReusedCells},
		}
		for _, m := range solver {
			samples = append(samples, metrics.PromSample{Name: m.name, Help: m.help, Kind: metrics.PromCounter, Value: float64(m.v)})
		}
	}
	samples = append(samples, metrics.PromSample{
		Name: "energysched_trace_rounds_total", Help: "Solver round traces recorded in the trace ring.",
		Kind: metrics.PromCounter, Value: float64(f.trace.Seq()),
	})
	samples = f.router.metricsSamples(samples)
	samples = f.accountingSamples(samples)
	samples = f.hists.samples(samples)
	return samples
}
