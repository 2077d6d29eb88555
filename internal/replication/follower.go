package replication

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"energysched"
	"energysched/internal/fleet"
	"energysched/internal/metrics"
)

// Follower mirrors every fleet of a leader daemon. It discovers the
// leader's fleets by polling the registry, runs one apply loop per
// fleet — each a resumable replication stream applied through the
// local fleet's event loop — and tracks per-fleet lag and leader
// contact. Promote (operator-driven, or leader-loss detection after a
// grace window) stops the loops, seals catch-up on every fleet, and
// leaves the local state ready to serve.
type Follower struct {
	cfg    Config
	client *energysched.Client

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	loss   sync.Once

	mu        sync.Mutex
	fleets    map[string]*Position
	loops     map[string]struct{}
	contact   time.Time // last successful leader exchange, any fleet
	connected bool      // ever reached the leader

	// lagHist observes the records-behind-leader lag after each applied
	// record; applyHist observes each record's apply latency in seconds.
	// Both are internally locked and exported by the server's /metrics.
	lagHist   metrics.Histogram
	applyHist metrics.Histogram
}

// Config parameterizes a follower.
type Config struct {
	// Leader is the leader daemon's base URL.
	Leader string
	// Manager is the local fleet registry mirrored fleets live in.
	Manager *fleet.Manager
	// MirrorConfig builds the local configuration for a newly
	// discovered fleet. The replication bootstrap header then adopts
	// the leader's scheduling configuration, so this mostly sets
	// service-level knobs; implementations should force max pacing
	// (Pace 0) so the mirror's clock is driven only by replicated
	// records.
	MirrorConfig func(id string) fleet.Config
	// PollInterval is the fleet-discovery period (default 1s).
	PollInterval time.Duration
	// retryMin, retryMax bound the jittered exponential reconnect
	// backoff of each apply loop (defaults 100ms, 2s).
	retryMin, retryMax time.Duration
	// Grace, when > 0, arms leader-loss detection: OnLeaderLoss fires
	// once no exchange with the leader has succeeded for this long.
	Grace time.Duration
	// OnLeaderLoss is called (once) from the detection goroutine; the
	// server uses it to auto-promote.
	OnLeaderLoss func()
	// Logf receives follower log lines.
	Logf func(format string, args ...interface{})
}

// Position is one mirrored fleet's replication state.
type Position struct {
	// Gen is the timeline generation the mirror is on.
	Gen int64
	// Applied is the local log offset: records applied so far.
	Applied int64
	// LeaderHead is the leader's last-reported log offset.
	LeaderHead int64
	// LastContact is the last frame received for this fleet.
	LastContact time.Time
}

// Lag is the records the mirror is behind the leader (never negative).
func (p Position) Lag() int64 {
	if l := p.LeaderHead - p.Applied; l > 0 {
		return l
	}
	return 0
}

// NewFollower builds a follower; call Run to start it.
func NewFollower(cfg Config) *Follower {
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = time.Second
	}
	if cfg.retryMin <= 0 {
		cfg.retryMin = 100 * time.Millisecond
	}
	if cfg.retryMax < cfg.retryMin {
		cfg.retryMax = 2 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Follower{
		cfg:    cfg,
		client: &energysched.Client{BaseURL: cfg.Leader, Timeout: 10 * time.Second},
		ctx:    ctx,
		cancel: cancel,
		fleets: make(map[string]*Position),
		loops:  make(map[string]struct{}),
	}
}

// Run starts discovery, the apply loops, and — with a grace window —
// leader-loss detection. The grace clock starts now: a follower whose
// leader is already gone still promotes one grace window after start.
func (fw *Follower) Run() {
	fw.mu.Lock()
	fw.contact = time.Now()
	fw.mu.Unlock()
	fw.wg.Add(1)
	go fw.discoverLoop()
	if fw.cfg.Grace > 0 {
		fw.wg.Add(1)
		go fw.graceLoop()
	}
}

// Close stops the follower without promoting.
func (fw *Follower) Close() {
	fw.cancel()
	fw.wg.Wait()
}

// Promote stops replication, waits for the apply loops to settle, and
// seals catch-up on every mirrored fleet — fast-forwarding each to its
// admission watermark exactly like crash recovery does. It returns the
// per-fleet log offsets at promotion.
func (fw *Follower) Promote() (map[string]int64, error) {
	fw.cancel()
	fw.wg.Wait()
	fw.mu.Lock()
	ids := make([]string, 0, len(fw.fleets))
	for id := range fw.fleets {
		ids = append(ids, id)
	}
	fw.mu.Unlock()
	offs := make(map[string]int64, len(ids))
	for _, id := range ids {
		f, err := fw.cfg.Manager.Get(id)
		if err != nil {
			continue // deleted locally; nothing to seal
		}
		off, err := f.SealCatchUp()
		if err != nil {
			return nil, fmt.Errorf("replication: sealing catch-up of %s: %w", id, err)
		}
		offs[id] = off
	}
	return offs, nil
}

// Status returns a copy of every mirrored fleet's position.
func (fw *Follower) Status() map[string]Position {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	out := make(map[string]Position, len(fw.fleets))
	for id, p := range fw.fleets {
		out[id] = *p
	}
	return out
}

// Ready reports promotion readiness: the leader has been reached and
// every mirrored fleet has completed its handshake (a position with
// generation 0 has not yet seen its hello frame) and is fully caught
// up.
func (fw *Follower) Ready() bool {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if !fw.connected {
		return false
	}
	for _, p := range fw.fleets {
		if p.Gen == 0 || p.Lag() > 0 {
			return false
		}
	}
	return true
}

// MetricsSamples returns the follower's replication histogram
// families: records-behind-leader lag and per-record apply latency.
func (fw *Follower) MetricsSamples() []metrics.PromSample {
	out := metrics.HistogramSamples("energysched_repl_lag_records",
		"Records behind the leader after each applied record.", nil, &fw.lagHist)
	return append(out, metrics.HistogramSamples("energysched_repl_record_apply_seconds",
		"Per-record apply latency on the follower (stream decode to event-loop apply).", nil, &fw.applyHist)...)
}

// --- discovery ---

func (fw *Follower) discoverLoop() {
	defer fw.wg.Done()
	fw.discover() // first poll immediately; then on the ticker
	t := time.NewTicker(fw.cfg.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			fw.discover()
		case <-fw.ctx.Done():
			return
		}
	}
}

func (fw *Follower) discover() {
	infos, err := fw.client.Fleets(fw.ctx)
	if err != nil {
		if fw.ctx.Err() == nil {
			fw.cfg.Logf("replication: discovering leader fleets: %v", err)
		}
		return
	}
	fw.touch("")
	for _, info := range infos {
		fw.ensureLoop(info.ID)
	}
}

// ensureLoop makes sure a mirrored fleet exists locally and its apply
// loop is running.
func (fw *Follower) ensureLoop(id string) {
	fw.mu.Lock()
	if _, ok := fw.loops[id]; ok {
		fw.mu.Unlock()
		return
	}
	fw.loops[id] = struct{}{}
	fw.fleets[id] = &Position{LastContact: time.Now()}
	fw.mu.Unlock()
	if !fw.cfg.Manager.Has(id) {
		if _, err := fw.cfg.Manager.Create(id, fw.cfg.MirrorConfig(id)); err != nil {
			fw.cfg.Logf("replication: creating mirror fleet %s: %v", id, err)
			fw.mu.Lock()
			delete(fw.loops, id)
			delete(fw.fleets, id)
			fw.mu.Unlock()
			return
		}
	}
	fw.cfg.Logf("replication: mirroring fleet %s", id)
	fw.wg.Add(1)
	go fw.applyLoop(id)
}

// touch records a successful leader exchange, for the named fleet
// ("" = discovery only).
func (fw *Follower) touch(id string) {
	now := time.Now()
	fw.mu.Lock()
	fw.contact = now
	fw.connected = true
	if p, ok := fw.fleets[id]; ok {
		p.LastContact = now
	}
	fw.mu.Unlock()
}

// --- apply loop ---

func (fw *Follower) applyLoop(id string) {
	defer fw.wg.Done()
	backoff := fw.cfg.retryMin
	for fw.ctx.Err() == nil {
		progressed := fw.syncOnce(id)
		if fw.ctx.Err() != nil {
			return
		}
		if progressed {
			backoff = fw.cfg.retryMin
		} else if backoff < fw.cfg.retryMax {
			backoff *= 2
			if backoff > fw.cfg.retryMax {
				backoff = fw.cfg.retryMax
			}
		}
		// Full jitter: reconnects of many fleets decorrelate instead
		// of stampeding a restarted leader.
		d := time.Duration(rand.Int63n(int64(backoff))) + 1
		select {
		case <-time.After(d):
		case <-fw.ctx.Done():
			return
		}
	}
}

// syncOnce opens one replication stream for the fleet and applies
// frames until the stream ends. It reports whether the mirror's
// generation or applied offset moved, which resets the reconnect
// backoff: a stream the mirror refuses at its first record made none,
// however many frames came before it.
func (fw *Follower) syncOnce(id string) (progressed bool) {
	f, err := fw.cfg.Manager.Get(id)
	if err != nil {
		return false // fleet deleted locally; loop will back off
	}
	gen, off, _, err := f.ReplState()
	if err != nil {
		return false
	}
	defer func(gen, off int64) {
		g, o, _, err := f.ReplState()
		progressed = err == nil && (g != gen || o != off)
	}(gen, off)
	if off == 0 {
		// Empty timeline: force a header bootstrap so the mirror
		// also adopts the leader's scheduling configuration (a plain
		// offset resume replays records but carries no config).
		gen = -1
	}
	u := fw.cfg.Leader + "/v1/fleets/" + url.PathEscape(id) + "/replicate?gen=" +
		strconv.FormatInt(gen, 10) + "&offset=" + strconv.FormatInt(off, 10)
	req, err := http.NewRequestWithContext(fw.ctx, http.MethodGet, u, nil)
	if err != nil {
		return
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return
	}
	dec := NewDecoder(resp.Body)
	for {
		frame, err := dec.Next()
		if err != nil {
			// Clean end, torn frame or dropped connection: reconnect
			// and resume at the applied offset either way.
			if err != io.EOF && fw.ctx.Err() == nil {
				fw.cfg.Logf("replication: %s stream: %v", id, err)
			}
			return
		}
		fw.touch(id)
		if !fw.apply(id, f, frame) {
			return
		}
	}
}

// apply dispatches one frame into the local fleet. A false return
// aborts the stream (the loop reconnects and re-syncs).
func (fw *Follower) apply(id string, f *fleet.Fleet, frame Frame) bool {
	switch frame.Kind {
	case KindHello:
		fw.position(id, func(p *Position) {
			p.Gen = frame.Gen
			p.LeaderHead = frame.Head
		})
	case KindSnapshot:
		gen, off, err := f.ApplyReplHeader(frame.Payload)
		if err != nil {
			fw.cfg.Logf("replication: %s bootstrap: %v", id, err)
			return false
		}
		fw.position(id, func(p *Position) {
			p.Gen = gen
			p.Applied = off
			if off > p.LeaderHead {
				p.LeaderHead = off
			}
		})
	case KindRecord:
		start := time.Now()
		err := f.ApplyReplRecord(fleet.ReplRecord{Offset: frame.Offset, Now: frame.Now, Data: frame.Record})
		if err != nil {
			// A gap (409) means this stream skipped records — e.g. the
			// leader restarted mid-backlog. Reconnect resumes cleanly.
			fw.cfg.Logf("replication: %s record %d: %v", id, frame.Offset, err)
			return false
		}
		fw.applyHist.ObserveSince(start)
		fw.position(id, func(p *Position) {
			p.Applied = frame.Offset
			if frame.Offset > p.LeaderHead {
				p.LeaderHead = frame.Offset
			}
			fw.lagHist.Observe(float64(p.Lag()))
		})
	case KindPing:
		if err := f.AdvanceTo(frame.Now); err != nil {
			return false
		}
		fw.position(id, func(p *Position) { p.LeaderHead = frame.Head })
	default:
		// Unknown frame kind from a newer leader: ignore, keep reading.
	}
	return true
}

func (fw *Follower) position(id string, update func(p *Position)) {
	fw.mu.Lock()
	if p, ok := fw.fleets[id]; ok {
		update(p)
	}
	fw.mu.Unlock()
}

// --- leader-loss detection ---

func (fw *Follower) graceLoop() {
	defer fw.wg.Done()
	interval := fw.cfg.Grace / 4
	if interval > 250*time.Millisecond {
		interval = 250 * time.Millisecond
	}
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			fw.mu.Lock()
			lost := time.Since(fw.contact) > fw.cfg.Grace
			fw.mu.Unlock()
			if lost {
				fw.cfg.Logf("replication: no leader contact for %s; leader loss", fw.cfg.Grace)
				fw.loss.Do(func() {
					if fw.cfg.OnLeaderLoss != nil {
						// The callback promotes, which cancels fw.ctx and
						// waits for this goroutine — run it detached.
						go fw.cfg.OnLeaderLoss()
					}
				})
				return
			}
		case <-fw.ctx.Done():
			return
		}
	}
}
