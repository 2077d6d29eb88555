// Package server is the HTTP layer of the energyschedd daemon. Since
// PR 4 it hosts N independent fleets — isolated datacenter.Simulation
// instances, each with its own actor event loop, clock pace, event
// ring and WAL-backed durability (internal/fleet) — behind a shared
// registry and a versioned multi-fleet API:
//
//	POST   /v1/fleets             create a fleet from a named config
//	GET    /v1/fleets             list fleets
//	GET    /v1/fleets/{id}        one fleet's summary (incl. WAL stats)
//	DELETE /v1/fleets/{id}        stop and remove a fleet
//	...    /v1/fleets/{id}/jobs   all PR 3 routes, remounted per fleet
//
// The PR 3 single-fleet routes (/v1/jobs, /v1/report, ...) keep
// working as aliases for the "default" fleet. GET /metrics aggregates
// every fleet's samples under a fleet label.
package server

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"energysched"
	"energysched/internal/bodybuf"
	"energysched/internal/fleet"
	"energysched/internal/metrics"
	"energysched/internal/obs"
	"energysched/internal/obs/slo"
	"energysched/internal/replication"
)

// DefaultFleet is the fleet the PR 3 alias routes address.
const DefaultFleet = "default"

// FleetSeed names a fleet to create at startup (the -fleets flag).
type FleetSeed struct {
	ID     string
	Policy string // "" = the daemon's default policy
}

// Config parameterizes the daemon. The scheduling fields double as
// the base configuration every fleet inherits unless its FleetSpec
// overrides them.
type Config struct {
	// Policy selects the scheduler (same names as energysched.Run;
	// default "SB").
	Policy string
	// Seed drives all stochastic components (default 1).
	Seed int64
	// LambdaMin, LambdaMax are the power-manager thresholds in percent
	// (defaults 30, 90).
	LambdaMin, LambdaMax float64
	// Score overrides the consolidation costs (nil = paper values).
	Score *energysched.ScoreParams
	// Failures enables reliability-driven node crashes.
	Failures bool
	// CheckpointSeconds > 0 checkpoints running VMs periodically, at
	// most once per virtual second.
	CheckpointSeconds float64
	// AdaptiveTarget > 0 enables dynamic λmin adjustment.
	AdaptiveTarget float64
	// Classes overrides the fleet hardware (nil = the paper's 100
	// nodes).
	Classes []energysched.NodeClass
	// Pace is the virtual-seconds-per-wall-second acceleration, at most
	// 1e6; <= 0 selects max pacing (watermark-gated, fully
	// deterministic).
	Pace float64
	// SnapshotDir receives API-named snapshots; non-default fleets use
	// a per-fleet subdirectory (default ".").
	SnapshotDir string
	// EventRing is the replay-ring depth for /v1/events reconnects
	// (default 4096).
	EventRing int
	// WALDir is the durable root: per-fleet admission WALs (each opening
	// with its last compaction snapshot) and the fleet manifest live
	// under it. Empty disables durability.
	WALDir string
	// SnapshotInterval is the fewest records after each fleet's WAL
	// header that compact it into a fresh snapshot, or as many as the
	// header holds jobs if that is more (0 = never compact
	// automatically).
	SnapshotInterval int
	// WALSync is the WAL append sync policy: fleet.SyncAlways
	// (default) or fleet.SyncOS.
	WALSync string
	// MaxFleets caps the fleet registry (0 = unlimited): POST
	// /v1/fleets returns 429 once the daemon hosts this many fleets.
	// Startup seeds and manifest-recovered fleets are exempt.
	MaxFleets int
	// Fleets are additional fleets to ensure at startup, next to
	// DefaultFleet (fleets recovered from the WAL manifest win).
	Fleets []FleetSeed
	// Follow, when set, starts the daemon as a warm-standby follower
	// of the leader at this base URL: it mirrors every leader fleet by
	// streaming the admission log, rejects writes with 503, and flips
	// to serving on POST /v1/promote (or leader-loss detection). No
	// fleets are seeded in follower mode — they come from the leader.
	Follow string
	// PromoteGrace, when > 0 in follower mode, arms leader-loss
	// detection: the follower promotes itself once no exchange with
	// the leader has succeeded for this long. 0 = manual promote only.
	PromoteGrace time.Duration
	// FollowPoll overrides the follower's fleet-discovery period
	// (default 1s).
	FollowPoll time.Duration
	// ReplPing overrides the leader's replication keepalive period
	// (default 500ms): pings carry the leader's clock and log head so
	// idle followers still track lag and virtual time.
	ReplPing time.Duration
	// TraceVerbosity is each fleet's decision-trace recording level:
	// "off" (default), "rounds", "actions" or "scores". Pure
	// observability — any level leaves scheduling byte-identical.
	// Fleets inherit it unless their FleetSpec overrides.
	TraceVerbosity string
	// TraceDepth is how many round traces each fleet retains for
	// GET /trace (0 = default 256).
	TraceDepth int
	// SeriesDepth is how many accounting samples each fleet retains
	// for GET /series (0 = default 4096). Pure observability — any
	// depth leaves scheduling byte-identical.
	SeriesDepth int
	// JourneyDepth is how many job lifecycle journeys each fleet
	// retains for GET /jobs/{id}/journey (0 = default 2048).
	JourneyDepth int
	// SLOs are the declarative service-level objectives every fleet
	// evaluates (the -slo-file flag); nil disables SLO alerting.
	SLOs []slo.Objective
	// SSEHeartbeat overrides the keepalive ping period of idle SSE
	// streams (events, trace, journey firehose); 0 = default 15s.
	SSEHeartbeat time.Duration
	// AdmitQueue bounds each fleet's admission queue (0 = default 256);
	// a full queue sheds with 429 + Retry-After.
	AdmitQueue int
	// RateLimit throttles each fleet's admissions to this many jobs per
	// second (0 = unlimited); over-limit submits get 429 + Retry-After.
	RateLimit float64
	// RateBurst is the admission token bucket's capacity in jobs
	// (0 = one second's worth of RateLimit).
	RateBurst int
	// Logf, when non-nil, receives daemon log lines.
	Logf func(format string, args ...interface{})
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
	return c
}

// Server is one running daemon instance: the fleet registry plus the
// HTTP surface.
type Server struct {
	cfg Config
	mux *http.ServeMux
	mgr *fleet.Manager

	// roleMu guards the role state. A daemon starts as a leader, or —
	// with Config.Follow — as a follower that may later be promoted;
	// it never demotes.
	roleMu    sync.Mutex
	follower  *replication.Follower // nil once (or when) leading
	promoting bool

	// httpHists is the per-route request latency aggregation behind
	// energysched_http_request_seconds.
	httpHists routeHists

	// reads coalesces concurrent identical GETs on the hot read
	// endpoints (/report, /cluster, /series) into one fleet turn.
	reads readGroup
}

// New builds a daemon: it opens the fleet registry (recovering every
// fleet recorded under WALDir), ensures the default and seeded fleets
// exist, and mounts the HTTP routes. Callers mount Handler on an
// http.Server and Close the daemon on shutdown.
func New(cfg Config) (*Server, error) {
	s := &Server{cfg: cfg.withDefaults(), mux: http.NewServeMux()}
	// The cap is installed after the startup seeds: operator-named
	// fleets (and manifest-recovered ones) must come up even when they
	// meet or exceed -max-fleets; the cap gates API-driven creation.
	mgr, err := fleet.NewManager(fleet.Options{Dir: cfg.WALDir, SLOs: cfg.SLOs, Logf: cfg.Logf})
	if err != nil {
		return nil, err
	}
	s.mgr = mgr
	if s.cfg.Follow != "" {
		// Follower: no seeds and no registry cap — every fleet is a
		// mirror of the leader's and must always come up.
		s.follower = replication.NewFollower(replication.Config{
			Leader:  s.cfg.Follow,
			Manager: mgr,
			MirrorConfig: func(id string) fleet.Config {
				fc := s.fleetConfig(id, energysched.FleetSpec{ID: id})
				// Max pacing: the mirror's clock advances only through
				// replicated records and pings, never on its own.
				fc.Pace = 0
				return fc
			},
			PollInterval: s.cfg.FollowPoll,
			Grace:        s.cfg.PromoteGrace,
			OnLeaderLoss: func() {
				if _, err := s.promote(); err != nil {
					s.logf("server: auto-promote failed: %v", err)
				} else {
					s.logf("server: leader lost; promoted to leader")
				}
			},
			Logf: s.cfg.Logf,
		})
		s.routes()
		s.follower.Run()
		return s, nil
	}
	seeds := append([]FleetSeed{{ID: DefaultFleet}}, s.cfg.Fleets...)
	for _, seed := range seeds {
		if seed.ID == "" || mgr.Has(seed.ID) {
			continue // recovered from the manifest: its config wins
		}
		spec := energysched.FleetSpec{ID: seed.ID, Policy: seed.Policy}
		if _, err := mgr.Create(seed.ID, s.fleetConfig(seed.ID, spec)); err != nil {
			mgr.Close()
			return nil, fmt.Errorf("server: creating fleet %s: %w", seed.ID, err)
		}
	}
	mgr.SetMaxFleets(s.cfg.MaxFleets)
	s.routes()
	return s, nil
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Role returns "leader" or "follower".
func (s *Server) Role() string {
	if s.following() != nil {
		return "follower"
	}
	return "leader"
}

// following returns the follower while the daemon is one, else nil.
func (s *Server) following() *replication.Follower {
	s.roleMu.Lock()
	defer s.roleMu.Unlock()
	return s.follower
}

// promote flips a follower to serving leader: replication stops, every
// mirrored fleet seals catch-up, and writes are accepted from then on.
func (s *Server) promote() (map[string]int64, error) {
	s.roleMu.Lock()
	fw := s.follower
	if fw == nil {
		s.roleMu.Unlock()
		return nil, &fleet.Error{Status: http.StatusConflict, Msg: "already the leader"}
	}
	if s.promoting {
		s.roleMu.Unlock()
		return nil, &fleet.Error{Status: http.StatusConflict, Msg: "promotion already in progress"}
	}
	s.promoting = true
	s.roleMu.Unlock()

	offs, err := fw.Promote()
	s.roleMu.Lock()
	if err == nil {
		s.follower = nil
		// The ex-follower now gates API fleet creation like any leader.
		s.mgr.SetMaxFleets(s.cfg.MaxFleets)
	}
	s.promoting = false
	s.roleMu.Unlock()
	return offs, err
}

// fleetConfig derives one fleet's configuration: the daemon's base
// config with the spec's overrides applied.
func (s *Server) fleetConfig(id string, spec energysched.FleetSpec) fleet.Config {
	fc := fleet.Config{
		Sched: fleet.Sched{
			Policy:            s.cfg.Policy,
			Seed:              s.cfg.Seed,
			LambdaMin:         s.cfg.LambdaMin,
			LambdaMax:         s.cfg.LambdaMax,
			Failures:          s.cfg.Failures,
			CheckpointSeconds: s.cfg.CheckpointSeconds,
			AdaptiveTarget:    s.cfg.AdaptiveTarget,
			Classes:           s.cfg.Classes,
		},
		Pace:             s.cfg.Pace,
		SnapshotDir:      s.cfg.SnapshotDir,
		EventRing:        s.cfg.EventRing,
		SnapshotInterval: s.cfg.SnapshotInterval,
		WALSync:          s.cfg.WALSync,
		TraceVerbosity:   s.cfg.TraceVerbosity,
		TraceDepth:       s.cfg.TraceDepth,
		SeriesDepth:      s.cfg.SeriesDepth,
		JourneyDepth:     s.cfg.JourneyDepth,
		SLOs:             s.cfg.SLOs,
		AdmitQueue:       s.cfg.AdmitQueue,
		RateLimit:        s.cfg.RateLimit,
		RateBurst:        s.cfg.RateBurst,
		Logf:             s.cfg.Logf,
	}
	if sc := s.cfg.Score; sc != nil {
		fc.HasScore, fc.Cempty, fc.Cfill, fc.THempty = true, sc.Cempty, sc.Cfill, sc.THempty
	}
	if id != DefaultFleet {
		// Per-fleet snapshot namespaces: API-named snapshots of
		// different fleets must not overwrite each other.
		fc.SnapshotDir = filepath.Join(s.cfg.SnapshotDir, id)
	}
	if spec.Policy != "" {
		fc.Policy = spec.Policy
	}
	if spec.Seed != 0 {
		fc.Seed = spec.Seed
	}
	if spec.LambdaMin != 0 {
		fc.LambdaMin = spec.LambdaMin
	}
	if spec.LambdaMax != 0 {
		fc.LambdaMax = spec.LambdaMax
	}
	if spec.Pace != nil {
		fc.Pace = *spec.Pace
	}
	if spec.Failures {
		fc.Failures = true
	}
	if spec.CheckpointSeconds > 0 {
		fc.CheckpointSeconds = spec.CheckpointSeconds
	}
	if spec.AdaptiveTarget > 0 {
		fc.AdaptiveTarget = spec.AdaptiveTarget
	}
	if spec.SnapshotInterval > 0 {
		fc.SnapshotInterval = spec.SnapshotInterval
	}
	if spec.TraceVerbosity != "" {
		fc.TraceVerbosity = spec.TraceVerbosity
	}
	if spec.TraceDepth > 0 {
		fc.TraceDepth = spec.TraceDepth
	}
	if spec.SeriesDepth > 0 {
		fc.SeriesDepth = spec.SeriesDepth
	}
	if spec.JourneyDepth > 0 {
		fc.JourneyDepth = spec.JourneyDepth
	}
	// A negative admission setting is passed on for the fleet to refuse.
	if spec.AdmitQueue != 0 {
		fc.AdmitQueue = spec.AdmitQueue
	}
	if spec.RateLimit != 0 {
		fc.RateLimit = spec.RateLimit
	}
	if spec.RateBurst != 0 {
		fc.RateBurst = spec.RateBurst
	}
	return fc
}

// Handler returns the daemon's HTTP handler: the route table wrapped
// in the per-route latency middleware feeding /metrics.
func (s *Server) Handler() http.Handler { return s.withRouteMetrics(s.mux) }

// Close stops replication (if following) and every fleet. In-flight
// requests receive 503.
func (s *Server) Close() {
	fw := s.following()
	if fw != nil {
		fw.Close()
	}
	s.mgr.Close()
}

// Manager exposes the fleet registry (tests and embedders).
func (s *Server) Manager() *fleet.Manager { return s.mgr }

// RestoreFile loads a snapshot into the default fleet at startup (the
// -restore flag).
func (s *Server) RestoreFile(path string) (energysched.SnapshotInfo, error) {
	f, err := s.mgr.Get(DefaultFleet)
	if err != nil {
		return energysched.SnapshotInfo{}, err
	}
	return f.RestoreFile(path)
}

// --- HTTP surface ---

// writeBody answers with the JSON body encode appends and the newline
// json.Encoder ends a value with. A body that cannot be encoded (a NaN)
// leaves the answer without one.
func writeBody(w http.ResponseWriter, status int, encode func([]byte) ([]byte, error)) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	bodybuf.Encode(encode, func(b []byte) error {
		_, err := w.Write(append(b, '\n'))
		return err
	})
}

// writeJSON answers with v through encoding/json: the bodies that have
// no wire codec.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	writeBody(w, status, func(b []byte) ([]byte, error) {
		data, err := json.Marshal(v)
		return append(b, data...), err
	})
}

// reply answers with the body encode appends, or with err when the
// operation failed.
func reply(w http.ResponseWriter, status int, encode func([]byte) ([]byte, error), err error) {
	if err != nil {
		writeErr(w, err)
		return
	}
	writeBody(w, status, encode)
}

func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	retryAfter := 0
	var fe *fleet.Error
	if errors.As(err, &fe) {
		status = fe.Status
		retryAfter = fe.RetryAfter
	} else if errors.Is(err, fleet.ErrClosed) {
		status = http.StatusServiceUnavailable
	}
	if retryAfter == 0 && status == http.StatusTooManyRequests {
		// Every 429 is transient from the client's view (fleets get
		// deleted, windows pass); default a backoff hint when the error
		// didn't carry its own.
		retryAfter = 1
	}
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	writeBody(w, status, energysched.APIError{Status: status, Message: err.Error()}.AppendJSON)
}

// gateWrites rejects state-changing requests on a follower: its
// timelines belong to the leader. Returns false when the request was
// rejected. 503 (not 409) so the client RetryPolicy rides out a
// promotion transparently.
func (s *Server) gateWrites(w http.ResponseWriter) bool {
	if s.following() == nil {
		return true
	}
	w.Header().Set("Retry-After", "1")
	writeBody(w, http.StatusServiceUnavailable, energysched.APIError{
		Status:  http.StatusServiceUnavailable,
		Message: "this daemon is a follower; send writes to the leader or POST /v1/promote",
	}.AppendJSON)
	return false
}

// fleetHandler is a per-fleet route's handler: the addressed fleet is
// already resolved.
type fleetHandler func(w http.ResponseWriter, r *http.Request, f *fleet.Fleet)

// perFleet mounts h behind the one preamble every per-fleet route
// shares: reject state-changing requests on a follower (write routes
// only), then resolve the addressed fleet — the {fleet} path segment,
// or the default fleet on the alias routes.
func (s *Server) perFleet(write bool, h fleetHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if write && !s.gateWrites(w) {
			return
		}
		id := r.PathValue("fleet")
		if id == "" {
			id = DefaultFleet
		}
		f, err := s.mgr.Get(id)
		if err != nil {
			writeErr(w, err)
			return
		}
		h(w, r, f)
	}
}

func (s *Server) routes() {
	const read, write = false, true
	s.mux.HandleFunc("POST /v1/fleets", s.handleFleetCreate)
	s.mux.HandleFunc("GET /v1/fleets", s.handleFleetList)
	s.mux.HandleFunc("GET /v1/fleets/{fleet}", s.perFleet(read, s.handleFleetInfo))
	s.mux.HandleFunc("DELETE /v1/fleets/{fleet}", s.handleFleetDelete)
	// The per-fleet API, mounted twice: under /v1/fleets/{fleet} and —
	// for PR 3 compatibility — at the old paths, which alias the
	// default fleet.
	for _, p := range []string{"/v1", "/v1/fleets/{fleet}"} {
		s.mux.HandleFunc("POST "+p+"/jobs", s.perFleet(write, s.handleSubmit))
		s.mux.HandleFunc("GET "+p+"/jobs", s.perFleet(read, s.handleJobs))
		s.mux.HandleFunc("GET "+p+"/jobs/{id}", s.perFleet(read, s.handleJob))
		s.mux.HandleFunc("GET "+p+"/cluster", s.perFleet(read, s.handleCluster))
		s.mux.HandleFunc("GET "+p+"/report", s.perFleet(read, s.handleReport))
		s.mux.HandleFunc("POST "+p+"/drain", s.perFleet(write, s.handleDrain))
		s.mux.HandleFunc("POST "+p+"/snapshot", s.perFleet(read, snapshotOp((*fleet.Fleet).Snapshot)))
		s.mux.HandleFunc("POST "+p+"/restore", s.perFleet(write, snapshotOp((*fleet.Fleet).Restore)))
		s.mux.HandleFunc("GET "+p+"/events", s.perFleet(read, s.handleEvents))
		// Decision tracing (PR 8): snapshot/SSE tail plus the runtime
		// verbosity knob.
		s.mux.HandleFunc("GET "+p+"/trace", s.perFleet(read, s.handleTrace))
		s.mux.HandleFunc("POST "+p+"/trace/verbosity", s.perFleet(read, s.handleTraceVerbosity))
		// Accounting (PR 9): the energy/SLA time-series and the job
		// lifecycle journeys.
		s.mux.HandleFunc("GET "+p+"/series", s.perFleet(read, s.handleSeries))
		s.mux.HandleFunc("GET "+p+"/journeys", s.perFleet(read, s.handleJourneys))
		s.mux.HandleFunc("GET "+p+"/jobs/{id}/journey", s.perFleet(read, s.handleJourney))
	}
	// SLO burn-rate alerts: daemon-wide at /v1/alerts (every fleet's
	// objectives), fleet-scoped under the fleet prefix.
	s.mux.HandleFunc("GET /v1/alerts", s.handleAlerts)
	s.mux.HandleFunc("GET /v1/fleets/{fleet}/alerts", s.perFleet(read, s.handleFleetAlerts))
	// Replication & failover (PR 6).
	s.mux.HandleFunc("GET /v1/fleets/{fleet}/replicate", s.perFleet(read, s.handleReplicate))
	s.mux.HandleFunc("GET /v1/fleets/{fleet}/status", s.perFleet(read, s.handleFleetStatus))
	s.mux.HandleFunc("GET /v1/health", s.handleHealth)
	s.mux.HandleFunc("POST /v1/promote", s.handlePromote)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
}

// --- fleet registry handlers ---

func (s *Server) handleFleetCreate(w http.ResponseWriter, r *http.Request) {
	if !s.gateWrites(w) {
		return
	}
	var spec energysched.FleetSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&spec); err != nil {
		writeErr(w, &fleet.Error{Status: http.StatusBadRequest, Msg: "decoding fleet spec: " + err.Error()})
		return
	}
	// Create checks the id and the config before anything touches disk.
	f, err := s.mgr.Create(spec.ID, s.fleetConfig(spec.ID, spec))
	if err != nil {
		writeErr(w, err)
		return
	}
	info, err := f.Info()
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleFleetList(w http.ResponseWriter, r *http.Request) {
	fleets := s.mgr.List()
	out := make([]energysched.FleetInfo, 0, len(fleets))
	for _, f := range fleets {
		info, err := f.Info()
		if err != nil {
			continue // closing concurrently; omit from the listing
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleFleetInfo(w http.ResponseWriter, r *http.Request, f *fleet.Fleet) {
	info, err := f.Info()
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleFleetDelete(w http.ResponseWriter, r *http.Request) {
	if !s.gateWrites(w) {
		return
	}
	id := r.PathValue("fleet")
	if err := s.mgr.Delete(id); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"id": id, "deleted": true})
}

// --- per-fleet handlers ---

// handleSubmit admits one job (body = JobSpec object) or a batch
// (body = JSON array of JobSpec), the batch atomically in one
// event-loop turn.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request, f *fleet.Fleet) {
	// Decode inside the pooled buffer's lifetime, submit outside it.
	var (
		batch bool
		specs energysched.JobSpecList
		spec  energysched.JobSpec
	)
	what := "reading body: "
	err := bodybuf.Read(http.MaxBytesReader(w, r.Body, 8<<20), r.ContentLength, func(body []byte) error {
		trimmed := bytes.TrimLeft(body, " \t\r\n")
		if batch = len(trimmed) > 0 && trimmed[0] == '['; batch {
			what = "decoding job batch: "
			return specs.UnmarshalJSON(trimmed)
		}
		what = "decoding job spec: "
		return spec.UnmarshalJSON(trimmed)
	})
	if err != nil {
		writeErr(w, &fleet.Error{Status: http.StatusBadRequest, Msg: what + err.Error()})
		return
	}
	if batch {
		out, err := f.SubmitBatch(specs)
		reply(w, http.StatusAccepted, energysched.JobStatusList(out).AppendJSON, err)
		return
	}
	st, err := f.Submit(spec)
	reply(w, http.StatusAccepted, st.AppendJSON, err)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request, f *fleet.Fleet) {
	out, err := f.Jobs()
	reply(w, http.StatusOK, energysched.JobStatusList(out).AppendJSON, err)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request, f *fleet.Fleet) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeErr(w, &fleet.Error{Status: http.StatusBadRequest, Msg: "bad job id"})
		return
	}
	st, err := f.Job(id)
	reply(w, http.StatusOK, st.AppendJSON, err)
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request, f *fleet.Fleet) {
	st, err := s.reads.do("cluster", f.ID(), func() (interface{}, error) {
		return f.Cluster()
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeBody(w, http.StatusOK, st.(energysched.ClusterStatus).AppendJSON)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request, f *fleet.Fleet) {
	rep, err := s.reads.do("report", f.ID(), func() (interface{}, error) {
		return f.Report()
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeBody(w, http.StatusOK, rep.(energysched.ServiceReport).AppendJSON)
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request, f *fleet.Fleet) {
	rep, err := f.Drain()
	reply(w, http.StatusOK, rep.AppendJSON, err)
}

// snapshotOp is the handler of POST …/snapshot and …/restore: both take
// an optional {"path": …} body and answer with the SnapshotInfo of what
// op (Fleet.Snapshot, Fleet.Restore) wrote or loaded.
func snapshotOp(op func(f *fleet.Fleet, path string) (energysched.SnapshotInfo, error)) fleetHandler {
	return func(w http.ResponseWriter, r *http.Request, f *fleet.Fleet) {
		path, err := decodePath(r)
		if err != nil {
			writeErr(w, err)
			return
		}
		info, err := op(f, path)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	}
}

func decodePath(r *http.Request) (string, error) {
	if r.ContentLength == 0 {
		return "", nil
	}
	var body struct {
		Path string `json:"path"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<16)).Decode(&body); err != nil {
		return "", &fleet.Error{Status: http.StatusBadRequest, Msg: "decoding body: " + err.Error()}
	}
	return body.Path, nil
}

// --- replication & failover ---

// defaultReplPing is the leader's keepalive period on replication
// streams.
const defaultReplPing = 500 * time.Millisecond

// handleReplicate streams one fleet's admission log: a hello frame,
// then the log header it announces or the record backlog that brings
// the caller level, then live records as they commit, with periodic
// pings carrying the leader's clock and head. Frames are CRC-wrapped
// exactly like WAL records on disk
// (GET /v1/fleets/{id}/replicate?gen=G&offset=O).
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request, f *fleet.Fleet) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, &fleet.Error{Status: http.StatusInternalServerError, Msg: "streaming unsupported"})
		return
	}
	// A malformed position is a 400, not a silent header bootstrap.
	var pos [2]int64 // gen, offset; 0 when absent
	for i, name := range []string{"gen", "offset"} {
		v := cmp.Or(r.URL.Query().Get(name), "0")
		var err error
		if pos[i], err = strconv.ParseInt(v, 10, 64); err != nil {
			writeErr(w, &fleet.Error{Status: http.StatusBadRequest, Msg: fmt.Sprintf("bad %s %q: want an integer", name, v)})
			return
		}
	}
	sess, err := f.ReplSubscribe(pos[0], pos[1])
	if err != nil {
		writeErr(w, err)
		return
	}
	defer f.ReplUnsubscribe(sess)

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	send := func(fr replication.Frame) bool {
		return replication.WriteFrame(w, fr) == nil
	}
	sendRecord := func(rec fleet.ReplRecord) bool {
		return send(replication.Frame{Kind: replication.KindRecord, Offset: rec.Offset, Now: rec.Now, Record: rec.Data})
	}
	// drain sends every record already queued in the session without
	// blocking; false means the stream is over (write failed, or the
	// session was cut loose as a slow consumer / the fleet closed).
	drain := func() bool {
		for len(sess.Ch) > 0 {
			rec, ok := <-sess.Ch
			if !ok || !sendRecord(rec) {
				return false
			}
		}
		return true
	}
	if replication.WriteHello(w, sess) != nil {
		return
	}
	for _, rec := range sess.Backlog {
		if !sendRecord(rec) {
			return
		}
	}
	// Backlog records carry no clock; this ping catches the follower
	// up to the leader's virtual time.
	if !send(replication.Frame{Kind: replication.KindPing, Head: sess.Head, Now: sess.Now}) {
		return
	}
	fl.Flush()

	pingEvery := s.cfg.ReplPing
	if pingEvery <= 0 {
		pingEvery = defaultReplPing
	}
	ping := time.NewTicker(pingEvery)
	defer ping.Stop()
	for {
		select {
		case rec, ok := <-sess.Ch:
			if !ok || !sendRecord(rec) || !drain() {
				return
			}
			fl.Flush()
		case <-ping.C:
			// Read the clock BEFORE draining: a ping's Now must never
			// overtake a record still queued in the session. Records
			// published before this read carry an older Now and are
			// flushed first; records published after it carry a newer
			// one, so following the ping cannot rewind the mirror's
			// clock past their submit times. (A ping that did overtake
			// would advance the mirror beyond a queued record's admit
			// clock, the inject would fail, and the mirror would wedge
			// read-only.)
			_, head, now, err := f.ReplState()
			if err != nil || !drain() {
				return
			}
			if !send(replication.Frame{Kind: replication.KindPing, Head: head, Now: now}) {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// handleFleetStatus reports one fleet's role and replication position
// (GET /v1/fleets/{id}/status).
func (s *Server) handleFleetStatus(w http.ResponseWriter, r *http.Request, f *fleet.Fleet) {
	st, err := f.Status()
	if err != nil {
		writeErr(w, err)
		return
	}
	st.Role = s.Role()
	fw := s.following()
	if fw != nil {
		if pos, ok := fw.Status()[st.ID]; ok {
			st.Replication.LeaderOffset = pos.LeaderHead
			st.Replication.Lag = pos.Lag()
			st.Replication.LastContactUnix = pos.LastContact.Unix()
		}
	}
	writeJSON(w, http.StatusOK, st)
}

// handleHealth reports the daemon's role and readiness
// (GET /v1/health). A follower is ready once it has reached the
// leader and every mirrored fleet is fully caught up.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := energysched.HealthStatus{
		Role: s.Role(), Fleets: s.mgr.Len(),
		Version: obs.BuildVersion(), Revision: obs.BuildRevision(),
	}
	for _, f := range s.mgr.List() {
		h.AlertsFiring += f.AlertsFiring()
	}
	fw := s.following()
	if fw == nil {
		h.Ready = true
		writeJSON(w, http.StatusOK, h)
		return
	}
	h.Leader = s.cfg.Follow
	h.Ready = fw.Ready()
	h.Replication = make(map[string]energysched.ReplicationStatus)
	for id, pos := range fw.Status() {
		h.Replication[id] = energysched.ReplicationStatus{
			Gen: pos.Gen, Offset: pos.Applied,
			LeaderOffset: pos.LeaderHead, Lag: pos.Lag(),
			LastContactUnix: pos.LastContact.Unix(),
		}
		h.MaxLag = max(h.MaxLag, pos.Lag())
	}
	writeJSON(w, http.StatusOK, h)
}

// handlePromote flips a follower to serving leader (POST /v1/promote).
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	offs, err := s.promote()
	if err != nil {
		writeErr(w, err)
		return
	}
	s.logf("server: promoted to leader (%d fleets)", len(offs))
	writeJSON(w, http.StatusOK, energysched.PromoteInfo{Role: "leader", Fleets: offs})
}

// --- aggregated endpoints ---

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	fleets := s.mgr.List()
	sets := make([][]metrics.PromSample, 0, len(fleets)+2)
	sets = append(sets, []metrics.PromSample{{
		Name: "energysched_fleets", Help: "Fleets hosted by this daemon.",
		Kind: metrics.PromGauge, Value: float64(len(fleets)),
	}, {
		Name: "energysched_role", Help: "Daemon role (1 = active role).",
		Kind: metrics.PromGauge, Value: 1,
		Labels: map[string]string{"role": s.Role()},
	}})
	fw := s.following()
	if fw != nil {
		lags := make([]metrics.PromSample, 0, 2)
		for id, pos := range fw.Status() {
			lags = append(lags, metrics.PromSample{
				Name: "energysched_replication_lag_records",
				Help: "Records this follower is behind the leader.",
				Kind: metrics.PromGauge, Value: float64(pos.Lag()),
				Labels: map[string]string{"fleet": id},
			})
		}
		sets = append(sets, lags, fw.MetricsSamples())
	}
	sets = append(sets, s.httpHists.samples(), s.reads.samples())
	for _, f := range fleets {
		samples, err := f.Metrics()
		if err != nil {
			continue // closing concurrently; omit
		}
		for i := range samples {
			if samples[i].Labels == nil {
				samples[i].Labels = map[string]string{}
			}
			samples[i].Labels["fleet"] = f.ID()
		}
		sets = append(sets, samples)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	metrics.WriteProm(w, metrics.MergeByName(sets...))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fleets := s.mgr.List()
	per := make(map[string]interface{}, len(fleets))
	for _, f := range fleets {
		info, err := f.Info()
		if err != nil {
			continue
		}
		per[f.ID()] = map[string]interface{}{"now_s": info.Now, "done": info.Done}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"ok": true, "fleet_count": len(fleets), "fleets": per,
	})
}

// heartbeatInterval keeps idle SSE connections alive through proxies.
const heartbeatInterval = 15 * time.Second

// heartbeat returns the configured SSE keepalive period (the -sse-ping
// flag), shared by the event, trace and journey streams. Short values
// let tests exercise idle-stream pings without 15s waits.
func (s *Server) heartbeat() time.Duration {
	if s.cfg.SSEHeartbeat > 0 {
		return s.cfg.SSEHeartbeat
	}
	return heartbeatInterval
}

// handleEvents streams the fleet's simulation events
// (GET /v1/fleets/{id}/events), each under its kind as the SSE event
// name.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, f *fleet.Fleet) {
	s.serveSSE(w, r, f.Broker())
}

// resumePoint parses where an SSE consumer (or a snapshot poller)
// resumes: ?since=N wins over the Last-Event-ID header a reconnecting
// EventSource sends. A malformed ?since= is a 400 — treating it as 0
// would replay the whole ring with no gap signal; a malformed header
// is ignored, as the SSE spec has it.
func resumePoint(r *http.Request) (uint64, error) {
	if v := r.URL.Query().Get("since"); v != "" {
		since, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, &fleet.Error{Status: http.StatusBadRequest,
				Msg: fmt.Sprintf("bad since %q: want a sequence number", v)}
		}
		return since, nil
	}
	since, _ := strconv.ParseUint(r.Header.Get("Last-Event-ID"), 10, 64)
	return since, nil
}

// tailable is what serveSSE needs of an obs.Ring, whatever its payload
// type: a subscription with its backlog, and its release.
type tailable interface {
	Subscribe(since uint64) (*obs.RingSub, []obs.RingEvent, bool)
	Unsubscribe(sub *obs.RingSub)
}

// serveSSE tails one ring over server-sent events — the one stream
// loop behind /events, /trace?follow=1 and /journeys?follow=1. The
// gapless backlog since the resume point goes first (preceded by a gap
// event when that point was evicted), then live events as they are
// emitted, with keepalive pings through proxies on an idle fleet. A
// consumer that falls behind is cut loose by the ring rather than
// backpressuring the event loop; the stream also ends when the fleet
// closes or the client goes away.
func (s *Server) serveSSE(w http.ResponseWriter, r *http.Request, ring tailable) {
	since, err := resumePoint(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, &fleet.Error{Status: http.StatusInternalServerError, Msg: "streaming unsupported"})
		return
	}
	sub, backlog, gap := ring.Subscribe(since)
	defer ring.Unsubscribe(sub)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	if gap {
		// The resume point was evicted from the ring: consumers must not
		// assume the stream is contiguous with what they saw before —
		// re-sync from a snapshot (or since=0) instead. The event
		// intentionally carries no id: line, so it never disturbs the
		// consumer's Last-Event-ID bookkeeping; the stream continues
		// with the retained tail after it.
		var oldest uint64
		if len(backlog) > 0 {
			oldest = backlog[0].Seq
		}
		fmt.Fprintf(w, "event: gap\ndata: {\"requested\":%d,\"oldest\":%d}\n\n", since, oldest)
	}
	for _, ev := range backlog {
		writeSSE(w, ev)
	}
	fl.Flush()

	heartbeat := time.NewTicker(s.heartbeat())
	defer heartbeat.Stop()
	for {
		select {
		case ev, ok := <-sub.Ch:
			if !ok {
				return // slow consumer cut loose, or the fleet closed
			}
			writeSSE(w, ev)
			// Drain whatever is already buffered before flushing.
			for len(sub.Ch) > 0 {
				if ev, ok = <-sub.Ch; !ok {
					return
				}
				writeSSE(w, ev)
			}
			fl.Flush()
		case <-heartbeat.C:
			io.WriteString(w, ": ping\n\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func writeSSE(w io.Writer, ev obs.RingEvent) {
	io.WriteString(w, "id: "+strconv.FormatUint(ev.Seq, 10)+"\nevent: "+ev.Name+"\ndata: ")
	w.Write(ev.Data)
	io.WriteString(w, "\n\n")
}
