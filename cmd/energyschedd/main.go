// Command energyschedd hosts the energy-aware scheduler as a
// long-running service: jobs are admitted over an HTTP/JSON API
// instead of replayed from a trace file, the fleet and the paper
// metrics are observable while the simulation runs, events stream
// over SSE, and the daemon state can be checkpointed to disk and
// restored after a restart.
//
// The daemon hosts many independent fleets per process, each an
// isolated scheduler instance with its own event loop and clock pace;
// with -wal-dir every fleet also gets a durable admission log
// (write-ahead log + interval-compacted snapshots), so a killed
// daemon restarts into exactly the state it acknowledged.
//
// Since PR 6 a second daemon can run as a warm standby: -follow
// streams every leader fleet's admission log into local mirrors and
// POST /v1/promote (or -promote-grace leader-loss detection) flips it
// to serving with fleet state byte-identical to the leader's.
//
//	energyschedd -listen :7781 -pace max
//	energyschedd -listen :7781 -fleets default,batch=BF -wal-dir /var/lib/energyschedd -snapshot-interval 256
//	energyschedd -restore /var/lib/energyschedd/energyschedd-120.snapshot.json
//	energyschedd -listen :7782 -follow http://localhost:7781 -promote-grace 5s -wal-dir /var/lib/energyschedd-standby
//
// API quickstart (see docs/ARCHITECTURE.md, "Service mode" and
// "Multi-fleet & durability"):
//
//	curl -s -X POST localhost:7781/v1/jobs -d '{"cpu_pct":200,"mem_units":10,"duration_s":3600}'
//	curl -s -X POST localhost:7781/v1/jobs -d '[{"cpu_pct":100,"mem_units":5,"duration_s":600},{"cpu_pct":100,"mem_units":5,"duration_s":600}]'
//	curl -s -X POST localhost:7781/v1/fleets -d '{"id":"batch","policy":"BF"}'
//	curl -s localhost:7781/v1/fleets/batch/report | jq -r .table
//	curl -s localhost:7781/v1/cluster | jq .nodes_on
//	curl -s -N localhost:7781/v1/events
//	curl -s 'localhost:7781/v1/series?metric=watts&step=3600'
//	curl -s localhost:7781/v1/jobs/0/journey | jq .steps
//	curl -s localhost:7781/v1/alerts | jq .firing
//	curl -s -X POST localhost:7781/v1/snapshot
package main

import (
	"context"
	"errors"
	_ "expvar" // GET /debug/vars on -debug-addr
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // GET /debug/pprof/* on -debug-addr
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"energysched"
	"energysched/internal/cli"
	"energysched/internal/fleet"
	"energysched/internal/obs"
	"energysched/internal/obs/slo"
	"energysched/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("energyschedd: ")

	var cfg server.Config
	flag.StringVar(&cfg.Policy, "policy", "SB", "scheduling policy: RD, RR, BF, DBF, SB0, SB1, SB2, SB")
	flag.Int64Var(&cfg.Seed, "seed", 1, "random seed")
	flag.Float64Var(&cfg.LambdaMin, "lmin", 30, "λmin: working ratio below which idle nodes are shut down (%)")
	flag.Float64Var(&cfg.LambdaMax, "lmax", 90, "λmax: working ratio above which nodes are booted (%)")
	flag.BoolVar(&cfg.Failures, "failures", false, "enable reliability-driven node failures")
	flag.Float64Var(&cfg.CheckpointSeconds, "checkpoint", 0, "VM checkpoint interval in virtual seconds (0 = off)")
	flag.Float64Var(&cfg.AdaptiveTarget, "adaptive", 0, "dynamic-λ satisfaction target in percent (0 = static)")
	flag.StringVar(&cfg.SnapshotDir, "snapshot-dir", ".", "directory for unnamed snapshots")
	flag.IntVar(&cfg.MaxFleets, "max-fleets", 64, "cap on hosted fleets; POST /v1/fleets returns 429 at the cap (0 = unlimited; startup fleets are exempt)")
	flag.StringVar(&cfg.WALDir, "wal-dir", "", "durable root for per-fleet admission WALs + compaction snapshots (empty = in-memory only)")
	flag.IntVar(&cfg.SnapshotInterval, "snapshot-interval", 256, "fewest WAL records per compaction snapshot; a snapshot of more jobs waits for as many records (0 = never compact)")
	flag.StringVar(&cfg.WALSync, "wal-sync", "always", "WAL append sync policy: 'always' (fsync per admission) or 'os' (page cache)")
	flag.StringVar(&cfg.Follow, "follow", "", "warm-standby mode: continuously mirror the leader daemon at this base URL (e.g. http://leader:7781); writes are rejected until promotion")
	flag.DurationVar(&cfg.PromoteGrace, "promote-grace", 0, "in -follow mode, auto-promote after this long without leader contact (0 = manual POST /v1/promote only)")
	flag.DurationVar(&cfg.FollowPoll, "follow-poll", 0, "in -follow mode, leader fleet-discovery period (0 = default 1s)")
	flag.StringVar(&cfg.TraceVerbosity, "trace", "off", "decision-trace recording level per fleet: off, rounds, actions, scores (pure observability; scheduling is byte-identical at any level)")
	flag.IntVar(&cfg.TraceDepth, "trace-depth", 0, "round traces each fleet retains for GET /trace (0 = default 256)")
	flag.IntVar(&cfg.SeriesDepth, "series-depth", 0, "accounting samples each fleet retains for GET /series (0 = default 4096)")
	flag.IntVar(&cfg.JourneyDepth, "journey-depth", 0, "job journeys each fleet retains for GET /jobs/{id}/journey (0 = default 2048)")
	flag.DurationVar(&cfg.SSEHeartbeat, "sse-ping", 0, "SSE keepalive ping interval for /events, /trace and /journeys streams (0 = default 15s)")
	flag.IntVar(&cfg.AdmitQueue, "admit-queue", 0, "bounded depth of each fleet's admission queue (0 = default 256; a full queue sheds with 429)")
	flag.Float64Var(&cfg.RateLimit, "rate-limit", 0, "per-fleet admission rate limit in jobs/sec (0 = unlimited; over-limit submits get 429 + Retry-After)")
	flag.IntVar(&cfg.RateBurst, "rate-burst", 0, "admission token-bucket burst in jobs (0 = one second's worth of -rate-limit)")
	var (
		listen    = flag.String("listen", ":7781", "HTTP listen address")
		cempty    = flag.Float64("cempty", 20, "Ce: empty-host penalty of the score-based policy")
		cfill     = flag.Float64("cfill", 40, "Cf: occupied-host reward of the score-based policy")
		pace      = flag.String("pace", "max", "virtual pacing: 'max' (admission-gated, deterministic) or virtual seconds per wall second (e.g. 1, 60)")
		restore   = flag.String("restore", "", "restore this snapshot into the default fleet before serving")
		fleets    = flag.String("fleets", "default", "comma-separated fleets to host: name or name=policy (the 'default' fleet is always created)")
		sloFile   = flag.String("slo-file", "", "JSON file of SLO objectives applied to every fleet (burn-rate alerts on GET /v1/alerts)")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060); empty = disabled")
	)
	cli.Parse("energyschedd")
	// The server's lines follow -log-format and -log-level, which only
	// the parse configures.
	cfg.Logf = obs.LogfAdapter(cli.Logger().With("component", "server"))
	cfg.Score = &energysched.ScoreParams{Cempty: *cempty, Cfill: *cfill}

	if *pace != "max" {
		v, err := strconv.ParseFloat(*pace, 64)
		if err != nil || v <= 0 {
			cli.Usagef("energyschedd", "-pace must be 'max' or a positive number, got %q", *pace)
		}
		cfg.Pace = v
	}
	if cfg.SSEHeartbeat < 0 {
		cli.Usagef("energyschedd", "-sse-ping must be >= 0")
	}
	if *sloFile != "" {
		data, err := os.ReadFile(*sloFile)
		if err != nil {
			cli.Fatalf("energyschedd", "-slo-file: %v", err)
		}
		cfg.SLOs, err = slo.Parse(data)
		if err != nil {
			cli.Fatalf("energyschedd", "-slo-file %s: %v", *sloFile, err)
		}
	}
	if cfg.Follow != "" {
		if *restore != "" {
			cli.Usagef("energyschedd", "-restore cannot be combined with -follow (a follower's state comes from the leader)")
		}
		if !strings.HasPrefix(cfg.Follow, "http://") && !strings.HasPrefix(cfg.Follow, "https://") {
			cli.Usagef("energyschedd", "-follow must be a base URL (http:// or https://), got %q", cfg.Follow)
		}
	}
	for _, tok := range strings.Split(*fleets, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		spec := energysched.FleetSpec{ID: tok}
		if name, pol, ok := strings.Cut(tok, "="); ok {
			spec.ID, spec.Policy = name, pol
		}
		if err := fleet.ValidateID(spec.ID); err != nil {
			cli.Usagef("energyschedd", "-fleets: %v", err)
		}
		cfg.Fleets = append(cfg.Fleets, spec)
	}

	srv, err := server.New(cfg)
	var bad *fleet.Error
	if errors.As(err, &bad) && bad.Status == http.StatusBadRequest {
		// A fleet the flags configure would refuse its config.
		cli.Usagef("energyschedd", "%v", err)
	}
	if err != nil {
		cli.Fatalf("energyschedd", "%v", err)
	}
	defer srv.Close()

	if *restore != "" {
		// The server's Logf reports the restore details.
		if _, err := srv.RestoreFile(*restore); err != nil {
			cli.Fatalf("energyschedd", "restore: %v", err)
		}
	}

	if *debugAddr != "" {
		// http.DefaultServeMux carries the pprof and expvar
		// registrations from the blank imports; a separate listener
		// keeps the profiling surface off the public API port.
		dbg := cli.Logger().With("component", "debug")
		go func() {
			dbg.Info("profiling endpoint up", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				dbg.Error("debug listener failed", "err", err)
			}
		}()
	}

	httpSrv := &http.Server{Addr: *listen, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	role := "leader"
	if cfg.Follow != "" {
		role = "follower of " + cfg.Follow
	}
	cli.Logger().Info("serving", "listen", *listen, "policy", cfg.Policy,
		"pace", *pace, "role", role, "trace", cfg.TraceVerbosity, "version", cli.Version())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("caught %s, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			cli.Fatalf("energyschedd", "%v", err)
		}
	}
	fmt.Println("bye")
}
