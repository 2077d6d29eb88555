package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"energysched"
	"energysched/internal/server"
)

// serveSpec is one daemon workload's fixed shape. Traffic is
// bag-of-task waves: wave k is perWave identical jobs, all submitted at
// virtual time k·Δ with Δ spreading the waves over a virtual week, and
// no wave starts before the previous one is acknowledged. Identical
// jobs make the drained report independent of how two connections
// interleave, and the barrier means no request is ever behind the
// daemon's admission watermark, so there are no 409s.
type serveSpec struct {
	wal     bool // durable admission log with fsync per admission
	batch   bool // post a wave as one JSON array, with a reader beside the writer
	waves   int
	perWave int
}

const (
	serveHorizon    = 7 * 24 * 3600.0 // virtual seconds the waves span
	serveSubmitters = 2               // closed-loop connections of serve_wal (nproc)
)

// daemon is energyschedd in process: the handler cmd/energyschedd
// mounts, built by server.New with the daemon's flag defaults, behind a
// real http.Server on a loopback TCP port.
type daemon struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan error
}

func startDaemon(walDir, snapDir string) (*daemon, error) {
	cfg := server.Config{
		// cmd/energyschedd's flag defaults.
		Policy: "SB", Seed: 1, LambdaMin: 30, LambdaMax: 90,
		Score:            &energysched.ScoreParams{Cempty: 20, Cfill: 40},
		SnapshotDir:      snapDir,
		SnapshotInterval: 256,
		WALSync:          "always",
		MaxFleets:        64,
		WALDir:           walDir,
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{
		srv:  srv,
		http: &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1), // the one Serve result
	}
	go func() { d.done <- d.http.Serve(ln) }()
	return d, nil
}

// stop shuts the listener and every fleet down and waits for the serve
// goroutine to end.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	d.srv.Close()
	if serr := <-d.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// conn is one client connection: an energysched.Client over its own
// transport, so a workload's connection count is exactly its number of
// conns.
type conn struct {
	client    *energysched.Client
	transport *http.Transport
}

func newConn(url string) *conn {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	c := energysched.NewClient(url)
	c.HTTPClient = &http.Client{Transport: tr}
	return &conn{client: c, transport: tr}
}

type serveInstance struct {
	spec  serveSpec
	d     *daemon
	dir   string                // this instance's scratch directory
	waves []energysched.JobSpec // wave k's job
	conns []*conn               // submitters, then (batch) the reader

	reps    int
	fleetID string
	fleet   []*energysched.Client // conns' clients bound to the current fleet
	before  promScrape            // traced: the scrape taken in prepare
	root    int                   // traced: the repetition's root span

	// What the WAL workload's restart found, for the fleet.recover_* and
	// fleet.wal_bytes_per_job rows.
	recoveredJobs, walBytesPerRecord float64

	// calls counts the timed region's HTTP requests and failures; the
	// submitters update it concurrently.
	mu    sync.Mutex
	calls callStats
}

type callStats struct {
	attempted, failed       int
	conflicts409, throttled int
}

// serveWaves picks the waves' jobs: every stride-th job of the
// calibrated week, named from the run seed.
func serveWaves(spec serveSpec, seed int64) []energysched.JobSpec {
	base := energysched.GenerateTrace(energysched.TraceOptions{Days: 7, Seed: traceSeed})
	stride := len(base.Jobs) / spec.waves
	if stride < 1 {
		stride = 1
	}
	delta := serveHorizon / float64(spec.waves)
	out := make([]energysched.JobSpec, spec.waves)
	for k := range out {
		j := base.Jobs[(k*stride)%len(base.Jobs)]
		submit := float64(k) * delta
		out[k] = energysched.JobSpec{
			Name: jobName(seed, k), CPU: j.CPU, Mem: j.Mem, Duration: j.Duration,
			Submit: &submit, DeadlineFactor: j.DeadlineFactor, FaultTolerance: j.FaultTolerance,
		}
	}
	return out
}

// offlineTrace is the trace a simulator run needs to reproduce what the
// waves admit online: perWave copies of each wave's job at its submit
// time, IDs in admission order.
func offlineTrace(spec serveSpec, waves []energysched.JobSpec) *energysched.Trace {
	tr := &energysched.Trace{}
	for _, w := range waves {
		for i := 0; i < spec.perWave; i++ {
			tr.Jobs = append(tr.Jobs, energysched.Job{
				ID: len(tr.Jobs), Name: w.Name, Submit: *w.Submit, Duration: w.Duration,
				CPU: w.CPU, Mem: w.Mem, DeadlineFactor: w.DeadlineFactor, FaultTolerance: w.FaultTolerance,
			})
		}
	}
	return tr
}

// setUp starts the daemon, generates the waves and runs the warm-up
// repetition. On the WAL workload the daemon is stopped and started
// again between the warm-up's last admission and its drain, so the
// set-up includes recovering a full repetition's log and the drained
// report also proves recovered ≡ uninterrupted.
func (s serveSpec) setUp(e *env, rec *recorder) (instance, outcome, error) {
	e.instances++
	in := &serveInstance{spec: s, dir: filepath.Join(e.scratch, fmt.Sprintf("daemon-%d", e.instances))}
	if err := os.MkdirAll(in.dir, 0o755); err != nil {
		return nil, outcome{}, err
	}
	var id int
	if rec != nil {
		id = rec.open("workload.generate", 0)
	}
	in.waves = serveWaves(s, e.seed)
	if rec != nil {
		rec.close(id)
	}
	if err := in.start(rec, "server.start"); err != nil {
		return nil, outcome{}, err
	}
	warm, err := in.warmUp(rec)
	if err != nil {
		in.close()
		return nil, outcome{}, err
	}
	return in, warm, nil
}

func (in *serveInstance) walDir() string {
	if !in.spec.wal {
		return ""
	}
	return filepath.Join(in.dir, "wal")
}

// start brings the daemon up and connects the clients.
func (in *serveInstance) start(rec *recorder, spanName string) error {
	var id int
	if rec != nil {
		id = rec.open(spanName, 0)
	}
	d, err := startDaemon(in.walDir(), filepath.Join(in.dir, "snapshots"))
	if rec != nil {
		rec.close(id)
	}
	if err != nil {
		return err
	}
	in.d = d
	n := serveSubmitters
	if in.spec.batch {
		n = 2 // one writer, one reader
	}
	in.conns = in.conns[:0]
	for i := 0; i < n; i++ {
		in.conns = append(in.conns, newConn(d.url))
	}
	in.bind()
	return nil
}

func (in *serveInstance) stop() error {
	for _, c := range in.conns {
		c.transport.CloseIdleConnections()
	}
	if in.d == nil {
		return nil
	}
	err := in.d.stop()
	in.d = nil
	return err
}

func (in *serveInstance) close() error {
	err := in.stop()
	if rerr := os.RemoveAll(in.dir); err == nil {
		err = rerr
	}
	return err
}

// bind points every connection at the current fleet.
func (in *serveInstance) bind() {
	in.fleet = in.fleet[:0]
	for _, c := range in.conns {
		in.fleet = append(in.fleet, c.client.Fleet(in.fleetID))
	}
}

func (in *serveInstance) warmUp(rec *recorder) (outcome, error) {
	if err := in.prepare(nil); err != nil {
		return outcome{}, err
	}
	in.calls = callStats{}
	in.submitWaves(nil, 0)
	if in.spec.wal {
		if err := in.restart(rec); err != nil {
			return outcome{}, err
		}
	}
	warm := in.drain()
	return warm, in.finish(nil)
}

// restart stops the daemon with the warm-up's admissions in its WAL and
// starts it again on the same directory, checking what recovery
// replayed against what the log held.
func (in *serveInstance) restart(rec *recorder) error {
	ctx := context.Background()
	info, err := in.conns[0].client.GetFleet(ctx, in.fleetID)
	if err != nil {
		return err
	}
	if info.WAL == nil {
		return fmt.Errorf("fleet %s has no WAL", in.fleetID)
	}
	st, err := os.Stat(filepath.Join(in.walDir(), in.fleetID, "wal.log"))
	if err != nil {
		return err
	}
	if err := in.stop(); err != nil {
		return err
	}
	if err := in.start(rec, "fleet.recover"); err != nil {
		return err
	}
	after, err := in.conns[0].client.GetFleet(ctx, in.fleetID)
	if err != nil {
		return err
	}
	jobs := in.spec.waves * in.spec.perWave
	if after.WAL == nil || after.WAL.Replayed != info.WAL.Records || after.Jobs != jobs {
		return fmt.Errorf("recovery of fleet %s: replayed %+v and holds %d jobs, want %d records replayed and %d jobs",
			in.fleetID, after.WAL, after.Jobs, info.WAL.Records, jobs)
	}
	in.recoveredJobs = float64(after.Jobs)
	in.walBytesPerRecord = ratio(float64(st.Size()), float64(info.WAL.Records))
	return nil
}

// prepare creates the repetition's fresh fleet (untimed) and, traced,
// takes the "before" scrape.
func (in *serveInstance) prepare(rec *recorder) error {
	in.reps++
	in.fleetID = fmt.Sprintf("rep%06d", in.reps)
	if _, err := in.conns[0].client.CreateFleet(context.Background(), energysched.FleetSpec{ID: in.fleetID}); err != nil {
		return fmt.Errorf("creating fleet: %w", err)
	}
	in.bind()
	if rec != nil {
		var err error
		if in.before, err = in.scrape(); err != nil {
			return err
		}
	}
	return nil
}

// finish deletes the repetition's fleet (untimed); traced, it first
// scrapes the daemon and folds the deltas into the recorder.
func (in *serveInstance) finish(rec *recorder) error {
	if rec != nil {
		after, err := in.scrape()
		if err != nil {
			return err
		}
		in.recordServerSide(rec, in.before, after)
	}
	if err := in.conns[0].client.DeleteFleet(context.Background(), in.fleetID); err != nil {
		return fmt.Errorf("deleting fleet: %w", err)
	}
	return nil
}

func (in *serveInstance) scrape() (promScrape, error) {
	resp, err := in.conns[0].client.HTTPClient.Get(in.d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

// run is the timed body: admit every wave, then drain.
func (in *serveInstance) run(rec *recorder) (outcome, error) {
	in.calls = callStats{}
	if rec != nil {
		in.root = rec.open("rep", 0)
	}
	in.submitWaves(rec, in.root)
	out := in.drain()
	if rec != nil {
		rec.close(in.root)
		in.recordClientSide(rec)
	}
	return out, nil
}

// call runs one request, with a client span around it when traced, and
// books its outcome: anything but a 2xx is a failed operation, and 409s
// and 429s are also counted by kind.
func (in *serveInstance) call(rec *recorder, root int, name string, fn func() error) {
	var id int
	if rec != nil {
		id = rec.open(name, root)
	}
	err := fn()
	if rec != nil {
		rec.close(id)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.calls.attempted++
	if err == nil {
		return
	}
	in.calls.failed++
	var api *energysched.APIError
	if errors.As(err, &api) {
		switch api.Status {
		case http.StatusConflict:
			in.calls.conflicts409++
		case http.StatusTooManyRequests:
			in.calls.throttled++
		}
	}
}

func (in *serveInstance) submitWaves(rec *recorder, root int) {
	if in.spec.batch {
		in.submitBatches(rec, root)
		return
	}
	ctx := context.Background()
	each := in.spec.perWave / len(in.fleet)
	for k := range in.waves {
		spec := in.waves[k]
		var wg sync.WaitGroup
		for _, c := range in.fleet {
			wg.Add(1)
			go func(c *energysched.Client) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					in.call(rec, root, "client.submit", func() error {
						_, err := c.SubmitJob(ctx, spec)
						return err
					})
				}
			}(c)
		}
		wg.Wait() // the barrier between waves
	}
}

// submitBatches is serve_mixed's traffic: the writer posts wave after
// wave as one array each; for every acknowledged wave the reader issues
// its three GETs while the writer is already posting the next wave.
func (in *serveInstance) submitBatches(rec *recorder, root int) {
	ctx := context.Background()
	writer, reader := in.fleet[0], in.fleet[1]
	acked := make(chan int, len(in.waves)) // one send per wave: the writer never blocks on the reader
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := range acked {
			in.call(rec, root, "client.read", func() error { _, err := reader.Report(ctx); return err })
			in.call(rec, root, "client.read", func() error { _, err := reader.Cluster(ctx); return err })
			in.call(rec, root, "client.read", func() error { _, err := reader.Job(ctx, k*in.spec.perWave); return err })
		}
	}()
	batch := make([]energysched.JobSpec, in.spec.perWave)
	for k, spec := range in.waves {
		for i := range batch {
			batch[i] = spec
		}
		in.call(rec, root, "client.submit", func() error {
			_, err := writer.SubmitJobs(ctx, batch)
			return err
		})
		acked <- k
	}
	close(acked)
	wg.Wait()
}

// drain seals the fleet, waits for every job to complete and turns the
// final report into the repetition's outcome.
func (in *serveInstance) drain() outcome {
	var rep energysched.ServiceReport
	in.call(nil, 0, "client.drain", func() error {
		var err error
		rep, err = in.fleet[0].Drain(context.Background())
		return err
	})
	in.mu.Lock()
	defer in.mu.Unlock()
	return outcome{
		report: energysched.Result{
			Policy: rep.Policy, LambdaMin: rep.LambdaMin, LambdaMax: rep.LambdaMax,
			AvgWorking: rep.AvgWorking, AvgOnline: rep.AvgOnline, CPUHours: rep.CPUHours,
			EnergyKWh: rep.EnergyKWh, Satisfaction: rep.Satisfaction, Delay: rep.Delay,
			Migrations: rep.Migrations, JobsCompleted: rep.JobsCompleted,
			JobsTotal: rep.JobsTotal, Failures: rep.Failures, SimEnd: rep.SimEnd,
		},
		jobs:      rep.JobsCompleted,
		attempted: in.calls.attempted,
		failed:    in.calls.failed,
	}
}

// verify checks PR 3's online ≡ offline contract: the warm-up's drained
// report equals energysched.Run on the equivalent trace, field for
// field.
func (in *serveInstance) verify(warm outcome) error {
	want, err := energysched.Run(energysched.Options{Policy: "SB", Seed: simSeed, Trace: offlineTrace(in.spec, in.waves)})
	if err != nil {
		return err
	}
	if warm.report != want {
		return fmt.Errorf("online report differs from the offline run:\n online  %+v\n offline %+v", warm.report, want)
	}
	return nil
}
