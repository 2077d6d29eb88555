package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"energysched"
	"energysched/internal/fleet"
	"energysched/internal/obs/series"
	"energysched/internal/workload"
)

// newTestServer spins up a daemon plus an httptest front end.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server, *energysched.Client) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return srv, hs, energysched.NewClient(hs.URL)
}

func specFromJob(j workload.Job) energysched.JobSpec {
	submit := j.Submit
	return energysched.JobSpec{
		Name:           j.Name,
		CPU:            j.CPU,
		Mem:            j.Mem,
		Duration:       j.Duration,
		Submit:         &submit,
		DeadlineFactor: j.DeadlineFactor,
		FaultTolerance: j.FaultTolerance,
		Arch:           j.Arch,
		Hypervisor:     j.Hypervisor,
	}
}

// offlineReport runs the reference offline simulation and renders it
// through the same conversion the daemon uses.
func offlineReport(t *testing.T, trace *workload.Trace, policy string, seed int64) energysched.ServiceReport {
	t.Helper()
	tr := energysched.Trace{Jobs: trace.Jobs}
	sim, err := energysched.NewSimulation(energysched.Options{
		Policy: policy, Seed: seed, Trace: &tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return fleet.ServiceReportOf(rep, true)
}

func paperDayTrace() *workload.Trace {
	cfg := workload.DefaultGeneratorConfig()
	cfg.Horizon = 24 * 3600
	cfg.Seed = 7
	return workload.MustGenerate(cfg)
}

// The headline acceptance test: submitting the paper's one-day trace
// job-by-job through POST /v1/jobs at max pacing yields a GET
// /v1/report byte-identical to the offline energysched.Run report for
// the same seed and policy.
func TestOnlineTraceByteIdenticalToOffline(t *testing.T) {
	trace := paperDayTrace()
	_, hs, client := newTestServer(t, Config{Policy: "SB", Seed: 1})

	ctx := context.Background()
	for i, j := range trace.Jobs {
		st, err := client.SubmitJob(ctx, specFromJob(j))
		if err != nil {
			t.Fatalf("submitting job %d: %v", i, err)
		}
		if st.ID != i {
			t.Fatalf("job %d got id %d", i, st.ID)
		}
	}

	// Interim report before the drain: jobs admitted, none final.
	interim, err := client.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if interim.Final || interim.JobsTotal != trace.Len() {
		t.Fatalf("interim report = %+v", interim)
	}

	if _, err := client.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(hs.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	want := offlineReport(t, trace, "SB", 1)
	wantBody, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	wantBody = append(wantBody, '\n')
	if !bytes.Equal(body, wantBody) {
		t.Fatalf("online report body diverged from offline run:\n got %s\nwant %s", body, wantBody)
	}
	if want.JobsCompleted != trace.Len() {
		t.Fatalf("offline reference incomplete: %+v", want)
	}
}

// Snapshot mid-trace, restore into a brand-new daemon (simulating a
// restart), submit the remainder: the final report must equal the
// uninterrupted offline run.
func TestSnapshotRestoreMidTraceReproducesReport(t *testing.T) {
	trace := paperDayTrace()
	half := trace.Len() / 2
	// API snapshot paths are file names confined to the daemon's
	// snapshot directory; share one between both daemons.
	snapDir := t.TempDir()
	ctx := context.Background()

	_, _, client1 := newTestServer(t, Config{Policy: "SB", Seed: 1, SnapshotDir: snapDir})
	for _, j := range trace.Jobs[:half] {
		if _, err := client1.SubmitJob(ctx, specFromJob(j)); err != nil {
			t.Fatal(err)
		}
	}
	info, err := client1.Snapshot(ctx, "mid.snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	if info.Jobs != half || info.Sealed {
		t.Fatalf("snapshot info = %+v", info)
	}
	if info.Path != filepath.Join(snapDir, "mid.snapshot.json") {
		t.Fatalf("snapshot escaped its directory: %q", info.Path)
	}

	// A fresh daemon with a deliberately different default config; the
	// snapshot's configuration must win on restore. A path traversal in
	// the request must be confined to the snapshot directory too.
	_, _, client2 := newTestServer(t, Config{Policy: "BF", Seed: 99, SnapshotDir: snapDir})
	if _, err := client2.Restore(ctx, "/no/such/dir/../../mid.snapshot.json"); err != nil {
		t.Fatalf("traversal path should resolve to the confined name: %v", err)
	}
	rinfo, err := client2.Restore(ctx, "mid.snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	if rinfo.Jobs != half || rinfo.Now != info.Now {
		t.Fatalf("restore info = %+v, want %+v", rinfo, info)
	}
	for _, j := range trace.Jobs[half:] {
		if _, err := client2.SubmitJob(ctx, specFromJob(j)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := client2.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := offlineReport(t, trace, "SB", 1)
	if got != want {
		t.Fatalf("restored run diverged:\n got %+v\nwant %+v", got, want)
	}
}

// Concurrent submitters and observers hammer the API while rounds are
// active; run under -race. Admissions race for the watermark, so a
// submitter may get 409 (its submit time fell into the virtual past);
// everything accepted must be scheduled and drained.
func TestConcurrentSubmitHammer(t *testing.T) {
	_, hs, client := newTestServer(t, Config{Policy: "SB", Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Background SSE consumer.
	events := make(chan int, 1)
	go func() {
		n := 0
		client.Events(ctx, 0, func(seq uint64, e energysched.Event) error {
			n++
			return nil
		})
		events <- n
	}()

	const submitters = 8
	const perSubmitter = 40
	var clock atomic.Int64 // virtual submit-time allocator
	var accepted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				submit := float64(clock.Add(30))
				spec := energysched.JobSpec{
					Name:           fmt.Sprintf("g%d-%d", g, i),
					CPU:            100 + float64((g+i)%3)*100,
					Mem:            5,
					Duration:       600,
					Submit:         &submit,
					DeadlineFactor: 1.5,
				}
				_, err := client.SubmitJob(ctx, spec)
				var apiErr *energysched.APIError
				switch {
				case err == nil:
					accepted.Add(1)
				case errors.As(err, &apiErr) && apiErr.Status == http.StatusConflict:
					// Lost the watermark race; acceptable.
				default:
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(g)
	}

	// Concurrent observers.
	var owg sync.WaitGroup
	stop := make(chan struct{})
	for _, path := range []string{"/v1/cluster", "/v1/report", "/metrics", "/v1/jobs", "/healthz"} {
		owg.Add(1)
		go func(path string) {
			defer owg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(hs.URL + path)
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(path)
	}

	wg.Wait()
	close(stop)
	owg.Wait()

	rep, err := client.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if int64(rep.JobsTotal) != accepted.Load() {
		t.Fatalf("report counts %d jobs, accepted %d", rep.JobsTotal, accepted.Load())
	}
	if rep.JobsCompleted != rep.JobsTotal {
		t.Fatalf("drain left jobs unfinished: %+v", rep)
	}
	cancel()
	select {
	case n := <-events:
		if n == 0 {
			t.Error("SSE consumer saw no events")
		}
	case <-time.After(5 * time.Second):
		t.Error("SSE consumer did not terminate")
	}
}

func TestSubmitValidationAndSealing(t *testing.T) {
	_, _, client := newTestServer(t, Config{Policy: "BF", Seed: 1})
	ctx := context.Background()

	if _, err := client.SubmitJob(ctx, energysched.JobSpec{CPU: 0, Duration: 60}); !isStatus(err, 400) {
		t.Errorf("zero-cpu job: %v", err)
	}
	late := 500.0
	if _, err := client.SubmitJob(ctx, energysched.JobSpec{CPU: 100, Mem: 5, Duration: 60, Submit: &late}); err != nil {
		t.Fatal(err)
	}
	past := 100.0
	if _, err := client.SubmitJob(ctx, energysched.JobSpec{CPU: 100, Mem: 5, Duration: 60, Submit: &past}); !isStatus(err, 409) {
		t.Errorf("past-submit job: %v", err)
	}
	if _, err := client.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := client.SubmitJob(ctx, energysched.JobSpec{CPU: 100, Mem: 5, Duration: 60}); !isStatus(err, 409) {
		t.Errorf("post-drain job: %v", err)
	}
	if _, err := client.Job(ctx, 999); !isStatus(err, 404) {
		t.Errorf("missing job: %v", err)
	}
	st, err := client.Job(ctx, 0)
	if err != nil || st.State != "completed" {
		t.Errorf("job 0 after drain = %+v, %v", st, err)
	}
}

func isStatus(err error, status int) bool {
	var apiErr *energysched.APIError
	return errors.As(err, &apiErr) && apiErr.Status == status
}

func TestClusterAndMetricsEndpoints(t *testing.T) {
	_, hs, client := newTestServer(t, Config{Policy: "SB", Seed: 1})
	ctx := context.Background()
	at := 0.0
	if _, err := client.SubmitJob(ctx, energysched.JobSpec{CPU: 200, Mem: 10, Duration: 1800, Submit: &at}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	cl, err := client.Cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Nodes) != 100 {
		t.Fatalf("paper fleet has 100 nodes, got %d", len(cl.Nodes))
	}
	if !cl.Done || !cl.Sealed {
		t.Fatalf("cluster status after drain = %+v", cl)
	}
	if cl.TotalWatts <= 0 {
		t.Fatal("no power draw reported")
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"# TYPE energysched_power_watts gauge",
		"energysched_jobs{fleet=\"default\",state=\"completed\"} 1",
		"# TYPE energysched_solver_rounds_total counter",
		"energysched_jobs_admitted_total{fleet=\"default\"} 1",
		"energysched_fleets 1",
		"energysched_series_samples_total{fleet=\"default\"}",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, text)
		}
	}
}

// Event streaming: the ring replays history to a late subscriber, in
// order, ending with the submitted job's completion.
func TestEventStreamReplay(t *testing.T) {
	_, _, client := newTestServer(t, Config{Policy: "BF", Seed: 1})
	ctx := context.Background()
	at := 0.0
	if _, err := client.SubmitJob(ctx, energysched.JobSpec{CPU: 100, Mem: 5, Duration: 600, Submit: &at}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	errStop := errors.New("saw completion")
	var kinds []string
	var lastSeq uint64
	err := client.Events(ctx, 0, func(seq uint64, e energysched.Event) error {
		if seq <= lastSeq {
			return fmt.Errorf("sequence went backwards: %d after %d", seq, lastSeq)
		}
		lastSeq = seq
		kinds = append(kinds, string(e.Kind))
		if e.Kind == "completed" {
			return errStop
		}
		return nil
	})
	if !errors.Is(err, errStop) {
		t.Fatalf("stream ended without completion event: %v (saw %v)", err, kinds)
	}
	if kinds[0] != "arrival" {
		t.Fatalf("replay did not start with the arrival: %v", kinds)
	}
}

// Real-time pacing: with a huge acceleration, a submitted job finishes
// without any drain call, purely because wall time passes.
func TestRealtimePacing(t *testing.T) {
	_, _, client := newTestServer(t, Config{Policy: "BF", Seed: 1, Pace: 100000})
	ctx := context.Background()
	if _, err := client.SubmitJob(ctx, energysched.JobSpec{CPU: 100, Mem: 5, Duration: 300}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := client.Job(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "completed" {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("job did not complete under real-time pacing")
}

// Regression: a job admitted with a submit time beyond the 400-day
// safety horizon must not rewind the virtual clock on drain (which
// used to panic the daemon's progress accounting).
func TestDrainBeyondSafetyHorizon(t *testing.T) {
	_, _, client := newTestServer(t, Config{Policy: "BF", Seed: 1})
	ctx := context.Background()
	far := 500.0 * 24 * 3600 // past the 400-day net
	if _, err := client.SubmitJob(ctx, energysched.JobSpec{CPU: 100, Mem: 5, Duration: 600, Submit: &far}); err != nil {
		t.Fatal(err)
	}
	rep, err := client.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.JobsCompleted != 1 || rep.SimEnd < far {
		t.Fatalf("far-future drain report = %+v", rep)
	}
}

// --- PR 4: multi-fleet + batched admission + durability ---

// Batched admission: POST /v1/jobs with a JSON array admits the batch
// atomically in one event-loop turn; at max pacing the drained report
// is byte-identical to submitting the same jobs one by one (and to
// the offline run).
func TestBatchAdmissionByteIdenticalToSequential(t *testing.T) {
	trace := paperDayTrace()
	specs := make([]energysched.JobSpec, 0, trace.Len())
	for _, j := range trace.Jobs {
		specs = append(specs, specFromJob(j))
	}
	ctx := context.Background()

	_, hsBatch, clBatch := newTestServer(t, Config{Policy: "SB", Seed: 1})
	sts, err := clBatch.SubmitJobs(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != trace.Len() || sts[len(sts)-1].ID != trace.Len()-1 {
		t.Fatalf("batch admitted %d jobs", len(sts))
	}
	if _, err := clBatch.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	_, hsSeq, clSeq := newTestServer(t, Config{Policy: "SB", Seed: 1})
	for i, spec := range specs {
		if _, err := clSeq.SubmitJob(ctx, spec); err != nil {
			t.Fatalf("sequential submit %d: %v", i, err)
		}
	}
	if _, err := clSeq.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	batchBody := getBody(t, hsBatch.URL+"/v1/report")
	seqBody := getBody(t, hsSeq.URL+"/v1/report")
	if !bytes.Equal(batchBody, seqBody) {
		t.Fatalf("batch report diverged from sequential:\n got %s\nwant %s", batchBody, seqBody)
	}
	want, _ := json.Marshal(offlineReport(t, trace, "SB", 1))
	want = append(want, '\n')
	if !bytes.Equal(batchBody, want) {
		t.Fatalf("batch report diverged from offline:\n got %s\nwant %s", batchBody, want)
	}
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return body
}

// An invalid job anywhere in a batch must reject the whole batch.
func TestBatchAdmissionAtomicRejection(t *testing.T) {
	_, _, client := newTestServer(t, Config{Policy: "BF", Seed: 1})
	ctx := context.Background()
	t0, t1 := 0.0, 30.0
	_, err := client.SubmitJobs(ctx, []energysched.JobSpec{
		{CPU: 100, Mem: 5, Duration: 600, Submit: &t0},
		{CPU: 0, Mem: 5, Duration: 600, Submit: &t1}, // invalid: no CPU
	})
	if !isStatus(err, 400) {
		t.Fatalf("bad batch: %v", err)
	}
	jobs, err := client.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("rejected batch left %d jobs admitted", len(jobs))
	}
	// Out-of-order submit times within a batch are rejected up front.
	_, err = client.SubmitJobs(ctx, []energysched.JobSpec{
		{CPU: 100, Mem: 5, Duration: 600, Submit: &t1},
		{CPU: 100, Mem: 5, Duration: 600, Submit: &t0},
	})
	if !isStatus(err, 400) {
		t.Fatalf("out-of-order batch: %v", err)
	}
}

// Fleet registry CRUD, and the PR 3 routes as aliases of the default
// fleet.
func TestFleetRegistryAndAliases(t *testing.T) {
	_, hs, client := newTestServer(t, Config{Policy: "SB", Seed: 1})
	ctx := context.Background()

	info, err := client.CreateFleet(ctx, energysched.FleetSpec{ID: "batch", Policy: "BF", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "batch" || info.Policy != "BF" || info.Seed != 3 || info.WAL != nil {
		t.Fatalf("created fleet info = %+v", info)
	}
	if _, err := client.CreateFleet(ctx, energysched.FleetSpec{ID: "batch"}); !isStatus(err, 409) {
		t.Errorf("duplicate create: %v", err)
	}
	if _, err := client.CreateFleet(ctx, energysched.FleetSpec{ID: "../evil"}); !isStatus(err, 400) {
		t.Errorf("traversal id: %v", err)
	}
	fleets, err := client.Fleets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleets) != 2 || fleets[0].ID != "batch" || fleets[1].ID != "default" {
		t.Fatalf("fleet list = %+v", fleets)
	}

	// The same job admitted through the alias and through the scoped
	// route lands in the same (default) fleet; the "batch" fleet stays
	// empty.
	at := 0.0
	if _, err := client.SubmitJob(ctx, energysched.JobSpec{CPU: 100, Mem: 5, Duration: 600, Submit: &at}); err != nil {
		t.Fatal(err)
	}
	at2 := 30.0
	if _, err := client.Fleet("default").SubmitJob(ctx, energysched.JobSpec{CPU: 100, Mem: 5, Duration: 600, Submit: &at2}); err != nil {
		t.Fatal(err)
	}
	d, err := client.GetFleet(ctx, "default")
	if err != nil {
		t.Fatal(err)
	}
	if d.Jobs != 2 {
		t.Fatalf("default fleet has %d jobs, want 2", d.Jobs)
	}
	b, err := client.GetFleet(ctx, "batch")
	if err != nil {
		t.Fatal(err)
	}
	if b.Jobs != 0 {
		t.Fatalf("batch fleet has %d jobs, want 0", b.Jobs)
	}
	aliasBody := getBody(t, hs.URL+"/v1/report")
	scopedBody := getBody(t, hs.URL+"/v1/fleets/default/report")
	if !bytes.Equal(aliasBody, scopedBody) {
		t.Fatalf("alias and scoped report differ:\n%s\n%s", aliasBody, scopedBody)
	}

	if err := client.DeleteFleet(ctx, "batch"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.GetFleet(ctx, "batch"); !isStatus(err, 404) {
		t.Errorf("deleted fleet still resolves: %v", err)
	}
	if _, err := client.Fleet("batch").Report(ctx); !isStatus(err, 404) {
		t.Errorf("deleted fleet still serves: %v", err)
	}
	if err := client.DeleteFleet(ctx, "nope"); !isStatus(err, 404) {
		t.Errorf("deleting unknown fleet: %v", err)
	}
}

// Multi-fleet isolation under -race: concurrent submitters hammer
// three fleets with different policies and seeds at once; afterwards,
// each fleet's drained report must be byte-identical to a solo
// single-fleet daemon run over the same accepted jobs — concurrency
// across fleets must not leak into any fleet's schedule.
func TestMultiFleetIsolationHammer(t *testing.T) {
	_, hs, client := newTestServer(t, Config{Policy: "SB", Seed: 1})
	ctx := context.Background()
	specs := []energysched.FleetSpec{
		{ID: "sb", Policy: "SB", Seed: 1},
		{ID: "bf", Policy: "BF", Seed: 7},
		{ID: "dbf", Policy: "DBF", Seed: 11},
	}
	for _, fs := range specs {
		if _, err := client.CreateFleet(ctx, fs); err != nil {
			t.Fatal(err)
		}
	}

	const submitters = 4
	const perSubmitter = 30
	var wg sync.WaitGroup
	for _, fs := range specs {
		fc := client.Fleet(fs.ID)
		var clock atomic.Int64 // per-fleet virtual submit-time allocator
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perSubmitter; i++ {
					submit := float64(clock.Add(30))
					spec := energysched.JobSpec{
						CPU: 100 + float64((g+i)%3)*100, Mem: 5, Duration: 900,
						Submit: &submit, DeadlineFactor: 1.5,
					}
					_, err := fc.SubmitJob(ctx, spec)
					var apiErr *energysched.APIError
					if err != nil && !(errors.As(err, &apiErr) && apiErr.Status == http.StatusConflict) {
						t.Errorf("fleet %s submit: %v", fs.ID, err)
						return
					}
				}
			}(g)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("submitters failed")
	}

	for _, fs := range specs {
		fc := client.Fleet(fs.ID)
		// The accepted set, in admission order (= VM-ID order). The
		// watermark race means some submissions got 409; the accepted
		// submit times are non-decreasing by construction, so a solo
		// sequential replay is valid.
		jobs, err := fc.Jobs(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) == 0 {
			t.Fatalf("fleet %s accepted no jobs", fs.ID)
		}
		if _, err := fc.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		hammered := getBody(t, hs.URL+"/v1/fleets/"+fs.ID+"/report")

		_, hsSolo, clSolo := newTestServer(t, Config{Policy: fs.Policy, Seed: fs.Seed})
		for _, j := range jobs {
			submit := j.Submit
			if _, err := clSolo.SubmitJob(ctx, energysched.JobSpec{
				CPU: j.CPU, Mem: j.Mem, Duration: j.Duration,
				Submit: &submit, DeadlineFactor: 1.5,
			}); err != nil {
				t.Fatalf("solo replay of fleet %s: %v", fs.ID, err)
			}
		}
		if _, err := clSolo.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		solo := getBody(t, hsSolo.URL+"/v1/report")
		if !bytes.Equal(hammered, solo) {
			t.Fatalf("fleet %s diverged from its solo run:\n got %s\nwant %s", fs.ID, hammered, solo)
		}
	}
}

// A fleet recovered from the manifest must be configured like the one
// that was created: the daemon's objectives (-slo-file) and the fleet's
// series/journey depths used to be lost on restart, because the
// manifest's hand-copied field list never learned them. The second half
// restarts on a directory with a manifest entry carrying the retired
// admit_shards and shards keys and no depths, beside a fleet directory
// as the previous release wrote it: a wal.log whose header's config has
// a shards key. Both must still come up, the unknown keys ignored.
func TestRestartKeepsSLOsAndDepths(t *testing.T) {
	walDir := t.TempDir()
	ctx := context.Background()
	cfg := Config{
		Policy: "SB", Seed: 1, WALDir: walDir, SnapshotDir: t.TempDir(),
		SnapshotInterval: 4, SLOs: accountingSLOs()[:1],
	}
	// check submits eight more jobs to "small" — one request each, so
	// the ticks in between sample the series; a recovered fleet's rings
	// start empty — and then reads objectives and retention.
	check := func(srv *Server, when string, from int) {
		t.Helper()
		hs := httptest.NewServer(srv.Handler())
		defer hs.Close()
		for i := 0; i < 8; i++ {
			submitN(t, energysched.NewClient(hs.URL).Fleet("small"), 1, (from+i)*40)
		}
		for _, id := range []string{DefaultFleet, "small"} {
			f, err := srv.mgr.Get(id)
			if err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			if al := f.Alerts(); len(al) != 1 || al[0].Name != "power-budget" {
				t.Fatalf("%s: fleet %s evaluates %+v, want the daemon's one objective", when, id, al)
			}
		}
		f, _ := srv.mgr.Get("small")
		if n := len(f.SeriesSamples(series.Query{})); n != 3 || f.SeriesCount() <= 3 {
			t.Fatalf("%s: series retains %d of %d samples, want depth 3", when, n, f.SeriesCount())
		}
		if n := len(f.Journeys().Summaries()); n != 2 {
			t.Fatalf("%s: %d journeys retained, want depth 2", when, n)
		}
	}

	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(srv1.Handler())
	if _, err := energysched.NewClient(hs1.URL).CreateFleet(ctx, energysched.FleetSpec{ID: "small", SeriesDepth: 3, JourneyDepth: 2}); err != nil {
		t.Fatal(err)
	}
	hs1.Close()
	check(srv1, "before restart", 0)
	srv1.Close()

	const oldEntry = `{"id": "old", "config": {"policy": "BF", "seed": 5, "lambda_min": 30, "lambda_max": 90,
		"cempty": 20, "cfill": 40, "has_score": true, "event_ring": 4096, "snapshot_interval": 2,
		"wal_sync": "always", "trace_verbosity": "off", "admit_shards": 2, "admit_queue": 256, "shards": 4}}`
	const oldHeader = `{"kind": "snapshot", "snapshot": {"format": "energyschedd-snapshot/v1", "saved_virtual_s": 30, "sealed": false, "gen": 1,
		"config": {"policy": "BF", "seed": 5, "lambda_min": 30, "lambda_max": 90, "cempty": 20, "cfill": 40, "has_score": true, "shards": 4},
		"jobs": [{"id": 0, "submit_s": 0, "duration_s": 600, "cpu_pct": 100, "mem_units": 5, "deadline_factor": 1.5},
			{"id": 1, "submit_s": 30, "duration_s": 600, "cpu_pct": 100, "mem_units": 5, "deadline_factor": 1.5}]}}`
	manifestPath := filepath.Join(walDir, "fleets.json")
	manifest, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(manifest, []byte(`"series_depth": 3`)) || !bytes.Contains(manifest, []byte(`"journey_depth": 2`)) {
		t.Fatalf("manifest does not carry the depths:\n%s", manifest)
	}
	end := bytes.LastIndexByte(manifest, ']')
	manifest = append(append(manifest[:end:end], ","+oldEntry...), "]}"...)
	if err := os.WriteFile(manifestPath, manifest, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(walDir, "old"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(walDir, "old", "wal.log"), fleet.EncodeFrame([]byte(oldHeader)), 0o600); err != nil {
		t.Fatal(err)
	}

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	check(srv2, "after restart", 8)
	old, err := srv2.mgr.Get("old")
	if err != nil {
		t.Fatal(err)
	}
	if info, err := old.Info(); err != nil || info.Policy != "BF" || info.Seed != 5 || info.Jobs != 2 || info.Now != 30 {
		t.Fatalf("fleet from the previous release's manifest and log = %+v, %v", info, err)
	}
}

// Durability through the full server: admit into two fleets (one
// API-created) with a WAL, drop the server without any explicit
// snapshot, restart on the same directory, and finish — the final
// reports must be byte-identical to uninterrupted runs, and recovery
// must replay only the WAL tail.
func TestServerWALRestartReproducesReports(t *testing.T) {
	trace := paperDayTrace()
	half := trace.Len() / 2
	walDir := t.TempDir()
	ctx := context.Background()
	cfg := Config{Policy: "SB", Seed: 1, WALDir: walDir, SnapshotInterval: 16}

	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(srv1.Handler())
	client1 := energysched.NewClient(hs1.URL)
	if _, err := client1.CreateFleet(ctx, energysched.FleetSpec{ID: "second", Policy: "BF", Seed: 5}); err != nil {
		t.Fatal(err)
	}
	for _, j := range trace.Jobs[:half] {
		if _, err := client1.SubmitJob(ctx, specFromJob(j)); err != nil {
			t.Fatal(err)
		}
	}
	secondAt := 0.0
	if _, err := client1.Fleet("second").SubmitJobs(ctx, []energysched.JobSpec{
		{CPU: 200, Mem: 10, Duration: 1800, Submit: &secondAt},
		{CPU: 100, Mem: 5, Duration: 3600, Submit: &secondAt},
	}); err != nil {
		t.Fatal(err)
	}
	hs1.Close()
	srv1.Close() // no drain, no snapshot call: only the WAL has the tail

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(srv2.Handler())
	defer func() { hs2.Close(); srv2.Close() }()
	client2 := energysched.NewClient(hs2.URL)

	fleets, err := client2.Fleets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleets) != 2 {
		t.Fatalf("recovered %d fleets, want 2 (default + second): %+v", len(fleets), fleets)
	}
	d, err := client2.GetFleet(ctx, "default")
	if err != nil {
		t.Fatal(err)
	}
	if d.Jobs != half || d.WAL == nil {
		t.Fatalf("default fleet after restart = %+v", d)
	}
	// Compaction at 16 admissions and then whenever the records after
	// the header number its jobs: recovery must have replayed only the
	// tail after the last header, not the whole history.
	tail, jobs := half, 0
	for tail >= max(16, jobs) {
		step := max(16, jobs)
		jobs, tail = jobs+step, tail-step
	}
	if d.WAL.Replayed != tail {
		t.Fatalf("default fleet replayed %d records, want %d (tail after last snapshot); stats %+v",
			d.WAL.Replayed, tail, d.WAL)
	}
	sec, err := client2.GetFleet(ctx, "second")
	if err != nil {
		t.Fatal(err)
	}
	if sec.Jobs != 2 || sec.Policy != "BF" || sec.WAL == nil || sec.WAL.Replayed != 2 {
		t.Fatalf("second fleet after restart = %+v (wal %+v)", sec, sec.WAL)
	}

	// Finish the trace on the restarted daemon: byte-identical to the
	// uninterrupted offline run.
	for _, j := range trace.Jobs[half:] {
		if _, err := client2.SubmitJob(ctx, specFromJob(j)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client2.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	got := getBody(t, hs2.URL+"/v1/report")
	want, _ := json.Marshal(offlineReport(t, trace, "SB", 1))
	want = append(want, '\n')
	if !bytes.Equal(got, want) {
		t.Fatalf("restarted run diverged from offline:\n got %s\nwant %s", got, want)
	}
}

// --- PR 5: alias-route parity ---

// fetchBody GETs a path and returns status + raw body.
func fetchBody(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// postBody POSTs a payload and returns status + raw body.
func postBody(t *testing.T, base, path, payload string) (int, string) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// readSSETranscript consumes an SSE stream until want events have been
// replayed, returning the raw transcript (ids, event names, data).
func readSSETranscript(t *testing.T, base, path string, want uint64) string {
	t.Helper()
	return scanSSE(t, openSSE(t, base+path, ""), path, want)
}

// openSSE opens a stream, resuming after lastEventID when non-empty.
// The subscription exists once it returns; the test's end closes it.
func openSSE(t *testing.T, url, lastEventID string) io.Reader {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return resp.Body
}

// scanSSE reads a stream up to and including the event with id want,
// returning the raw transcript.
func scanSSE(t *testing.T, body io.Reader, path string, want uint64) string {
	t.Helper()
	var transcript strings.Builder
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64*1024), 64*1024)
	var last uint64
	for sc.Scan() {
		line := sc.Text()
		transcript.WriteString(line)
		transcript.WriteByte('\n')
		if strings.HasPrefix(line, "id:") {
			n, err := strconv.ParseUint(strings.TrimSpace(line[3:]), 10, 64)
			if err != nil {
				t.Fatalf("bad SSE id line %q: %v", line, err)
			}
			last = n
		}
		if last >= want && strings.TrimSpace(line) == "" {
			break // final event of the replay fully read
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading %s: %v (after %q)", path, err, transcript.String())
	}
	return transcript.String()
}

// TestAliasRoutesByteIdenticalToNamespaced pins the PR 4 compatibility
// contract from the outside: every PR 3 route (/v1/jobs, /v1/cluster,
// /v1/report, /v1/drain, /v1/jobs/{id}) is an alias of the default
// fleet's namespaced route, returning byte-identical responses —
// including the SSE replay of /v1/events and error bodies.
func TestAliasRoutesByteIdenticalToNamespaced(t *testing.T) {
	srv, hs, _ := newTestServer(t, Config{Policy: "SB", Seed: 1})

	// Mutate through the alias route once: a small batch plus a single
	// submit, then drain through the namespaced route.
	if code, body := postBody(t, hs.URL, "/v1/jobs", `[
		{"cpu_pct":200,"mem_units":10,"duration_s":1200,"submit_s":0},
		{"cpu_pct":100,"mem_units":5,"duration_s":600,"submit_s":60}]`); code != http.StatusAccepted {
		t.Fatalf("batch submit: %d %s", code, body)
	}
	if code, body := postBody(t, hs.URL, "/v1/fleets/default/jobs",
		`{"cpu_pct":100,"mem_units":5,"duration_s":900,"submit_s":120}`); code != http.StatusAccepted {
		t.Fatalf("namespaced submit: %d %s", code, body)
	}
	nsCode, nsDrain := postBody(t, hs.URL, "/v1/fleets/default/drain", "")
	if nsCode != http.StatusOK {
		t.Fatalf("namespaced drain: %d %s", nsCode, nsDrain)
	}
	// The second drain returns the cached final report: the alias body
	// must be byte-identical to the namespaced one.
	if aCode, aDrain := postBody(t, hs.URL, "/v1/drain", ""); aCode != nsCode || aDrain != nsDrain {
		t.Errorf("drain diverged: alias (%d) %q vs namespaced (%d) %q", aCode, aDrain, nsCode, nsDrain)
	}

	// Every read route must return byte-identical bodies on both paths.
	for _, path := range []string{"/jobs", "/jobs/0", "/jobs/99", "/cluster", "/report"} {
		aCode, alias := fetchBody(t, hs.URL, "/v1"+path)
		nCode, namespaced := fetchBody(t, hs.URL, "/v1/fleets/default"+path)
		if aCode != nCode || alias != namespaced {
			t.Errorf("GET %s diverged:\nalias      (%d): %s\nnamespaced (%d): %s", path, aCode, alias, nCode, namespaced)
		}
	}

	// Post-seal submission errors must alias too.
	aCode, alias := postBody(t, hs.URL, "/v1/jobs", `{"cpu_pct":100,"mem_units":5,"duration_s":60}`)
	nCode, namespaced := postBody(t, hs.URL, "/v1/fleets/default/jobs", `{"cpu_pct":100,"mem_units":5,"duration_s":60}`)
	if aCode != http.StatusConflict || aCode != nCode || alias != namespaced {
		t.Errorf("sealed-submit error diverged: alias (%d) %q vs namespaced (%d) %q", aCode, alias, nCode, namespaced)
	}

	// SSE replay: both endpoints must serve the identical transcript of
	// the fleet's whole event history.
	f, err := srv.Manager().Get(DefaultFleet)
	if err != nil {
		t.Fatal(err)
	}
	want := f.Broker().Seq()
	if want == 0 {
		t.Fatal("no events published; replay comparison is vacuous")
	}
	aliasSSE := readSSETranscript(t, hs.URL, "/v1/events?since=0", want)
	namespacedSSE := readSSETranscript(t, hs.URL, "/v1/fleets/default/events?since=0", want)
	if aliasSSE != namespacedSSE {
		t.Errorf("SSE replay diverged:\nalias:\n%s\nnamespaced:\n%s", aliasSSE, namespacedSSE)
	}
	if !strings.Contains(aliasSSE, "event: arrival") || !strings.Contains(aliasSSE, "event: completed") {
		t.Errorf("replay missing lifecycle events:\n%s", aliasSSE)
	}
}

// A fleet spec from a client that still sends the retired solver shard
// count creates the fleet; the key is ignored and not persisted.
func TestFleetCreateIgnoresShards(t *testing.T) {
	walDir := t.TempDir()
	_, hs, _ := newTestServer(t, Config{Policy: "BF", Seed: 1, WALDir: walDir, SnapshotDir: t.TempDir()})
	if code, body := postBody(t, hs.URL, "/v1/fleets", `{"id":"x","shards":4}`); code != http.StatusCreated {
		t.Fatalf("create with shards: %d %s, want 201", code, body)
	}
	manifest, err := os.ReadFile(filepath.Join(walDir, "fleets.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(manifest, []byte(`"id": "x"`)) || bytes.Contains(manifest, []byte(`"shards"`)) {
		t.Fatalf("manifest after a create with shards:\n%s", manifest)
	}
}

// The -max-fleets 429 must carry a Retry-After header end to end, so
// the client's retry policy backs off instead of hammering the cap.
func TestFleetCapReturnsRetryAfter(t *testing.T) {
	_, hs, _ := newTestServer(t, Config{MaxFleets: 1}) // default fleet fills the cap
	resp, err := http.Post(hs.URL+"/v1/fleets", "application/json",
		strings.NewReader(`{"id":"overflow"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("create over cap: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("429 Retry-After = %q, want %q", ra, "1")
	}
}

// FleetSpec's one rule: a field that is not zero overrides the daemon's
// value, and the fleet refuses a value out of its range. So a negative
// value is never silently dropped for the daemon's: each body is a 400
// that leaves the WAL root and fleets.json byte for byte as they were.
func TestFleetSpecNegativeValuesRefused(t *testing.T) {
	walDir := t.TempDir()
	_, hs, _ := newTestServer(t, Config{WALDir: walDir, WALSync: fleet.SyncOS, SnapshotDir: t.TempDir()})
	state := func() string {
		entries, err := os.ReadDir(walDir)
		if err != nil {
			t.Fatal(err)
		}
		manifest, err := os.ReadFile(filepath.Join(walDir, "fleets.json"))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, e := range entries {
			b.WriteString(e.Name() + "\n")
		}
		return b.String() + string(manifest)
	}
	before := state()
	for _, field := range []string{"checkpoint_s", "adaptive_target", "snapshot_interval", "trace_depth",
		"series_depth", "journey_depth", "admit_queue", "rate_limit", "rate_burst"} {
		body := `{"id":"` + field + `","` + field + `":-1}`
		if code, msg := postBody(t, hs.URL, "/v1/fleets", body); code != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", body, code, msg)
		}
		if after := state(); after != before {
			t.Errorf("%s changed the WAL root or fleets.json", body)
			before = after
		}
	}
}

// A daemon whose base config its fleets would refuse does not start, in
// either role: a follower would otherwise report itself ready while
// every mirror's creation failed, and with a grace it would promote an
// empty daemon. The refusal is the bare 400 *fleet.Error, before
// anything touches the disk.
func TestRefusedBaseConfigStopsEitherRole(t *testing.T) {
	_, lhs, _ := newTestServer(t, Config{})
	for _, follow := range []string{"", lhs.URL} {
		walDir := t.TempDir()
		srv, err := New(Config{WALDir: walDir, Follow: follow, FollowPoll: 20 * time.Millisecond, TraceDepth: -1})
		if err == nil {
			srv.Close()
			t.Fatalf("follow %q: the daemon started with trace depth -1", follow)
		}
		if fe, ok := err.(*fleet.Error); !ok || fe.Status != http.StatusBadRequest {
			t.Errorf("follow %q: error %#v, want a bare 400 *fleet.Error", follow, err)
		}
		if entries, err := os.ReadDir(walDir); err != nil || len(entries) != 0 {
			t.Errorf("follow %q: WAL root holds %v (%v), want nothing", follow, entries, err)
		}
	}
}

// TestRefusedSyncOrSeedTouchesNoDisk: a WAL sync policy other than
// "always" or "os" (the case matters: "OS" would fsync every admission),
// and a seed fleet whose config its fleet would refuse, stop the daemon
// with a 400 before anything touches the disk. The seed's error names
// its fleet.
func TestRefusedSyncOrSeedTouchesNoDisk(t *testing.T) {
	for _, tc := range []struct {
		name, prefix string
		cfg          Config
	}{
		{"wal sync", "", Config{WALSync: "OS"}},
		{"seed", "fleet x: ", Config{Fleets: []energysched.FleetSpec{{ID: "x", Policy: "ZZ"}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			walDir := t.TempDir()
			tc.cfg.WALDir = walDir
			srv, err := New(tc.cfg)
			if err == nil {
				srv.Close()
				t.Fatalf("the daemon started with %+v", tc.cfg)
			}
			var fe *fleet.Error
			if !errors.As(err, &fe) || fe.Status != http.StatusBadRequest || !strings.HasPrefix(err.Error(), tc.prefix) {
				t.Errorf("error %q, want a 400 *fleet.Error beginning %q", err, tc.prefix)
			}
			if entries, err := os.ReadDir(walDir); err != nil || len(entries) != 0 {
				t.Errorf("WAL root holds %v (%v), want nothing", entries, err)
			}
		})
	}
}

// TestRefusedFleetNamedOnce: a fleet directory that Open refuses (the
// two-file layout of fleet.TestTwoFileLayoutRefused) fails the daemon's
// start with an error that names the fleet once, whether the manifest
// recovers the fleet or a seed creates it.
func TestRefusedFleetNamedOnce(t *testing.T) {
	snapshot, err := os.ReadFile(filepath.Join("..", "fleet", "testdata", "golden", "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	const id = "twofile"
	for _, tc := range []struct{ name, manifest string }{
		{"recovery", `{"format": "energyschedd-fleets/v1", "fleets": [{"id": "twofile", "config": {"policy": "SB"}}]}`},
		{"seed", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			walDir := t.TempDir()
			dir := filepath.Join(walDir, id)
			if err := os.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), snapshot, 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.manifest != "" {
				if err := os.WriteFile(filepath.Join(walDir, "fleets.json"), []byte(tc.manifest), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			srv, err := New(Config{WALDir: walDir, Fleets: []energysched.FleetSpec{{ID: id}}})
			if err == nil {
				srv.Close()
				t.Fatal("the daemon started on a refused fleet directory")
			}
			if !strings.Contains(err.Error(), "two-file layout") {
				t.Fatalf("error %q is not the two-file refusal", err)
			}
			if n := strings.Count(strings.ReplaceAll(err.Error(), dir, ""), id); n != 1 {
				t.Fatalf("error names fleet %s %d times outside its directory: %q", id, n, err)
			}
		})
	}
}
