package server

import (
	"context"
	"net/http"
	"runtime"
	"testing"

	"energysched"
	"energysched/internal/workload"
)

// TestServedHTTPAllocsPerJob holds a job served over HTTP — the client
// encoding its batch, the daemon decoding it and encoding the reply,
// the client decoding that, and the three reads beside every wave — to
// its allocation budget. The traffic has the shape of the benchmark's
// serve_mixed workload on one keep-alive connection: waves of eight
// identical jobs posted as one JSON array, each followed by GET /report,
// GET /cluster and GET /jobs/{id}. The heap objects of the measured
// waves, client and daemon together, are divided by their jobs. JSON
// decoding that allocates per string, per node or per pointer field
// costs more than the margin left under the budget.
func TestServedHTTPAllocsPerJob(t *testing.T) {
	const (
		perWave = 8
		warm    = 60  // waves before the measurement: pools, buffers and the fleet fill up
		waves   = 240 // measured waves
		horizon = 7 * 24 * 3600.0
	)
	_, hs, _ := newTestServer(t, Config{Policy: "SB", Seed: 1, Score: &energysched.ScoreParams{Cempty: 20, Cfill: 40}})
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	c := energysched.NewClient(hs.URL)
	c.HTTPClient = &http.Client{Transport: tr}

	gcfg := workload.DefaultGeneratorConfig()
	gcfg.Horizon = 2 * 24 * 3600
	base := workload.MustGenerate(gcfg).Jobs
	ctx := context.Background()
	batch := make([]energysched.JobSpec, perWave)
	wave := func(k int) {
		j := base[(k*7)%len(base)]
		submit := float64(k) * horizon / (warm + waves)
		for i := range batch {
			batch[i] = energysched.JobSpec{Name: "wave", CPU: j.CPU, Mem: j.Mem, Duration: j.Duration,
				Submit: &submit, DeadlineFactor: j.DeadlineFactor, FaultTolerance: j.FaultTolerance}
		}
		if _, err := c.SubmitJobs(ctx, batch); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Report(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Cluster(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Job(ctx, k*perWave); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < warm; k++ {
		wave(k)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for k := warm; k < warm+waves; k++ {
		wave(k)
	}
	runtime.ReadMemStats(&after)

	perJob := float64(after.Mallocs-before.Mallocs) / (waves * perWave)
	t.Logf("%.2f heap objects per job served over HTTP", perJob)
	if perJob > servedHTTPAllocBudget && !raceBuild {
		t.Fatalf("a job served over HTTP allocates %.2f objects, budget %v", perJob, servedHTTPAllocBudget)
	}
}

// servedHTTPAllocBudget sits between this workload's reading before
// the admission and read paths reused their requests, calls and
// scratch and both ends assigned their headers (45.7) and after (40.1).
// With encoding/json on both ends of the wire it read 84.6.
const servedHTTPAllocBudget = 43

// raceBuild is set in a -race build (race_test.go). The race runtime
// drops a share of what sync.Pool is handed back, to shake out misuse,
// so the pooled admission path allocates more there than it does: the
// budgets below hold without -race, and under it the traffic still runs
// for the race detector to check.
var raceBuild bool

// TestServedDurableSubmitAllocs holds a durable submit to its
// allocation budget. The traffic has the shape of the benchmark's
// serve_wal workload: a named fleet with its write-ahead log on, one
// job per POST on one keep-alive connection. The heap objects of the
// measured submits, client and daemon together, are divided by their
// jobs. An object per request on the admission path — a reply channel,
// a slice that lives for one turn, a copy of a record between its
// encoding and its frame — costs more than the margin left under the
// budget.
func TestServedDurableSubmitAllocs(t *testing.T) {
	const (
		warm    = 300 // submits before the measurement: pools, buffers and the fleet fill up
		submits = 600 // measured submits
	)
	submit := durableSubmitter(t, warm+submits)
	for k := 0; k < warm; k++ {
		submit(k)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for k := warm; k < warm+submits; k++ {
		submit(k)
	}
	runtime.ReadMemStats(&after)

	perJob := float64(after.Mallocs-before.Mallocs) / submits
	t.Logf("%.2f heap objects per durable submit", perJob)
	if perJob > servedDurableSubmitAllocBudget && !raceBuild {
		t.Fatalf("a durable submit allocates %.2f objects, budget %v", perJob, servedDurableSubmitAllocBudget)
	}
}

// servedDurableSubmitAllocBudget sits between this workload's reading
// before the admission path drew its requests, scratch and frames from
// storage it reuses (104.5) and after (87.3), of which about 83 are
// net/http's own.
const servedDurableSubmitAllocBudget = 95

// BenchmarkServedDurableSubmit measures durable submits as
// TestServedDurableSubmitAllocs counts them: each iteration posts 256
// jobs, one per POST, to a fleet with its write-ahead log on, after an
// unmeasured warm-up of as many. It runs on one P, as
// BenchmarkAdmitRouter does, so that its allocations repeat from run to
// run.
func BenchmarkServedDurableSubmit(b *testing.B) {
	const perIter = 256
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	submit := durableSubmitter(b, 1<<20)
	k := 0
	for ; k < perIter; k++ {
		submit(k)
	}
	b.ReportAllocs()
	for b.Loop() {
		for end := k + perIter; k < end; k++ {
			submit(k)
		}
	}
	b.ReportMetric(perIter, "jobs/iter")
}

// durableSubmitter starts a daemon whose fleet "durable" logs every
// admission to its write-ahead log (snapshotting every 256 records, as
// the benchmark's daemon does) and returns a function that posts job k
// of span jobs spread over a week, one per POST, on one keep-alive
// connection.
func durableSubmitter(tb testing.TB, span int) func(k int) {
	_, hs, _ := newTestServer(tb, Config{Policy: "SB", Seed: 1, Score: &energysched.ScoreParams{Cempty: 20, Cfill: 40},
		WALDir: tb.TempDir(), SnapshotInterval: 256, WALSync: "os"})
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	tb.Cleanup(tr.CloseIdleConnections)
	root := energysched.NewClient(hs.URL)
	root.HTTPClient = &http.Client{Transport: tr}
	ctx := context.Background()
	if _, err := root.CreateFleet(ctx, energysched.FleetSpec{ID: "durable"}); err != nil {
		tb.Fatal(err)
	}
	c := root.Fleet("durable")

	gcfg := workload.DefaultGeneratorConfig()
	gcfg.Horizon = 2 * 24 * 3600
	base := workload.MustGenerate(gcfg).Jobs
	return func(k int) {
		j := base[(k*7)%len(base)]
		at := float64(k) * 7 * 24 * 3600 / float64(span)
		if _, err := c.SubmitJob(ctx, energysched.JobSpec{Name: "durable", CPU: j.CPU, Mem: j.Mem, Duration: j.Duration,
			Submit: &at, DeadlineFactor: j.DeadlineFactor, FaultTolerance: j.FaultTolerance}); err != nil {
			tb.Fatal(err)
		}
	}
}
