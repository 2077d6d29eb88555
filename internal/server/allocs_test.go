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
	if perJob > servedHTTPAllocBudget {
		t.Fatalf("a job served over HTTP allocates %.2f objects, budget %v", perJob, servedHTTPAllocBudget)
	}
}

// servedHTTPAllocBudget sits between this workload's reading with
// encoding/json on both ends of the wire (84.6) and with the wire codec
// (46.7).
const servedHTTPAllocBudget = 60
