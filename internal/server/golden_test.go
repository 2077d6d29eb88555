package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"energysched"
	"energysched/internal/workload"
)

// The read surfaces of the accounting side channels serve the same
// bytes however the stores behind them keep their records.
// testdata/golden holds each surface's body for a fixed run, as the
// release before the series ring, the journey store and the trace ring
// owned their storage served them: a six-hour paper trace submitted job
// by job at -trace actions with an SLO armed, then drained, with depths
// small enough that every store wraps and evicts.

// readSurfaceConfig is the golden run's daemon.
func readSurfaceConfig() Config {
	return Config{
		Policy: "SB", Seed: 1, TraceVerbosity: "actions", SLOs: accountingSLOs(),
		SeriesDepth: 100, JourneyDepth: 100, TraceDepth: 128,
	}
}

// wallNanos matches a round trace's one wall-clock field.
var wallNanos = regexp.MustCompile(`"wall_ns":[0-9]+`)

// readSurfaceBodies runs the golden workload and returns every pinned
// body by golden file name.
func readSurfaceBodies(t *testing.T) map[string][]byte {
	t.Helper()
	gcfg := workload.DefaultGeneratorConfig()
	gcfg.Horizon = 6 * 3600
	gcfg.Seed = 7
	trace := workload.MustGenerate(gcfg)

	_, hs, client := newTestServer(t, readSurfaceConfig())
	get := func(path string) []byte {
		t.Helper()
		code, body := fetchBody(t, hs.URL, path)
		return []byte(fmt.Sprintf("%d %s", code, body))
	}
	getTrace := func() []byte { return wallNanos.ReplaceAll(get("/v1/trace"), []byte(`"wall_ns":0`)) }

	ctx := context.Background()
	for _, j := range trace.Jobs {
		if _, err := client.SubmitJob(ctx, specFromJob(j)); err != nil {
			t.Fatal(err)
		}
	}
	live := getTrace() // the rounds that placed and migrated; the drain's are mostly idle
	if _, err := client.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	out := map[string][]byte{
		"series.json":      get("/v1/series"),
		"series_step.json": get("/v1/series?step=3600"),
		"series.csv":       get("/v1/series?format=csv"),
		"series_step.csv":  get("/v1/series?format=csv&step=3600"),
		"journeys.json":    get("/v1/journeys"),
		"trace_live.json":  live,
		"trace.json":       getTrace(),
	}
	var journeys bytes.Buffer
	for id := range trace.Jobs {
		journeys.Write(get(fmt.Sprintf("/v1/jobs/%d/journey", id)))
	}
	out["journey_each.txt"] = journeys.Bytes()
	var classes bytes.Buffer
	for _, line := range strings.SplitAfter(string(get("/metrics")), "\n") {
		if strings.Contains(line, "energysched_class_") {
			classes.WriteString(line)
		}
	}
	out["metrics_class.txt"] = classes.Bytes()
	return out
}

// TestReadSurfacesGolden fails if any read surface of the series, the
// journeys, the trace or the class gauges drifts by a byte: status line
// and body, per file in testdata/golden.
func TestReadSurfacesGolden(t *testing.T) {
	compareGolden(t, readSurfaceBodies(t))
}

// The job, status, cluster, report and error bodies are pinned the same
// way, as the release before the wire codec served them (encoding/json
// on both ends): wire_*.json in testdata/golden. The requests are fixed
// strings, so the files pin the daemon's decoding and encoding; the
// client tests in the root package decode the same files, so a codec
// change breaks whichever end of the wire drifted.

// wireSurfaceConfig is the wire golden run's daemon: the paper fleet at
// max pacing, with room for no fleet beyond the default one.
func wireSurfaceConfig() Config {
	return Config{Policy: "SB", Seed: 1, MaxFleets: 1}
}

// wireBatch is the batch the wire golden run posts: the first n jobs of
// a paper trace, all submitted at once at time at, so the fleet is
// booting nodes for them and some are still queued when it is read.
func wireBatch(n int, at float64) string {
	gcfg := workload.DefaultGeneratorConfig()
	gcfg.Horizon = 6 * 3600
	gcfg.Seed = 7
	jobs := workload.MustGenerate(gcfg).Jobs[:n]
	g := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	var b strings.Builder
	b.WriteByte('[')
	for i, j := range jobs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":%q,"cpu_pct":%s,"mem_units":%s,"duration_s":%s,"submit_s":%s,"deadline_factor":%s,"fault_tolerance":%s}`,
			j.Name, g(j.CPU), g(j.Mem), g(j.Duration), g(at), g(j.DeadlineFactor), g(j.FaultTolerance))
	}
	b.WriteByte(']')
	return b.String()
}

// wireSurfaceBodies runs the wire golden workload and returns every
// pinned body by golden file name.
func wireSurfaceBodies(t *testing.T) map[string][]byte {
	t.Helper()
	_, hs, _ := newTestServer(t, wireSurfaceConfig())
	body := func(code int, b string) []byte { return []byte(fmt.Sprintf("%d %s", code, b)) }
	get := func(path string) []byte { t.Helper(); return body(fetchBody(t, hs.URL, path)) }
	post := func(path, payload string) []byte { t.Helper(); return body(postBody(t, hs.URL, path, payload)) }

	out := map[string][]byte{"wire_submit_batch.json": post("/v1/jobs", wireBatch(40, 120))}
	// One job whose name needs every kind of string escape and whose
	// numbers take every float form the encoder has. It arrives after the
	// batch, so reading the fleet at its submit time finds the batch's
	// first VMs placed and the rest queued behind booting nodes.
	out["wire_submit.json"] = post("/v1/jobs", `{"name":"α&β <x> \"q\" \\ \u2028 \t\u0001`+"\xff"+`","cpu_pct":100.5,"mem_units":0.000001,`+
		`"duration_s":600,"submit_s":300,"deadline_factor":1e21,"fault_tolerance":1e-7,"arch":"","hypervisor":""}`)
	out["wire_cluster.json"] = get("/v1/cluster")
	out["wire_report.json"] = get("/v1/report")
	out["wire_job.json"] = get("/v1/jobs/3")
	out["wire_jobs.json"] = get("/v1/jobs")
	out["wire_error_400.json"] = post("/v1/jobs", `{"cpu_pct":100,"mem_units":5}`)
	// A mistyped member is named by its record and key, in a batch too.
	out["wire_error_400_type.json"] = post("/v1/jobs", `{"name":"x","cpu_pct":"100","mem_units":5,"duration_s":60}`)
	out["wire_error_400_batch_type.json"] = post("/v1/jobs", `[{"cpu_pct":100,"mem_units":5,"duration_s":60},{"submit_s":"1"}]`)
	out["wire_error_404.json"] = get("/v1/fleets/a&b%3Cc%3E/report")
	out["wire_error_409.json"] = post("/v1/jobs", `{"cpu_pct":100,"mem_units":5,"duration_s":60,"submit_s":1}`)
	out["wire_error_429.json"] = post("/v1/fleets", `{"id":"second"}`)
	out["wire_drain.json"] = post("/v1/drain", "")
	out["wire_report_final.json"] = get("/v1/report")
	return out
}

// TestWireSurfacesGolden fails if a job, status, cluster, report or
// error body drifts by a byte. The cluster is read mid-run, with VMs
// placed and jobs still queued, or it would pin too little.
func TestWireSurfacesGolden(t *testing.T) {
	bodies := wireSurfaceBodies(t)
	var st energysched.ClusterStatus
	cluster := bytes.TrimPrefix(bodies["wire_cluster.json"], []byte("200 "))
	if err := json.Unmarshal(cluster, &st); err != nil {
		t.Fatal(err)
	}
	placed := 0
	for _, n := range st.Nodes {
		placed += len(n.VMs)
	}
	if len(st.Nodes) != 100 || len(st.Queue) == 0 || placed == 0 {
		t.Fatalf("the golden cluster has %d nodes, %d VMs placed and %d queued; want 100 nodes, some placed and some queued",
			len(st.Nodes), placed, len(st.Queue))
	}
	compareGolden(t, bodies)
}

// compareGolden fails for every body that differs from its file in
// testdata/golden.
func compareGolden(t *testing.T, bodies map[string][]byte) {
	t.Helper()
	for name, got := range bodies {
		want, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted: got %d bytes, want %d; first difference at byte %d",
				name, len(got), len(want), firstDiff(got, want))
		}
	}
}

// firstDiff is the offset of the first byte where a and b differ.
func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
