package server

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

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
	for name, got := range readSurfaceBodies(t) {
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
