package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"energysched"
)

// The serving-path contracts of ingest backpressure at the HTTP
// layer: over-limit submits shed with honest 429 + Retry-After,
// evicted SSE resume points announce themselves with an explicit gap
// event instead of silently skipping, and identical concurrent reads
// coalesce into one fleet event-loop turn.

// TestHTTPRateLimit429WithRetryAfter: a fleet created with a rate
// limit sheds over-limit submits with 429, a Retry-After header, and
// shed counters on /metrics — and recovers once the bucket refills.
func TestHTTPRateLimit429WithRetryAfter(t *testing.T) {
	_, hs, client := newTestServer(t, Config{Policy: "SB", Seed: 1})
	ctx := context.Background()
	if _, err := client.CreateFleet(ctx, energysched.FleetSpec{
		ID: "rl", Policy: "SB", Seed: 1, RateLimit: 2, RateBurst: 1,
	}); err != nil {
		t.Fatal(err)
	}

	// Raw HTTP so the Retry-After header is observable and no retry
	// policy can paper over the 429.
	submit := func(at float64) *http.Response {
		t.Helper()
		body := `{"cpu_pct":100,"mem_units":5,"duration_s":600,"submit_s":` +
			strconv.FormatFloat(at, 'f', -1, 64) + `}`
		resp, err := http.Post(hs.URL+"/v1/fleets/rl/jobs", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	// The burst admits one job; hammering past it must produce a 429.
	if resp := submit(0); resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("first submit = %d: %s", resp.StatusCode, b)
	}
	var shed *http.Response
	for i := 0; i < 10; i++ {
		resp := submit(float64(i+1) * 30)
		if resp.StatusCode == http.StatusTooManyRequests {
			shed = resp
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("submit %d = %d: %s", i, resp.StatusCode, b)
		}
	}
	if shed == nil {
		t.Fatal("10 immediate submits against a 2/s limit never shed a 429")
	}
	if ra := shed.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 response carried no Retry-After header")
	}

	// The shed surfaces on the metrics endpoint.
	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mb, _ := io.ReadAll(mresp.Body)
	metricsText := string(mb)
	for _, want := range []string{
		`energysched_admit_shed_total{fleet="rl",reason="rate"}`,
		`energysched_admit_queue_depth{fleet="rl"}`,
		`energysched_admit_queue_capacity{fleet="rl"}`,
	} {
		if !strings.Contains(metricsText, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metricsText)
		}
	}
}

// TestEventStreamGapSignal: a /v1/events resume from an evicted
// sequence gets an explicit gap event — surfaced to the Go client as a
// terminal *GapError naming the evicted range.
func TestEventStreamGapSignal(t *testing.T) {
	_, hs, client := newTestServer(t, Config{Policy: "SB", Seed: 1, EventRing: 4})
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		at := float64(i) * 30
		if _, err := client.SubmitJob(ctx, energysched.JobSpec{CPU: 100, Mem: 5, Duration: 600, Submit: &at}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	// since=1 points far behind the depth-4 ring: the raw SSE stream
	// must open with the gap event.
	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/v1/events?since=1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	resp.Body.Close()
	head := string(buf[:n])
	if !strings.Contains(head, "event: gap") || !strings.Contains(head, `"requested":1`) {
		t.Fatalf("evicted resume did not open with a gap event:\n%s", head)
	}

	// The Go client turns the gap into a terminal *GapError.
	err = client.Events(ctx, 1, func(seq uint64, e energysched.Event) error { return nil })
	var gerr *energysched.GapError
	if !errors.As(err, &gerr) {
		t.Fatalf("client tail from evicted seq returned %v, want *GapError", err)
	}
	if gerr.Gap.Requested != 1 || gerr.Gap.Oldest <= 2 {
		t.Fatalf("gap = %+v, want requested 1 and oldest past the evicted range", gerr.Gap)
	}

	// A live resume point still streams normally — no spurious gaps.
	errStop := errors.New("saw one")
	err = client.Events(ctx, gerr.Gap.Oldest-1, func(seq uint64, e energysched.Event) error { return errStop })
	if !errors.Is(err, errStop) {
		t.Fatalf("in-ring resume = %v, want a normal event", err)
	}
}

// TestTraceAndJourneyGapSignals: the trace and journey SSE tails share
// the gap contract — forced eviction via tiny retention depths, then a
// too-early resume must fail loudly with *GapError.
func TestTraceAndJourneyGapSignals(t *testing.T) {
	_, _, client := newTestServer(t, Config{
		Policy: "SB", Seed: 1,
		TraceVerbosity: "rounds", TraceDepth: 2, JourneyDepth: 2,
	})
	// A missing gap leaves the follow stream open forever; bound the
	// tails so that bug fails instead of hanging the suite.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 8; i++ {
		at := float64(i) * 600
		if _, err := client.SubmitJob(ctx, energysched.JobSpec{CPU: 100, Mem: 5, Duration: 300, Submit: &at}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	var gerr *energysched.GapError
	err := client.TraceTail(ctx, 1, func(rt energysched.TraceRound) error { return nil })
	if !errors.As(err, &gerr) {
		t.Fatalf("trace tail from evicted seq returned %v, want *GapError", err)
	}
	if gerr.Gap.Requested != 1 || gerr.Gap.Oldest <= 2 {
		t.Fatalf("trace gap = %+v", gerr.Gap)
	}

	err = client.JourneyTail(ctx, 1, func(ev energysched.JourneyEvent) error { return nil })
	if !errors.As(err, &gerr) {
		t.Fatalf("journey tail from evicted seq returned %v, want *GapError", err)
	}
	if gerr.Gap.Requested != 1 || gerr.Gap.Oldest <= 2 {
		t.Fatalf("journey gap = %+v", gerr.Gap)
	}
}

// TestReadGroupCoalesces: the singleflight group runs one fetch per
// (endpoint, key) at a time — followers that arrive while the leader
// is in flight share its result, and the hit/miss counters surface on
// the metrics samples.
func TestReadGroupCoalesces(t *testing.T) {
	var g readGroup
	gate := make(chan struct{})
	entered := make(chan struct{})
	var fetches int
	const followers = 5

	var wg sync.WaitGroup
	results := make([]string, followers+1)
	leaderFn := func() (string, error) {
		fetches++
		close(entered)
		<-gate
		return "report-v1", nil
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], _ = coalesce(&g, "report", "default", leaderFn)
	}()
	<-entered
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Never runs: the leader is in flight for the same key.
			results[i+1], _ = coalesce(&g, "report", "default", func() (string, error) {
				t.Error("follower executed its own fetch")
				return "", nil
			})
		}(i)
	}
	// Followers must be parked on the leader's call before release;
	// poll the group's internal state instead of sleeping blind.
	waitFor(t, "followers parked on the leader's flight", func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		st := g.stats["report"]
		return st != nil && st.hits == followers
	})
	close(gate)
	wg.Wait()

	if fetches != 1 {
		t.Fatalf("%d fetches for %d concurrent identical reads, want 1", fetches, followers+1)
	}
	for i, r := range results {
		if r != "report-v1" {
			t.Fatalf("caller %d got %v, want the leader's result", i, r)
		}
	}

	// A different key is a different flight.
	if v, _ := coalesce(&g, "report", "other", func() (string, error) { return "other-v1", nil }); v != "other-v1" {
		t.Fatalf("distinct key returned %v", v)
	}
	// And a later identical call re-fetches: coalescing is per-flight,
	// never a stale cache.
	if v, _ := coalesce(&g, "report", "default", func() (string, error) { return "report-v2", nil }); v != "report-v2" {
		t.Fatalf("post-flight call returned %v, want a fresh fetch", v)
	}

	samples := g.samples()
	var hits, misses float64
	for _, s := range samples {
		if s.Name != "energysched_coalesce_total" || s.Labels["endpoint"] != "report" {
			continue
		}
		switch s.Labels["result"] {
		case "hit":
			hits = s.Value
		case "miss":
			misses = s.Value
		}
	}
	if hits != followers || misses != 3 {
		t.Fatalf("coalesce samples: hits=%v misses=%v, want %d and 3\n%+v", hits, misses, followers, samples)
	}
}

// TestCoalesceMetricsOnServedReads: end to end, served /v1/report and
// /v1/cluster reads show up under energysched_coalesce_total.
func TestCoalesceMetricsOnServedReads(t *testing.T) {
	_, hs, client := newTestServer(t, Config{Policy: "SB", Seed: 1})
	ctx := context.Background()
	if _, err := client.Report(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Cluster(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`energysched_coalesce_total{endpoint="report",result="miss"}`,
		`energysched_coalesce_total{endpoint="cluster",result="miss"}`,
	} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}
