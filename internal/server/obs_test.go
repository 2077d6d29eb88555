package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"energysched"
)

// Observability surface: the decision-trace API, the per-route HTTP
// latency histograms, and the build identity in /v1/health — plus the
// end-to-end determinism contract (max-verbosity tracing changes no
// report byte) across plain serving and an HA failover.

// The trace endpoint serves decodable round traces on both the alias
// and the namespaced route, supports ?since cursors and the SSE tail,
// and recording at "scores" leaves the drained report byte-identical
// to an untraced daemon's.
func TestTraceEndpointSnapshotAndTail(t *testing.T) {
	_, hs, client := newTestServer(t, Config{TraceVerbosity: "scores"})
	ctx := context.Background()

	submitN(t, client, 15, 0)
	if _, err := client.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	// Untraced twin over the same workload: byte-identical report.
	_, hsOff, clOff := newTestServer(t, Config{})
	submitN(t, clOff, 15, 0)
	if _, err := clOff.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	traced := getBody(t, hs.URL+"/v1/report")
	untraced := getBody(t, hsOff.URL+"/v1/report")
	if !bytes.Equal(traced, untraced) {
		t.Fatalf("scores-verbosity tracing changed the report:\n got %s\nwant %s", traced, untraced)
	}

	snap, err := client.Trace(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq == 0 || len(snap.Traces) == 0 {
		t.Fatalf("drained workload left no traces: %+v", snap)
	}
	if snap.Verbosity != "scores" {
		t.Fatalf("verbosity = %q, want scores", snap.Verbosity)
	}
	if last := snap.Traces[len(snap.Traces)-1].Seq; last != snap.Seq {
		t.Fatalf("head seq %d != last trace seq %d", snap.Seq, last)
	}
	sawTerms := false
	for _, rt := range snap.Traces {
		if rt.Solver == "" || rt.Hosts <= 0 {
			t.Fatalf("malformed trace: %+v", rt)
		}
		if len(rt.Actions) != rt.Moves {
			t.Fatalf("trace %d has %d actions for %d moves", rt.Seq, len(rt.Actions), rt.Moves)
		}
		for _, at := range rt.Actions {
			sawTerms = sawTerms || at.Terms != nil
		}
	}
	if !sawTerms {
		t.Fatal("scores verbosity recorded no score terms")
	}

	// The since cursor resumes exactly past the head.
	tail, err := client.Trace(ctx, snap.Seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail.Traces) != 0 || tail.Seq != snap.Seq {
		t.Fatalf("since=head returned %d traces (seq %d)", len(tail.Traces), tail.Seq)
	}

	// Alias and namespaced routes serve byte-identical bodies.
	alias := getBody(t, hs.URL+"/v1/trace")
	scoped := getBody(t, hs.URL+"/v1/fleets/default/trace")
	if !bytes.Equal(alias, scoped) {
		t.Fatalf("trace bodies diverged:\nalias: %s\nscoped: %s", alias, scoped)
	}

	// The SSE tail replays the same backlog.
	errDone := errors.New("done")
	var streamed []uint64
	err = client.TraceTail(ctx, 0, func(rt energysched.TraceRound) error {
		streamed = append(streamed, rt.Seq)
		if rt.Seq >= snap.Seq {
			return errDone
		}
		return nil
	})
	if !errors.Is(err, errDone) {
		t.Fatalf("trace tail ended early: %v (saw %v)", err, streamed)
	}
	if len(streamed) != len(snap.Traces) {
		t.Fatalf("tail replayed %d traces, snapshot has %d", len(streamed), len(snap.Traces))
	}
}

// The runtime verbosity knob takes effect immediately, rejects unknown
// spellings, and a FleetSpec override beats the daemon default; a bad
// spelling in a spec is a 400 before the fleet exists.
func TestTraceVerbosityRuntimeAndOverrides(t *testing.T) {
	_, hs, client := newTestServer(t, Config{}) // daemon default: off
	ctx := context.Background()

	submitN(t, client, 5, 0)
	snap, err := client.Trace(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 0 || snap.Verbosity != "off" {
		t.Fatalf("default-off fleet recorded traces: %+v", snap)
	}
	if err := client.SetTraceVerbosity(ctx, "rounds"); err != nil {
		t.Fatal(err)
	}
	submitN(t, client, 5, 5)
	snap, err = client.Trace(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq == 0 || snap.Verbosity != "rounds" {
		t.Fatalf("runtime verbosity flip did not take: %+v", snap)
	}
	for _, rt := range snap.Traces {
		if len(rt.Actions) != 0 {
			t.Fatalf("rounds verbosity recorded actions: %+v", rt)
		}
	}
	if err := client.SetTraceVerbosity(ctx, "loud"); !isStatus(err, http.StatusBadRequest) {
		t.Fatalf("bad verbosity spelling: %v", err)
	}

	// Spec override: an "actions" fleet on an off daemon.
	if _, err := client.CreateFleet(ctx, energysched.FleetSpec{ID: "traced", TraceVerbosity: "actions", TraceDepth: 16}); err != nil {
		t.Fatal(err)
	}
	tc := client.Fleet("traced")
	submitN(t, tc, 20, 0)
	tsnap, err := tc.Trace(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tsnap.Verbosity != "actions" || tsnap.Seq == 0 {
		t.Fatalf("spec override did not take: %+v", tsnap)
	}
	if len(tsnap.Traces) > 16 {
		t.Fatalf("trace_depth 16 retained %d traces", len(tsnap.Traces))
	}

	// A bad spelling in the spec is rejected up front.
	if code, body := postBody(t, hs.URL, "/v1/fleets", `{"id":"bad","trace_verbosity":"loud"}`); code != http.StatusBadRequest {
		t.Fatalf("bad-verbosity create: %d %s", code, body)
	}
}

// Every request feeds the per-route latency histogram under its mux
// pattern (not its raw URL), and /v1/health carries the build
// identity.
func TestRouteLatencyMetricsAndBuildInfo(t *testing.T) {
	_, hs, client := newTestServer(t, Config{})
	ctx := context.Background()

	submitN(t, client, 3, 0)
	if _, err := client.Report(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Fleet("default").Report(ctx); err != nil {
		t.Fatal(err)
	}
	text := string(getBody(t, hs.URL+"/metrics"))
	for _, want := range []string{
		"# TYPE energysched_http_request_seconds histogram",
		`energysched_http_request_seconds_bucket{le="+Inf",route="GET /v1/report"}`,
		`energysched_http_request_seconds_count{route="GET /v1/fleets/{fleet}/report"}`,
		`energysched_http_request_seconds_count{route="POST /v1/jobs"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, text)
		}
	}
	if strings.Contains(text, `route="GET /v1/fleets/default/report"`) {
		t.Error("route label leaked a raw URL instead of the mux pattern")
	}

	h, err := client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Version == "" {
		t.Fatalf("health carries no build version: %+v", h)
	}
}

// HA failover at maximum trace verbosity: the follower mirrors a
// traced leader byte-for-byte, records its own traces from the live
// replicated rounds, and the promoted report equals the leader's.
func TestHAFailoverByteIdenticalAtMaxTraceVerbosity(t *testing.T) {
	_, lhs, lc := newTestServer(t, Config{
		WALDir: t.TempDir(), SnapshotDir: t.TempDir(),
		ReplPing: 20 * time.Millisecond, TraceVerbosity: "scores",
	})
	_, fhs, fc := newTestServer(t, Config{
		WALDir: t.TempDir(), SnapshotDir: t.TempDir(),
		Follow: lhs.URL, FollowPoll: 20 * time.Millisecond,
		TraceVerbosity: "scores",
	})
	ctx := context.Background()

	// Let the follower attach before the workload so records stream
	// live (a snapshot bootstrap replays, and replayed rounds are
	// deliberately not traced). Discovering the fleet is not attaching:
	// the stream is open once a frame of it has arrived.
	waitFor(t, "follower attach", func() bool {
		h, err := fc.Health(ctx)
		return err == nil && h.Role == "follower" && h.Fleets == 1 &&
			h.Replication[DefaultFleet].LastContactUnix > 0
	})
	submitN(t, lc, 25, 0)
	lrep, err := lc.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "replicated seal", func() bool {
		frep, err := fc.Report(ctx)
		return err == nil && frep.Final && reflect.DeepEqual(lrep, frep)
	})

	lt, err := lc.Trace(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lt.Seq == 0 {
		t.Fatal("traced leader recorded nothing")
	}
	waitFor(t, "follower traces from live replication", func() bool {
		ft, err := fc.Trace(ctx, 0)
		return err == nil && ft.Seq > 0
	})

	if _, err := fc.Promote(ctx); err != nil {
		t.Fatal(err)
	}
	got := getBody(t, fhs.URL+"/v1/report")
	want := getBody(t, lhs.URL+"/v1/report")
	if !bytes.Equal(got, want) {
		t.Fatalf("promoted report diverged from the leader's:\n got %s\nwant %s", got, want)
	}
}
