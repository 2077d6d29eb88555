package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"energysched"
	"energysched/internal/obs"
	"energysched/internal/obs/series"
	"energysched/internal/obs/slo"
)

// accountingSLOs is the canonical fire-and-clear objective set: the
// watts ceiling sits between the idle floor (~725 W) and the
// two-big-jobs burst (~1297 W), so the burst fires it and the long
// idle stretch before the straggler clears it.
func accountingSLOs() []slo.Objective {
	return []slo.Objective{
		{Name: "power-budget", Metric: "watts", Max: 1000,
			ShortWindow: 300, LongWindow: 1200, Budget: 0.1},
		{Name: "admit-latency", Metric: "admit_p99_seconds", Max: 100},
	}
}

// submitAccountingBurst drives the probed workload: two 300-CPU jobs
// that push the fleet over the 1000 W ceiling, then a late straggler
// that stretches the timeline through the recovery window. Returns
// the number of jobs submitted.
func submitAccountingBurst(t *testing.T, client *energysched.Client) int {
	t.Helper()
	ctx := context.Background()
	t0, t1, t2 := 0.0, 60.0, 4*3600.0
	specs := []energysched.JobSpec{
		{CPU: 300, Mem: 10, Duration: 1800, Submit: &t0},
		{CPU: 300, Mem: 10, Duration: 1800, Submit: &t1},
		{CPU: 100, Mem: 5, Duration: 60, Submit: &t2},
	}
	if _, err := client.SubmitJobs(ctx, specs); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	return len(specs)
}

func TestSeriesEndpointJSONAndCSV(t *testing.T) {
	_, hs, client := newTestServer(t, Config{Policy: "SB", Seed: 1})
	submitAccountingBurst(t, client)
	ctx := context.Background()

	snap, err := client.Series(ctx, energysched.SeriesQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Count == 0 || len(snap.Samples) == 0 {
		t.Fatalf("drained fleet has empty series: %+v", snap)
	}
	for i := 1; i < len(snap.Samples); i++ {
		prev, cur := snap.Samples[i-1], snap.Samples[i]
		if cur.T <= prev.T || cur.KWh < prev.KWh || cur.Completed < prev.Completed {
			t.Fatalf("series not monotone at %d: %+v after %+v", i, cur, prev)
		}
	}
	last := snap.Samples[len(snap.Samples)-1]
	if last.KWh <= 0 || last.Completed == 0 {
		t.Fatalf("final sample recorded no work: %+v", last)
	}

	// Single-metric downsampled query returns (t, v) points only.
	pts, err := client.Series(ctx, energysched.SeriesQuery{Metric: "watts", Step: 3600})
	if err != nil {
		t.Fatal(err)
	}
	if pts.Metric != "watts" || len(pts.Points) == 0 || len(pts.Samples) != 0 {
		t.Fatalf("metric query = %+v", pts)
	}
	if len(pts.Points) > len(snap.Samples) {
		t.Fatalf("downsampling grew the series: %d > %d", len(pts.Points), len(snap.Samples))
	}

	// CSV: full-width header by default, a two-column one per metric.
	resp, err := http.Get(hs.URL + "/v1/series?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("csv status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Fatalf("csv content-type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	wantHeader := "t,watts,kwh,sla_pct,utilization_pct,queue,running,nodes_on,nodes_working,nodes_off,migrations_total,completed_total"
	if lines[0] != wantHeader {
		t.Fatalf("csv header = %q", lines[0])
	}
	if len(lines) != 1+len(snap.Samples) {
		t.Fatalf("csv has %d rows for %d samples", len(lines)-1, len(snap.Samples))
	}
	_, metricCSV := fetchBody(t, hs.URL, "/v1/series?metric=kwh&format=csv")
	if !strings.HasPrefix(metricCSV, "t,kwh\n") {
		t.Fatalf("metric csv header: %q", metricCSV[:min(len(metricCSV), 40)])
	}
}

// TestSeriesQueryRejections pins the structured-400 half of the query
// contract at the HTTP layer: malformed parameters produce an
// APIError body naming the offense, never a silently defaulted 200.
func TestSeriesQueryRejections(t *testing.T) {
	_, hs, _ := newTestServer(t, Config{Policy: "SB", Seed: 1})
	cases := []struct {
		name, query, wantMsg string
	}{
		{"bad metric", "metric=wattz", "unknown metric"},
		{"negative since", "since=-60", "non-negative"},
		{"garbage since", "since=yesterday", "not a number"},
		{"zero step", "step=0", "positive"},
		{"negative step", "step=-300", "positive"},
		{"bad format", "format=xml", "unknown format"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := fetchBody(t, hs.URL, "/v1/series?"+tc.query)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, body %s", code, body)
			}
			var apiErr energysched.APIError
			if err := json.Unmarshal([]byte(body), &apiErr); err != nil {
				t.Fatalf("unstructured 400 body %q: %v", body, err)
			}
			if apiErr.Status != http.StatusBadRequest || !strings.Contains(apiErr.Message, tc.wantMsg) {
				t.Fatalf("error body %+v does not mention %q", apiErr, tc.wantMsg)
			}
		})
	}
}

func TestJourneyEndpoints(t *testing.T) {
	_, hs, client := newTestServer(t, Config{Policy: "SB", Seed: 1})
	n := submitAccountingBurst(t, client)
	ctx := context.Background()

	// The index lists every drained job with a terminal outcome.
	idx, err := client.Journeys(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Journeys) != n || idx.Seq == 0 {
		t.Fatalf("journeys index = %+v, want %d journeys", idx, n)
	}
	for _, js := range idx.Journeys {
		// The late straggler boots a cold fleet and may miss its
		// deadline — "violated" is a terminal outcome too.
		if (js.Outcome != "completed" && js.Outcome != "violated") || js.EnergyKWh <= 0 {
			t.Fatalf("journey summary %+v not terminal", js)
		}
	}

	// One job's full audit span: submitted → placed (with why-scores,
	// the sink forces score recording) → completed.
	j, err := client.Journey(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if j.Job != 0 || len(j.Steps) < 3 {
		t.Fatalf("journey = %+v", j)
	}
	if j.Steps[0].Kind != "submitted" || j.Outcome != "completed" || j.Satisfaction != 100 {
		t.Fatalf("lifecycle = %+v", j)
	}
	foundPlaced := false
	for _, st := range j.Steps {
		if st.Kind == "placed" {
			foundPlaced = true
			if st.Why == nil || st.Why.To != st.Node {
				t.Fatalf("placed step lacks a coherent why-score: %+v", st)
			}
		}
	}
	if !foundPlaced {
		t.Fatalf("no placed step in %+v", j.Steps)
	}

	// Unknown job → 404; unparsable job ID → 400.
	if _, err := client.Journey(ctx, 9999); !isStatus(err, http.StatusNotFound) {
		t.Fatalf("unknown journey error = %v", err)
	}
	if code, _ := fetchBody(t, hs.URL, "/v1/jobs/abc/journey"); code != http.StatusBadRequest {
		t.Fatalf("bad job id status = %d", code)
	}
}

// TestJourneyFirehoseSSE replays the full firehose over SSE and
// through the client tail, checking sequence-gapless delivery and the
// flattened wire shape.
func TestJourneyFirehoseSSE(t *testing.T) {
	_, hs, client := newTestServer(t, Config{Policy: "SB", Seed: 1})
	submitAccountingBurst(t, client)
	ctx := context.Background()

	idx, err := client.Journeys(ctx)
	if err != nil {
		t.Fatal(err)
	}
	transcript := readSSETranscript(t, hs.URL, "/v1/journeys?follow=1", idx.Seq)
	if !strings.Contains(transcript, "event: step") || !strings.Contains(transcript, "id: 1\n") {
		t.Fatalf("transcript missing SSE framing:\n%s", transcript)
	}
	if !strings.Contains(transcript, `"kind":"submitted"`) || !strings.Contains(transcript, `"kind":"completed"`) {
		t.Fatalf("transcript missing lifecycle steps:\n%s", transcript)
	}

	// The client tail sees the same backlog, in order, with gapless
	// sequence numbers.
	errStop := errors.New("caught up")
	var evs []energysched.JourneyEvent
	tailErr := client.JourneyTail(ctx, 0, func(ev energysched.JourneyEvent) error {
		evs = append(evs, ev)
		if ev.Seq >= idx.Seq {
			return errStop
		}
		return nil
	})
	if !errors.Is(tailErr, errStop) {
		t.Fatalf("tail ended with %v", tailErr)
	}
	if uint64(len(evs)) != idx.Seq {
		t.Fatalf("tailed %d events, want %d", len(evs), idx.Seq)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	if evs[0].Kind != "submitted" {
		t.Fatalf("first event = %+v", evs[0])
	}

	// Resume mid-stream: since=N skips the first N events.
	var resumed []energysched.JourneyEvent
	tailErr = client.JourneyTail(ctx, idx.Seq-1, func(ev energysched.JourneyEvent) error {
		resumed = append(resumed, ev)
		return errStop
	})
	if !errors.Is(tailErr, errStop) || len(resumed) != 1 || resumed[0].Seq != idx.Seq {
		t.Fatalf("resume from %d got %+v (%v)", idx.Seq-1, resumed, tailErr)
	}
}

func TestAlertsEndpoints(t *testing.T) {
	_, hs, client := newTestServer(t, Config{Policy: "SB", Seed: 1, SLOs: accountingSLOs()})
	submitAccountingBurst(t, client)
	ctx := context.Background()

	snap, err := client.Alerts(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Alerts) != 2 {
		t.Fatalf("alerts = %+v, want both objectives", snap)
	}
	byName := map[string]energysched.FleetAlert{}
	for _, a := range snap.Alerts {
		if a.Fleet != "default" {
			t.Fatalf("alert tagged with fleet %q", a.Fleet)
		}
		byName[a.Name] = a
	}
	// The burst fired the power budget; the idle gap before the
	// straggler cleared it again.
	pb := byName["power-budget"]
	if pb.FiredTotal < 1 || pb.ClearedTotal < 1 || pb.State != "ok" {
		t.Fatalf("power-budget episode = %+v, want fired and cleared", pb)
	}
	al := byName["admit-latency"]
	if al.State != "ok" || al.FiredTotal != 0 {
		t.Fatalf("admit-latency = %+v", al)
	}
	if snap.Firing != 0 {
		t.Fatalf("Firing = %d after drain", snap.Firing)
	}

	// Fleet-scoped route and client agree byte-for-byte with the
	// daemon-wide one (single fleet), and unknown fleets 404.
	_, daemonWide := fetchBody(t, hs.URL, "/v1/alerts")
	_, fleetScoped := fetchBody(t, hs.URL, "/v1/fleets/default/alerts")
	if daemonWide != fleetScoped {
		t.Fatalf("alert bodies diverge:\n%s\n%s", daemonWide, fleetScoped)
	}
	if _, err := client.Fleet("default").Alerts(ctx); err != nil {
		t.Fatal(err)
	}
	if code, _ := fetchBody(t, hs.URL, "/v1/fleets/nope/alerts"); code != http.StatusNotFound {
		t.Fatalf("unknown fleet alerts status = %d", code)
	}
}

// TestSSEHeartbeatKeepsIdleStreamsAlive is the idle-fleet keepalive
// harness: with a short -sse-ping, streams with nothing to say still
// emit ": ping" comments so proxies and slow readers keep the
// connection open.
func TestSSEHeartbeatKeepsIdleStreamsAlive(t *testing.T) {
	_, hs, _ := newTestServer(t, Config{
		Policy: "SB", Seed: 1, SSEHeartbeat: 40 * time.Millisecond,
	})
	for _, path := range []string{"/v1/events", "/v1/journeys?follow=1", "/v1/trace?follow=1"} {
		t.Run(path, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, hs.URL+path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
			pings := 0
			buf := make([]byte, 256)
			var acc strings.Builder
			for pings < 2 {
				n, err := resp.Body.Read(buf)
				acc.Write(buf[:n])
				pings = strings.Count(acc.String(), ": ping")
				if err != nil {
					t.Fatalf("stream ended after %d pings: %v (%q)", pings, err, acc.String())
				}
			}
		})
	}
}

// TestAccountingWireTypesRoundTrip pins the accounting wire format.
// The public payload types are aliases of the structs the daemon
// marshals, so the two sides cannot disagree any more; what can still
// break is the wire itself — a renamed JSON tag in internal/obs,
// series or slo now changes the public API. Each response envelope
// must render exactly the documented JSON and decode back losslessly.
func TestAccountingWireTypesRoundTrip(t *testing.T) {
	roundTrip := func(name string, in, out interface{}, wantJSON string) {
		t.Helper()
		raw, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != wantJSON {
			t.Fatalf("%s wire format changed:\n got %s\nwant %s", name, raw, wantJSON)
		}
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reflect.ValueOf(out).Elem().Interface(), in) {
			t.Fatalf("%s did not survive the round trip:\n got %+v\nwant %+v", name, out, in)
		}
	}

	roundTrip("series snapshot", energysched.SeriesSnapshot{Count: 41, Samples: []series.Sample{{
		T: 3600, Watts: 1297.5, KWh: 1.25, SLA: 99.5, Utilization: 62.5,
		Queue: 2, Running: 3, On: 4, Working: 3, Off: 6, Migrations: 7, Completed: 8,
		Classes: []series.ClassSample{{Class: "c0", Watts: 500, KWh: 0.5, On: 2, Working: 1, Off: 3}},
	}}}, new(energysched.SeriesSnapshot),
		`{"count":41,"samples":[{"t":3600,"watts":1297.5,"kwh":1.25,"sla_pct":99.5,"utilization_pct":62.5,`+
			`"queue":2,"running":3,"nodes_on":4,"nodes_working":3,"nodes_off":6,"migrations_total":7,"completed_total":8,`+
			`"classes":[{"class":"c0","watts":500,"kwh":0.5,"on":2,"working":1,"off":3}]}]}`)

	roundTrip("series points", energysched.SeriesSnapshot{
		Metric: "watts", Count: 2, Points: []series.Point{{T: 60, V: 725}},
	}, new(energysched.SeriesSnapshot), `{"metric":"watts","count":2,"points":[{"t":60,"v":725}]}`)

	// A journey with a why-score on its placed step.
	roundTrip("journey", obs.Journey{
		Job: 5, Truncated: true, Outcome: obs.StepCompleted, EnergyKWh: 0.75, Satisfaction: 98,
		Steps: []obs.JourneyStep{
			{T: 0, Kind: obs.StepSubmitted, Node: -1, Dest: -1},
			{T: 30, Kind: obs.StepPlaced, Node: 4, Dest: -1,
				Why: &obs.ActionTrace{Kind: "place", VM: 5, From: -1, To: 4, Gain: -2.5}},
			{T: 600, Kind: obs.StepCompleted, Node: 4, Dest: -1, Satisfaction: 98, EnergyKWh: 0.75},
		},
	}, new(energysched.JobJourney),
		`{"job":5,"steps":[{"t":0,"kind":"submitted","node":-1,"dest":-1},`+
			`{"t":30,"kind":"placed","node":4,"dest":-1,"why":{"kind":"place","vm":5,"from":-1,"to":4,"current":0,"chosen":0,"gain":-2.5}},`+
			`{"t":600,"kind":"completed","node":4,"dest":-1,"satisfaction_pct":98,"energy_kwh":0.75}],`+
			`"truncated":true,"outcome":"completed","energy_kwh":0.75,"satisfaction_pct":98}`)

	roundTrip("journeys index", energysched.JourneysSnapshot{Seq: 9, Journeys: []obs.JourneySummary{
		{Job: 5, Steps: 3, Outcome: "completed", EnergyKWh: 0.75, Satisfaction: 98},
	}}, new(energysched.JourneysSnapshot),
		`{"seq":9,"journeys":[{"job":5,"steps":3,"outcome":"completed","energy_kwh":0.75,"satisfaction_pct":98}]}`)

	roundTrip("alerts", energysched.AlertsSnapshot{Firing: 1, Alerts: []energysched.FleetAlert{{
		Fleet: "default", AlertStatus: slo.Alert{
			Name: "power-budget", Metric: "watts", State: "firing", Since: 1200,
			Value: 1297, ShortBurn: 3.2, LongBurn: 1.4, Budget: 0.1,
			FiredTotal: 2, ClearedTotal: 1,
		}}}}, new(energysched.AlertsSnapshot),
		`{"firing":1,"alerts":[{"fleet":"default","name":"power-budget","metric":"watts","state":"firing","since_s":1200,`+
			`"value":1297,"short_burn":3.2,"long_burn":1.4,"budget":0.1,"fired_total":2,"cleared_total":1}]}`)

	// Journey firehose wire → energysched.JourneyEvent, via a real
	// store so the flattening is the production one.
	store := obs.NewJourneyStore(4, 8)
	defer store.Close()
	store.Record(9, obs.JourneyStep{T: 42, Kind: obs.StepPlaced, Node: 3, Dest: -1})
	evs := store.Snapshot(0)
	if len(evs) != 1 {
		t.Fatalf("snapshot = %d events", len(evs))
	}
	var ev energysched.JourneyEvent
	if err := json.Unmarshal(evs[0].Data, &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 1 || ev.Job != 9 || ev.Kind != "placed" || ev.T != 42 || ev.Node != 3 {
		t.Fatalf("firehose event = %+v", ev)
	}
}

// TestFailoverByteIdenticalWithCollectors is the HA half of the
// side-channel proof: a leader/follower pair running every collector
// at max verbosity (score traces, series sampling, journeys, SLOs)
// fails over and drains to a report byte-identical to a bare single
// daemon with all collectors off — and the promoted follower's
// accounting stores are populated exactly once, never doubled by the
// replication replay.
func TestFailoverByteIdenticalWithCollectors(t *testing.T) {
	ctx := context.Background()
	const jobs = 30

	// Reference: no HA, no collectors.
	_, _, rc := newTestServer(t, Config{Policy: "SB", Seed: 1})
	submitN(t, rc, jobs, 0)
	refRep, err := rc.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// HA pair with every collector armed on both sides.
	loud := func(follow string) Config {
		cfg := Config{
			Policy: "SB", Seed: 1,
			WALDir: t.TempDir(), SnapshotDir: t.TempDir(),
			TraceVerbosity: "scores", SLOs: accountingSLOs(),
			ReplPing: 20 * time.Millisecond,
		}
		if follow != "" {
			cfg.Follow = follow
			cfg.FollowPoll = 20 * time.Millisecond
		}
		return cfg
	}
	leader, lhs, lc := newTestServer(t, loud(""))
	submitN(t, lc, jobs, 0)
	// The follower starts once the leader holds every job, so its state
	// comes from the bootstrap replay whatever the timing: a follower
	// subscribed before the batch would apply the records live, and
	// journal and sample them as its own.
	_, _, fc := newTestServer(t, loud(lhs.URL))
	waitFor(t, "follower sync", func() bool {
		h, err := fc.Health(ctx)
		st, serr := fc.FleetStatus(ctx, DefaultFleet)
		return err == nil && h.Ready && serr == nil && st.Replication.Offset == jobs
	})

	// The WAL replay that built the follower must not have sampled or
	// journaled anything: those belong to the original timeline.
	fSnap, err := fc.Series(ctx, energysched.SeriesQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if fSnap.Count != 0 {
		t.Fatalf("follower sampled %d times during replay", fSnap.Count)
	}
	fIdx, err := fc.Journeys(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fIdx.Seq != 0 || len(fIdx.Journeys) != 0 {
		t.Fatalf("follower journaled during replay: %+v", fIdx)
	}

	// Fail over and drain on the promoted follower.
	lhs.CloseClientConnections()
	lhs.Close()
	leader.Close()
	if _, err := fc.Promote(ctx); err != nil {
		t.Fatal(err)
	}
	frep, err := fc.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(frep, refRep) {
		t.Fatalf("failover report diverged from bare reference:\n got %+v\nwant %+v", frep, refRep)
	}

	// Post-drain the promoted follower's collectors hold exactly one
	// timeline's worth of accounting: every job journaled once with
	// why-scores, the series sampled, the SLO verdicts evaluated.
	fIdx, err = fc.Journeys(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(fIdx.Journeys) != jobs {
		t.Fatalf("promoted follower has %d journeys, want %d", len(fIdx.Journeys), jobs)
	}
	seen := map[int]bool{}
	for _, js := range fIdx.Journeys {
		if seen[js.Job] {
			t.Fatalf("job %d journaled twice", js.Job)
		}
		seen[js.Job] = true
	}
	j0, err := fc.Journey(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if j0.Outcome == "" || j0.EnergyKWh <= 0 {
		t.Fatalf("journey 0 on promoted follower = %+v", j0)
	}
	fSnap, err = fc.Series(ctx, energysched.SeriesQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if fSnap.Count == 0 {
		t.Fatal("promoted follower recorded no series samples")
	}
	alerts, err := fc.Alerts(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts.Alerts) != 2 {
		t.Fatalf("promoted follower alerts = %+v", alerts)
	}
}
