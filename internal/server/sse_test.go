package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"energysched"
)

// sseRoutes are the three streams serveSSE is mounted behind, alias
// and namespaced, each ready for one more query parameter.
var sseRoutes = []string{
	"/v1/events?", "/v1/trace?follow=1&", "/v1/journeys?follow=1&",
	"/v1/fleets/default/events?", "/v1/fleets/default/trace?follow=1&", "/v1/fleets/default/journeys?follow=1&",
}

// TestSSEMalformedResumePoint: a ?since= that is not a sequence number
// is a structured 400 on every stream — it used to be read as since=0
// and replay the whole ring with no gap signal — while a malformed
// Last-Event-ID header is ignored, as the SSE spec has it.
func TestSSEMalformedResumePoint(t *testing.T) {
	_, hs, client := newTestServer(t, Config{Policy: "SB", Seed: 1, TraceVerbosity: "rounds"})
	submitN(t, client, 3, 0)
	if _, err := client.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	for _, route := range sseRoutes {
		t.Run(route, func(t *testing.T) {
			code, body := fetchBody(t, hs.URL, route+"since=abc")
			if code != http.StatusBadRequest {
				t.Fatalf("since=abc: status %d, body %s", code, body)
			}
			var apiErr energysched.APIError
			if err := json.Unmarshal([]byte(body), &apiErr); err != nil {
				t.Fatalf("400 body is not an APIError: %v (%s)", err, body)
			}
			if apiErr.Status != http.StatusBadRequest || !strings.Contains(apiErr.Message, `"abc"`) {
				t.Fatalf("400 body = %+v", apiErr)
			}

			// A garbage header resumes from the start: the full backlog,
			// no gap event, no error.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, hs.URL+route, nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Last-Event-ID", "abc")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/event-stream" {
				t.Fatalf("bad Last-Event-ID: status %d, content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
			}
			buf := make([]byte, 4096)
			n, _ := resp.Body.Read(buf)
			if head := string(buf[:n]); !strings.HasPrefix(head, "id: 1\n") {
				t.Fatalf("bad Last-Event-ID did not replay from the start:\n%s", head)
			}
		})
	}

	// The trace snapshot shares the parser.
	if code, body := fetchBody(t, hs.URL, "/v1/trace?since=abc"); code != http.StatusBadRequest {
		t.Fatalf("trace snapshot since=abc: status %d, body %s", code, body)
	}
}

// TestSSETailsReturnTheServerError: a tail the daemon refuses returns
// the daemon's own APIError, as every other call does, not a message
// the client made up.
func TestSSETailsReturnTheServerError(t *testing.T) {
	_, _, client := newTestServer(t, Config{Policy: "SB", Seed: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := client.GetFleet(ctx, "nosuch")
	var want *energysched.APIError
	if !errors.As(err, &want) || want.Status != http.StatusNotFound || want.Message == "" {
		t.Fatalf("GetFleet of an unknown fleet: %v", err)
	}
	fleet := client.Fleet("nosuch")
	for name, tail := range map[string]func() error{
		"Events": func() error {
			return fleet.Events(ctx, 0, func(uint64, energysched.Event) error { return nil })
		},
		"TraceTail": func() error {
			return fleet.TraceTail(ctx, 0, func(energysched.TraceRound) error { return nil })
		},
		"JourneyTail": func() error {
			return fleet.JourneyTail(ctx, 0, func(energysched.JourneyEvent) error { return nil })
		},
	} {
		var got *energysched.APIError
		if err := tail(); !errors.As(err, &got) || *got != *want {
			t.Errorf("%s on an unknown fleet: %v, want %v", name, err, want)
		}
	}
}

// TestSSETailsEndWithTheirFleet: open all three tails, take the fleet
// away — DELETE it, or close the whole daemon — and every stream must
// reach a clean EOF, leaving no handler, subscriber or connection
// goroutine behind.
func TestSSETailsEndWithTheirFleet(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(t *testing.T, srv *Server, client *energysched.Client)
	}{
		{"fleet delete", func(t *testing.T, _ *Server, client *energysched.Client) {
			if err := client.DeleteFleet(context.Background(), "doomed"); err != nil {
				t.Fatal(err)
			}
		}},
		{"server close", func(_ *testing.T, srv *Server, _ *energysched.Client) { srv.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := New(Config{Policy: "SB", Seed: 1, TraceVerbosity: "rounds"})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			hs := httptest.NewServer(srv.Handler())
			defer hs.Close()
			tr := &http.Transport{}
			defer tr.CloseIdleConnections()
			client := energysched.NewClient(hs.URL)
			client.HTTPClient = &http.Client{Transport: tr}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if _, err := client.CreateFleet(ctx, energysched.FleetSpec{ID: "doomed"}); err != nil {
				t.Fatal(err)
			}
			submitN(t, client.Fleet("doomed"), 3, 0)
			tr.CloseIdleConnections()
			before := settledGoroutines(t, 0)

			eof := make(chan error, 3) // one result per tail
			for _, path := range []string{"/events", "/trace?follow=1", "/journeys?follow=1"} {
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, hs.URL+"/v1/fleets/doomed"+path, nil)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := client.HTTPClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("GET %s: status %d", path, resp.StatusCode)
				}
				go func() {
					_, err := io.Copy(io.Discard, resp.Body)
					eof <- err
				}()
			}
			if during := runtime.NumGoroutine(); during <= before {
				t.Fatalf("three open tails added no goroutines (%d before, %d during): the check below is vacuous", before, during)
			}

			tc.end(t, srv, client)
			for i := 0; i < 3; i++ {
				if err := <-eof; err != nil {
					t.Fatalf("tail ended with %v, want a clean EOF", err)
				}
			}
			tr.CloseIdleConnections()
			if after := settledGoroutines(t, before); after > before {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines before the tails, %d after they ended:\n%s",
					before, after, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

// settledGoroutines samples runtime.NumGoroutine — connection and
// handler goroutines exit asynchronously — until it is at most atMost
// or has not moved for 200ms, and returns the last reading.
func settledGoroutines(t *testing.T, atMost int) int {
	t.Helper()
	n, still := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(5 * time.Second); n > atMost && still < 10 && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		if now := runtime.NumGoroutine(); now == n {
			still++
		} else {
			n, still = now, 0
		}
	}
	return n
}

// TestSSELateReaderGetsTheLiveBytes: with two subscribers on each of
// the three streams, what both receive live, what a later ?since=0
// reader replays and what a Last-Event-ID resume replays are the same
// bytes — and, for the two deterministic streams, the same bytes a
// daemon nobody was tailing (so nothing was encoded at emission)
// replays for the same workload.
func TestSSELateReaderGetsTheLiveBytes(t *testing.T) {
	routes := sseRoutes[:3]
	run := func(t *testing.T, tailed bool) (replays []string) {
		srv, hs, client := newTestServer(t, Config{Policy: "SB", Seed: 1, TraceVerbosity: "scores"})
		var live [][2]io.Reader
		if tailed {
			for _, route := range routes {
				live = append(live, [2]io.Reader{openSSE(t, hs.URL+route, ""), openSSE(t, hs.URL+route, "")})
			}
		}
		submitN(t, client, 6, 0)
		if _, err := client.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		f, err := srv.Manager().Get(DefaultFleet)
		if err != nil {
			t.Fatal(err)
		}
		for i, head := range []uint64{f.Broker().Seq(), f.TraceSeq(), f.JourneySeq()} {
			if head < 4 {
				t.Fatalf("%s: only %d events; the comparison is vacuous", routes[i], head)
			}
			replay := readSSETranscript(t, hs.URL, routes[i]+"since=0", head)
			replays = append(replays, replay)
			if tailed {
				first, second := scanSSE(t, live[i][0], routes[i], head), scanSSE(t, live[i][1], routes[i], head)
				if first != second {
					t.Errorf("%s: two live subscribers received different bytes:\n%s\nvs\n%s", routes[i], first, second)
				}
				if first != replay {
					t.Errorf("%s: a since=0 reader replays different bytes than the live subscribers got:\n%s\nvs\n%s", routes[i], replay, first)
				}
			}
			mid := head / 2
			resumed := scanSSE(t, openSSE(t, hs.URL+routes[i], strconv.FormatUint(mid, 10)), routes[i], head)
			from := strings.Index(replay, "id: "+strconv.FormatUint(mid+1, 10)+"\n")
			if from < 0 || resumed != replay[from:] {
				t.Errorf("%s: Last-Event-ID %d resume is not the replay's tail:\n%s\nvs\n%s", routes[i], mid, resumed, replay)
			}
		}
		return replays
	}
	var tailed, quiet []string
	t.Run("tailed", func(t *testing.T) { tailed = run(t, true) })
	t.Run("quiet", func(t *testing.T) { quiet = run(t, false) })
	if t.Failed() {
		return
	}
	for _, i := range []int{0, 2} { // round traces carry wall-clock timings
		if tailed[i] != quiet[i] {
			t.Errorf("%s: encoding at emission and encoding on first read disagree:\n%s\nvs\n%s", routes[i], tailed[i], quiet[i])
		}
	}
}

// TestSSEConcurrentResumeUnderLoad is the ring's reader/writer race at
// the HTTP surface, for -race: while jobs stream in, consumers of all
// three streams connect, read a few events, drop the connection and
// resume from the last id they saw; others poll the trace snapshot;
// a restore resets the rings under them. Every event must decode and
// carry the sequence number the consumer expects next, unless the
// daemon announced a gap first.
func TestSSEConcurrentResumeUnderLoad(t *testing.T) {
	_, _, client := newTestServer(t, Config{
		Policy: "SB", Seed: 1, TraceVerbosity: "actions",
		EventRing: 64, TraceDepth: 16, JourneyDepth: 32, SnapshotDir: t.TempDir(),
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	submitN(t, client, 4, 0)
	if _, err := client.Snapshot(ctx, "early.json"); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	emitter := make(chan struct{})
	go func() { // the one writer: a job at a time, each later than the last
		defer close(emitter)
		for i := 4; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			at := float64(i) * 15
			// A submit that lands behind a restore's clock is a 409, not
			// this test's concern.
			client.SubmitJob(ctx, energysched.JobSpec{CPU: 100, Mem: 5, Duration: 300, Submit: &at})
		}
	}()

	errTaken := errors.New("took enough")
	// resume drives one consumer: tail from last, take up to five events
	// checking each against the expected next sequence number, repeat.
	resume := func(what string, tail func(since uint64, fn func(seq uint64) error) error) {
		var last uint64
		for i := 0; i < 40 && ctx.Err() == nil; i++ {
			expect, taken := uint64(0), 0
			if last > 0 {
				expect = last + 1
			}
			err := tail(last, func(seq uint64) error {
				if expect != 0 && seq != expect {
					t.Errorf("%s: resumed after %d and got seq %d with no gap announced, want %d", what, last, seq, expect)
				}
				expect, last = seq+1, seq
				if taken++; taken == 5 {
					return errTaken
				}
				return nil
			})
			var gap *energysched.GapError
			switch {
			case errors.As(err, &gap):
				last = 0 // announced: re-sync from whatever is retained
			case err != nil && !errors.Is(err, errTaken) && ctx.Err() == nil:
				t.Errorf("%s tail: %v", what, err)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for _, c := range []struct {
		what string
		tail func(since uint64, fn func(seq uint64) error) error
	}{
		{"events", func(since uint64, fn func(uint64) error) error {
			return client.Events(ctx, since, func(seq uint64, _ energysched.Event) error { return fn(seq) })
		}},
		{"trace", func(since uint64, fn func(uint64) error) error {
			return client.TraceTail(ctx, since, func(rt energysched.TraceRound) error { return fn(rt.Seq) })
		}},
		{"journeys", func(since uint64, fn func(uint64) error) error {
			return client.JourneyTail(ctx, since, func(ev energysched.JourneyEvent) error { return fn(ev.Seq) })
		}},
	} {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resume(c.what, c.tail)
			}()
		}
	}
	wg.Add(1)
	go func() { // snapshot pollers share the slots the tails are filling
		defer wg.Done()
		for i := 0; i < 60 && ctx.Err() == nil; i++ {
			snap, err := client.Trace(ctx, 0)
			if err != nil {
				t.Errorf("trace snapshot: %v", err)
				return
			}
			for j := 1; j < len(snap.Traces); j++ {
				if snap.Traces[j].Seq != snap.Traces[j-1].Seq+1 {
					t.Errorf("trace snapshot skips from seq %d to %d", snap.Traces[j-1].Seq, snap.Traces[j].Seq)
				}
			}
		}
	}()
	wg.Add(1)
	go func() { // restores reset the event ring mid-stream
		defer wg.Done()
		for i := 0; i < 3 && ctx.Err() == nil; i++ {
			if _, err := client.Restore(ctx, "early.json"); err != nil {
				t.Errorf("restore: %v", err)
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()
	wg.Wait()
	close(stop)
	<-emitter
	if ctx.Err() != nil {
		t.Fatal("timed out")
	}
}
