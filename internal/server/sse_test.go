package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
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
