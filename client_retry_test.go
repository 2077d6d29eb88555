package energysched

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Client resilience: per-request timeouts and the opt-in RetryPolicy
// (full-jitter exponential backoff, Retry-After override, retryable
// status set). The policy exists so a caller rides out a warm-standby
// promotion — a follower answers writes with 503 + Retry-After until
// it is promoted — without hand-rolled loops.

// flakyHandler fails the first n requests with status (carrying a
// Retry-After hint when ra != ""), then serves a report body.
func flakyHandler(n int32, status int, ra string) (http.Handler, *int32) {
	var calls int32
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c := atomic.AddInt32(&calls, 1)
		if c <= n {
			if ra != "" {
				w.Header().Set("Retry-After", ra)
			}
			http.Error(w, `{"error":"not yet"}`, status)
			return
		}
		w.Write([]byte(`{"role":"leader","ready":true}`))
	})
	return h, &calls
}

func TestClientNoRetryByDefault(t *testing.T) {
	h, calls := flakyHandler(1, http.StatusServiceUnavailable, "0")
	hs := httptest.NewServer(h)
	defer hs.Close()

	_, err := NewClient(hs.URL).Health(context.Background())
	if !isStatusErr(err, http.StatusServiceUnavailable) {
		t.Fatalf("default client: %v, want the 503 surfaced", err)
	}
	if got := atomic.LoadInt32(calls); got != 1 {
		t.Fatalf("default client made %d attempts, want exactly 1", got)
	}
}

func TestClientRetriesTransientStatuses(t *testing.T) {
	h, calls := flakyHandler(2, http.StatusServiceUnavailable, "0")
	hs := httptest.NewServer(h)
	defer hs.Close()

	c := NewClient(hs.URL)
	c.Retry = &RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
	hst, err := c.Health(context.Background())
	if err != nil || hst.Role != "leader" {
		t.Fatalf("retrying client: %+v, %v", hst, err)
	}
	if got := atomic.LoadInt32(calls); got != 3 {
		t.Fatalf("retrying client made %d attempts, want 3 (two 503s then success)", got)
	}
}

func TestClientRetryGivesUpAtMaxAttempts(t *testing.T) {
	h, calls := flakyHandler(1<<30, http.StatusTooManyRequests, "0")
	hs := httptest.NewServer(h)
	defer hs.Close()

	c := NewClient(hs.URL)
	c.Retry = &RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	_, err := c.Health(context.Background())
	if !isStatusErr(err, http.StatusTooManyRequests) {
		t.Fatalf("exhausted retries: %v, want the final 429", err)
	}
	if got := atomic.LoadInt32(calls); got != 3 {
		t.Fatalf("made %d attempts, want exactly MaxAttempts=3", got)
	}
}

func TestClientDoesNotRetryNonTransientErrors(t *testing.T) {
	h, calls := flakyHandler(1<<30, http.StatusNotFound, "")
	hs := httptest.NewServer(h)
	defer hs.Close()

	c := NewClient(hs.URL)
	c.Retry = &RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond}
	_, err := c.Health(context.Background())
	if !isStatusErr(err, http.StatusNotFound) {
		t.Fatalf("non-transient error: %v, want the 404 surfaced immediately", err)
	}
	if got := atomic.LoadInt32(calls); got != 1 {
		t.Fatalf("made %d attempts on a 404, want 1", got)
	}
}

func TestClientPerRequestTimeout(t *testing.T) {
	var calls int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	}))
	defer hs.Close()

	c := NewClient(hs.URL)
	c.Timeout = 30 * time.Millisecond
	c.Retry = &RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	start := time.Now()
	_, err := c.Health(context.Background())
	if err == nil {
		t.Fatal("timed-out call succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("per-attempt timeout did not bound the call: took %v", elapsed)
	}
	// The attempt timeout is itself a transport failure, so the retry
	// policy gets its second try.
	if got := atomic.LoadInt32(&calls); got != 2 {
		t.Fatalf("made %d attempts, want 2 (both timing out)", got)
	}
}

func TestClientRetryCanceledContext(t *testing.T) {
	h, _ := flakyHandler(1<<30, http.StatusServiceUnavailable, "30")
	hs := httptest.NewServer(h)
	defer hs.Close()

	// Retry-After 30s would stall the backoff loop; a canceled caller
	// context must cut it short instead.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	c := NewClient(hs.URL)
	c.Retry = &RetryPolicy{MaxAttempts: 10}
	start := time.Now()
	_, err := c.Health(ctx)
	if err == nil {
		t.Fatal("canceled call succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation did not cut the Retry-After sleep short: took %v", elapsed)
	}
}

func TestFleetClientInheritsResilience(t *testing.T) {
	c := NewClient("http://example.invalid")
	c.Timeout = time.Second
	c.Retry = &RetryPolicy{MaxAttempts: 7}
	fc := c.Fleet("batch")
	if fc.Timeout != time.Second || fc.Retry != c.Retry {
		t.Fatalf("Fleet() dropped resilience settings: %+v", fc)
	}
	if !strings.Contains(fc.prefix, "batch") {
		t.Fatalf("Fleet() prefix = %q", fc.prefix)
	}
}

func TestRetryDelayBackoffAndOverride(t *testing.T) {
	p := &RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}
	// Retry-After overrides the computed backoff verbatim.
	if d := p.retryDelay(1, 7*time.Second); d != 7*time.Second {
		t.Fatalf("Retry-After override = %v", d)
	}
	// Full jitter: uniform in (0, base<<(attempt-1)], capped at MaxDelay.
	for attempt, cap := range map[int]time.Duration{1: 100 * time.Millisecond, 3: 400 * time.Millisecond, 10: time.Second} {
		for i := 0; i < 50; i++ {
			if d := p.retryDelay(attempt, 0); d <= 0 || d > cap {
				t.Fatalf("retryDelay(%d) = %v, want in (0, %v]", attempt, d, cap)
			}
		}
	}
	// Zero-valued policy falls back to the documented defaults.
	zp := &RetryPolicy{}
	for i := 0; i < 50; i++ {
		if d := zp.retryDelay(1, 0); d <= 0 || d > 100*time.Millisecond {
			t.Fatalf("zero-policy retryDelay = %v", d)
		}
	}
}

func TestRetryableStatusSet(t *testing.T) {
	for status, want := range map[int]bool{
		http.StatusTooManyRequests:     true,
		http.StatusBadGateway:          true,
		http.StatusServiceUnavailable:  true,
		http.StatusGatewayTimeout:      true,
		http.StatusOK:                  false,
		http.StatusBadRequest:          false,
		http.StatusNotFound:            false,
		http.StatusConflict:            false,
		http.StatusInternalServerError: false,
	} {
		if got := retryableStatus(status); got != want {
			t.Errorf("retryableStatus(%d) = %v, want %v", status, got, want)
		}
	}
}

func TestParseRetryAfter(t *testing.T) {
	for h, want := range map[string]time.Duration{
		"":        0,
		"0":       0,
		"2":       2 * time.Second,
		" 5 ":     5 * time.Second,
		"-3":      0, // negative delta clamps to 0, not ignored
		"garbage": 0,
		"1.5":     0, // HTTP delta-seconds are integral
	} {
		if got := parseRetryAfter(h); got != want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", h, got, want)
		}
	}
}

// TestParseRetryAfterHTTPDate: RFC 9110 §10.2.3 allows Retry-After to
// be an HTTP-date; the client must honor it and clamp past dates to 0.
func TestParseRetryAfterHTTPDate(t *testing.T) {
	future := time.Now().Add(3 * time.Second).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(future); got <= 0 || got > 3*time.Second {
		t.Errorf("parseRetryAfter(future date) = %v, want in (0, 3s]", got)
	}
	past := time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(past); got != 0 {
		t.Errorf("parseRetryAfter(past date) = %v, want 0 (clamped)", got)
	}
	// RFC 850 dates are also valid HTTP-dates; http.ParseTime covers
	// every allowed format.
	rfc850 := time.Now().Add(2 * time.Second).UTC().Format("Monday, 02-Jan-06 15:04:05 GMT")
	if got := parseRetryAfter(rfc850); got <= 0 || got > 2*time.Second {
		t.Errorf("parseRetryAfter(rfc850 date) = %v, want in (0, 2s]", got)
	}
}

// TestRetryAfterHTTPDateRoundTrip: a 503 whose Retry-After is an
// HTTP-date must actually pace the retry loop, end to end.
func TestRetryAfterHTTPDateRoundTrip(t *testing.T) {
	var calls int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) == 1 {
			w.Header().Set("Retry-After", time.Now().Truncate(time.Second).Add(2*time.Second).UTC().Format(http.TimeFormat))
			http.Error(w, `{"error":"promoting"}`, http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"role":"leader","ready":true}`))
	}))
	defer hs.Close()

	c := NewClient(hs.URL)
	c.Retry = &RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	start := time.Now()
	hst, err := c.Health(context.Background())
	if err != nil || hst.Role != "leader" {
		t.Fatalf("retrying client: %+v, %v", hst, err)
	}
	// HTTP-dates have second granularity, so the server renders the
	// second after next: between 1s and 2s away whatever the sub-second
	// part of now, never rounded into the past. The backoff must have
	// honored it rather than the millisecond policy delay alone; half a
	// second of floor leaves room for clock skew between the two reads.
	if elapsed := time.Since(start); elapsed < 500*time.Millisecond {
		t.Fatalf("retry ignored the HTTP-date Retry-After: total %v", elapsed)
	}
	if got := atomic.LoadInt32(&calls); got != 2 {
		t.Fatalf("made %d attempts, want 2", got)
	}
}

// TestRetryReusesConnection is the leak-detecting satellite test: the
// client must drain and close every response body — retried 429/503s
// with error payloads larger than the APIError's 64KB read cap, and
// successful responses whose JSON decoder stops before the trailing
// newline — so the transport returns connections to the keep-alive
// pool. A leak shows up as one new dial per request.
func TestRetryReusesConnection(t *testing.T) {
	// Error bodies larger than the APIError path's 64KB cap: without
	// the deferred drain, the remainder goes unread and the transport
	// tears the connection down instead of reusing it.
	pad := strings.Repeat("x", 100*1024)
	var calls int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"` + pad + `"}`))
			return
		}
		w.Write([]byte(`{"role":"leader","ready":true}` + "\n"))
	}))
	defer hs.Close()

	var dials int32
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			atomic.AddInt32(&dials, 1)
			return (&net.Dialer{}).DialContext(ctx, network, addr)
		},
	}
	defer tr.CloseIdleConnections()

	c := NewClient(hs.URL)
	c.HTTPClient = &http.Client{Transport: tr}
	c.Retry = &RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	hst, err := c.Health(context.Background())
	if err != nil || hst.Role != "leader" {
		t.Fatalf("retrying client: %+v, %v", hst, err)
	}
	// A second successful call exercises the decode path: its body
	// ends in the server's newline.
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&calls); got != 4 {
		t.Fatalf("made %d requests, want 4", got)
	}
	if got := atomic.LoadInt32(&dials); got != 1 {
		t.Fatalf("%d connections dialed across 4 requests, want 1 (leaked bodies defeat keep-alive)", got)
	}
}

// isStatusErr reports whether err is an APIError with the status.
func isStatusErr(err error, status int) bool {
	apiErr, ok := err.(*APIError)
	return ok && apiErr.Status == status
}

// The whole body is the reply. The server's trailing newline (and any
// other whitespace) is accepted; anything else after the value is an
// error rather than silently ignored — and neither case costs the
// connection, so a caller that retries does not redial.
func TestClientReplyTrailingBytes(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		ok         bool
	}{
		{"newline", `{"role":"leader","ready":true}` + "\n", true},
		{"whitespace", `{"role":"leader","ready":true}` + " \r\n\t\n", true},
		{"garbage", `{"role":"leader","ready":true}` + "\n" + `{"role":"follower"}`, false},
		{"truncated", `{"role":"leader","rea`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Write([]byte(tc.body))
			}))
			defer hs.Close()
			var dials int32
			tr := &http.Transport{
				DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
					atomic.AddInt32(&dials, 1)
					return (&net.Dialer{}).DialContext(ctx, network, addr)
				},
			}
			defer tr.CloseIdleConnections()
			c := NewClient(hs.URL)
			c.HTTPClient = &http.Client{Transport: tr}
			for i := 0; i < 2; i++ {
				hst, err := c.Health(context.Background())
				if tc.ok && (err != nil || hst.Role != "leader" || !hst.Ready) {
					t.Fatalf("call %d: %+v, %v", i, hst, err)
				}
				if !tc.ok && err == nil {
					t.Fatalf("call %d: reply %q decoded without error: %+v", i, tc.body, hst)
				}
			}
			if got := atomic.LoadInt32(&dials); got != 1 {
				t.Fatalf("%d connections dialed for 2 calls, want 1", got)
			}
		})
	}
}
