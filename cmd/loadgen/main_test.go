package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"energysched"
	"energysched/internal/metrics"
	"energysched/internal/server"
)

// The generator loop against a real in-process daemon: submissions
// land, pollers read reports, no request errors, and the rendered
// summary carries quantiles from both paths. Against a rate-limited
// daemon the sheds count as throttled, not as errors, and journey
// tailers consume the firehose without a stream error; the -json
// summary reports both under the keys harnesses read.
func TestRunAgainstInProcessDaemon(t *testing.T) {
	for _, tc := range []struct {
		name string
		srv  server.Config
		cfg  config
	}{
		{"plain", server.Config{Policy: "SB", Seed: 1}, config{submitters: 3, pollers: 2}},
		{"rate-limited-tailed", server.Config{Policy: "SB", Seed: 1, RateLimit: 50, RateBurst: 25},
			config{submitters: 4, pollers: 1, tailers: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := server.New(tc.srv)
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(srv.Handler())
			defer func() { hs.Close(); srv.Close() }()

			ctx, cancel := context.WithTimeout(context.Background(), 700*time.Millisecond)
			defer cancel()
			st := run(ctx, energysched.NewClient(hs.URL), tc.cfg)

			if st.accepted.Load() == 0 {
				t.Fatal("no jobs accepted")
			}
			if st.submitErrs.Load() != 0 || st.pollErrs.Load() != 0 {
				t.Fatalf("request errors: submit %d, poll %d", st.submitErrs.Load(), st.pollErrs.Load())
			}
			if st.polls.Load() == 0 {
				t.Fatal("pollers made no requests")
			}
			if st.submit.Count() == 0 || st.poll.Count() == 0 {
				t.Fatal("histograms recorded nothing")
			}

			var sb strings.Builder
			st.render(&sb)
			out := sb.String()
			for _, want := range []string{"accepted", "p50", "p99", "max", "report:"} {
				if !strings.Contains(out, want) {
					t.Errorf("summary missing %q:\n%s", want, out)
				}
			}

			var buf bytes.Buffer
			if err := st.renderJSON(&buf); err != nil {
				t.Fatal(err)
			}
			var sum struct {
				Submit struct {
					Count  int64 `json:"count"`
					Errors int64 `json:"errors"`
				} `json:"submit"`
				Throttled int64 `json:"throttled"`
				Steps     int64 `json:"journey_steps"`
				TailErrs  int64 `json:"tail_errors"`
			}
			if err := json.Unmarshal(buf.Bytes(), &sum); err != nil {
				t.Fatal(err)
			}
			if sum.Submit.Count == 0 || sum.Submit.Errors != 0 || sum.TailErrs != 0 ||
				(tc.srv.RateLimit > 0) != (sum.Throttled > 0) || (tc.cfg.tailers > 0) != (sum.Steps > 0) {
				t.Errorf("-json summary:\n%s", buf.String())
			}
		})
	}
}

// latencyLine quantiles come from the shared histogram math; pin the
// empty case and the unit scaling.
func TestLatencyLine(t *testing.T) {
	var h metrics.Histogram
	if got := latencyLine(&h); got != "no samples" {
		t.Fatalf("empty histogram line = %q", got)
	}
	for i := 0; i < 100; i++ {
		h.Observe(0.002)
	}
	line := latencyLine(&h)
	// Quantiles interpolate within the log-linear bucket, so pin the
	// exact max and the millisecond scaling rather than p50's midpoint.
	if !strings.Contains(line, "max 2ms") || !strings.Contains(line, "p50 1") ||
		!strings.Contains(line, "ms") || !strings.Contains(line, "n=100") {
		t.Fatalf("latency line = %q", line)
	}
}
