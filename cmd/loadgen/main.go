// Command loadgen drives a running energyschedd daemon with
// concurrent job submitters and report pollers, then prints client-
// side latency quantiles (p50/p90/p99/max) measured with the same
// log-linear histogram the daemon exports on /metrics. It is the
// closed-loop half of the observability story: generate load here,
// watch the serving-path histograms and decision traces there.
//
//	loadgen -addr http://localhost:7781 -submitters 8 -pollers 2 -duration 30s
//	loadgen -addr http://localhost:7781 -fleet batch -duration 10s
//	loadgen -addr http://localhost:7781 -tailers 2 -json -duration 10s
//
// -tailers adds journey-firehose SSE consumers (the daemon's
// streaming path under load); -json prints the summary as one JSON
// object for harnesses that threshold the numbers.
//
// Submitters allocate strictly increasing virtual submit times from a
// shared counter, so most jobs admit cleanly; losing the watermark
// race yields a 409, and a rate-limited or queue-saturated fleet sheds
// with 429 — both counted separately, not as errors (backpressure is
// the daemon working, not failing). The target fleet is never sealed —
// drain it yourself when done.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"energysched"
	"energysched/internal/cli"
	"energysched/internal/metrics"
)

type config struct {
	submitters, pollers, tailers int
}

// stats aggregates one run: request counters plus client-side latency
// histograms for the submit and report paths, plus the journey
// firehose consumption of the tailer workers.
type stats struct {
	accepted, conflicts, submitErrs atomic.Int64
	throttled                       atomic.Int64
	polls, pollErrs                 atomic.Int64
	steps, tailErrs                 atomic.Int64
	submit, poll                    metrics.Histogram
}

// run hammers the daemon until ctx expires: cfg.submitters goroutines
// submit jobs with increasing virtual times, cfg.pollers poll the
// report endpoint, every request timed into the matching histogram.
func run(ctx context.Context, client *energysched.Client, cfg config) *stats {
	st := &stats{}
	var vclock atomic.Int64 // virtual submit-time allocator, shared
	var wg sync.WaitGroup
	for g := 0; g < cfg.submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				submit := float64(vclock.Add(15))
				spec := energysched.JobSpec{
					CPU: 100 + float64((g+i)%3)*100, Mem: 5,
					Duration: 600 + float64(i%5)*120,
					Submit:   &submit, DeadlineFactor: 1.5,
				}
				start := time.Now()
				_, err := client.SubmitJob(ctx, spec)
				if ctx.Err() != nil {
					return // deadline mid-request; not a daemon failure
				}
				st.submit.ObserveSince(start)
				var apiErr *energysched.APIError
				switch {
				case err == nil:
					st.accepted.Add(1)
				case errors.As(err, &apiErr) && apiErr.Status == http.StatusConflict:
					st.conflicts.Add(1)
				case errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests:
					// Backpressure working as designed (rate limit or full
					// admission queue), not a daemon failure.
					st.throttled.Add(1)
				default:
					st.submitErrs.Add(1)
				}
			}
		}(g)
	}
	for g := 0; g < cfg.pollers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				start := time.Now()
				_, err := client.Report(ctx)
				if ctx.Err() != nil {
					return
				}
				st.poll.ObserveSince(start)
				st.polls.Add(1)
				if err != nil {
					st.pollErrs.Add(1)
				}
			}
		}()
	}
	// Tailers consume the journey firehose over SSE while the
	// submitters generate it — the streaming half of the closed loop.
	// A broken stream (daemon restart, proxy cut) reconnects from
	// sequence 0; the counter tracks steps received, not unique steps.
	for g := 0; g < cfg.tailers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				err := client.JourneyTail(ctx, 0, func(energysched.JourneyEvent) error {
					st.steps.Add(1)
					return nil
				})
				if ctx.Err() != nil {
					return
				}
				if err != nil {
					st.tailErrs.Add(1)
					select {
					case <-time.After(200 * time.Millisecond):
					case <-ctx.Done():
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	return st
}

// render prints the run summary: counters plus the latency quantiles
// of both request paths.
func (st *stats) render(w io.Writer) {
	fmt.Fprintf(w, "submit: %d accepted, %d conflicts (watermark races), %d throttled (429), %d errors\n",
		st.accepted.Load(), st.conflicts.Load(), st.throttled.Load(), st.submitErrs.Load())
	fmt.Fprintf(w, "        %s\n", latencyLine(&st.submit))
	fmt.Fprintf(w, "report: %d polls, %d errors\n", st.polls.Load(), st.pollErrs.Load())
	fmt.Fprintf(w, "        %s\n", latencyLine(&st.poll))
	if st.steps.Load() > 0 || st.tailErrs.Load() > 0 {
		fmt.Fprintf(w, "tail:   %d journey steps, %d stream errors\n",
			st.steps.Load(), st.tailErrs.Load())
	}
}

// pathJSON is one request path's slice of the -json report.
type pathJSON struct {
	Count  int64    `json:"count"`
	Errors int64    `json:"errors"`
	P50    *float64 `json:"p50_s,omitempty"`
	P90    *float64 `json:"p90_s,omitempty"`
	P99    *float64 `json:"p99_s,omitempty"`
	Max    *float64 `json:"max_s,omitempty"`
}

// runJSON is the machine-readable run summary (-json).
type runJSON struct {
	Submit    pathJSON `json:"submit"`
	Conflicts int64    `json:"conflicts"`
	Throttled int64    `json:"throttled"`
	Report    pathJSON `json:"report"`
	Steps     int64    `json:"journey_steps"`
	TailErrs  int64    `json:"tail_errors"`
}

// renderJSON prints the run summary as one JSON object, for harnesses
// that diff or threshold the numbers instead of reading them.
func (st *stats) renderJSON(w io.Writer) error {
	quantiles := func(h *metrics.Histogram, p *pathJSON) {
		if h.Count() == 0 {
			return
		}
		for _, q := range []struct {
			dst **float64
			q   float64
		}{{&p.P50, 0.5}, {&p.P90, 0.9}, {&p.P99, 0.99}} {
			v := h.Quantile(q.q)
			*q.dst = &v
		}
		m := h.Max()
		p.Max = &m
	}
	out := runJSON{
		Submit:    pathJSON{Count: st.accepted.Load(), Errors: st.submitErrs.Load()},
		Conflicts: st.conflicts.Load(),
		Throttled: st.throttled.Load(),
		Report:    pathJSON{Count: st.polls.Load(), Errors: st.pollErrs.Load()},
		Steps:     st.steps.Load(),
		TailErrs:  st.tailErrs.Load(),
	}
	quantiles(&st.submit, &out.Submit)
	quantiles(&st.poll, &out.Report)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// latencyLine renders one histogram's quantiles for humans.
func latencyLine(h *metrics.Histogram) string {
	n := h.Count()
	if n == 0 {
		return "no samples"
	}
	return fmt.Sprintf("p50 %s  p90 %s  p99 %s  max %s  (n=%d)",
		fmtLat(h.Quantile(0.5)), fmtLat(h.Quantile(0.9)),
		fmtLat(h.Quantile(0.99)), fmtLat(h.Max()), n)
}

// fmtLat renders seconds as a rounded duration.
func fmtLat(seconds float64) string {
	d := time.Duration(seconds * float64(time.Second))
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	}
	return d.Round(time.Microsecond).String()
}

func main() {
	var (
		addr       = flag.String("addr", "http://localhost:7781", "daemon base URL")
		fleetID    = flag.String("fleet", "", "target fleet (empty = the default fleet)")
		submitters = flag.Int("submitters", 4, "concurrent job submitters")
		pollers    = flag.Int("pollers", 2, "concurrent report pollers")
		tailers    = flag.Int("tailers", 0, "concurrent journey-firehose SSE consumers")
		jsonOut    = flag.Bool("json", false, "print the run summary as JSON instead of text")
		duration   = flag.Duration("duration", 10*time.Second, "how long to generate load")
	)
	cli.Parse("loadgen")
	if *submitters < 1 || *pollers < 0 || *tailers < 0 || *duration <= 0 {
		cli.Usagef("loadgen", "need -submitters >= 1, -pollers >= 0, -tailers >= 0 and a positive -duration")
	}

	client := energysched.NewClient(*addr)
	if *fleetID != "" {
		client = client.Fleet(*fleetID)
	}
	// Fail fast on a bad address instead of hammering the void.
	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()
	if _, err := client.Report(ctx); err != nil {
		cli.Fatalf("loadgen", "daemon unreachable at %s: %v", *addr, err)
	}

	cli.Logger().With("component", "loadgen").Info("generating load",
		"addr", *addr, "submitters", *submitters, "pollers", *pollers, "duration", *duration)
	st := run(ctx, client, config{
		submitters: *submitters, pollers: *pollers, tailers: *tailers,
	})
	if *jsonOut {
		if err := st.renderJSON(os.Stdout); err != nil {
			cli.Fatalf("loadgen", "encoding summary: %v", err)
		}
	} else {
		st.render(os.Stdout)
	}
	if st.submitErrs.Load() > 0 || st.pollErrs.Load() > 0 {
		os.Exit(1)
	}
}
