package main

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"energysched"
)

// The observability and accounting flags are wired: -trace scores
// records score terms, the -slo-file power budget fires and clears
// exactly once over a deterministic burst, -debug-addr serves pprof
// and expvar, and -log-format json logs JSON. What the surfaces serve
// is pinned in process by internal/server's tests.
func TestE2EObservabilityAndAccountingFlags(t *testing.T) {
	ctx := context.Background()
	// 1000 W sits between the idle floor (~725 W) and the burst (~1297 W).
	sloFile := filepath.Join(t.TempDir(), "slo.json")
	if err := os.WriteFile(sloFile, []byte(`[{"name": "power-budget", "metric": "watts", "max": 1000,
		"short_window_s": 300, "long_window_s": 1200, "budget": 0.1},
		{"name": "admit-latency", "metric": "admit_p99_seconds", "max": 100}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	addr, debug := freeAddr(t), freeAddr(t)
	base := "http://" + addr
	d := startDaemon(t, []string{"-listen", addr, "-trace", "scores", "-debug-addr", debug,
		"-log-format", "json", "-slo-file", sloFile}, base)
	c := energysched.NewClient(base)
	at := []float64{0, 60, 4 * 3600} // two big jobs, then a late straggler
	if _, err := c.SubmitJobs(ctx, []energysched.JobSpec{
		{CPU: 300, Mem: 10, Duration: 1800, Submit: &at[0]},
		{CPU: 300, Mem: 10, Duration: 1800, Submit: &at[1]},
		{CPU: 100, Mem: 5, Duration: 60, Submit: &at[2]},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	tr, err := c.Trace(ctx, 0)
	terms := false
	for _, rt := range tr.Traces {
		for _, a := range rt.Actions {
			terms = terms || a.Terms != nil
		}
	}
	if err != nil || tr.Verbosity != "scores" || !terms {
		t.Errorf("-trace scores: verbosity %q, score terms %v (%v)", tr.Verbosity, terms, err)
	}
	al, err := c.Alerts(ctx)
	if err != nil || len(al.Alerts) != 2 {
		t.Fatalf("-slo-file: alerts %+v (%v); want both objectives", al, err)
	}
	if pb := al.Alerts[0]; al.Firing != 0 || pb.Name != "power-budget" || pb.Metric != "watts" ||
		pb.State != "ok" || pb.FiredTotal != 1 || pb.ClearedTotal != 1 {
		t.Errorf("-slo-file: alerts %+v (%v); want power-budget fired and cleared once", al, err)
	}
	if m := getBody(t, base+"/metrics"); !bytes.Contains(m, []byte(`energysched_slo_fired_total{fleet="default",objective="power-budget"} 1`+"\n")) {
		t.Errorf("/metrics does not count one power-budget firing:\n%s", m)
	}
	getBody(t, "http://"+debug+"/debug/pprof/cmdline")
	if !bytes.Contains(getBody(t, "http://"+debug+"/debug/vars"), []byte(`"memstats"`)) {
		t.Error("-debug-addr: /debug/vars has no memstats")
	}
	d.Process.Kill()
	d.Wait()
	if logs := d.Stderr.(*bytes.Buffer).String(); !strings.Contains(logs, `"msg":"serving"`) {
		t.Errorf("-log-format json: no JSON serving line in\n%s", logs)
	}
}

// -rate-limit and -rate-burst shed a serial burst with 429 and a
// Retry-After hint; after that wait a submit is accepted again and no
// accepted job is lost.
func TestE2ERateLimitFlags(t *testing.T) {
	addr := freeAddr(t)
	base := "http://" + addr
	startDaemon(t, []string{"-listen", addr, "-rate-limit", "50", "-rate-burst", "25"}, base)

	// Raw HTTP: the client would turn the header into a backoff.
	accepted, resp := 0, (*http.Response)(nil)
	for ; accepted < 60; accepted++ {
		r, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(`{"cpu_pct":100,"mem_units":5,"duration_s":600}`))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if resp = r; r.StatusCode != http.StatusAccepted {
			break
		}
	}
	wait, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if resp.StatusCode != http.StatusTooManyRequests || err != nil {
		t.Fatalf("after %d accepted submits: %s, Retry-After %q; want 429 with seconds", accepted, resp.Status, resp.Header.Get("Retry-After"))
	}
	time.Sleep(time.Duration(wait) * time.Second)
	ctx, c := context.Background(), energysched.NewClient(base)
	if _, err := c.SubmitJob(ctx, energysched.JobSpec{CPU: 100, Mem: 5, Duration: 600}); err != nil {
		t.Fatal(err)
	}
	if rep, err := c.Report(ctx); err != nil || rep.JobsTotal != accepted+1 {
		t.Fatalf("report = %+v, %v; want the %d accepted jobs and one more", rep, err, accepted)
	}
}
