package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"energysched"
	"energysched/internal/obs/slo"
	"energysched/internal/server"
)

// buildObstop compiles the real binary once per test.
func buildObstop(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := filepath.Join(t.TempDir(), "obstop")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building obstop: %v\n%s", err, out)
	}
	return bin
}

// drainedDaemon serves a daemon that loaded an SLO file and drained a
// small batch, so every panel of the dashboard has something to show.
func drainedDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	// The -slo-file format, parsed the way energyschedd parses it.
	objectives, err := slo.Parse([]byte(`[{"name":"power-budget","metric":"watts","max":1000}]`))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Policy: "SB", Seed: 1, SLOs: objectives})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })

	client := energysched.NewClient(hs.URL)
	specs := make([]energysched.JobSpec, 0, 6)
	for i := 0; i < 6; i++ {
		at := float64(i) * 300
		specs = append(specs, energysched.JobSpec{CPU: 200, Mem: 10, Duration: 1800, Submit: &at})
	}
	ctx := context.Background()
	if _, err := client.SubmitJobs(ctx, specs); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	return hs
}

// obstop -once against a live daemon prints one frame, without screen
// control codes, carrying the series, the journey count and the SLO
// objective the daemon was started with, with its one fire-and-clear
// episode.
func TestOnceRendersSeriesJourneysAndObjectives(t *testing.T) {
	bin := buildObstop(t)
	hs := drainedDaemon(t)
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-once", "-addr", hs.URL)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("obstop -once: %v\n%s", err, stderr.String())
	}
	frame := string(out)
	if strings.Contains(frame, "\x1b[") {
		t.Errorf("-once frame clears the screen:\n%q", frame)
	}
	for _, want := range []string{
		"fleet default", "journeys 6",
		"of 1 objectives", "default/power-budget watts", "fired 1 cleared 1",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame is missing %q:\n%s", want, frame)
		}
	}
	var power string
	for _, line := range strings.Split(frame, "\n") {
		if strings.HasPrefix(line, "power ") {
			power = line
		}
	}
	if !strings.ContainsAny(power, string(sparkRunes)) {
		t.Errorf("power line carries no sparkline: %q\n%s", power, frame)
	}
}

// A panel whose endpoint fails says so instead of rendering as empty:
// the series answers, journeys and alerts do not.
func TestOncePrintsPanelErrors(t *testing.T) {
	bin := buildObstop(t)
	hs := drainedDaemon(t)
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/series") {
			resp, err := http.Get(hs.URL + r.URL.String())
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			defer resp.Body.Close()
			w.Header().Set("Content-Type", "application/json")
			var body bytes.Buffer
			body.ReadFrom(resp.Body)
			w.Write(body.Bytes())
			return
		}
		http.Error(w, `{"status":500,"error":"panel down"}`, http.StatusInternalServerError)
	}))
	defer front.Close()
	out, err := exec.Command(bin, "-once", "-addr", front.URL).Output()
	if err != nil {
		t.Fatalf("obstop -once with failing panels: %v", err)
	}
	frame := string(out)
	for _, want := range []string{"journeys unavailable: ", "slo     unavailable: ", "panel down"} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame is missing %q:\n%s", want, frame)
		}
	}
	if strings.Contains(frame, "no objectives configured") {
		t.Errorf("a failed alerts call rendered as an empty panel:\n%s", frame)
	}
}
