package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io/fs"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"energysched"
	"energysched/internal/server"
)

// daemonBin is the energyschedd binary TestMain builds once for every
// test in this package, unless -short skips them all.
var daemonBin string

func TestMain(m *testing.M) {
	flag.Parse()
	if testing.Short() {
		os.Exit(m.Run())
	}
	dir, err := os.MkdirTemp("", "energyschedd-e2e")
	if err != nil {
		log.Fatal(err)
	}
	daemonBin = filepath.Join(dir, "energyschedd")
	if out, err := exec.Command("go", "build", "-o", daemonBin, ".").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		log.Fatalf("building daemon: %v\n%s", err, out)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// The acceptance e2e for the durable admission log: a real
// energyschedd process hosting two fleets is SIGKILLed mid-trace —
// no drain, no snapshot request, no graceful anything — restarted on
// the same -wal-dir, and must serve the exact state it acknowledged:
// recovery replays only the WAL tail after the last compaction
// snapshot, and the drained report is byte-identical to an
// uninterrupted run of the same admission sequence. In between, a
// snapshot, two more admissions and a restore start a new timeline,
// and a second SIGKILL restarts into that timeline.
func TestE2EKillRestartDeterminism(t *testing.T) {
	walDir := t.TempDir()
	addr := freeAddr(t)
	args := []string{
		"-listen", addr,
		"-fleets", "default,second=BF",
		"-wal-dir", walDir,
		"-snapshot-dir", t.TempDir(),
		"-snapshot-interval", "4",
		"-wal-sync", "os", // kill -9 semantics need the page cache, not fsync
	}
	ctx := context.Background()
	base := "http://" + addr
	client := energysched.NewClient(base)

	daemon1 := startDaemon(t, args, base)

	// A batch of 10 (compacts at interval 4) plus 3 sequential
	// admissions that stay in the WAL tail, and 2 jobs on the second
	// fleet.
	batch := make([]energysched.JobSpec, 0, 10)
	for i := 0; i < 10; i++ {
		at := float64(i) * 60
		batch = append(batch, energysched.JobSpec{
			CPU: 100 + float64(i%3)*100, Mem: 5, Duration: 1200, Submit: &at,
		})
	}
	if _, err := client.SubmitJobs(ctx, batch); err != nil {
		t.Fatal(err)
	}
	tail := make([]energysched.JobSpec, 0, 3)
	for i := 0; i < 3; i++ {
		at := 600 + float64(i)*60
		tail = append(tail, energysched.JobSpec{CPU: 200, Mem: 10, Duration: 900, Submit: &at})
	}
	for _, spec := range tail {
		if _, err := client.SubmitJob(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	secondAt := 0.0
	secondJobs := []energysched.JobSpec{
		{CPU: 200, Mem: 10, Duration: 1800, Submit: &secondAt},
		{CPU: 100, Mem: 5, Duration: 3600, Submit: &secondAt},
	}
	if _, err := client.Fleet("second").SubmitJobs(ctx, secondJobs); err != nil {
		t.Fatal(err)
	}

	// The kill: SIGKILL, mid-trace. Nothing gets to flush or say
	// goodbye.
	if err := daemon1.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	daemon1.Wait()

	daemon2 := startDaemon(t, args, base)

	d, err := client.GetFleet(ctx, "default")
	if err != nil {
		t.Fatal(err)
	}
	if d.Jobs != 13 {
		t.Fatalf("default fleet recovered %d jobs, want 13", d.Jobs)
	}
	if d.WAL == nil || d.WAL.Replayed != 3 {
		t.Fatalf("default fleet wal stats = %+v, want 3 tail records replayed (batch was compacted)", d.WAL)
	}
	sec, err := client.GetFleet(ctx, "second")
	if err != nil {
		t.Fatal(err)
	}
	if sec.Jobs != 2 || sec.Policy != "BF" {
		t.Fatalf("second fleet recovered as %+v", sec)
	}

	if snap, err := client.Snapshot(ctx, "e2e.json"); err != nil || snap.Jobs != 13 {
		t.Fatalf("snapshot = %+v, %v; want 13 jobs", snap, err)
	}
	if _, err := client.SubmitJobs(ctx, []energysched.JobSpec{tail[2], tail[2]}); err != nil {
		t.Fatal(err)
	}
	if rep, err := client.Report(ctx); err != nil || rep.JobsTotal != 15 {
		t.Fatalf("report before the restore = %+v, %v; want 15 jobs", rep, err)
	}
	if info, err := client.Restore(ctx, "e2e.json"); err != nil || info.Jobs != 13 {
		t.Fatalf("restore = %+v, %v; want 13 jobs", info, err)
	}
	if err := daemon2.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	daemon2.Wait()
	startDaemon(t, args, base)

	if jobs, err := client.Jobs(ctx); err != nil || len(jobs) != 13 {
		t.Fatalf("restart after the restore serves %d jobs (%v), want the restored 13", len(jobs), err)
	}
	if err := filepath.WalkDir(walDir, func(path string, e fs.DirEntry, err error) error {
		if e != nil && e.Name() == "snapshot.json" {
			t.Errorf("%s: a fleet's timeline lives in wal.log alone", path)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if rep, err := client.Drain(ctx); err != nil || !rep.Final {
		t.Fatalf("drain = %+v, %v; want the final report", rep, err)
	}
	if _, err := client.Fleet("second").Drain(ctx); err != nil {
		t.Fatal(err)
	}
	killedDefault := getBody(t, base+"/v1/report")
	killedSecond := getBody(t, base+"/v1/fleets/second/report")

	// The uninterrupted reference: the same admission sequence against
	// an in-process daemon that never died.
	refSrv, err := server.New(server.Config{
		Policy: "SB", Seed: 1,
		Fleets: []server.FleetSeed{{ID: "second", Policy: "BF"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	refHS := httptest.NewServer(refSrv.Handler())
	defer func() { refHS.Close(); refSrv.Close() }()
	refClient := energysched.NewClient(refHS.URL)
	if _, err := refClient.SubmitJobs(ctx, batch); err != nil {
		t.Fatal(err)
	}
	for _, spec := range tail {
		if _, err := refClient.SubmitJob(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := refClient.Fleet("second").SubmitJobs(ctx, secondJobs); err != nil {
		t.Fatal(err)
	}
	if _, err := refClient.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := refClient.Fleet("second").Drain(ctx); err != nil {
		t.Fatal(err)
	}
	refDefault := getBody(t, refHS.URL+"/v1/report")
	refSecond := getBody(t, refHS.URL+"/v1/fleets/second/report")

	if !bytes.Equal(killedDefault, refDefault) {
		t.Errorf("default fleet diverged after kill+restart:\n got %s\nwant %s", killedDefault, refDefault)
	}
	if !bytes.Equal(killedSecond, refSecond) {
		t.Errorf("second fleet diverged after kill+restart:\n got %s\nwant %s", killedSecond, refSecond)
	}
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// startDaemon runs the daemon with args and waits until base answers
// /healthz; under -short it skips the calling test.
func startDaemon(t *testing.T, args []string, base string) *exec.Cmd {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the real daemon binary")
	}
	cmd := exec.Command(daemonBin, args...)
	var logs bytes.Buffer
	cmd.Stdout = &logs
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			defer resp.Body.Close()
			var health struct {
				OK bool `json:"ok"`
			}
			if json.NewDecoder(resp.Body).Decode(&health) == nil && health.OK {
				return cmd
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("daemon did not become healthy at %s; logs:\n%s", base, logs.String())
	return nil
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, buf.String())
	}
	return buf.Bytes()
}
