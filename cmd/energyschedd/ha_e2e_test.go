package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"energysched"
	"energysched/internal/server"
)

// The acceptance e2e for warm-standby HA: a real leader daemon and a
// real follower daemon, with a fault-injecting TCP proxy between them
// that tears replication frames mid-byte and corrupts one in flight.
// The leader is SIGKILLed mid-batch — some admissions acknowledged,
// some not, the replication stream severed without ceremony. The
// follower is then promoted, and everything it serves — the drained
// report, the job listing, a fresh snapshot file — must be
// byte-identical to an uninterrupted single-process run of exactly
// the admission prefix the follower had applied. The follower starts
// after the leader has compacted its first three jobs, so it
// bootstraps from a WAL header that carries jobs.

// proxyFault injures one proxied connection: the leader->follower
// byte stream is cut after `cut` bytes (a torn frame at the
// transport), and when flip >= 0 the byte at that stream offset is
// corrupted first (a frame the CRC check must reject).
type proxyFault struct {
	cut  int64
	flip int64
}

// runProxy forwards TCP to target, applying faults[i] to the i-th
// accepted connection; connections beyond the list pass through
// untouched. Returns the proxy's listen address.
func runProxy(t *testing.T, target string, faults []proxyFault) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var mu sync.Mutex
	next := 0
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			var f *proxyFault
			if next < len(faults) {
				f = &faults[next]
				next++
			}
			mu.Unlock()
			go proxyConn(c, target, f)
		}
	}()
	return l.Addr().String()
}

func proxyConn(c net.Conn, target string, f *proxyFault) {
	defer c.Close()
	up, err := net.Dial("tcp", target)
	if err != nil {
		return
	}
	defer up.Close()
	go io.Copy(up, c) // requests flow upstream untouched
	if f == nil {
		io.Copy(c, up)
		return
	}
	buf := make([]byte, 4096)
	var seen int64
	for seen < f.cut {
		n, rerr := up.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			if rest := f.cut - seen; int64(len(chunk)) > rest {
				chunk = chunk[:rest]
			}
			if f.flip >= seen && f.flip < seen+int64(len(chunk)) {
				chunk[f.flip-seen] ^= 0x40
			}
			if _, werr := c.Write(chunk); werr != nil {
				return
			}
			seen += int64(len(chunk))
		}
		if rerr != nil {
			return
		}
	}
	// Torn tail: sever both directions mid-frame, no goodbye.
}

func TestE2EKillLeaderPromoteFollower(t *testing.T) {
	ctx := context.Background()

	leaderAddr := freeAddr(t)
	followerAddr := freeAddr(t)
	leaderBase := "http://" + leaderAddr
	followerBase := "http://" + followerAddr

	// Leader: durable, compacting, page-cache sync (kill -9 semantics).
	leaderWAL, followerWAL := t.TempDir(), t.TempDir()
	leaderArgs := []string{
		"-listen", leaderAddr,
		"-wal-dir", leaderWAL,
		"-snapshot-dir", t.TempDir(),
		"-snapshot-interval", "2",
		"-wal-sync", "os",
	}
	leader := startDaemon(t, leaderArgs, leaderBase)
	lc := energysched.NewClient(leaderBase)
	fc := energysched.NewClient(followerBase)

	// Phase 0: three jobs, compacted into the header before any
	// follower exists.
	t0 := 0.0
	specs := []energysched.JobSpec{
		{CPU: 200, Mem: 10, Duration: 1200, Submit: &t0},
		{CPU: 100, Mem: 5, Duration: 600, Submit: &t0},
		{CPU: 100, Mem: 5, Duration: 600, Submit: &t0},
	}
	if _, err := lc.SubmitJobs(ctx, specs); err != nil {
		t.Fatal(err)
	}
	if st, err := lc.FleetStatus(ctx, "default"); err != nil || st.WAL == nil || st.WAL.Snapshots != 1 {
		t.Fatalf("leader status = %+v, %v; want one compaction", st, err)
	}

	// The follower reaches the leader only through the fault proxy:
	// its bootstrap and streams get torn mid-frame and one gets a
	// corrupted byte the CRC must catch. Resume-by-offset has to ride
	// all of it out.
	proxyAddr := runProxy(t, leaderAddr, []proxyFault{
		{cut: 700, flip: -1},
		{cut: 2000, flip: 1500},
		{cut: 5000, flip: -1},
		{cut: 9000, flip: 8191},
	})
	startDaemon(t, []string{
		"-listen", followerAddr,
		"-follow", "http://" + proxyAddr,
		"-follow-poll", "50ms",
		"-wal-dir", followerWAL,
		"-snapshot-dir", t.TempDir(),
		"-wal-sync", "os",
	}, followerBase)

	// The follower catches up onto the leader's log byte for byte, is
	// ready, and gates writes until it is promoted.
	var h energysched.HealthStatus
	var st energysched.FleetStatus
	for deadline := time.Now().Add(30 * time.Second); !h.Ready || st.Replication.Offset < 3; time.Sleep(25 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("follower not ready at offset 3: health %+v, status %+v", h, st)
		}
		h, _ = fc.Health(ctx)
		st, _ = fc.FleetStatus(ctx, "default")
	}
	if h.Role != "follower" || st.Replication.Offset != 3 {
		t.Fatalf("follower health %+v, status %+v; want a follower at offset 3", h, st)
	}
	lwal, err1 := os.ReadFile(filepath.Join(leaderWAL, "default", "wal.log"))
	fwal, err2 := os.ReadFile(filepath.Join(followerWAL, "default", "wal.log"))
	if err1 != nil || err2 != nil || !bytes.Equal(lwal, fwal) {
		t.Fatalf("follower wal.log differs from the leader's (%v, %v)", err1, err2)
	}
	var apiErr *energysched.APIError
	if _, err := fc.SubmitJob(ctx, specs[0]); !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("follower write = %v, want 503", err)
	}

	// Phase 1: sequential churn through the fault gauntlet.
	for i := 0; i < 12; i++ {
		at := float64(i) * 45
		spec := energysched.JobSpec{
			CPU: 100 + float64(i%3)*100, Mem: 5 + float64(i%2)*5,
			Duration: 900 + float64(i%4)*300, Submit: &at,
		}
		specs = append(specs, spec)
		if _, err := lc.SubmitJob(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	waitSync := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			st, err := fc.FleetStatus(ctx, "default")
			if err == nil && st.Replication.Offset >= want {
				return
			}
			time.Sleep(25 * time.Millisecond)
		}
		st, err := fc.FleetStatus(ctx, "default")
		t.Fatalf("follower never reached offset %d (status %+v, %v)", want, st, err)
	}
	waitSync(15)

	// Phase 2: a 30-job batch is in flight when the leader dies. The
	// SIGKILL lands mid-batch: the follower ends up with whatever
	// prefix of the batch the stream delivered.
	batch := make([]energysched.JobSpec, 0, 30)
	for i := 0; i < 30; i++ {
		at := 540 + float64(i)*30
		batch = append(batch, energysched.JobSpec{
			CPU: 150 + float64(i%4)*50, Mem: 5, Duration: 1200, Submit: &at,
		})
	}
	specs = append(specs, batch...)
	go lc.SubmitJobs(ctx, batch) // the ack may never arrive; that is the point
	waitSync(16)                 // at least one batch record replicated
	if err := leader.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	leader.Wait()

	// The follower's applied offset settles at whatever the dying
	// stream delivered.
	stable, last := 0, int64(-1)
	for stable < 10 {
		st, err := fc.FleetStatus(ctx, "default")
		if err != nil {
			t.Fatal(err)
		}
		if st.Replication.Offset == last {
			stable++
		} else {
			stable, last = 0, st.Replication.Offset
		}
		time.Sleep(50 * time.Millisecond)
	}
	n := int(last)
	if n < 16 || n > len(specs) {
		t.Fatalf("follower settled at offset %d, want within [16, %d]", n, len(specs))
	}
	t.Logf("leader killed mid-batch; follower holds %d of %d acknowledged-or-in-flight admissions", n, len(specs))

	// Promote. The follower seals catch-up and serves.
	info, err := fc.Promote(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Role != "leader" || info.Fleets["default"] != int64(n) {
		t.Fatalf("promote info = %+v, want leader at offset %d", info, n)
	}
	promotedJobs := getBody(t, followerBase+"/v1/jobs")
	// The promoted daemon accepts writes.
	extraAt := 3600.0
	extra := energysched.JobSpec{CPU: 100, Mem: 5, Duration: 600, Submit: &extraAt}
	if _, err := fc.SubmitJob(ctx, extra); err != nil {
		t.Fatal(err)
	}
	if rep, err := fc.Drain(ctx); err != nil || rep.JobsTotal != n+1 {
		t.Fatalf("promoted drain = %+v, %v; want %d jobs", rep, err, n+1)
	}
	promotedReport := getBody(t, followerBase+"/v1/report")
	// Snapshot paths are confined to the daemon's -snapshot-dir, so a
	// bare name lands in the temp dir passed above.
	promotedSnap, err := fc.Snapshot(ctx, "promoted.json")
	if err != nil {
		t.Fatal(err)
	}

	// The uninterrupted reference: one in-process daemon admits exactly
	// the prefix the follower applied — the first three, 12 singles,
	// then the delivered slice of the batch — and must land on the same
	// bytes.
	// The reference config mirrors the daemon's flag defaults exactly —
	// the snapshot file embeds the scheduling config, so a byte-equal
	// snapshot requires byte-equal config.
	refSrv, err := server.New(server.Config{
		Policy: "SB", Seed: 1,
		Score:       &energysched.ScoreParams{Cempty: 20, Cfill: 40},
		SnapshotDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	refHS := httptest.NewServer(refSrv.Handler())
	defer func() { refHS.Close(); refSrv.Close() }()
	refClient := energysched.NewClient(refHS.URL)
	if _, err := refClient.SubmitJobs(ctx, specs[:3]); err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs[3:15] {
		if _, err := refClient.SubmitJob(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := refClient.SubmitJobs(ctx, specs[15:n]); err != nil {
		t.Fatal(err)
	}
	refJobs := getBody(t, refHS.URL+"/v1/jobs")
	if _, err := refClient.SubmitJob(ctx, extra); err != nil {
		t.Fatal(err)
	}
	if _, err := refClient.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	refReport := getBody(t, refHS.URL+"/v1/report")
	refSnap, err := refClient.Snapshot(ctx, "ref.json")
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(promotedJobs, refJobs) {
		t.Errorf("promoted job listing diverged:\n got %s\nwant %s", promotedJobs, refJobs)
	}
	if !bytes.Equal(promotedReport, refReport) {
		t.Errorf("promoted report diverged:\n got %s\nwant %s", promotedReport, refReport)
	}
	pb, err1 := os.ReadFile(promotedSnap.Path)
	rb, err2 := os.ReadFile(refSnap.Path)
	if err1 != nil || err2 != nil {
		t.Fatalf("reading snapshots: %v, %v", err1, err2)
	}
	if !bytes.Equal(pb, rb) {
		t.Errorf("promoted snapshot file diverged:\n got %s\nwant %s", pb, rb)
	}

	// And the promoted daemon is a real leader: draining sealed it, but
	// health reports the role flip.
	h, err = fc.Health(ctx)
	if err != nil || h.Role != "leader" || !h.Ready {
		t.Fatalf("promoted health = %+v, %v", h, err)
	}
}
