package server

import (
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"energysched"
)

// Warm-standby integration: a leader and a follower daemon wired
// through real HTTP, exercising discovery, snapshot bootstrap, live
// record streaming, write gating, promotion, and generation-bump
// re-bootstrap.

// haPair starts a leader and a follower mirroring it, both durable.
func haPair(t *testing.T, grace time.Duration) (leader, follower *Server, lc, fc *energysched.Client) {
	t.Helper()
	leader, lhs, lc := newTestServer(t, Config{
		WALDir: t.TempDir(), SnapshotDir: t.TempDir(),
		ReplPing: 20 * time.Millisecond,
	})
	follower, _, fc = newTestServer(t, Config{
		WALDir: t.TempDir(), SnapshotDir: t.TempDir(),
		Follow: lhs.URL, FollowPoll: 20 * time.Millisecond,
		PromoteGrace: grace,
	})
	return leader, follower, lc, fc
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// submitN batch-submits n jobs with distinct shapes to a client.
func submitN(t *testing.T, c *energysched.Client, n, idBase int) {
	t.Helper()
	specs := make([]energysched.JobSpec, 0, n)
	for i := 0; i < n; i++ {
		submit := float64((idBase + i) * 15)
		specs = append(specs, energysched.JobSpec{
			CPU: 100 + float64(i%3)*50, Mem: 5, Duration: 600 + float64(i%5)*120,
			Submit: &submit, DeadlineFactor: 1.5,
		})
	}
	if _, err := c.SubmitJobs(context.Background(), specs); err != nil {
		t.Fatalf("submitting batch: %v", err)
	}
}

func TestFollowerMirrorsAndPromotes(t *testing.T) {
	_, follower, lc, fc := haPair(t, 0)
	ctx := context.Background()

	// Churn on two fleets: the default one and an API-created one.
	submitN(t, lc, 40, 0)
	if _, err := lc.CreateFleet(ctx, energysched.FleetSpec{ID: "batch", Policy: "BF"}); err != nil {
		t.Fatal(err)
	}
	submitN(t, lc.Fleet("batch"), 10, 0)

	// The follower discovers both fleets and catches up.
	waitFor(t, "follower sync", func() bool {
		h, err := fc.Health(ctx)
		return err == nil && h.Role == "follower" && h.Ready && h.Fleets == 2
	})

	// Reports and job listings must be byte-identical (same records,
	// same deterministic engine, same watermark).
	for _, id := range []string{DefaultFleet, "batch"} {
		id := id
		waitFor(t, "identical state of "+id, func() bool {
			lrep, err1 := lc.Fleet(id).Report(ctx)
			frep, err2 := fc.Fleet(id).Report(ctx)
			ljobs, err3 := lc.Fleet(id).Jobs(ctx)
			fjobs, err4 := fc.Fleet(id).Jobs(ctx)
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
				return false
			}
			return reflect.DeepEqual(lrep, frep) && reflect.DeepEqual(ljobs, fjobs)
		})
	}

	// Status endpoint: follower role, synced, with WAL stats.
	st, err := fc.FleetStatus(ctx, DefaultFleet)
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != "follower" || st.Replication.Offset != 40 || st.Replication.Lag != 0 {
		t.Fatalf("follower status = %+v", st)
	}
	if st.WAL == nil {
		t.Fatal("follower status missing WAL stats despite -wal-dir")
	}

	// Writes are gated on the follower with a retry hint.
	resp, err := http.Post(fc.BaseURL+"/v1/jobs", "application/json",
		strings.NewReader(`{"cpu_pct":100,"mem_units":5,"duration_s":60}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("follower write: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if _, err := fc.CreateFleet(ctx, energysched.FleetSpec{ID: "x"}); !isStatus(err, http.StatusServiceUnavailable) {
		t.Fatalf("follower fleet create: %v", err)
	}

	// A drained leader fleet replicates its seal: the follower's final
	// report is the leader's, byte for byte.
	lrep, err := lc.Fleet("batch").Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "replicated seal", func() bool {
		frep, err := fc.Fleet("batch").Report(ctx)
		return err == nil && frep.Final && reflect.DeepEqual(lrep, frep)
	})

	// Promote: the follower flips to leader and accepts writes.
	if _, err := lc.Promote(ctx); !isStatus(err, http.StatusConflict) {
		t.Fatalf("promote on the leader: %v", err)
	}
	info, err := fc.Promote(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Role != "leader" || info.Fleets[DefaultFleet] != 40 || info.Fleets["batch"] != 11 {
		t.Fatalf("promote info = %+v", info)
	}
	if follower.Role() != "leader" {
		t.Fatalf("role after promote = %s", follower.Role())
	}
	if _, err := fc.Promote(ctx); !isStatus(err, http.StatusConflict) {
		t.Fatalf("second promote: %v", err)
	}
	h, err := fc.Health(ctx)
	if err != nil || h.Role != "leader" || !h.Ready {
		t.Fatalf("health after promote: %+v, %v", h, err)
	}
	submitN(t, fc, 3, 100) // unsealed default fleet accepts writes now
}

// TestReplicateMalformedPosition: a ?gen= or ?offset= that is not an
// integer is a structured 400, like a malformed ?since=. Read as 0, it
// would bootstrap the caller from the log's header without a word.
func TestReplicateMalformedPosition(t *testing.T) {
	_, hs, _ := newTestServer(t, Config{Policy: "SB", Seed: 1})
	for _, tc := range []struct{ query, bad string }{
		{"gen=abc&offset=0", `"abc"`},
		{"gen=1&offset=4x", `"4x"`},
	} {
		// A stream that opens would never end: bound the read.
		client := http.Client{Timeout: 5 * time.Second}
		resp, err := client.Get(hs.URL + "/v1/fleets/default/replicate?" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			resp.Body.Close()
			t.Fatalf("%s: status %d, want 400", tc.query, resp.StatusCode)
		}
		var apiErr energysched.APIError
		err = json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: 400 body is not an APIError: %v", tc.query, err)
		}
		if apiErr.Status != http.StatusBadRequest || !strings.Contains(apiErr.Message, tc.bad) {
			t.Fatalf("%s: 400 body = %+v", tc.query, apiErr)
		}
	}
}

func TestFollowerReBootstrapsOnGenerationBump(t *testing.T) {
	_, _, lc, fc := haPair(t, 0)
	ctx := context.Background()

	submitN(t, lc, 5, 0)
	snap, err := lc.Snapshot(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	submitN(t, lc, 3, 5)
	waitFor(t, "initial sync", func() bool {
		st, err := fc.FleetStatus(ctx, DefaultFleet)
		return err == nil && st.Replication.Offset == 8
	})

	// An API restore replaces the leader's timeline (generation bump);
	// the follower must re-bootstrap instead of splicing histories.
	if _, err := lc.Restore(ctx, snap.Path); err != nil {
		t.Fatal(err)
	}
	lst, err := lc.FleetStatus(ctx, DefaultFleet)
	if err != nil {
		t.Fatal(err)
	}
	if lst.Replication.Gen < 2 || lst.Replication.Offset != 5 {
		t.Fatalf("leader after restore: %+v", lst.Replication)
	}
	waitFor(t, "re-bootstrap onto the new timeline", func() bool {
		fst, err := fc.FleetStatus(ctx, DefaultFleet)
		if err != nil {
			return false
		}
		ljobs, err1 := lc.Jobs(ctx)
		fjobs, err2 := fc.Jobs(ctx)
		return fst.Replication.Gen == lst.Replication.Gen && fst.Replication.Offset == 5 &&
			err1 == nil && err2 == nil && reflect.DeepEqual(ljobs, fjobs)
	})
}

func TestFollowerAutoPromotesOnLeaderLoss(t *testing.T) {
	leader, lhs, lc := newTestServer(t, Config{
		WALDir: t.TempDir(), SnapshotDir: t.TempDir(),
		ReplPing: 20 * time.Millisecond,
	})
	_, _, fc := newTestServer(t, Config{
		WALDir: t.TempDir(), SnapshotDir: t.TempDir(),
		Follow: lhs.URL, FollowPoll: 20 * time.Millisecond,
		PromoteGrace: 400 * time.Millisecond,
	})
	ctx := context.Background()

	submitN(t, lc, 10, 0)
	waitFor(t, "follower sync", func() bool {
		h, err := fc.Health(ctx)
		st, serr := fc.FleetStatus(ctx, DefaultFleet)
		return err == nil && h.Ready && h.Fleets == 1 &&
			serr == nil && st.Replication.Offset == 10
	})

	// Kill the leader abruptly — sever live connections first so the
	// follower's open replicate stream dies mid-flight (Close alone
	// would wait for it); the grace window expires and the follower
	// promotes itself.
	lhs.CloseClientConnections()
	lhs.Close()
	leader.Close()
	waitFor(t, "auto-promotion", func() bool {
		h, err := fc.Health(ctx)
		return err == nil && h.Role == "leader"
	})
	jobs, err := fc.Jobs(ctx)
	if err != nil || len(jobs) != 10 {
		t.Fatalf("promoted state: %d jobs, %v", len(jobs), err)
	}
	submitN(t, fc, 2, 50) // serving
}

// TestPromotionRacesInFlightRestore bumps the leader's generation (an
// API restore rewinds its timeline) at the same instant the follower
// is told to promote. Whichever the follower's replication loop sees
// first, the outcome must be coherent: promotion succeeds, the new
// leader serves either the pre-restore timeline it had fully mirrored
// (12 jobs) or the restored one it re-bootstrapped onto (6 jobs) —
// never a splice of the two — and it accepts writes.
func TestPromotionRacesInFlightRestore(t *testing.T) {
	_, follower, lc, fc := haPair(t, 0)
	ctx := context.Background()

	submitN(t, lc, 6, 0)
	snap, err := lc.Snapshot(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	submitN(t, lc, 6, 6)
	waitFor(t, "follower caught up to 12", func() bool {
		st, err := fc.FleetStatus(ctx, DefaultFleet)
		return err == nil && st.Replication.Offset == 12
	})

	var wg sync.WaitGroup
	var rerr, perr error
	var info energysched.PromoteInfo
	wg.Add(2)
	go func() { defer wg.Done(); _, rerr = lc.Restore(ctx, snap.Path) }()
	go func() { defer wg.Done(); info, perr = fc.Promote(ctx) }()
	wg.Wait()
	if rerr != nil {
		t.Fatalf("leader restore: %v", rerr)
	}
	if perr != nil {
		t.Fatalf("promote during in-flight restore: %v", perr)
	}
	if info.Role != "leader" || follower.Role() != "leader" {
		t.Fatalf("promote info %+v, server role %s", info, follower.Role())
	}

	// The promoted timeline is one of the two coherent histories.
	jobs, err := fc.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 6 && len(jobs) != 12 {
		t.Fatalf("promoted leader has %d jobs, want the restored 6 or the mirrored 12", len(jobs))
	}
	if got := info.Fleets[DefaultFleet]; got != int64(len(jobs)) {
		t.Fatalf("promote reported %d records, Jobs lists %d", got, len(jobs))
	}
	st, err := fc.FleetStatus(ctx, DefaultFleet)
	if err != nil || st.Role != "leader" {
		t.Fatalf("status after promote: %+v, %v", st, err)
	}

	// And it serves writes on its own authority.
	submitN(t, fc, 2, 200)
	after, err := fc.Jobs(ctx)
	if err != nil || len(after) != len(jobs)+2 {
		t.Fatalf("promoted leader writes: %d jobs, %v", len(after), err)
	}
}

// TestFailoverDrainByteIdenticalToLeader: the HA twin oracle with the
// admission router in the picture — the WAL records what the loop
// admitted, in admission order, so a follower promoted after mirroring
// it drains to the report the leader itself drains to, byte for byte.
func TestFailoverDrainByteIdenticalToLeader(t *testing.T) {
	_, lhs, lc := newTestServer(t, Config{
		WALDir: t.TempDir(), SnapshotDir: t.TempDir(),
		ReplPing: 20 * time.Millisecond,
	})
	_, _, fc := newTestServer(t, Config{
		WALDir: t.TempDir(), SnapshotDir: t.TempDir(),
		Follow: lhs.URL, FollowPoll: 20 * time.Millisecond,
	})
	ctx := context.Background()

	// Three batches through the leader's admission path.
	for b := 0; b < 3; b++ {
		submitN(t, lc, 20, b*20)
	}
	waitFor(t, "follower caught up", func() bool {
		h, err := fc.Health(ctx)
		if err != nil || h.Role != "follower" || !h.Ready {
			return false
		}
		st, err := fc.FleetStatus(ctx, DefaultFleet)
		return err == nil && st.Replication.Offset == 60 && st.Replication.Lag == 0
	})

	// Fail over and drain on the new leader's authority; the old leader,
	// still up, drains the same history on its own.
	if _, err := fc.Promote(ctx); err != nil {
		t.Fatalf("promote: %v", err)
	}
	got, err := fc.Drain(ctx)
	if err != nil {
		t.Fatalf("drain on promoted leader: %v", err)
	}
	want, err := lc.Drain(ctx)
	if err != nil {
		t.Fatalf("drain on the original leader: %v", err)
	}
	if want.JobsTotal != 60 || !want.Final {
		t.Fatalf("leader's drained report looks wrong: %+v", want)
	}
	if got != want {
		t.Fatalf("promoted report diverged from the leader's:\n got %+v\nwant %+v", got, want)
	}
}
