package fleet

import (
	"bytes"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"energysched"
	"energysched/internal/workload"
)

// Live WAL fault injection: the chaos hooks must fail admissions
// cleanly (rollback, 500, fleet stays writable) and, when rollback is
// also taken out, degrade to read-only and recover the acknowledged
// prefix after a restart — never acknowledge what isn't durable.

// TestWALFaultDiskFull fails the sync path for a window, like a full
// disk: admissions inside the window are rejected with a clean
// rollback, and once space frees the fleet admits again.
func TestWALFaultDiskFull(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "f")
	full := false
	cfg := testConfig(dir)
	cfg.WALFault = func(op string) error {
		if full && op == "sync" {
			return errors.New("no space left on device")
		}
		return nil
	}
	f, err := Open("f", cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitN(t, f, 4, 0)

	full = true
	at := 4.0 * 30
	_, serr := f.Submit(energysched.JobSpec{CPU: 100, Mem: 5, Duration: 600, Submit: &at})
	var fe *Error
	if !errors.As(serr, &fe) || fe.Status != http.StatusInternalServerError {
		t.Fatalf("disk-full submit error = %v, want a 500", serr)
	}
	full = false

	// The rollback was clean: the fleet still admits, and only the
	// acknowledged jobs survive a kill/reopen.
	submitN(t, f, 4, 4)
	info, err := f.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Jobs != 8 {
		t.Fatalf("jobs after recovery from disk-full = %d, want 8", info.Jobs)
	}
	f.Close()

	f2, err := Open("f", testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	got, err := f2.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if want := drainedReport(t, 8); got != want {
		t.Fatalf("post-fault recovery diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestWALFaultTornWriteGoesReadOnly injects the worst case: an append
// tears mid-frame AND the rollback fails. The fleet must refuse
// further admissions (read-only beats divergence), and a reopen must
// truncate the torn tail and serve exactly the acknowledged prefix —
// the kill/recover byte-identity oracle under a live fault.
func TestWALFaultTornWriteGoesReadOnly(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "f")
	arm := false
	cfg := testConfig(dir)
	cfg.SnapshotInterval = 0 // keep every record in the WAL
	cfg.WALFault = func(op string) error {
		if !arm {
			return nil
		}
		switch op {
		case "append":
			return ErrTornWrite
		case "rewind":
			return errors.New("rollback truncate failed")
		}
		return nil
	}
	f, err := Open("f", cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitN(t, f, 6, 0)

	arm = true
	at := 6.0 * 30
	if _, err := f.Submit(energysched.JobSpec{CPU: 100, Mem: 5, Duration: 600, Submit: &at}); err == nil {
		t.Fatal("torn append acknowledged")
	}
	arm = false

	// Broken log ⇒ read-only, even though the hook is quiet again.
	if _, err := f.Submit(energysched.JobSpec{CPU: 100, Mem: 5, Duration: 600, Submit: &at}); err == nil {
		t.Fatal("read-only fleet accepted an admission")
	}
	f.Close()

	var warned bool
	cfg2 := testConfig(dir)
	cfg2.SnapshotInterval = 0
	cfg2.Logf = func(format string, args ...interface{}) { warned = true }
	f2, err := Open("f", cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	st := walInfo(t, f2)
	if !st.TornTail || st.TruncatedBytes == 0 || st.Replayed != 6 {
		t.Fatalf("torn-write recovery stats = %+v, want TornTail with 6 replayed", st)
	}
	if !warned {
		t.Error("torn tail truncated without a log line")
	}
	got, err := f2.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if want := drainedReport(t, 6); got != want {
		t.Fatalf("torn-write recovery diverged from the acknowledged prefix:\n got %+v\nwant %+v", got, want)
	}
}

// readWAL returns the bytes of the fleet directory's log.
func readWAL(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCommitLeaderEqualsFollower: leader and follower apply a record
// through the same commit, so a follower fed the leader's ReplRecords —
// 40 jobs in mixed single and batch submits, then the drain — must hold
// the same final report and, after the seal, a byte-identical wal.log.
// In the second case the leader restores a snapshot of its 20th job
// after its 30th, starting generation 2: the follower's session is cut,
// it re-bootstraps from the leader's snapshot, and its log still ends
// equal to the leader's.
func TestCommitLeaderEqualsFollower(t *testing.T) {
	for _, restore := range []bool{false, true} {
		name := map[bool]string{false: "one timeline", true: "restore mid-stream"}[restore]
		t.Run(name, func(t *testing.T) {
			ldir, fdir, snapDir := filepath.Join(t.TempDir(), "l"), filepath.Join(t.TempDir(), "f"), t.TempDir()
			cfg := func(dir string) Config {
				c := testConfig(dir)
				c.SnapshotInterval, c.SnapshotDir = 0, snapDir
				return c
			}
			leader, err := Open("l", cfg(ldir))
			if err != nil {
				t.Fatal(err)
			}
			defer leader.Close()
			follower, err := Open("f", cfg(fdir))
			if err != nil {
				t.Fatal(err)
			}
			defer follower.Close()
			sess, err := leader.ReplSubscribe(1, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { leader.ReplUnsubscribe(sess) }()
			mirror := func(n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					if err := follower.ApplyReplRecord(<-sess.Ch); err != nil {
						t.Fatalf("follower refused a leader record: %v", err)
					}
				}
			}
			// submit admits jobs from..to-1 in singles and batches, mixed.
			submit := func(from, to int) {
				t.Helper()
				for i, turn := from, 0; i < to; turn++ {
					size := min([]int{1, 3, 1, 5}[turn%4], to-i)
					specs := make([]energysched.JobSpec, size)
					for k := range specs {
						specs[k] = testSpec(i + k)
					}
					if size == 1 {
						_, err = leader.Submit(specs[0])
					} else {
						_, err = leader.SubmitBatch(specs)
					}
					if err != nil {
						t.Fatalf("leader submit at job %d: %v", i, err)
					}
					mirror(size)
					i += size
				}
			}

			if !restore {
				submit(0, 40)
				if l, f := readWAL(t, ldir), readWAL(t, fdir); len(l) == 0 || !bytes.Equal(l, f) {
					t.Fatalf("follower WAL (%d bytes) differs from the leader's (%d bytes) after 40 admissions", len(f), len(l))
				}
			} else {
				submit(0, 20)
				if _, err := leader.Snapshot("mid.json"); err != nil {
					t.Fatal(err)
				}
				submit(20, 30)
				if _, err := leader.Restore("mid.json"); err != nil {
					t.Fatal(err)
				}
				if _, open := <-sess.Ch; open {
					t.Fatal("the restore did not cut the replication session")
				}
				gen, off, _, err := follower.ReplState()
				if err != nil {
					t.Fatal(err)
				}
				if sess, err = leader.ReplSubscribe(gen, off); err != nil {
					t.Fatal(err)
				}
				if sess.Gen != 2 || sess.Header == nil {
					t.Fatalf("resubscribing at generation %d got generation %d, header %v; want a generation-2 bootstrap", gen, sess.Gen, sess.Header != nil)
				}
				if _, _, err := follower.ApplyReplHeader(sess.Header[walHeaderSize:]); err != nil {
					t.Fatal(err)
				}
				submit(20, 40)
			}

			want, err := leader.Drain()
			if err != nil {
				t.Fatal(err)
			}
			mirror(1) // the seal
			got, err := follower.Report()
			if err != nil {
				t.Fatal(err)
			}
			if got != want || !got.Final || got.JobsTotal != 40 {
				t.Fatalf("follower's final report diverged:\n got %+v\nwant %+v", got, want)
			}
			if l, f := readWAL(t, ldir), readWAL(t, fdir); len(l) == 0 || !bytes.Equal(l, f) {
				t.Fatalf("wal.log differs between leader (%d bytes) and follower (%d bytes) after the seal", len(l), len(f))
			}
		})
	}
}

// TestCommitFaultLeavesFollowerLikeLeader: a WAL fault on the append
// and on the sync, hitting the leader's admit and the follower's
// applyRecord. Either way the record's one path is commit, so either
// way: a 500, the log rewound to its pre-record bytes, nothing
// injected — and once the fault clears the same record goes in and the
// log is byte-identical to a fleet that never saw a fault.
func TestCommitFaultLeavesFollowerLikeLeader(t *testing.T) {
	const n = 4 // the fault lands on the last of n jobs
	// The records a follower is fed, and the WAL a clean run leaves.
	cleanDir := filepath.Join(t.TempDir(), "clean")
	cfg := func(dir string) Config { c := testConfig(dir); c.SnapshotInterval = 0; return c }
	clean, err := Open("clean", cfg(cleanDir))
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	sess, err := clean.ReplSubscribe(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer clean.ReplUnsubscribe(sess)
	var recs []ReplRecord
	for i := 0; i < n; i++ {
		if _, err := clean.Submit(testSpec(i)); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, <-sess.Ch)
	}
	cleanWAL := readWAL(t, cleanDir)

	for _, tc := range []struct {
		role, op string
	}{
		{"leader", "append"}, {"leader", "sync"}, {"follower", "append"}, {"follower", "sync"},
	} {
		t.Run(tc.role+"/"+tc.op, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "f")
			armed := false
			c := cfg(dir)
			c.WALFault = func(op string) error {
				if armed && op == tc.op {
					return errors.New("no space left on device")
				}
				return nil
			}
			f, err := Open("f", c)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			feed := func(i int) error {
				if tc.role == "follower" {
					return f.ApplyReplRecord(recs[i])
				}
				_, err := f.Submit(testSpec(i))
				return err
			}
			for i := 0; i < n-1; i++ {
				if err := feed(i); err != nil {
					t.Fatal(err)
				}
			}
			before := readWAL(t, dir)

			armed = true
			var fe *Error
			if err := feed(n - 1); !errors.As(err, &fe) || fe.Status != http.StatusInternalServerError {
				t.Fatalf("faulted record: error = %v, want a 500", err)
			}
			armed = false
			if after := readWAL(t, dir); !bytes.Equal(after, before) {
				t.Fatalf("log not rewound: %d bytes before the fault, %d after", len(before), len(after))
			}
			if info, err := f.Info(); err != nil || info.Jobs != n-1 || info.WAL.Records != n-1 {
				t.Fatalf("after the fault the fleet holds %+v (%v), want %d jobs and records", info, err, n-1)
			}

			if err := feed(n - 1); err != nil {
				t.Fatalf("record refused after the fault cleared: %v", err)
			}
			if got := readWAL(t, dir); !bytes.Equal(got, cleanWAL) {
				t.Fatalf("log after recovery differs from a fault-free run (%d vs %d bytes)", len(got), len(cleanWAL))
			}
		})
	}
}

// TestSubmitSourceMatchesBatch: streaming a trace into a fleet in
// small batches is byte-identical to one atomic batch of the
// materialized trace.
func TestSubmitSourceMatchesBatch(t *testing.T) {
	gcfg := workload.DefaultGeneratorConfig()
	gcfg.Horizon = 12 * 3600
	tr := workload.MustGenerate(gcfg)

	stream, err := Open("s", Config{Sched: Sched{Policy: "SB", Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	src, err := workload.NewGeneratorSource(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := stream.SubmitSource(src, 32)
	if err != nil {
		t.Fatal(err)
	}
	if n != tr.Len() {
		t.Fatalf("streamed %d jobs, trace has %d", n, tr.Len())
	}
	srep, err := stream.Drain()
	if err != nil {
		t.Fatal(err)
	}

	batch, err := Open("b", Config{Sched: Sched{Policy: "SB", Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer batch.Close()
	specs := make([]energysched.JobSpec, 0, tr.Len())
	for _, j := range tr.Jobs {
		submit := j.Submit
		specs = append(specs, energysched.JobSpec{
			Name: j.Name, CPU: j.CPU, Mem: j.Mem, Duration: j.Duration,
			Submit: &submit, DeadlineFactor: j.DeadlineFactor,
		})
	}
	if _, err := batch.SubmitBatch(specs); err != nil {
		t.Fatal(err)
	}
	brep, err := batch.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if srep != brep {
		t.Fatalf("streamed and batched fleets diverged:\n stream %+v\n batch  %+v", srep, brep)
	}
}

// Satellite: the -max-fleets 429 must carry a Retry-After hint like
// every other transient rejection.
func TestManagerCapCarriesRetryAfter(t *testing.T) {
	m, err := NewManager(Options{MaxFleets: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Create("one", Config{}); err != nil {
		t.Fatal(err)
	}
	_, err = m.Create("two", Config{})
	var fe *Error
	if !errors.As(err, &fe) {
		t.Fatalf("cap rejection = %v, want a fleet.Error", err)
	}
	if fe.Status != http.StatusTooManyRequests || fe.RetryAfter != 1 {
		t.Fatalf("cap rejection = status %d retry-after %d, want 429 with retry hint", fe.Status, fe.RetryAfter)
	}
}
