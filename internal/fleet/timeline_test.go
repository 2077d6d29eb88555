package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// One file per timeline: a new timeline replaces wal.log in one atomic
// step, so a fault or a crash anywhere in that step leaves the old
// timeline whole, and a restart never serves records of one timeline on
// top of another's snapshot.

// dirNames lists a directory's entries.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestRestoreFaultKeepsOldTimeline fails the new timeline's temp write
// and, in the second case, its rename during a restore. The restore
// goes through in memory but the fleet goes read-only; a restart then
// serves the old timeline — its report, job list and wal.log bytes —
// and admits again. The failed rename leaves its temp file, as a kill
// there would, and Open removes it.
func TestRestoreFaultKeepsOldTimeline(t *testing.T) {
	snapDir := t.TempDir()
	author, err := Open("a", Config{Sched: Sched{Policy: "BF", Seed: 5}, SnapshotDir: snapDir})
	if err != nil {
		t.Fatal(err)
	}
	submitN(t, author, 3, 0)
	if _, err := author.Snapshot("bf.json"); err != nil {
		t.Fatal(err)
	}
	author.Close()

	for _, op := range []string{"replace", "rename"} {
		t.Run(op, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "f")
			armed := false
			cfg := testConfig(dir)
			cfg.SnapshotDir = snapDir
			cfg.WALFault = func(got string) error {
				if armed && got == op {
					return errors.New("injected " + op + " fault")
				}
				return nil
			}
			f, err := Open("f", cfg)
			if err != nil {
				t.Fatal(err)
			}
			submitN(t, f, 10, 0) // a compaction after 8: a header and 2 records
			wantRep, err := f.Report()
			if err != nil {
				t.Fatal(err)
			}
			wantJobs, err := f.Jobs()
			if err != nil {
				t.Fatal(err)
			}
			wantWAL := readWAL(t, dir)

			armed = true
			if _, err := f.Restore("bf.json"); err != nil {
				t.Fatalf("restore: %v", err)
			}
			armed = false
			if info, err := f.Info(); err != nil || info.Policy != "BF" || info.Jobs != 3 {
				t.Fatalf("restored fleet = %+v, %v; want BF with 3 jobs", info, err)
			}
			if _, err := f.Submit(testSpec(100)); err == nil {
				t.Fatal("a fleet whose restore did not persist acknowledged an admission")
			}
			f.Close()
			stale, _ := filepath.Glob(filepath.Join(dir, walTemp))
			if leftBehind := len(stale) > 0; leftBehind != (op == "rename") {
				t.Fatalf("after a %s fault the directory holds %v", op, dirNames(t, dir))
			}

			g, err := Open("f", cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			if names := dirNames(t, dir); !slices.Equal(names, []string{walName}) {
				t.Fatalf("after a restart the directory holds %v, want only %s", names, walName)
			}
			if got, err := g.Report(); err != nil || got != wantRep {
				t.Fatalf("restart served\n %+v (%v)\nwant the old timeline's\n %+v", got, err, wantRep)
			}
			if got, err := g.Jobs(); err != nil || !reflect.DeepEqual(got, wantJobs) {
				t.Fatalf("restart served %d jobs (%v), want the old timeline's %d", len(got), err, len(wantJobs))
			}
			if got := readWAL(t, dir); !bytes.Equal(got, wantWAL) {
				t.Fatalf("wal.log changed across the failed restore: %d bytes, want %d", len(got), len(wantWAL))
			}
			if _, err := g.Submit(testSpec(10)); err != nil {
				t.Fatalf("the old timeline refused its next admission after a restart: %v", err)
			}
		})
	}
}

// dirFiles reads every file of a directory, by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	for _, name := range dirNames(t, dir) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = data
	}
	return files
}

// TestTwoFileLayoutRefused: the releases before e0300a6 kept a
// compaction snapshot.json beside a wal.log of bare records. This
// release does not read that layout: Open fails with an error that
// names the releases that convert it, and leaves every file as it was —
// the torn tail openWAL would truncate included, and no wal.log created
// where there was none. Beside a log with a header, snapshot.json is a
// conversion's leftover: the header is served, and the file is neither
// read nor touched.
func TestTwoFileLayoutRefused(t *testing.T) {
	snapshot := golden(t, "snapshot.json") // two jobs, in the API snapshot format
	var records []byte
	for i := 2; i < 5; i++ {
		var err error
		if records, err = appendRecordFrame(records, walRecord{Kind: walKindAdmit, Job: walJob(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		wal  []byte // nil: no wal.log
	}{
		{"records with a torn tail", append(bytes.Clone(records), 7, 0, 0)},
		{"empty log", []byte{}},
		{"no log", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "f")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), snapshot, 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.wal != nil {
				if err := os.WriteFile(filepath.Join(dir, walName), tc.wal, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			before := dirFiles(t, dir)
			f, err := Open("f", testConfig(dir))
			if err == nil {
				f.Close()
				t.Fatal("Open read the two-file layout")
			}
			for _, want := range []string{"two-file layout", "e0300a6 to 2f5bbe1"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("refusal %q does not name %q", err, want)
				}
			}
			if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("the refused directory changed: %d files before, %d after", len(before), len(after))
			}
		})
	}

	t.Run("header beside it", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "f")
		f, err := Open("f", testConfig(dir))
		if err != nil {
			t.Fatal(err)
		}
		submitN(t, f, 3, 0)
		if _, err := f.RestoreFile(filepath.Join("testdata", "golden", "snapshot.json")); err != nil {
			t.Fatal(err)
		}
		f.Close()
		leftover := []byte("not a snapshot")
		if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), leftover, 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := Open("f", testConfig(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		if info, err := g.Info(); err != nil || info.Jobs != 2 {
			t.Fatalf("served %+v (%v), want the header's 2 jobs", info, err)
		}
		if got, err := os.ReadFile(filepath.Join(dir, "snapshot.json")); err != nil || !bytes.Equal(got, leftover) {
			t.Fatalf("the leftover snapshot.json is now %q (%v)", got, err)
		}
	})
}

// TestLastSnapshotTimeSurvivesRestart: the header holds no wall-clock
// value, so a restart reads when it was written from the fleet
// directory's mtime, which appends do not move — nor do compactions
// that fail before or at their rename, nor the restart's removal of the
// temp file a failed rename leaves. A log without a header has no
// snapshot time.
func TestLastSnapshotTimeSurvivesRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "f")
	cfg := testConfig(dir)
	fault := ""
	cfg.WALFault = func(op string) error {
		if op == fault {
			return errors.New("injected " + op + " fault")
		}
		return nil
	}
	f, err := Open("f", cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitN(t, f, 4, 0)
	if st := walInfo(t, f); st.LastSnapshotUnix != 0 {
		t.Fatalf("a fleet never compacted reports a snapshot at %d", st.LastSnapshotUnix)
	}
	f.Close()
	f, err = Open("f", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := walInfo(t, f); st.LastSnapshotUnix != 0 {
		t.Fatalf("after a restart a fleet never compacted reports a snapshot at %d", st.LastSnapshotUnix)
	}
	submitN(t, f, 4, 4) // the 8th record compacts
	st := walInfo(t, f)
	if st.Snapshots != 1 || st.LastSnapshotUnix < time.Now().Add(-time.Minute).Unix() {
		t.Fatalf("after a compaction: %+v", st)
	}
	compacted := time.Unix(1_600_000_000, 0)
	if err := os.Chtimes(dir, compacted, compacted); err != nil {
		t.Fatal(err)
	}
	submitN(t, f, 2, 8)
	fault = "replace"
	submitN(t, f, 6, 10) // the 8th record tries to compact, and fails
	fault = "rename"
	submitN(t, f, 1, 16) // so does the 9th, leaving its temp file
	fault = ""
	if st := walInfo(t, f); st.Snapshots != 1 {
		t.Fatalf("the faulted compactions counted as snapshots: %+v", st)
	}
	f.Close()

	for restart := 1; restart <= 2; restart++ {
		f, err = Open("f", cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := walInfo(t, f)
		f.Close()
		if st.LastSnapshotUnix != compacted.Unix() || st.Replayed != 9 {
			t.Fatalf("restart %d: %+v, want the snapshot time %d and 9 records replayed", restart, st, compacted.Unix())
		}
	}
}

// TestHeaderOverRecordBound: a header holds the whole job log, so it
// may be longer than walMaxRecord, the bound on a record. Recovery must
// read it whole — the file bounds it — and never truncate it as a torn
// tail. The bound is lowered so that eight jobs pass it.
func TestHeaderOverRecordBound(t *testing.T) {
	defer func(bound int64) { walMaxRecord = bound }(walMaxRecord)
	walMaxRecord = 1 << 9
	dir := filepath.Join(t.TempDir(), "f")
	f, err := Open("f", testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	submitN(t, f, 10, 0) // a compaction after 8: a header and 2 records
	wantRep, err := f.Report()
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	wantWAL := readWAL(t, dir)
	if n := int64(binary.LittleEndian.Uint32(wantWAL)); n <= walMaxRecord {
		t.Fatalf("the header is %d bytes, not over the bound %d", n, walMaxRecord)
	}

	g, err := Open("f", testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	st := walInfo(t, g)
	if st.TornTail || st.Replayed != 2 {
		t.Fatalf("recovered %+v, want the header whole and 2 records replayed", st)
	}
	if got, err := g.Report(); err != nil || got != wantRep {
		t.Fatalf("restart served\n %+v (%v)\nwant\n %+v", got, err, wantRep)
	}
	if got := readWAL(t, dir); !bytes.Equal(got, wantWAL) {
		t.Fatalf("wal.log changed across the restart: %d bytes, want %d", len(got), len(wantWAL))
	}
	if _, err := g.Submit(testSpec(10)); err != nil {
		t.Fatalf("the fleet refused its next admission after a restart: %v", err)
	}
}

// TestReplHeaderOverRecordBound: a follower bootstraps from the
// leader's log header, which outgrows walMaxRecord like the header on
// disk does. The frame is read within the length its announcer gives —
// here the session's, as a hello carries it — while the record bound
// alone still refuses it as torn; once applied, the follower's wal.log
// is the session's header, byte for byte.
func TestReplHeaderOverRecordBound(t *testing.T) {
	defer func(bound int64) { walMaxRecord = bound }(walMaxRecord)
	walMaxRecord = 1 << 9
	leader, err := Open("l", testConfig(filepath.Join(t.TempDir(), "l")))
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	submitN(t, leader, 10, 0)
	sess, err := leader.ReplSubscribe(-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.ReplUnsubscribe(sess)
	if n := sess.HeaderLen(); n <= walMaxRecord {
		t.Fatalf("the header is %d bytes, not over the bound %d", n, walMaxRecord)
	}
	if _, err := NewFrameReader(bytes.NewReader(sess.Header)).Next(); err != ErrTornFrame {
		t.Fatalf("the header read under the record bound: %v, want ErrTornFrame", err)
	}
	payload, err := NewFrameReader(bytes.NewReader(sess.Header)).NextWithin(sess.HeaderLen())
	if err != nil {
		t.Fatal(err)
	}

	fdir := filepath.Join(t.TempDir(), "f")
	follower, err := Open("f", testConfig(fdir))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	gen, off, err := follower.ApplyReplHeader(payload)
	if err != nil || gen != sess.Gen || off != sess.Head {
		t.Fatalf("bootstrap = generation %d, offset %d (%v); want %d, %d", gen, off, err, sess.Gen, sess.Head)
	}
	if got := readWAL(t, fdir); !bytes.Equal(got, sess.Header) {
		t.Fatalf("the follower's wal.log is %d bytes, not the session's %d-byte header", len(got), len(sess.Header))
	}
	want, err := leader.Report()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := follower.Report(); err != nil || got != want {
		t.Fatalf("the follower serves\n %+v (%v)\nwant the leader's\n %+v", got, err, want)
	}
}

// TestRecoveryNeverSkipsRecords: a header of 12 jobs followed by the
// records of jobs 10–15 — what the two-file layout's splice left, now
// in one file, which no writer produces. Recovery must not skip jobs
// 10 and 11 as covered and continue with 12: the record after the
// header does not follow it, so the fleet serves the header's 12 jobs
// and goes read-only.
func TestRecoveryNeverSkipsRecords(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "f")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(dir)
	snap := snapshotFile{Format: snapshotFormat, SavedVirtual: 11 * 30, Gen: 2, Config: cfg.withDefaults().Sched}
	for i := 0; i < 12; i++ {
		snap.Jobs.Append(*walJob(i))
	}
	log, err := headerFrame(snap)
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 16; i++ {
		if log, err = appendRecordFrame(log, walRecord{Kind: walKindAdmit, Job: walJob(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, walName), log, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open("f", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if info, err := f.Info(); err != nil || info.Jobs != 12 || info.WAL.Replayed != 0 {
		t.Fatalf("recovered %+v (%v), want the header's 12 jobs and nothing replayed", info, err)
	}
	if _, err := f.Submit(testSpec(12)); err == nil {
		t.Fatal("a fleet whose log does not follow its header acknowledged an admission")
	}
}

// TestResumeAtSealedHead: a drained leader's log ends in its seal. A
// follower that already holds the seal resumes with nothing to apply;
// one that stops just before it is sent the seal alone.
func TestResumeAtSealedHead(t *testing.T) {
	leader, err := Open("l", Config{Sched: Sched{Policy: "SB", Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	submitN(t, leader, 3, 0)
	if _, err := leader.Drain(); err != nil {
		t.Fatal(err)
	}
	boot, err := leader.ReplSubscribe(-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	leader.ReplUnsubscribe(boot)
	follower, err := Open("m", Config{Sched: Sched{Policy: "SB", Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	gen, off, err := follower.ApplyReplHeader(boot.Header[walHeaderSize:])
	if err != nil || off != 4 {
		t.Fatalf("bootstrap reached offset %d (%v), want 4: three jobs and the seal", off, err)
	}

	resume := func(from int64) []ReplRecord {
		t.Helper()
		sess, err := leader.ReplSubscribe(gen, from)
		if err != nil {
			t.Fatal(err)
		}
		leader.ReplUnsubscribe(sess)
		if sess.Header != nil {
			t.Fatalf("resuming at %d of %d was sent a header", from, sess.Head)
		}
		return sess.Backlog
	}
	if backlog := resume(4); len(backlog) != 0 {
		err := follower.ApplyReplRecord(backlog[0])
		t.Fatalf("resuming at the sealed head was sent %d records; the first one's apply: %v", len(backlog), err)
	}
	if backlog := resume(3); len(backlog) != 1 || backlog[0].Offset != 4 || !bytes.Equal(backlog[0].Data, sealPayload) {
		t.Fatalf("resuming before the seal was sent %+v, want the seal at offset 4 alone", backlog)
	}
}
