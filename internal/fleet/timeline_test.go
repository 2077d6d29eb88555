package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"energysched"
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

// oldLayoutRecovered is testdata/oldlayout/recovered.json: what the
// previous release served from testdata/oldlayout/splice.
type oldLayoutRecovered struct {
	Jobs     int                       `json:"jobs"`
	Replayed int                       `json:"replayed"`
	Policy   string                    `json:"policy"`
	Seed     int64                     `json:"seed"`
	Gen      int64                     `json:"gen"`
	Now      float64                   `json:"now_s"`
	Report   energysched.ServiceReport `json:"report"`
	Drained  energysched.ServiceReport `json:"drained"`
}

// TestOldLayoutRecoversAsBefore opens a fleet directory the previous
// release wrote: testdata/oldlayout/splice is the crash between its two
// restore steps — the restored 120-job BF timeline (generation 2)
// already published as snapshot.json, and wal.log still holding jobs
// 100–150 of the SB timeline it replaced. That release's reader skips
// old jobs 100–119 as covered and replays 120–150 on top: the splice.
// The directory must come up exactly as that release served it
// (recovered.json, written by that release from the same files), and
// Open must leave it in the one-file layout, which a restart reads to
// the same state.
func TestOldLayoutRecoversAsBefore(t *testing.T) {
	var want oldLayoutRecovered
	data, err := os.ReadFile(filepath.Join("testdata", "oldlayout", "recovered.json"))
	if err == nil {
		err = json.Unmarshal(data, &want)
	}
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "f")
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "oldlayout", "splice"))); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(dir) // the config the replaced timeline was opened with
	cfg.SnapshotInterval = 100
	check := func(f *Fleet, replayed int) {
		t.Helper()
		info, err := f.Info()
		if err != nil {
			t.Fatal(err)
		}
		gen, _, now, err := f.ReplState()
		if err != nil {
			t.Fatal(err)
		}
		if info.Jobs != want.Jobs || info.Policy != want.Policy || info.Seed != want.Seed || gen != want.Gen ||
			now != want.Now || info.WAL.Replayed != replayed {
			t.Fatalf("recovered %+v (WAL %+v) at generation %d, t=%g; want %+v with %d replayed",
				info, *info.WAL, gen, now, want, replayed)
		}
		if rep, err := f.Report(); err != nil || rep != want.Report {
			t.Fatalf("report %+v (%v)\nwant %+v", rep, err, want.Report)
		}
	}

	f, err := Open("f", cfg)
	if err != nil {
		t.Fatal(err)
	}
	check(f, want.Replayed)
	f.Close()
	if names := dirNames(t, dir); !slices.Equal(names, []string{walName}) {
		t.Fatalf("after Open the directory holds %v, want only %s", names, walName)
	}
	w, head, recs, dropped, err := openWAL(filepath.Join(dir, walName), SyncOS, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.close()
	if head == nil || len(head.Jobs) != want.Jobs || head.Gen != want.Gen || len(recs) != 0 || dropped != 0 {
		t.Fatalf("converted log: header %v, %d records, %d bytes dropped; want a %d-job generation-%d header alone",
			head != nil, len(recs), dropped, want.Jobs, want.Gen)
	}

	g, err := Open("f", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	check(g, 0)
	if got, err := g.Drain(); err != nil || got != want.Drained {
		t.Fatalf("drained %+v (%v)\nwant %+v", got, err, want.Drained)
	}
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
		snap.Jobs = append(snap.Jobs, *walJob(i))
	}
	log, err := headerFrame(snap)
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 16; i++ {
		payload, err := encodeWALRecord(walRecord{Kind: walKindAdmit, Job: walJob(i)})
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, EncodeFrame(payload)...)
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
