package fleet

import (
	"errors"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// A pace or a checkpoint interval past its bound would stall the loop on
// its first step: one paced tick owing 1e299 virtual seconds, or one
// checkpoint round every 1e-300 of them. Create refuses both with a 400
// before anything touches the disk, and accepts the bounds themselves
// and every value an earlier release ran: a negative pace is max
// pacing, a 30 s checkpoint interval is the fault model's.
func TestCreateBoundsPaceAndCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name             string
		pace, checkpoint float64
		ok               bool
	}{
		{"max pacing", 0, 0, true},
		{"negative pace is max pacing", -1, 0, true},
		{"pace at the ceiling", maxPace, 0, true},
		{"checkpoint at the floor", 0, minCheckpointSeconds, true},
		{"checkpoint every 30 s", 0, 30, true},
		{"huge pace", 1e300, 0, false},
		{"pace just past the ceiling", math.Nextafter(maxPace, math.Inf(1)), 0, false},
		{"NaN pace", math.NaN(), 0, false},
		{"tiny checkpoint", 0, 1e-300, false},
		{"checkpoint under the floor", 0, minCheckpointSeconds / 2, false},
		{"negative checkpoint", 0, -600, false},
		{"infinite checkpoint", 0, math.Inf(1), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			mgr, err := NewManager(Options{Dir: root})
			if err != nil {
				t.Fatal(err)
			}
			defer mgr.Close()
			cfg := testConfig("")
			cfg.Pace, cfg.CheckpointSeconds = tc.pace, tc.checkpoint
			_, err = mgr.Create("bounds", cfg)
			if tc.ok {
				if err != nil {
					t.Fatalf("refused: %v", err)
				}
				return
			}
			var fe *Error
			if !errors.As(err, &fe) || fe.Status != http.StatusBadRequest {
				t.Fatalf("Create returned %v, want a 400", err)
			}
			if entries, err := os.ReadDir(root); err != nil || len(entries) != 0 {
				t.Fatalf("a refused config left %v behind (%v)", entries, err)
			}
		})
	}
}

// State already on disk opens as it was written, whatever Create accepts
// today: manifest entries and compaction snapshots with a negative pace
// and a 30 s checkpoint interval, with a half-second interval, and with
// a pace above the ceiling. The bounds guard new input only, so the
// daemon still starts on a durable root an earlier release wrote, and
// its fleets replay to the jobs and the report they had.
func TestRecoveryOpensStateCreateWouldRefuse(t *testing.T) {
	root := t.TempDir()
	type want struct {
		jobs, report any
	}
	wants := map[string]want{}
	var manifest manifestFile
	manifest.Format = manifestFormat
	for _, tc := range []struct {
		id               string
		pace, checkpoint float64
	}{
		{"negative-pace", -1, 30},
		{"half-second-checkpoint", 0, 0.5},
		{"fast-pace", 2 * maxPace, 0},
	} {
		cfg := testConfig(filepath.Join(root, tc.id))
		cfg.Pace, cfg.CheckpointSeconds = tc.pace, tc.checkpoint
		f, err := Open(tc.id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if tc.pace <= 0 {
			submitN(t, f, 12, 0) // past SnapshotInterval: a snapshot plus a WAL tail
			jobs, err := f.Jobs()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := f.Report()
			if err != nil {
				t.Fatal(err)
			}
			wants[tc.id] = want{jobs, rep}
		}
		f.Close()
		cfg.Dir = ""
		manifest.Fleets = append(manifest.Fleets, manifestEntry{ID: tc.id, Config: cfg})
	}
	// The manifest record is encoded as Manager.saveManifestLocked
	// encodes it.
	if err := publishJSON(filepath.Join(root, manifestName), ".fleets-*.json", "manifest", manifest); err != nil {
		t.Fatal(err)
	}

	mgr, err := NewManager(Options{Dir: root})
	if err != nil {
		t.Fatalf("the daemon does not start on state it wrote: %v", err)
	}
	defer mgr.Close()
	for _, e := range manifest.Fleets {
		f, err := mgr.Get(e.ID)
		if err != nil {
			t.Fatal(err)
		}
		if f.Pace() != e.Config.Pace {
			t.Errorf("%s: recovered pace %g, want %g", e.ID, f.Pace(), e.Config.Pace)
		}
		w, ok := wants[e.ID]
		if !ok {
			continue
		}
		jobs, err := f.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := f.Report()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(jobs, w.jobs) || !reflect.DeepEqual(rep, w.report) {
			t.Errorf("%s: recovery replayed to\n%+v\n%+v\nwant\n%+v\n%+v", e.ID, jobs, rep, w.jobs, w.report)
		}
	}
}

// A snapshot carries its own scheduling section; restoring one whose
// checkpoint interval is out of bounds fails like any unreplayable
// snapshot (422), and the fleet keeps serving its own timeline.
func TestRestoreRefusesTinyCheckpoint(t *testing.T) {
	cfg := testConfig(filepath.Join(t.TempDir(), "f"))
	cfg.SnapshotDir = t.TempDir()
	f, err := Open("bounds", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	submitN(t, f, 3, 0)
	snap := snapshotFile{Format: snapshotFormat, Config: Sched{Policy: "SB", Seed: 1, CheckpointSeconds: 1e-300}}
	if err := writeSnapshot(filepath.Join(cfg.SnapshotDir, "tiny.json"), snap); err != nil {
		t.Fatal(err)
	}
	var fe *Error
	if _, err := f.Restore("tiny.json"); !errors.As(err, &fe) || fe.Status != http.StatusUnprocessableEntity {
		t.Fatalf("restoring a 1e-300 s checkpoint interval returned %v, want a 422", err)
	}
	if info, err := f.Info(); err != nil || info.Jobs != 3 {
		t.Fatalf("after the refused restore the fleet holds %+v, %v; want its 3 jobs", info, err)
	}
}
