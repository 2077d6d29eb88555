package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"energysched"
	"energysched/internal/workload"
)

// The log's bytes are a format: a WAL, a snapshot or a replication
// stream written by one release is read by the next. testdata/golden
// holds an admit record (every field set), an admit record with every
// omitempty field empty, the seal record, a two-job snapshot.json and
// an empty fleet's snapshot.json exactly as the release before
// workload.Job carried the wire tags wrote them, and a two-fleet
// manifest (fleets.json) as the manifest is written today, beside
// fleets_shards.json, the same manifest as a release with a solver
// shard count wrote it.

func goldenJobs() []workload.Job {
	return []workload.Job{
		{ID: 0, Name: "alpha", Submit: 0, Duration: 1200, CPU: 200, Mem: 10, DeadlineFactor: 1.8,
			FaultTolerance: 0.25, Arch: "x86_64", Hypervisor: "xen"},
		{ID: 1, Submit: 60.5, Duration: 600, CPU: 100, Mem: 5, DeadlineFactor: 1.5},
	}
}

func golden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenLogBytes fails if a tag, an omitempty or the field order of
// the logged job drifts: what admitRecord, the seal and writeSnapshot
// produce is compared byte for byte, and the golden bytes decode back
// to the same jobs.
func TestGoldenLogBytes(t *testing.T) {
	jobs := goldenJobs()
	for i, name := range []string{"wal_admit.json", "wal_admit_minimal.json"} {
		want := golden(t, name)
		got, err := new(Fleet).admitRecord(&jobs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s drifted:\n got %s\nwant %s", name, got, want)
		}
		var rec walRecord
		if err := json.Unmarshal(want, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Kind != walKindAdmit || rec.Job == nil || *rec.Job != jobs[i] {
			t.Fatalf("%s decodes to %+v, want an admit of %+v", name, rec, jobs[i])
		}
	}
	if want := golden(t, "wal_seal.json"); !bytes.Equal(sealPayload, want) {
		t.Fatalf("seal record drifted: got %s want %s", sealPayload, want)
	}

	cfg := Config{Sched: Sched{Policy: "SB", Seed: 7, Cempty: 20, Cfill: 40, THempty: 1, HasScore: true}}.withDefaults()
	snap := snapshotFile{Format: snapshotFormat, SavedVirtual: 60.5, Gen: 2, Config: cfg.Sched, Jobs: jobs}
	path := filepath.Join(t.TempDir(), checkpointName)
	if err := writeSnapshot(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := golden(t, "snapshot.json"); !bytes.Equal(got, want) {
		t.Fatalf("snapshot.json drifted:\n got %s\nwant %s", got, want)
	}
	back, err := readSnapshot(filepath.Join("testdata", "golden", "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(back.Jobs, jobs) || back.Gen != 2 || back.SavedVirtual != 60.5 {
		t.Fatalf("golden snapshot decodes to %+v", back)
	}

	// An empty log is "jobs": [] — the admission log handed to the
	// snapshot uncopied must not turn that into null.
	f, err := Open("empty", Config{Sched: Sched{Policy: "SB", Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.call(func() error { return writeSnapshot(path, f.snapshotState()) }); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, golden(t, "snapshot_empty.json")) {
		t.Fatalf("empty fleet's snapshot drifted:\n%s", got)
	}
}

// goldenManifestConfigs are the two fleets of testdata/golden/fleets.json:
// one with every stored field set, one minimal with a score override.
func goldenManifestConfigs() map[string]Config {
	return map[string]Config{
		"full": {
			Sched: Sched{
				Policy: "SB1", Seed: 42, LambdaMin: 20, LambdaMax: 80,
				Cempty: 10, Cfill: 30, THempty: 2, HasScore: true,
				Failures: true, CheckpointSeconds: 600, AdaptiveTarget: 95,
				Classes: []energysched.NodeClass{{Name: "std", Count: 8, CPU: 400, Mem: 100,
					CreateCost: 40, MigrateCost: 60, BootTime: 100, Reliability: 0.99}},
			},
			Pace: 60, SnapshotDir: "snaps/full", EventRing: 512, SnapshotInterval: 32, WALSync: SyncOS,
			TraceVerbosity: "actions", TraceDepth: 64, SeriesDepth: 1024, JourneyDepth: 128,
			AdmitQueue: 64, RateLimit: 250.5, RateBurst: 500,
		},
		"minimal": {Sched: Sched{Cfill: 40, HasScore: true}},
	}
}

// TestGoldenManifestBytes: the manifest is a format too. Creating the
// two golden fleets writes fleets.json byte for byte, and a registry
// recovered from that file, or from fleets_shards.json (whose "shards"
// key decodes and is ignored), reopens both under those configs.
func TestGoldenManifestBytes(t *testing.T) {
	want := golden(t, manifestName)
	root := t.TempDir()
	mgr, err := NewManager(Options{Dir: root})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"full", "minimal"} {
		if _, err := mgr.Create(id, goldenManifestConfigs()[id]); err != nil {
			t.Fatal(err)
		}
	}
	mgr.Close()
	if got, _ := os.ReadFile(filepath.Join(root, manifestName)); !bytes.Equal(got, want) {
		t.Fatalf("fleets.json drifted:\n got %s\nwant %s", got, want)
	}

	for _, name := range []string{manifestName, "fleets_shards.json"} {
		root = t.TempDir()
		if err := os.WriteFile(filepath.Join(root, manifestName), golden(t, name), 0o644); err != nil {
			t.Fatal(err)
		}
		mgr, err := NewManager(Options{Dir: root})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mgr.Close() })
		for id, cfg := range goldenManifestConfigs() {
			f, err := mgr.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			cfg = cfg.withDefaults()
			if info, err := f.Info(); err != nil || info.Policy != cfg.Policy || info.Seed != cfg.Seed || info.Pace != cfg.Pace {
				t.Fatalf("%s: %s recovered as %+v, %v; want %+v", name, id, info, err, cfg)
			}
			var st snapshotFile
			if err := f.call(func() error { st = f.snapshotState(); return nil }); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(st.Config, cfg.Sched) {
				t.Fatalf("%s: %s replays under %+v, want %+v", name, id, st.Config, cfg.Sched)
			}
		}
	}
}

// settledGoroutines samples runtime.NumGoroutine until it holds still:
// exiting goroutines take a scheduler pass or two to disappear.
func settledGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(5 * time.Second); still < 20 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		if now := runtime.NumGoroutine(); now == n {
			still++
		} else {
			n, still = now, 0
		}
	}
	return n
}

// TestFleetOwnsOneGoroutine: an idle fleet at max pacing is its event
// loop and nothing else — the loop reads the admission queue itself —
// and Open → submit → Close leaves no goroutine behind.
func TestFleetOwnsOneGoroutine(t *testing.T) {
	before := settledGoroutines()
	f, err := Open("one", testConfig(filepath.Join(t.TempDir(), "f")))
	if err != nil {
		t.Fatal(err)
	}
	if idle := settledGoroutines(); idle != before+1 {
		f.Close()
		t.Fatalf("an idle open fleet owns %d goroutines, want exactly 1 (the event loop)", idle-before)
	}
	submitN(t, f, 12, 0)
	if _, err := f.SubmitBatch([]energysched.JobSpec{{CPU: 100, Mem: 5, Duration: 600}, {CPU: 200, Mem: 5, Duration: 300}}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if after := settledGoroutines(); after != before {
		t.Fatalf("Open → submit → Close left %d goroutines behind", after-before)
	}
}
