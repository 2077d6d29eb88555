package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"energysched/internal/blocks"
	"energysched/internal/wirejson"
	"energysched/internal/workload"
)

// Snapshots are event-sourced: because the simulation is fully
// deterministic given its configuration and the admitted-job log, a
// checkpoint needs only those inputs plus the virtual-time watermark
// — not the event queue, meters or RNG internals. Restore rebuilds a
// fresh simulation and replays the log up to the watermark, landing
// bit-for-bit on the saved state (the same argument that makes online
// admission byte-identical to offline replay; see
// docs/ARCHITECTURE.md, "Service mode"). Restore time linear in
// *snapshotted* history is the price, and the format cannot
// desynchronize from engine internals across versions.
//
// A snapshot has two homes. An API snapshot (POST …/snapshot) is a file
// of its own, indented JSON. A fleet's durable state is one file per
// timeline: the first frame of its wal.log holds the snapshot, compact,
// and the admission records follow it (wal.go).

// snapshotFormat identifies the snapshot file layout. The layout is
// unchanged since PR 3, so pre-fleet snapshots restore into any fleet.
const snapshotFormat = "energyschedd-snapshot/v1"

// walName is the per-fleet admission log inside Config.Dir.
const walName = "wal.log"

type snapshotFile struct {
	Format       string  `json:"format"`
	SavedVirtual float64 `json:"saved_virtual_s"`
	Sealed       bool    `json:"sealed"`
	// Gen is the timeline generation the snapshot belongs to: ≥ 1 in a
	// log header, absent from API snapshot files older than generations.
	// Restores bump it; replication followers adopt the leader's, so a
	// follower never splices records from two different timelines.
	Gen int64 `json:"gen,omitempty"`
	// Config is the scheduling config the jobs were acknowledged under
	// and replay under.
	Config Sched  `json:"config"`
	Jobs   jobLog `json:"jobs"`
}

// jobLog is an admission log: jobs in VM-ID order, kept in blocks that
// never move, so the log a fleet appends to for its whole life is
// never copied as it grows.
type jobLog struct{ blocks.Store[workload.Job] }

// UnmarshalJSON decodes a job list into the log's blocks: the one copy
// a decoded log takes on its way into a fleet.
func (l *jobLog) UnmarshalJSON(data []byte) error {
	var jobs []workload.Job
	if err := json.Unmarshal(data, &jobs); err != nil {
		return err
	}
	*l = logOf(jobs)
	return nil
}

// logOf copies jobs into a new log.
func logOf(jobs []workload.Job) jobLog {
	var s blocks.Store[workload.Job]
	for _, j := range jobs {
		s.Append(j)
	}
	return jobLog{Store: s}
}

// snapshotState assembles the snapshot of the current actor state. The
// job list is the admission log itself, not a copy: every caller
// encodes the snapshot before the event loop's next turn. Call only
// from the event loop.
func (f *Fleet) snapshotState() snapshotFile {
	return snapshotFile{
		Format:       snapshotFormat,
		SavedVirtual: f.sim.Now(),
		Sealed:       f.sim.Sealed(),
		Gen:          f.gen,
		Config:       f.cfg.Sched,
		Jobs:         f.jobs,
	}
}

// MarshalJSON writes the snapshot with its job log through the jobs'
// codec in one buffer: encoding/json would call Job.MarshalJSON, and
// allocate, once per logged job. The bytes are encoding/json's for the
// tags above.
func (s snapshotFile) MarshalJSON() ([]byte, error) {
	return s.appendJSON(make([]byte, 0, s.size()))
}

// size is a capacity that holds the snapshot's JSON without regrowing.
func (s snapshotFile) size() int { return 512 + snapshotJobBytes*s.Jobs.Len() }

func (s snapshotFile) appendJSON(b []byte) ([]byte, error) {
	cfg, err := json.Marshal(s.Config)
	if err != nil {
		return nil, err
	}
	e := wirejson.Encoder{Buf: append(b, `{"format":`...)}
	e.String(s.Format)
	e.Raw(`,"saved_virtual_s":`)
	e.Float(s.SavedVirtual)
	e.Raw(`,"sealed":`)
	e.Bool(s.Sealed)
	if s.Gen != 0 {
		e.Raw(`,"gen":`)
		e.Buf = strconv.AppendInt(e.Buf, s.Gen, 10)
	}
	e.Raw(`,"config":`)
	e.Buf = append(e.Buf, cfg...)
	e.Raw(`,"jobs":[`) // an empty log is written "[]", never "null"
	for i, j := range s.Jobs.All() {
		if i > 0 {
			e.Raw(",")
		}
		e.Add(j.AppendJSON(e.Buf))
	}
	e.Raw("]}")
	return e.Buf, e.Err
}

// snapshotJobBytes is what one logged job takes in a snapshot, with
// room to spare so the buffer is not regrown. The serve_wal benchmark
// writes 189.3 WAL bytes per job: an 8-byte frame header, the 23-byte
// admit envelope and 158 bytes of job.
const snapshotJobBytes = 168

// writeSnapshot persists an API snapshot atomically.
func writeSnapshot(path string, snap snapshotFile) error {
	return publishJSON(path, ".snapshot-*.json", "snapshot", snap)
}

// publishJSON publishes v as two-space-indented JSON with a trailing
// newline: the format of API snapshots and of the manifest.
func publishJSON(path, tmp, what string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("fleet: encoding %s: %w", what, err)
	}
	_, err = publish(path, tmp, what, append(data, '\n'), nil)
	return err
}

// publish writes data to path atomically: the bytes go to a temp file
// in the same directory (tmp is its os.CreateTemp pattern), are fsynced,
// and only then renamed over path, and the directory is fsynced after
// the rename. So a crash at any point leaves either the old file or the
// new one under path — never a torn one, and never a name that points
// at bytes still in the page cache or a rename still in it. A failed
// attempt removes its temp file. what names the artefact in errors
// ("snapshot", "manifest", "wal"); renamed reports whether the new file
// is under path, which it is even if the directory fsync then failed.
//
// fault, when set, is consulted before the temp write ("replace") and
// before the rename ("rename"), like Config.WALFault. A rename fault
// stops where a crash between the two would: the temp file stays, for
// Open to remove.
func publish(path, tmp, what string, data []byte, fault func(op string) error) (renamed bool, err error) {
	dir := filepath.Dir(path)
	file, err := os.CreateTemp(dir, tmp)
	if err != nil {
		return false, fmt.Errorf("fleet: %s temp file: %w", what, err)
	}
	if fault != nil {
		err = fault("replace")
	}
	if err == nil {
		_, err = file.Write(data)
	}
	if err == nil {
		err = file.Sync()
	}
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err == nil && fault != nil {
		if err = fault("rename"); err != nil {
			return false, fmt.Errorf("fleet: publishing %s: %w", what, err)
		}
	}
	if err == nil {
		err = os.Rename(file.Name(), path)
	}
	if err != nil {
		_ = os.Remove(file.Name()) // best effort: err is the failure to report
		return false, fmt.Errorf("fleet: publishing %s: %w", what, err)
	}
	if err := syncDir(dir); err != nil {
		return true, fmt.Errorf("fleet: publishing %s: %w", what, err)
	}
	return true, nil
}

// syncDir fsyncs a directory, making the renames in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// readSnapshot loads and validates a snapshot file.
func readSnapshot(path string) (snapshotFile, error) {
	var snap snapshotFile
	data, err := os.ReadFile(path)
	if err != nil {
		return snap, fmt.Errorf("fleet: reading snapshot: %w", err)
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return snap, fmt.Errorf("fleet: decoding snapshot %s: %w", path, err)
	}
	if snap.Format != snapshotFormat {
		return snap, fmt.Errorf("fleet: %s: unsupported snapshot format %q", path, snap.Format)
	}
	return snap, nil
}
