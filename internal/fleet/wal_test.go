package fleet

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"energysched/internal/workload"
)

func walJob(id int) *workload.Job {
	return &workload.Job{ID: id, Submit: float64(id) * 30, Duration: 600, CPU: 100, Mem: 5, DeadlineFactor: 1.5}
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, recs, dropped, err := openWAL(path, SyncAlways, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || dropped != 0 {
		t.Fatalf("fresh wal: recs=%d dropped=%d", len(recs), dropped)
	}
	for i := 0; i < 10; i++ {
		if err := w.append(walRecord{Kind: walKindAdmit, Job: walJob(i)}, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.append(walRecord{Kind: walKindSeal}, true); err != nil {
		t.Fatal(err)
	}
	if w.records != 11 {
		t.Fatalf("records = %d, want 11", w.records)
	}
	w.close()

	w2, recs, dropped, err := openWAL(path, SyncAlways, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.close()
	if dropped != 0 {
		t.Fatal("clean log reported torn")
	}
	if len(recs) != 11 || w2.records != 11 {
		t.Fatalf("reopen: %d records, wal count %d", len(recs), w2.records)
	}
	for i := 0; i < 10; i++ {
		if recs[i].Kind != walKindAdmit || recs[i].Job == nil || recs[i].Job.ID != i {
			t.Fatalf("record %d = %+v", i, recs[i])
		}
	}
	if recs[10].Kind != walKindSeal {
		t.Fatalf("last record = %+v", recs[10])
	}
}

// A crash mid-append leaves a torn final record: recovery must keep
// the intact prefix, truncate the garbage, and stay appendable.
func TestWALTornTailTruncatedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, _, err := openWAL(path, SyncAlways, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.append(walRecord{Kind: walKindAdmit, Job: walJob(i)}, true); err != nil {
			t.Fatal(err)
		}
	}
	goodSize, _ := w.tell()
	w.close()

	// Simulate the torn append: half a record's worth of bytes.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{42, 0, 0, 0, 99, 99}) // short header+payload fragment
	f.Close()

	w2, recs, dropped, err := openWAL(path, SyncAlways, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 {
		t.Fatal("torn tail not reported")
	}
	if len(recs) != 5 {
		t.Fatalf("recovered %d records, want 5", len(recs))
	}
	if off, _ := w2.tell(); off != goodSize {
		t.Fatalf("append offset %d, want truncated to %d", off, goodSize)
	}
	// The log must be appendable again after truncation.
	if err := w2.append(walRecord{Kind: walKindAdmit, Job: walJob(5)}, true); err != nil {
		t.Fatal(err)
	}
	w2.close()
	_, recs, dropped, err = openWAL(path, SyncAlways, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 || len(recs) != 6 {
		t.Fatalf("after repair+append: dropped=%d records=%d", dropped, len(recs))
	}
}

// Bit rot in the final record's payload must be caught by the CRC.
func TestWALTornTailCRCMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, _, err := openWAL(path, SyncAlways, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.append(walRecord{Kind: walKindAdmit, Job: walJob(i)}, true); err != nil {
			t.Fatal(err)
		}
	}
	w.close()

	// Flip one byte in the last record's payload.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, recs, dropped, err := openWAL(path, SyncAlways, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 || len(recs) != 2 {
		t.Fatalf("corrupt tail: dropped=%d records=%d, want torn with 2 intact", dropped, len(recs))
	}
}

// A record whose length prefix is absurd must be treated as tail
// corruption, not attempted as an allocation.
func TestWALTornTailBogusLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, _, err := openWAL(path, SyncAlways, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(walRecord{Kind: walKindAdmit, Job: walJob(0)}, true); err != nil {
		t.Fatal(err)
	}
	w.close()
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 1<<30) // 1 GiB "record"
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(nil, walCRCTable))
	f.Write(hdr[:])
	f.Close()
	_, recs, dropped, err := openWAL(path, SyncAlways, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 || len(recs) != 1 {
		t.Fatalf("bogus length: dropped=%d records=%d", dropped, len(recs))
	}
}

// TestWALTellTracksFileSize: the append offset tell reports is the
// file's intact length through appends, a torn write, a rewind, a reset
// and a reopen. A torn write leaves its damage past that offset, so
// tell still names the point a rollback truncates to.
func TestWALTellTracksFileSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	var tear bool
	fault := func(op string) error {
		if op == "append" && tear {
			return ErrTornWrite
		}
		return nil
	}
	size := func() int64 {
		t.Helper()
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	check := func(w *wal, step string) {
		t.Helper()
		if off, _ := w.tell(); off != size() {
			t.Fatalf("after %s: tell() = %d, file holds %d bytes", step, off, size())
		}
	}

	w, _, _, err := openWAL(path, SyncOS, fault)
	if err != nil {
		t.Fatal(err)
	}
	check(w, "open")
	for i := 0; i < 3; i++ {
		if err := w.append(walRecord{Kind: walKindAdmit, Job: walJob(i)}, true); err != nil {
			t.Fatal(err)
		}
		check(w, "append")
	}
	off, records := w.tell()
	tear = true
	if err := w.append(walRecord{Kind: walKindAdmit, Job: walJob(3)}, true); !errors.Is(err, ErrTornWrite) {
		t.Fatalf("torn append returned %v", err)
	}
	tear = false
	if got, _ := w.tell(); got != off || size() <= off {
		t.Fatalf("after a torn write: tell() = %d, file %d bytes; want tell at the intact end %d with damage past it", got, size(), off)
	}
	if err := w.rewind(off, records); err != nil {
		t.Fatal(err)
	}
	check(w, "rewind")
	if err := w.append(walRecord{Kind: walKindAdmit, Job: walJob(3)}, true); err != nil {
		t.Fatal(err)
	}
	check(w, "append after rewind")
	w.close()

	w, recs, dropped, err := openWAL(path, SyncOS, fault)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if len(recs) != 4 || dropped != 0 {
		t.Fatalf("reopen: %d records, %d bytes dropped", len(recs), dropped)
	}
	check(w, "reopen")
	if err := w.reset(); err != nil {
		t.Fatal(err)
	}
	check(w, "reset")
	if err := w.append(walRecord{Kind: walKindSeal}, true); err != nil {
		t.Fatal(err)
	}
	check(w, "append after reset")
}

func TestWALRewindAndReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, _, err := openWAL(path, SyncOS, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	w.append(walRecord{Kind: walKindAdmit, Job: walJob(0)}, true)
	off, n := w.tell()
	w.append(walRecord{Kind: walKindAdmit, Job: walJob(1)}, false)
	w.append(walRecord{Kind: walKindAdmit, Job: walJob(2)}, false)
	if err := w.rewind(off, n); err != nil {
		t.Fatal(err)
	}
	if w.records != 1 {
		t.Fatalf("after rewind: %d records", w.records)
	}
	// An append after rewind lands where the rolled-back batch was.
	if err := w.append(walRecord{Kind: walKindSeal}, true); err != nil {
		t.Fatal(err)
	}
	w.close()
	_, recs, dropped, err := openWAL(path, SyncOS, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 || len(recs) != 2 || recs[1].Kind != walKindSeal {
		t.Fatalf("after rewind+append: dropped=%d recs=%+v", dropped, recs)
	}

	w2, _, _, err := openWAL(path, SyncOS, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.close()
	if err := w2.reset(); err != nil {
		t.Fatal(err)
	}
	if w2.records != 0 {
		t.Fatalf("after reset: %d records", w2.records)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 0 {
		t.Fatalf("after reset: %d bytes on disk", st.Size())
	}
}
