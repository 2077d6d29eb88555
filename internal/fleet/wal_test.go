package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"energysched/internal/workload"
)

// appendRecord encodes rec and appends it, as the admission path does.
func appendRecord(w *wal, rec walRecord, flush bool) error {
	frame, err := appendRecordFrame(nil, rec)
	if err != nil {
		return err
	}
	return w.appendFrame(frame, flush)
}

// framesEnd returns where the frames of the log at path end, failing
// the test unless every byte after them is zero.
func framesEnd(t *testing.T, path string) int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(bytes.NewReader(data))
	for {
		if _, err := fr.NextWithin(int64(len(data))); err != nil {
			break
		}
	}
	end := fr.Offset()
	if i := bytes.IndexFunc(data[end:], func(r rune) bool { return r != 0 }); i >= 0 {
		t.Fatalf("the log's frames end at %d, but byte %d after them is not zero", end, end+int64(i))
	}
	return end
}

func walJob(id int) *workload.Job {
	return &workload.Job{ID: id, Submit: float64(id) * 30, Duration: 600, CPU: 100, Mem: 5, DeadlineFactor: 1.5}
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, recs, dropped, err := openWAL(path, SyncAlways, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || dropped != 0 {
		t.Fatalf("fresh wal: recs=%d dropped=%d", len(recs), dropped)
	}
	for i := 0; i < 10; i++ {
		if err := appendRecord(w, walRecord{Kind: walKindAdmit, Job: walJob(i)}, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := appendRecord(w, walRecord{Kind: walKindSeal}, true); err != nil {
		t.Fatal(err)
	}
	if w.records != 11 {
		t.Fatalf("records = %d, want 11", w.records)
	}
	w.close()

	w2, _, recs, dropped, err := openWAL(path, SyncAlways, nil)
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
	w, _, _, _, err := openWAL(path, SyncAlways, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := appendRecord(w, walRecord{Kind: walKindAdmit, Job: walJob(i)}, true); err != nil {
			t.Fatal(err)
		}
	}
	goodSize := w.tell().off
	w.close()

	// Simulate the torn append: half a record's worth of bytes.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{42, 0, 0, 0, 99, 99}) // short header+payload fragment
	f.Close()

	w2, _, recs, dropped, err := openWAL(path, SyncAlways, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 {
		t.Fatal("torn tail not reported")
	}
	if len(recs) != 5 {
		t.Fatalf("recovered %d records, want 5", len(recs))
	}
	if off := w2.tell().off; off != goodSize {
		t.Fatalf("append offset %d, want truncated to %d", off, goodSize)
	}
	// The log must be appendable again after truncation.
	if err := appendRecord(w2, walRecord{Kind: walKindAdmit, Job: walJob(5)}, true); err != nil {
		t.Fatal(err)
	}
	w2.close()
	_, _, recs, dropped, err = openWAL(path, SyncAlways, nil)
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
	w, _, _, _, err := openWAL(path, SyncAlways, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := appendRecord(w, walRecord{Kind: walKindAdmit, Job: walJob(i)}, true); err != nil {
			t.Fatal(err)
		}
	}
	end := w.tell().off
	w.close()

	// Flip one byte in the last record's payload.
	if got := framesEnd(t, path); got != end {
		t.Fatalf("the log's frames end at %d, tell() says %d", got, end)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[end-2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, recs, dropped, err := openWAL(path, SyncAlways, nil)
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
	w, _, _, _, err := openWAL(path, SyncAlways, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := appendRecord(w, walRecord{Kind: walKindAdmit, Job: walJob(0)}, true); err != nil {
		t.Fatal(err)
	}
	w.close()
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 1<<30) // 1 GiB "record"
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(nil, walCRCTable))
	f.Write(hdr[:])
	f.Close()
	_, _, recs, dropped, err := openWAL(path, SyncAlways, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 || len(recs) != 1 {
		t.Fatalf("bogus length: dropped=%d records=%d", dropped, len(recs))
	}
}

// TestWALTellTracksFileSize: the append offset tell reports is where
// the file's frames end, with only zeros after them, through appends, a
// torn write, a rewind, a replace and a reopen. A torn write leaves its
// damage past that offset, so tell still names the point a rollback
// returns to.
func TestWALTellTracksFileSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	var tear bool
	fault := func(op string) error {
		if op == "append" && tear {
			return ErrTornWrite
		}
		return nil
	}
	check := func(w *wal, step string) {
		t.Helper()
		if off, end := w.tell().off, framesEnd(t, path); off != end {
			t.Fatalf("after %s: tell() = %d, the file's frames end at %d", step, off, end)
		}
	}

	w, _, _, _, err := openWAL(path, SyncOS, fault)
	if err != nil {
		t.Fatal(err)
	}
	check(w, "open")
	for i := 0; i < 3; i++ {
		if err := appendRecord(w, walRecord{Kind: walKindAdmit, Job: walJob(i)}, true); err != nil {
			t.Fatal(err)
		}
		check(w, "append")
	}
	mark := w.tell()
	tear = true
	if err := appendRecord(w, walRecord{Kind: walKindAdmit, Job: walJob(3)}, true); !errors.Is(err, ErrTornWrite) {
		t.Fatalf("torn append returned %v", err)
	}
	tear = false
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.tell().off; got != mark.off || !bytes.ContainsFunc(data[mark.off:], func(r rune) bool { return r != 0 }) {
		t.Fatalf("after a torn write: tell() = %d, file %d bytes; want tell at the intact end %d with damage past it", got, len(data), mark.off)
	}
	if err := w.rewind(mark); err != nil {
		t.Fatal(err)
	}
	check(w, "rewind")
	if err := appendRecord(w, walRecord{Kind: walKindAdmit, Job: walJob(3)}, true); err != nil {
		t.Fatal(err)
	}
	check(w, "append after rewind")
	w.close()

	w, _, recs, dropped, err := openWAL(path, SyncOS, fault)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if len(recs) != 4 || dropped != 0 {
		t.Fatalf("reopen: %d records, %d bytes dropped", len(recs), dropped)
	}
	check(w, "reopen")
	if err := w.replace(snapshotFile{Format: snapshotFormat, Gen: 1, Jobs: logOf([]workload.Job{*walJob(0)})}); err != nil {
		t.Fatal(err)
	}
	check(w, "replace")
	if err := appendRecord(w, walRecord{Kind: walKindSeal}, true); err != nil {
		t.Fatal(err)
	}
	check(w, "append after replace")
}

func TestWALRewindAndReplace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, _, _, err := openWAL(path, SyncOS, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	appendRecord(w, walRecord{Kind: walKindAdmit, Job: walJob(0)}, true)
	mark := w.tell()
	appendRecord(w, walRecord{Kind: walKindAdmit, Job: walJob(1)}, false)
	appendRecord(w, walRecord{Kind: walKindAdmit, Job: walJob(2)}, false)
	if err := w.rewind(mark); err != nil {
		t.Fatal(err)
	}
	if w.records != 1 {
		t.Fatalf("after rewind: %d records", w.records)
	}
	// An append after rewind lands where the rolled-back batch was.
	if err := appendRecord(w, walRecord{Kind: walKindSeal}, true); err != nil {
		t.Fatal(err)
	}
	w.close()
	_, _, recs, dropped, err := openWAL(path, SyncOS, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 || len(recs) != 2 || recs[1].Kind != walKindSeal {
		t.Fatalf("after rewind+append: dropped=%d recs=%+v", dropped, recs)
	}

	// replace makes the log one header frame: the records are gone, the
	// header is not counted as one, and appends continue after it.
	w2, _, _, _, err := openWAL(path, SyncOS, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.close()
	snap := snapshotFile{Format: snapshotFormat, SavedVirtual: 30, Gen: 3, Jobs: logOf([]workload.Job{*walJob(0), *walJob(1)})}
	if err := w2.replace(snap); err != nil {
		t.Fatal(err)
	}
	if w2.records != 0 {
		t.Fatalf("after replace: %d records", w2.records)
	}
	frame, err := headerFrame(snap)
	if err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, frame) {
		t.Fatalf("after replace the log holds %d bytes (%v), want the %d-byte header frame alone", len(data), err, len(frame))
	}
	if err := appendRecord(w2, walRecord{Kind: walKindAdmit, Job: walJob(2)}, true); err != nil {
		t.Fatal(err)
	}
	w2.close()
	_, head, recs, dropped, err := openWAL(path, SyncOS, nil)
	if err != nil || dropped != 0 {
		t.Fatalf("reopen after replace: %v, %d bytes dropped", err, dropped)
	}
	if head == nil || head.Gen != 3 || head.Jobs.Len() != 2 || len(recs) != 1 || recs[0].Job.ID != 2 {
		t.Fatalf("reopen after replace: header %+v, records %+v", head, recs)
	}
	if stale, _ := filepath.Glob(filepath.Join(filepath.Dir(path), walTemp)); len(stale) != 0 {
		t.Fatalf("replace left temp files behind: %v", stale)
	}
}

// walWithRecords returns the path of a closed log of n admit records
// and where its frames end.
func walWithRecords(t *testing.T, n int) (path string, end int64) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "wal.log")
	w, _, _, _, err := openWAL(path, SyncOS, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := appendRecord(w, walRecord{Kind: walKindAdmit, Job: walJob(i)}, true); err != nil {
			t.Fatal(err)
		}
	}
	end = w.tell().off
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	return path, end
}

// TestWALZeroTailDamage: a tail of zeros after the last frame is clean,
// but any non-zero byte in it is damage — half a frame written into the
// zeros, or a byte after a zero length prefix, near it or at the file's
// last byte. Recovery keeps the intact records and truncates the rest,
// zeros included.
func TestWALZeroTailDamage(t *testing.T) {
	half, err := appendRecordFrame(nil, walRecord{Kind: walKindAdmit, Job: walJob(3)})
	if err != nil {
		t.Fatal(err)
	}
	half = half[:len(half)/2]
	for _, tc := range []struct {
		name  string
		write func(end, size int64) ([]byte, int64)
	}{
		{"half a frame", func(end, _ int64) ([]byte, int64) { return half, end }},
		{"a byte after a zero length prefix", func(end, _ int64) ([]byte, int64) { return []byte{1}, end + walHeaderSize }},
		{"the file's last byte", func(_, size int64) ([]byte, int64) { return []byte{1}, size - 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path, end := walWithRecords(t, 3)
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			b, at := tc.write(end, st.Size())
			if at+int64(len(b)) > st.Size() {
				t.Fatalf("damage at %d+%d passes the file's %d bytes: it would not be inside the zero tail", at, len(b), st.Size())
			}
			if _, err := f.WriteAt(b, at); err != nil {
				t.Fatal(err)
			}
			f.Close()

			w, _, recs, dropped, err := openWAL(path, SyncOS, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			if len(recs) != 3 || dropped != st.Size()-end {
				t.Fatalf("recovered %d records, dropped %d bytes; want 3 records and the %d bytes past them", len(recs), dropped, st.Size()-end)
			}
			if after, err := os.Stat(path); err != nil || after.Size() != end {
				t.Fatalf("after recovery the file is %v (%v), want truncated to %d bytes", after.Size(), err, end)
			}
		})
	}
}

// TestWALOldFormatGrows: a log written before the zero tail ends at its
// last frame. It reopens clean, and its next append grows it to a step
// boundary like any other.
func TestWALOldFormatGrows(t *testing.T) {
	path, end := walWithRecords(t, 3)
	if err := os.Truncate(path, end); err != nil {
		t.Fatal(err)
	}
	w, _, recs, dropped, err := openWAL(path, SyncOS, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || dropped != 0 || w.tell().off != end {
		t.Fatalf("old-format log reopened with %d records, %d bytes dropped, tell %d; want 3, 0, %d", len(recs), dropped, w.tell().off, end)
	}
	if err := appendRecord(w, walRecord{Kind: walKindSeal}, true); err != nil {
		t.Fatal(err)
	}
	w.close()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != walGrowStep {
		t.Fatalf("after an append the old-format log holds %d bytes, want one %d-byte step", st.Size(), walGrowStep)
	}
	_, _, recs, dropped, err = openWAL(path, SyncOS, nil)
	if err != nil || dropped != 0 || len(recs) != 4 || recs[3].Kind != walKindSeal {
		t.Fatalf("reopen after growth: %d records, %d bytes dropped (%v)", len(recs), dropped, err)
	}
}

// TestWALAppendKeepsFileSize: the fsync of an append that stays inside
// the file commits no new size, so the file's size changes only when a
// frame passes its end, and then to the step boundary after the frame.
// The log starts unaligned (a log written before the zero tail), so
// growth by a step from the old end would show. A frame longer than a
// step grows the file by as many steps as it needs.
func TestWALAppendKeepsFileSize(t *testing.T) {
	path, end := walWithRecords(t, 1)
	if err := os.Truncate(path, end); err != nil {
		t.Fatal(err)
	}
	w, _, _, _, err := openWAL(path, SyncOS, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	size := func() int64 {
		t.Helper()
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	grow := func(frame []byte) (before, after int64) {
		t.Helper()
		before = size()
		if err := w.appendFrame(frame, true); err != nil {
			t.Fatal(err)
		}
		after = size()
		end := w.tell().off
		want := before
		if end > before {
			want = (end + walGrowStep - 1) / walGrowStep * walGrowStep
		}
		if after != want {
			t.Fatalf("a frame ending at %d took the file from %d to %d bytes, want %d", end, before, after, want)
		}
		return before, after
	}
	changes := 0
	for i := 1; i <= 1000; i++ {
		frame, err := appendRecordFrame(nil, walRecord{Kind: walKindAdmit, Job: walJob(i)})
		if err != nil {
			t.Fatal(err)
		}
		if before, after := grow(frame); after != before {
			changes++
		}
	}
	if changes < 2 {
		t.Fatalf("1000 appends changed the file's size %d times: the test crossed too few step boundaries", changes)
	}
	big := EncodeFrame(append([]byte(`{"kind":"seal","pad":"`), append(bytes.Repeat([]byte("x"), 2*walGrowStep), `"}`...)...))
	if before, after := grow(big); after-before < 2*walGrowStep {
		t.Fatalf("a %d-byte frame grew the file by %d bytes", len(big), after-before)
	}
	if end := framesEnd(t, path); end != w.tell().off {
		t.Fatalf("the log's frames end at %d, tell() says %d", end, w.tell().off)
	}
	w.close()
	_, _, recs, dropped, err := openWAL(path, SyncOS, nil)
	if err != nil || dropped != 0 || len(recs) != 1002 || recs[1001].Kind != walKindSeal {
		t.Fatalf("reopen: %d records, %d bytes dropped (%v); want 1002 ending in the padded seal", len(recs), dropped, err)
	}
}
