package fleet

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"energysched/internal/workload"
)

// walFrame wraps payload in the on-disk record framing (length + CRC).
func walFrame(payload []byte) []byte {
	var h [walHeaderSize]byte
	binary.LittleEndian.PutUint32(h[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[4:8], crc32.Checksum(payload, walCRCTable))
	return append(h[:], payload...)
}

// FuzzWALRecovery feeds arbitrary bytes to the WAL recovery path and
// checks the crash-safety contract on whatever comes back:
//
//  1. recovery never panics and never reports more records than it
//     returns;
//  2. recovery is idempotent — a recovered log reopens cleanly
//     (no torn tail the second time) with the identical record
//     sequence, because the first open truncated the damage away;
//  3. a recovered log is writable — an append lands after the intact
//     prefix and survives the next reopen;
//  4. a log holds one timeline: a snapshot frame is its header, first,
//     or not part of the recovered log at all.
//
// The seed corpus in testdata/fuzz covers the crash artifacts the
// format was designed around: a torn final record, a bit-flipped CRC,
// a bogus (oversized and zero) length prefix, and CRC-valid payloads
// that are not our JSON. The seeds below add a log that starts with a
// snapshot frame, and one with a snapshot frame after a record, whose
// recovery must stop before it.
func FuzzWALRecovery(f *testing.F) {
	admit := []byte(`{"kind":"admit","job":{"id":0,"submit_s":0,"duration_s":60,"cpu_pct":100,"mem_units":5,"deadline_factor":1.5}}`)
	seal := []byte(`{"kind":"seal"}`)
	valid := append(walFrame(admit), walFrame(seal)...)

	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	flipped := append([]byte(nil), valid...)
	flipped[walHeaderSize+2] ^= 0x40 // payload bit flip: CRC mismatch
	f.Add(flipped)
	bogus := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(bogus[len(walFrame(admit)):], 0xFFFFFFFF) // oversized length prefix
	f.Add(bogus)
	f.Add(walFrame([]byte(`[1,2,3]`)))           // CRC-valid, not a walRecord
	f.Add(append(valid, 0, 0, 0, 0, 0, 0, 0, 0)) // zero length prefix
	header, err := headerFrame(snapshotFile{Format: snapshotFormat, SavedVirtual: 0, Gen: 2, Jobs: []workload.Job{}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(header, valid...))                                      // a timeline: header, then records
	f.Add(append(append(walFrame(admit), header...), walFrame(seal)...)) // a second timeline's header after a record

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		w, head, recs, _, err := openWAL(path, SyncOS, nil)
		if err != nil {
			return // I/O-level refusal is fine; crashing is not
		}
		if w.records != len(recs) {
			t.Fatalf("open: counter %d != %d recovered records", w.records, len(recs))
		}
		for i, rec := range recs {
			if rec.Kind == walKindSnapshot {
				t.Fatalf("record %d after the header is a snapshot frame", i)
			}
		}
		w.close()

		w2, head2, recs2, dropped2, err := openWAL(path, SyncOS, nil)
		if err != nil {
			t.Fatalf("reopen after recovery: %v", err)
		}
		if dropped2 != 0 {
			t.Fatal("tail still torn after recovery truncated it")
		}
		if !reflect.DeepEqual(recs, recs2) || !reflect.DeepEqual(head, head2) {
			t.Fatalf("recovery not idempotent:\nfirst:  %+v\nsecond: %+v", recs, recs2)
		}

		if err := appendRecord(w2, walRecord{Kind: walKindSeal}, true); err != nil {
			t.Fatalf("append to recovered log: %v", err)
		}
		w2.close()
		w3, _, recs3, dropped3, err := openWAL(path, SyncOS, nil)
		if err != nil || dropped3 != 0 {
			t.Fatalf("reopen after append: err=%v dropped=%d", err, dropped3)
		}
		if len(recs3) != len(recs2)+1 || recs3[len(recs3)-1].Kind != walKindSeal {
			t.Fatalf("append lost: %d records after appending to %d", len(recs3), len(recs2))
		}
		w3.close()
	})
}
