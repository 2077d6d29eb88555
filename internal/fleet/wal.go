package fleet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"energysched/internal/bodybuf"
	"energysched/internal/wirejson"
	"energysched/internal/workload"
)

// The durable admission log. Every state-changing admission decision
// (an admitted job, a workload seal) is appended to a per-fleet
// write-ahead log before it is applied to the in-memory simulation, so
// a crashed daemon recovers by replaying the log — and restore cost is
// bounded by the compaction interval instead of growing with the
// fleet's whole history.
//
// On-disk format: a sequence of length-prefixed records,
//
//	uint32 LE payload length | uint32 LE CRC-32C of payload | payload
//
// where the payload is one JSON-encoded walRecord. The CRC (Castagnoli
// polynomial, the checksum used by ext4 metadata and Kafka logs) makes
// a torn final record — the expected artifact of a crash mid-append —
// detectable: recovery keeps the longest valid prefix, truncates the
// rest, and logs a warning instead of refusing to start.
//
// One file is one timeline. Its first frame, the header, is a record of
// kind "snapshot" holding the state the records after it continue: the
// job log, the scheduling config and the timeline generation.
// Compaction, restore and follower bootstrap start a new timeline in one
// atomic step — the header alone goes to a temp file, which is fsynced
// and renamed over wal.log (publish) — so no crash can leave records of
// one timeline behind the snapshot of another. A log without a header is
// the empty timeline under the fleet's opened config: a fleet that was
// never compacted or restored.
//
// Since PR 6 the same framing is also the replication transport: a
// leader streams WAL records to a warm-standby follower inside
// identical length+CRC frames (internal/replication), so a torn or
// bit-flipped frame on the wire is detected exactly like a torn tail
// on disk. FrameReader is the shared streaming decoder for both.

// walHeaderSize is the fixed per-frame header: length + CRC.
const walHeaderSize = 8

// walMaxRecord bounds a single frame; a longer length prefix is
// treated as corruption rather than attempted as an allocation. A log's
// header is the exception: it holds the whole job log, so what
// announces it bounds it instead — the file's size on disk (scanWAL),
// the hello frame on the replication stream. A variable only so tests
// can lower it.
var walMaxRecord int64 = 16 << 20

var walCRCTable = crc32.MakeTable(crc32.Castagnoli)

// ErrTornFrame is returned by FrameReader.Next when the stream ends
// mid-frame or a frame fails its CRC: the bytes from the current
// offset on cannot be trusted. On disk this is a torn tail (recovery
// truncates it); on the replication transport it is a damaged or
// half-delivered frame (the follower reconnects and resumes at its
// last applied record offset).
var ErrTornFrame = errors.New("fleet: torn or corrupt frame")

// EncodeFrame wraps payload in the WAL's length+CRC framing. The same
// encoding is used for on-disk WAL records and replication frames.
func EncodeFrame(payload []byte) []byte {
	buf := make([]byte, walHeaderSize, walHeaderSize+len(payload))
	return sealFrame(append(buf, payload...))
}

// sealFrame fills in the length and CRC of a frame whose payload was
// appended after walHeaderSize reserved bytes.
func sealFrame(frame []byte) []byte {
	payload := frame[walHeaderSize:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, walCRCTable))
	return frame
}

// FrameReader is a streaming iterator over length-prefixed CRC-checked
// frames: the WAL file during recovery, or a replication stream on the
// wire. It consumes the underlying reader frame by frame, tracking the
// byte offset of the end of the last intact frame — which is exactly
// the resume point after a torn tail (truncate there) or a dropped
// connection (reconnect and continue from the last applied record).
type FrameReader struct {
	r      io.Reader
	offset int64 // end of the last intact frame
	frames int   // intact frames returned so far
}

// NewFrameReader returns an iterator reading frames from r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// frameChunk bounds what NextWithin allocates for a payload before its
// bytes arrive. A length prefix is the writer's claim: a longer payload
// grows, doubling, as it is read, so a torn or hostile prefix costs
// what was actually sent.
const frameChunk = 64 << 10

// Next returns the next frame's payload, a record's: NextWithin
// walMaxRecord.
func (fr *FrameReader) Next() ([]byte, error) { return fr.NextWithin(walMaxRecord) }

// NextWithin returns the next frame's payload, which may be at most n
// bytes long. It returns io.EOF at a clean frame boundary and
// ErrTornFrame when the stream ends mid-frame, the length prefix is
// zero or over n, or the payload fails its CRC — in every torn case
// Offset still reports the end of the last intact frame.
func (fr *FrameReader) NextWithin(n int64) ([]byte, error) {
	var header [walHeaderSize]byte
	if _, err := io.ReadFull(fr.r, header[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF // clean end
		}
		return nil, ErrTornFrame // short header
	}
	length := binary.LittleEndian.Uint32(header[0:4])
	sum := binary.LittleEndian.Uint32(header[4:8])
	if length == 0 || int64(length) > n {
		return nil, ErrTornFrame
	}
	payload, err := fr.readPayload(int(length))
	if err != nil {
		return nil, ErrTornFrame // short payload
	}
	if crc32.Checksum(payload, walCRCTable) != sum {
		return nil, ErrTornFrame // corrupt payload
	}
	fr.offset += int64(walHeaderSize) + int64(length)
	fr.frames++
	return payload, nil
}

// readPayload reads a payload of length bytes into a buffer that
// starts at frameChunk at most and grows as the bytes arrive.
func (fr *FrameReader) readPayload(length int) ([]byte, error) {
	payload := make([]byte, 0, min(length, frameChunk))
	for len(payload) < length {
		payload = slices.Grow(payload, min(len(payload), length-len(payload)))
		n, err := io.ReadFull(fr.r, payload[len(payload):min(cap(payload), length)])
		if payload = payload[:len(payload)+n]; err != nil {
			return nil, err
		}
	}
	return payload, nil
}

// Offset returns the byte offset of the end of the last intact frame.
func (fr *FrameReader) Offset() int64 { return fr.offset }

// Frames returns the number of intact frames returned so far.
func (fr *FrameReader) Frames() int { return fr.frames }

// Sync policies for WAL appends.
const (
	// SyncAlways fsyncs after every append (and every batch): an
	// acknowledged admission survives power loss. The default.
	SyncAlways = "always"
	// SyncOS leaves flushing to the OS page cache: an acknowledged
	// admission survives a process crash (SIGKILL) but not power loss.
	SyncOS = "os"
)

// walRecord is one logical WAL entry. Its JSON form is the record's
// payload on disk and on the replication stream; appendJSON and
// decodeJSON implement the tags.
type walRecord struct {
	// Kind is "admit" (Job set), "seal" (workload drained) or, for a
	// log's first frame only, "snapshot" (see walHeader).
	Kind string        `json:"kind"`
	Job  *workload.Job `json:"job,omitempty"`
}

const (
	walKindAdmit    = "admit"
	walKindSeal     = "seal"
	walKindSnapshot = "snapshot"
)

var (
	walKinds      = []string{walKindAdmit, walKindSeal, walKindSnapshot}
	walRecordKeys = wirejson.KeysOf[walRecord]()
)

func (rec walRecord) appendJSON(b []byte) ([]byte, error) {
	e := wirejson.Encoder{Buf: append(b, `{"kind":`...)}
	e.String(rec.Kind)
	if rec.Job != nil {
		e.Raw(`,"job":`)
		e.Add(rec.Job.AppendJSON(e.Buf))
	}
	e.Raw("}")
	return e.Buf, e.Err
}

func (rec *walRecord) decodeJSON(d *wirejson.Decoder) {
	for more := d.Object(walRecordKeys); more; more = d.More() {
		switch d.Key() {
		case "kind":
			d.String(&rec.Kind, walKinds)
		case "job":
			if d.Null() {
				rec.Job = nil
				continue
			}
			if rec.Job == nil {
				rec.Job = new(workload.Job)
			}
			rec.Job.DecodeJSON(d)
		default:
			d.Skip()
		}
	}
}

// encodeWALRecord returns rec's payload in an allocation of its own.
func encodeWALRecord(rec walRecord) (payload []byte, err error) {
	err = bodybuf.Encode(rec.appendJSON, func(b []byte) error {
		payload = bytes.Clone(b)
		return nil
	})
	return payload, err
}

// decodeWALRecord decodes one record payload.
func decodeWALRecord(payload []byte) (rec walRecord, err error) {
	err = wirejson.Unmarshal(payload, rec.decodeJSON)
	return rec, err
}

// walHeader is a timeline's first record: kind "snapshot" and the state
// the records after it continue, in snapshotFile's compact JSON. It
// holds no wall-clock value, so the same state writes the same bytes on
// a leader and on its follower.
type walHeader struct {
	Kind     string       `json:"kind"`
	Snapshot snapshotFile `json:"snapshot"`
}

// headerFrame encodes snap as a log's first frame, framing included, in
// one buffer.
func headerFrame(snap snapshotFile) ([]byte, error) {
	buf := make([]byte, walHeaderSize, walHeaderSize+64+snap.size())
	buf = append(buf, `{"kind":"snapshot","snapshot":`...)
	buf, err := snap.appendJSON(buf)
	if err != nil {
		return nil, err
	}
	buf = append(buf, '}')
	if uint64(len(buf)-walHeaderSize) > math.MaxUint32 {
		return nil, fmt.Errorf("fleet: a header of %d jobs overflows the frame's length field", len(snap.Jobs))
	}
	return sealFrame(buf), nil
}

// decodeHeader decodes a header payload: a record of kind "snapshot"
// whose snapshot is in the current format, at a generation ≥ 1.
func decodeHeader(payload []byte) (snapshotFile, error) {
	var h walHeader
	if err := json.Unmarshal(payload, &h); err != nil {
		return snapshotFile{}, err
	}
	if h.Kind != walKindSnapshot || h.Snapshot.Format != snapshotFormat || h.Snapshot.Gen < 1 {
		return snapshotFile{}, fmt.Errorf("fleet: not a wal header: kind %q, format %q, generation %d",
			h.Kind, h.Snapshot.Format, h.Snapshot.Gen)
	}
	return h.Snapshot, nil
}

// ErrTornWrite is the chaos harness's injected append failure: when a
// Config.WALFault hook returns it for an "append" op, the wal writes
// only a prefix of the frame before failing — the on-disk artifact of
// a crash mid-write — so recovery's torn-tail truncation is exercised
// against a live fleet instead of a hand-built file.
var ErrTornWrite = errors.New("fleet: injected torn write")

// wal is an open write-ahead log. Appends go to off, which the wal
// keeps itself rather than asking the file: it starts at the end of the
// recovered intact prefix, advances only when a whole frame is written,
// and rewind and replace set it. So a rollback point read with tell can
// never be wrong, whatever the file position did.
type wal struct {
	f       *os.File
	path    string
	sync    bool
	off     int64 // end of the last intact frame: the next append's offset
	records int   // records after the header currently in the file
	jobs    int   // jobs the header holds (0: no header)
	// fault, when set, is consulted before every append ("append"),
	// fsync ("sync"), rollback ("rewind"), and a new timeline's temp
	// write ("replace") and rename ("rename"); a non-nil return aborts
	// the op with that error. Fault injection only — nil in production.
	fault func(op string) error
}

// walTemp is the os.CreateTemp pattern of a new timeline's file before
// it is renamed over wal.log.
const walTemp = walName + ".tmp*"

// openWAL opens (creating if needed) the log at path, reads its header
// and every intact record after it, truncates any torn tail, and returns
// the log positioned for appends. head is the header's snapshot, nil for
// a log without one; recs are the records after it. dropped is the
// number of torn/corrupt tail bytes that had to be discarded (0 for a
// clean log).
func openWAL(path string, syncPolicy string, fault func(op string) error) (w *wal, head *snapshotFile, recs []walRecord, dropped int64, err error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, nil, 0, fmt.Errorf("fleet: opening wal: %w", err)
	}
	head, recs, good, dropped, err := scanWAL(f)
	if err != nil {
		f.Close()
		return nil, nil, nil, 0, err
	}
	if dropped > 0 {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, nil, 0, fmt.Errorf("fleet: truncating torn wal tail: %w", err)
		}
	}
	jobs := 0
	if head != nil {
		jobs = len(head.Jobs)
	}
	return &wal{
		f:       f,
		path:    path,
		sync:    syncPolicy != SyncOS,
		off:     good,
		records: len(recs),
		jobs:    jobs,
		fault:   fault,
	}, head, recs, dropped, nil
}

// scanWAL streams frames from the start of f via a FrameReader,
// returning the header's snapshot (if the first frame is one), the
// decoded records after it, the byte offset of the end of the last
// intact frame, and how many trailing bytes past that offset would have
// to be discarded. A snapshot frame anywhere but first ends the intact
// prefix like a frame that is not a record: one file never holds two
// timelines. An intact header that does not decode is an error.
func scanWAL(f *os.File) (head *snapshotFile, recs []walRecord, good, dropped int64, err error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("fleet: sizing wal: %w", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("fleet: seeking wal: %w", err)
	}
	fr := NewFrameReader(bufio.NewReader(f))
	// A header may outgrow walMaxRecord: the file it is in bounds it.
	for bound := size; ; bound = walMaxRecord {
		payload, err := fr.NextWithin(bound)
		if err != nil {
			// Clean EOF or a torn tail: either way the intact prefix
			// ends at fr.Offset() and everything past it is damage.
			return head, recs, fr.Offset(), size - fr.Offset(), nil
		}
		rec, err := decodeWALRecord(payload)
		if err == nil && rec.Kind == walKindSnapshot {
			if fr.Frames() > 1 {
				err = errors.New("fleet: snapshot frame after the log's first")
			} else if snap, herr := decodeHeader(payload); herr != nil {
				// An intact header this release cannot read is not a
				// torn tail: refuse to open rather than truncate it.
				return nil, nil, 0, 0, fmt.Errorf("fleet: wal header: %w", herr)
			} else {
				head = &snap
				continue
			}
		}
		if err != nil {
			// CRC passed but not a record of this log: stop at the
			// intact prefix.
			good := fr.Offset() - int64(walHeaderSize) - int64(len(payload))
			return head, recs, good, size - good, nil
		}
		recs = append(recs, rec)
	}
}

// append encodes and writes one record. With the always policy the
// record is fsynced before append returns; call flush after a batch
// when appending several records in one event-loop turn.
func (w *wal) append(rec walRecord, flush bool) error {
	payload, err := encodeWALRecord(rec)
	if err != nil {
		return fmt.Errorf("fleet: encoding wal record: %w", err)
	}
	return w.appendPayload(payload, flush)
}

// appendPayload writes one pre-marshaled record payload. The admission
// path marshals each record exactly once and reuses the bytes for the
// WAL append and the replication feed, so leader and follower logs are
// byte-identical.
func (w *wal) appendPayload(payload []byte, flush bool) error {
	frame := EncodeFrame(payload)
	if w.fault != nil {
		if err := w.fault("append"); err != nil {
			if errors.Is(err, ErrTornWrite) {
				// Leave half a frame behind, like a crash mid-write: the
				// record count is NOT bumped, so rollback rewinds over
				// the damage — and if rollback is also failed, recovery
				// must truncate it.
				w.f.WriteAt(frame[:len(frame)/2], w.off)
			}
			return fmt.Errorf("fleet: appending wal record: %w", err)
		}
	}
	if _, err := w.f.WriteAt(frame, w.off); err != nil {
		return fmt.Errorf("fleet: appending wal record: %w", err)
	}
	w.off += int64(len(frame))
	w.records++
	if flush {
		return w.flush()
	}
	return nil
}

// flush applies the sync policy after one or more appends.
func (w *wal) flush() error {
	if w.fault != nil {
		// Consulted regardless of policy: a disk-full ENOSPC bites the
		// buffered write path too, not just the fsync.
		if err := w.fault("sync"); err != nil {
			return fmt.Errorf("fleet: syncing wal: %w", err)
		}
	}
	if !w.sync {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("fleet: syncing wal: %w", err)
	}
	return nil
}

// tell returns the current append offset and record count, for
// rollback of a partially-appended batch.
func (w *wal) tell() (int64, int) {
	return w.off, w.records
}

// rewind truncates the log back to a tell()-saved position, undoing
// appends that could not be completed or acknowledged.
func (w *wal) rewind(off int64, records int) error {
	if w.fault != nil {
		if err := w.fault("rewind"); err != nil {
			return fmt.Errorf("fleet: rolling back wal: %w", err)
		}
	}
	if err := w.f.Truncate(off); err != nil {
		return fmt.Errorf("fleet: rolling back wal: %w", err)
	}
	w.off, w.records = off, records
	return nil
}

// replace starts a new timeline: the log becomes snap's header frame
// alone, published over the old file in one atomic step. On an error
// before the rename the old log is untouched and still the one appended
// to, and the directory keeps its mtime: recover reads it as the time
// the header was written. Once the rename has happened the new file is
// the log, even if a later step failed: appends go to it, or fail if it
// cannot be opened.
func (w *wal) replace(snap snapshotFile) error {
	frame, err := headerFrame(snap)
	if err != nil {
		return fmt.Errorf("fleet: encoding wal header: %w", err)
	}
	dir := filepath.Dir(w.path)
	before, serr := os.Stat(dir)
	renamed, err := publish(w.path, walTemp, "wal", frame, w.fault)
	if !renamed {
		if serr == nil {
			_ = os.Chtimes(dir, time.Time{}, before.ModTime()) // best effort: err is the failure to report
		}
		return err
	}
	_ = w.f.Close() // the replaced log: every record in it is in the header
	f, oerr := os.OpenFile(w.path, os.O_RDWR, 0)
	if oerr != nil {
		return errors.Join(err, fmt.Errorf("fleet: reopening wal: %w", oerr))
	}
	w.f, w.off, w.records, w.jobs = f, int64(len(frame)), 0, len(snap.Jobs)
	return err
}

// close releases the file handle.
func (w *wal) close() error {
	if w == nil || w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
