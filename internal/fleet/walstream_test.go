package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/iotest"
)

// The streaming frame iterator is both the WAL recovery scanner and
// the replication transport decoder, so its contract is tested on raw
// byte streams: resume at every record boundary, survive a disconnect
// at every byte position, and reject every CRC flip.

// streamFrames builds a stream of n distinct frames and returns the
// stream plus each frame's payload and end offset.
func streamFrames(n int) (stream []byte, payloads [][]byte, ends []int64) {
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		p := []byte(fmt.Sprintf(`{"kind":"admit","job":{"id":%d,"submit_s":%d}}`, i, i*30))
		payloads = append(payloads, p)
		buf.Write(EncodeFrame(p))
		ends = append(ends, int64(buf.Len()))
	}
	return buf.Bytes(), payloads, ends
}

// readAll drains a FrameReader, returning the payloads and the final
// error (io.EOF or ErrTornFrame).
func readAll(fr *FrameReader) ([][]byte, error) {
	var out [][]byte
	for {
		p, err := fr.Next()
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}

func TestFrameReaderRoundTrip(t *testing.T) {
	stream, payloads, ends := streamFrames(7)
	fr := NewFrameReader(bytes.NewReader(stream))
	got, err := readAll(fr)
	if err != io.EOF {
		t.Fatalf("clean stream ended with %v, want io.EOF", err)
	}
	if len(got) != len(payloads) {
		t.Fatalf("read %d frames, want %d", len(got), len(payloads))
	}
	for i := range got {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("frame %d: got %q want %q", i, got[i], payloads[i])
		}
	}
	if fr.Offset() != ends[len(ends)-1] || fr.Frames() != 7 {
		t.Fatalf("offset=%d frames=%d, want %d and 7", fr.Offset(), fr.Frames(), ends[len(ends)-1])
	}
}

// A replication stream can drop at any frame boundary; a fresh reader
// must resume from exactly there and deliver the remaining frames.
func TestFrameReaderResumeAtEveryBoundary(t *testing.T) {
	stream, payloads, ends := streamFrames(9)
	boundaries := append([]int64{0}, ends...)
	for _, cut := range boundaries {
		fr := NewFrameReader(bytes.NewReader(stream[cut:]))
		got, err := readAll(fr)
		if err != io.EOF {
			t.Fatalf("resume at %d: ended with %v, want io.EOF", cut, err)
		}
		skipped := 0
		for skipped < len(ends) && ends[skipped] <= cut {
			skipped++
		}
		if len(got) != len(payloads)-skipped {
			t.Fatalf("resume at %d: %d frames, want %d", cut, len(got), len(payloads)-skipped)
		}
		for i, p := range got {
			if !bytes.Equal(p, payloads[skipped+i]) {
				t.Fatalf("resume at %d: frame %d = %q, want %q", cut, i, p, payloads[skipped+i])
			}
		}
	}
}

// A disconnect can also land mid-frame, at any byte. The reader must
// surface the damage (never a short or garbled payload), report the
// last intact boundary in Offset, and a reconnect from that offset —
// against the full stream — must deliver every remaining frame.
func TestFrameReaderMidFrameDisconnect(t *testing.T) {
	stream, payloads, ends := streamFrames(5)
	for cut := 0; cut <= len(stream); cut++ {
		fr := NewFrameReader(bytes.NewReader(stream[:cut]))
		got, err := readAll(fr)

		intact := 0
		for intact < len(ends) && ends[intact] <= int64(cut) {
			intact++
		}
		if len(got) != intact {
			t.Fatalf("cut at %d: %d intact frames, want %d", cut, len(got), intact)
		}
		wantOff := int64(0)
		if intact > 0 {
			wantOff = ends[intact-1]
		}
		if fr.Offset() != wantOff {
			t.Fatalf("cut at %d: offset %d, want %d", cut, fr.Offset(), wantOff)
		}
		atBoundary := int64(cut) == wantOff
		if atBoundary && err != io.EOF {
			t.Fatalf("cut at boundary %d: %v, want io.EOF", cut, err)
		}
		if !atBoundary && err != ErrTornFrame {
			t.Fatalf("cut mid-frame at %d: %v, want ErrTornFrame", cut, err)
		}

		// Reconnect: resume the full stream at the reported offset.
		resumed, err := readAll(NewFrameReader(bytes.NewReader(stream[fr.Offset():])))
		if err != io.EOF || len(resumed) != len(payloads)-intact {
			t.Fatalf("cut at %d: resume read %d frames (%v), want %d", cut, len(resumed), err, len(payloads)-intact)
		}
	}
}

// Every single-bit flip anywhere in a frame must be rejected, and the
// frames before it must still decode.
func TestFrameReaderCRCFlipRejection(t *testing.T) {
	stream, _, ends := streamFrames(3)
	start := ends[0] // corrupt the middle frame, byte by byte
	for pos := start; pos < ends[1]; pos++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), stream...)
			mut[pos] ^= 1 << bit
			fr := NewFrameReader(bytes.NewReader(mut))
			got, err := readAll(fr)
			// A flip inside the length prefix can fabricate a longer
			// frame that swallows the rest of the stream; whatever it
			// fabricates must still fail the CRC or run out of bytes.
			if err != ErrTornFrame {
				t.Fatalf("flip at %d bit %d: err=%v, want ErrTornFrame", pos, bit, err)
			}
			if len(got) != 1 || fr.Offset() != ends[0] {
				t.Fatalf("flip at %d bit %d: %d intact frames at offset %d, want 1 at %d",
					pos, bit, len(got), fr.Offset(), ends[0])
			}
		}
	}
}

// The admission path encodes each record once, straight into its
// frame, and hands the WAL the frame and the replication feed the
// payload inside it; the frame must therefore be exactly
// EncodeFrame(payload), and appendFrame must write it as it is.
func TestWALAppendPayloadByteIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, _, _, err := openWAL(path, SyncAlways, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := walRecord{Kind: walKindAdmit, Job: walJob(0)}
	payload, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := appendRecordFrame([]byte("earlier frames"), rec)
	if err != nil {
		t.Fatal(err)
	}
	frame = frame[len("earlier frames"):]
	if err := w.appendFrame(frame, true); err != nil {
		t.Fatal(err)
	}
	w.close()
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, EncodeFrame(payload)) {
		t.Fatalf("on-disk bytes differ from EncodeFrame:\n disk: %x\n enc:  %x", onDisk, EncodeFrame(payload))
	}
}

// FuzzWALStream drives the streaming iterator with arbitrary bytes —
// the same corpus shapes as FuzzWALRecovery, but at the frame layer
// shared by WAL recovery and the replication transport:
//
//  1. iteration never panics; Offset is monotonic and never passes
//     the bytes consumed;
//  2. whatever decoded re-encodes to a stream that round-trips to the
//     identical payloads with a clean EOF;
//  3. the resume contract: a fresh reader over the remainder past
//     Offset reproduces the terminal result (EOF on empty, the same
//     torn-frame rejection otherwise) without yielding new frames.
func FuzzWALStream(f *testing.F) {
	admit := []byte(`{"kind":"admit","job":{"id":0,"submit_s":0,"duration_s":60,"cpu_pct":100,"mem_units":5,"deadline_factor":1.5}}`)
	seal := []byte(`{"kind":"seal"}`)
	valid := append(walFrame(admit), walFrame(seal)...)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	flipped := append([]byte(nil), valid...)
	flipped[walHeaderSize+2] ^= 0x40
	f.Add(flipped)
	f.Add(walFrame([]byte(`[1,2,3]`)))
	f.Add(append(valid, 0, 0, 0, 0, 0, 0, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		var payloads [][]byte
		last := int64(0)
		for {
			p, err := fr.Next()
			if fr.Offset() < last || fr.Offset() > int64(len(data)) {
				t.Fatalf("offset %d regressed below %d or passed input size %d", fr.Offset(), last, len(data))
			}
			last = fr.Offset()
			if err == io.EOF {
				if fr.Offset() != int64(len(data)) {
					t.Fatalf("clean EOF at offset %d with %d bytes", fr.Offset(), len(data))
				}
				break
			}
			if err != nil {
				if err != ErrTornFrame {
					t.Fatalf("unexpected error: %v", err)
				}
				break
			}
			payloads = append(payloads, p)
		}
		if fr.Frames() != len(payloads) {
			t.Fatalf("frame counter %d != %d payloads", fr.Frames(), len(payloads))
		}

		// Re-encode and round-trip.
		var re bytes.Buffer
		for _, p := range payloads {
			re.Write(EncodeFrame(p))
		}
		got, err := readAll(NewFrameReader(bytes.NewReader(re.Bytes())))
		if err != io.EOF || len(got) != len(payloads) {
			t.Fatalf("re-encoded stream: %d frames, %v", len(got), err)
		}
		for i := range got {
			if !bytes.Equal(got[i], payloads[i]) {
				t.Fatalf("re-encoded frame %d differs", i)
			}
		}

		// Resume past the intact prefix: deterministic terminal state,
		// no extra frames.
		rest, err := readAll(NewFrameReader(bytes.NewReader(data[last:])))
		if len(rest) != 0 {
			t.Fatalf("resume past intact prefix yielded %d frames", len(rest))
		}
		if last == int64(len(data)) {
			if err != io.EOF {
				t.Fatalf("resume on empty remainder: %v", err)
			}
		} else if err != ErrTornFrame {
			t.Fatalf("resume on damaged remainder: %v, want ErrTornFrame", err)
		}
	})
}

// allocatedPerRun is the bytes f allocates per call, averaged over
// runs calls.
func allocatedPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestFrameReaderClaimCostsWhatArrives: a length prefix is the writer's
// claim. Ten bytes that claim a 16 MiB payload are torn, and reading
// them allocates for the bytes that arrived, not for the claim.
func TestFrameReaderClaimCostsWhatArrives(t *testing.T) {
	var in [10]byte
	binary.LittleEndian.PutUint32(in[0:4], 16<<20)
	var err error
	per := allocatedPerRun(10, func() {
		_, err = NewFrameReader(bytes.NewReader(in[:])).Next()
	})
	if err != ErrTornFrame {
		t.Fatalf("a 16 MiB claim on 10 bytes read %v, want ErrTornFrame", err)
	}
	if per >= 1<<20 {
		t.Fatalf("a 16 MiB claim on 10 bytes allocated %d bytes, want under 1 MiB", per)
	}
}

// TestFrameReaderGrowsPayload: a payload several times frameChunk long,
// delivered in short reads, comes back whole, and so does one the
// stream cuts short, as torn.
func TestFrameReaderGrowsPayload(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 3*frameChunk/16+1)
	frame := EncodeFrame(payload)
	got, err := NewFrameReader(iotest.HalfReader(bytes.NewReader(frame))).Next()
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("a %d-byte payload read back %d bytes, %v", len(payload), len(got), err)
	}
	if _, err := NewFrameReader(bytes.NewReader(frame[:len(frame)-1])).Next(); err != ErrTornFrame {
		t.Fatalf("a payload cut one byte short read %v, want ErrTornFrame", err)
	}
}
