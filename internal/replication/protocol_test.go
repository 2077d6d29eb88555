package replication

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"energysched"
	"energysched/internal/fleet"
)

// The wire half of the replication contract: whatever reaches the
// follower's apply loop is a frame the leader wrote, whole — a damaged
// stream ends in an error, never in a different frame.

// header is a log header's payload, as a leader's wal.log starts with
// it and a bootstrap sends it.
const header = `{"kind":"snapshot","snapshot":{"format":"energyschedd-snapshot/v1","saved_virtual_s":1200,"sealed":false,"gen":3,"config":{"policy":"SB","seed":1,"lambda_min":30,"lambda_max":90},"jobs":[]}}`

// wireFrames is one of each frame kind, every field its kind carries
// set, in the order a stream sends them.
func wireFrames() []Frame {
	return []Frame{
		{Kind: KindHello, Gen: 3, Head: 41, Now: 1230.5, Header: int64(len(header))},
		{Kind: KindSnapshot, Payload: []byte(header)},
		{Kind: KindRecord, Offset: 41, Now: 1230.5,
			Record: json.RawMessage(`{"kind":"admit","job":{"id":40,"submit_s":1260,"duration_s":600,"cpu_pct":100,"mem_units":5,"deadline_factor":1.5}}`)},
		{Kind: KindPing, Head: 41, Now: 1290},
	}
}

// encode returns the stream of frames and the byte offset at which each
// one ends.
func encode(t testing.TB, frames []Frame) (stream []byte, ends []int) {
	t.Helper()
	var buf bytes.Buffer
	for _, fr := range frames {
		if err := WriteFrame(&buf, fr); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, buf.Len())
	}
	return buf.Bytes(), ends
}

// decodeAll reads frames until the stream ends and returns them with
// the terminal error.
func decodeAll(stream []byte) ([]Frame, error) {
	dec := NewDecoder(bytes.NewReader(stream))
	var out []Frame
	for {
		fr, err := dec.Next()
		if err != nil {
			return out, err
		}
		out = append(out, fr)
	}
}

// isPrefix reports whether got is exactly the first len(got) of sent.
func isPrefix(got, sent []Frame) bool {
	return len(got) <= len(sent) && (len(got) == 0 || reflect.DeepEqual(got, sent[:len(got)]))
}

func TestFrameRoundTrip(t *testing.T) {
	frames := wireFrames()
	for i, want := range frames {
		t.Run(want.Kind, func(t *testing.T) {
			sent := []Frame{want}
			if want.Kind == KindSnapshot {
				sent = frames[i-1 : i+1] // behind the hello that announces it
			}
			stream, _ := encode(t, sent)
			got, err := decodeAll(stream)
			if err != io.EOF || !reflect.DeepEqual(got, sent) {
				t.Fatalf("round trip = %+v, %v\nwant %+v and a clean EOF", got, err, sent)
			}
		})
	}
}

// A stream cut at any byte yields exactly the frames that were complete
// and then io.EOF at a frame boundary, fleet.ErrTornFrame inside one.
func TestStreamCutAtEveryByte(t *testing.T) {
	frames := wireFrames()
	stream, ends := encode(t, frames)
	for cut := 0; cut <= len(stream); cut++ {
		whole, boundary := 0, cut == 0
		for _, end := range ends {
			if end <= cut {
				whole++
			}
			boundary = boundary || end == cut
		}
		got, err := decodeAll(stream[:cut])
		if len(got) != whole || !isPrefix(got, frames) {
			t.Fatalf("cut at %d: decoded %d frames, want the first %d intact", cut, len(got), whole)
		}
		if boundary && err != io.EOF {
			t.Fatalf("cut at frame boundary %d: error %v, want io.EOF", cut, err)
		}
		if !boundary && !errors.Is(err, fleet.ErrTornFrame) {
			t.Fatalf("cut inside a frame at %d: error %v, want ErrTornFrame", cut, err)
		}
	}
}

// Flipping any byte of the stream never produces a different frame: the
// frames before the damage decode as sent, and the stream then ends in
// ErrTornFrame or a JSON decode error — not a clean EOF, not a panic.
func TestStreamFlipEveryByte(t *testing.T) {
	frames := wireFrames()
	stream, _ := encode(t, frames)
	for pos := range stream {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			damaged := bytes.Clone(stream)
			damaged[pos] ^= mask
			got, err := decodeAll(damaged)
			if err == io.EOF {
				t.Fatalf("flip %#x at %d: stream decoded cleanly to %d frames", mask, pos, len(got))
			}
			if len(got) == len(frames) || !isPrefix(got, frames) {
				t.Fatalf("flip %#x at %d: decoded %+v — a frame the leader never sent", mask, pos, got)
			}
		}
	}
}

// A frame kind this follower does not know (a newer leader) is skipped:
// the stream goes on, and the frames around it are applied.
func TestFollowerSkipsUnknownFrameKind(t *testing.T) {
	f, err := fleet.Open("m", fleet.Config{Sched: fleet.Sched{Policy: "SB", Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fw := NewFollower(Config{Leader: "http://127.0.0.1:1"})
	defer fw.Close()
	fw.fleets["m"] = &Position{}

	stream, _ := encode(t, []Frame{
		{Kind: KindHello, Gen: 1, Head: 1},
		{Kind: "compaction-hint", Offset: 7, Now: 99},
		{Kind: KindRecord, Offset: 1,
			Record: json.RawMessage(`{"kind":"admit","job":{"id":0,"submit_s":0,"duration_s":600,"cpu_pct":100,"mem_units":5,"deadline_factor":1.5}}`)},
		{Kind: KindPing, Head: 1, Now: 30},
	})
	dec := NewDecoder(bytes.NewReader(stream))
	for n := 0; ; n++ {
		frame, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !fw.apply("m", f, frame) {
			t.Fatalf("frame %d (%s) aborted the stream", n, frame.Kind)
		}
	}
	info, err := f.Info()
	if err != nil {
		t.Fatal(err)
	}
	if pos := fw.Status()["m"]; info.Jobs != 1 || info.Now != 30 || pos.Applied != 1 || pos.LeaderHead != 1 || pos.Gen != 1 {
		t.Fatalf("after the stream: fleet %+v, position %+v; want 1 job at t=30, applied 1 of 1", info, pos)
	}
}

// leader opens an in-memory fleet and admits n jobs named name, one
// every 30 virtual seconds.
func leader(t *testing.T, n int, name string) *fleet.Fleet {
	t.Helper()
	f, err := fleet.Open("l", fleet.Config{Sched: fleet.Sched{Policy: "SB", Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	for i := 0; i < n; i++ {
		at := float64(i) * 30
		if _, err := f.Submit(energysched.JobSpec{Name: name, CPU: 100, Mem: 5, Duration: 600, Submit: &at}); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// mirror returns a follower tracking fleet "m", and that fleet, durable
// in dir, for it to bootstrap.
func mirror(t *testing.T, dir string) (*Follower, *fleet.Fleet) {
	t.Helper()
	f, err := fleet.Open("m", fleet.Config{Sched: fleet.Sched{Policy: "SB", Seed: 1}, Dir: dir, WALSync: fleet.SyncOS})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	fw := NewFollower(Config{Leader: "http://127.0.0.1:1"})
	t.Cleanup(fw.Close)
	fw.fleets["m"] = &Position{}
	return fw, f
}

// follow applies every frame of stream to f through fw, as the apply
// loop does, and returns the stream's terminal error.
func follow(t *testing.T, fw *Follower, f *fleet.Fleet, stream []byte) error {
	t.Helper()
	dec := NewDecoder(bytes.NewReader(stream))
	for {
		frame, err := dec.Next()
		if err != nil {
			return err
		}
		if !fw.apply("m", f, frame) {
			t.Fatalf("a %s frame aborted the stream", frame.Kind)
		}
	}
}

// sameState fails unless the follower's fleet serves the leader's
// report and its wal.log, in dir, is the header the leader sends.
func sameState(t *testing.T, l, f *fleet.Fleet, dir string, header []byte) {
	t.Helper()
	want, err := l.Report()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := f.Report(); err != nil || got != want {
		t.Fatalf("the follower serves\n %+v (%v)\nwant the leader's\n %+v", got, err, want)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "wal.log")); err != nil || !bytes.Equal(got, header) {
		t.Fatalf("the follower's wal.log is %d bytes (%v), not the leader's %d-byte header", len(got), err, len(header))
	}
}

// TestBootstrapHeaderOverRecordBound: a job's name is free text, so 17
// jobs named by a MiB each make a log header over the 16 MiB record
// bound, as ~100 000 ordinary jobs would. After a hello that announces
// it, the header decodes whole and bootstraps the follower onto the
// leader's state and log bytes; the same frame without the announcement
// is still refused as torn.
func TestBootstrapHeaderOverRecordBound(t *testing.T) {
	l := leader(t, 17, strings.Repeat("x", 1<<20))
	sess, err := l.ReplSubscribe(-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.ReplUnsubscribe(sess)
	if sess.HeaderLen() <= 16<<20 {
		t.Fatalf("the header is %d bytes, not over the 16 MiB record bound", sess.HeaderLen())
	}
	var stream bytes.Buffer
	if err := WriteHello(&stream, sess); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fw, f := mirror(t, dir)
	if err := follow(t, fw, f, stream.Bytes()); err != io.EOF {
		t.Fatalf("the announced header ended the stream with %v, want a clean EOF", err)
	}
	if pos := fw.Status()["m"]; pos.Gen != sess.Gen || pos.Applied != 17 || pos.Lag() != 0 {
		t.Fatalf("after the bootstrap the position is %+v, want generation %d with 17 of 17 applied", pos, sess.Gen)
	}
	sameState(t, l, f, dir, sess.Header)

	unannounced, _ := encode(t, []Frame{{Kind: KindHello, Gen: sess.Gen, Head: sess.Head, Now: sess.Now}})
	fw, f = mirror(t, t.TempDir())
	if err := follow(t, fw, f, append(unannounced, sess.Header...)); !errors.Is(err, fleet.ErrTornFrame) {
		t.Fatalf("the unannounced header ended the stream with %v, want ErrTornFrame", err)
	}
	if pos := fw.Status()["m"]; pos.Applied != 0 {
		t.Fatalf("the refused header moved the position to %+v", pos)
	}
}

// TestHelloClaimCostsWhatArrives: a hello is the leader's claim too. A
// hello that announces a 4 GiB header, followed by a frame prefix that
// claims nearly as much and then the end of the stream, is torn, and
// decoding it allocates for the bytes that arrived, not for the claim.
func TestHelloClaimCostsWhatArrives(t *testing.T) {
	hello, _ := encode(t, []Frame{{Kind: KindHello, Gen: 3, Head: 41, Header: 4 << 30}})
	stream := binary.LittleEndian.AppendUint32(hello, math.MaxUint32)
	stream = binary.LittleEndian.AppendUint32(stream, 0)
	var err error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 10
	for range runs {
		var got []Frame
		if got, err = decodeAll(stream); len(got) != 1 || got[0].Kind != KindHello {
			t.Fatalf("decoded %+v before the claimed header, want the hello", got)
		}
	}
	runtime.ReadMemStats(&after)
	if !errors.Is(err, fleet.ErrTornFrame) {
		t.Fatalf("the claimed header ended the stream with %v, want ErrTornFrame", err)
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1<<20 {
		t.Fatalf("decoding a 4 GiB claim allocated %d bytes, want under 1 MiB", per)
	}
}

// TestUnannouncedSnapshotRefused: leaders before 73f0f79 bootstrapped
// a follower with a hello that announced nothing and the snapshot inside
// a JSON frame. That stream is refused by name, and the follower's
// fleet and position stay as they were.
func TestUnannouncedSnapshotRefused(t *testing.T) {
	l := leader(t, 5, "")
	sess, err := l.ReplSubscribe(-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.ReplUnsubscribe(sess)
	// The payload is the header's, with the JSON frame's fields in front.
	fields := bytes.TrimPrefix(sess.Header[8:], []byte(`{"kind":"snapshot",`))
	snapshot := append([]byte(`{"kind":"snapshot","gen":1,"offset":5,"now":120,`), fields...)
	stream, _ := encode(t, []Frame{{Kind: KindHello, Gen: sess.Gen, Head: sess.Head, Now: sess.Now}})
	stream = append(stream, fleet.EncodeFrame(snapshot)...)
	dir := t.TempDir()
	fw, f := mirror(t, dir)
	err = follow(t, fw, f, stream)
	if !errors.Is(err, ErrUnannouncedSnapshot) || !strings.Contains(err.Error(), "73f0f79") {
		t.Fatalf("the unannounced snapshot ended the stream with %v, want ErrUnannouncedSnapshot naming 73f0f79", err)
	}
	if info, err := f.Info(); err != nil || info.Jobs != 0 {
		t.Fatalf("the refused stream left the mirror at %+v (%v), want it empty", info, err)
	}
	if pos := fw.Status()["m"]; pos.Applied != 0 {
		t.Fatalf("the refused stream moved the position to %+v", pos)
	}
}

// FuzzReplDecoder feeds the decoder arbitrary bytes, seeded with the
// valid stream, each frame alone, cut and flipped variants, a hello
// and the header it announces, a snapshot frame no hello announced and
// a hello that announces more bytes than follow:
//
//  1. decoding never panics and ends in io.EOF, ErrTornFrame,
//     ErrUnannouncedSnapshot or a JSON decode error;
//  2. whatever decoded re-encodes, and the re-encoded stream decodes to
//     frames that encode to the same bytes — a fixed point, so nothing
//     the decoder accepts changes meaning on its way through a relay.
func FuzzReplDecoder(f *testing.F) {
	frames := wireFrames()
	stream, ends := encode(f, frames)
	f.Add(stream)
	for i, end := range ends {
		one, _ := encode(f, frames[i:i+1])
		f.Add(one)
		f.Add(stream[:end-3])
		flipped := bytes.Clone(stream)
		flipped[end-1] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte{})
	hello, _ := encode(f, frames[:2])
	f.Add(hello)
	bare, _ := encode(f, []Frame{{Kind: KindHello, Gen: 3, Head: 41}})
	f.Add(append(bare, fleet.EncodeFrame([]byte(header))...))
	short, _ := encode(f, []Frame{{Kind: KindHello, Gen: 3, Header: int64(len(header)) + 64}})
	f.Add(append(short, stream[ends[0]:ends[1]-8]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeAll(data)
		var syntax *json.SyntaxError
		var typ *json.UnmarshalTypeError
		if err != io.EOF && !errors.Is(err, fleet.ErrTornFrame) && !errors.Is(err, ErrUnannouncedSnapshot) &&
			!errors.As(err, &syntax) && !errors.As(err, &typ) {
			t.Fatalf("decoding ended in %v, not a terminal error of the stream", err)
		}
		once, _ := encode(t, got)
		again, err := decodeAll(once)
		if err != io.EOF || len(again) != len(got) {
			t.Fatalf("re-encoded stream decoded to %d frames (%v), want %d and a clean EOF", len(again), err, len(got))
		}
		if twice, _ := encode(t, again); !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not a fixed point:\n once %q\ntwice %q", once, twice)
		}
	})
}
