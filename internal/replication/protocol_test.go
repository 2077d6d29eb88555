package replication

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"

	"energysched/internal/fleet"
)

// The wire half of the replication contract: whatever reaches the
// follower's apply loop is a frame the leader wrote, whole — a damaged
// stream ends in an error, never in a different frame.

// wireFrames is one of each frame kind, every field its kind carries
// set, in the order a stream sends them.
func wireFrames() []Frame {
	return []Frame{
		{Kind: KindHello, Gen: 3, Head: 41, Now: 1230.5},
		{Kind: KindSnapshot, Gen: 3, Offset: 40, Now: 1200,
			Snapshot: json.RawMessage(`{"format":"energyschedd-snapshot/v1","saved_virtual_s":1200,"sealed":false,"gen":3,"config":{"policy":"SB","seed":1,"lambda_min":30,"lambda_max":90},"jobs":[]}`)},
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
	for _, want := range wireFrames() {
		t.Run(want.Kind, func(t *testing.T) {
			stream, _ := encode(t, []Frame{want})
			got, err := decodeAll(stream)
			if err != io.EOF || len(got) != 1 || !reflect.DeepEqual(got[0], want) {
				t.Fatalf("round trip = %+v, %v\nwant %+v and a clean EOF", got, err, want)
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

// FuzzReplDecoder feeds the decoder arbitrary bytes, seeded with the
// valid stream, each frame alone, and cut and flipped variants:
//
//  1. decoding never panics and ends in io.EOF, ErrTornFrame or a JSON
//     decode error;
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
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeAll(data)
		if err == nil {
			t.Fatal("decodeAll returned without a terminal error")
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
