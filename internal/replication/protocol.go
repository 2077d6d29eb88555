// Package replication implements warm-standby high availability for
// energyschedd: a follower daemon continuously mirrors every fleet of
// a leader by streaming the leader's admission log and applying it
// through the same deterministic engine, so promotion lands on state
// byte-identical to the leader's (the same argument that makes crash
// recovery byte-identical — the log IS the state).
//
// The wire protocol is deliberately the WAL's own on-disk framing
// (length prefix + CRC-32C, internal/fleet.EncodeFrame): a torn or
// bit-flipped frame on the wire is detected exactly like a torn WAL
// tail on disk, and the follower reconnects and resumes at its last
// applied record offset. Inside each CRC frame is one JSON object:
//
//	hello     stream opening: the fleet's generation, head and clock,
//	          and on a bootstrap the length of the header that follows
//	snapshot  full-state bootstrap (generation mismatch or unservable
//	          offset): the leader's WAL header frame, byte for byte,
//	          bounded by the length its hello announced
//	record    one admission-log record with the leader's clock
//	ping      keepalive carrying the leader's clock and head, so an
//	          idle follower still tracks lag and virtual time
//
// The stream is a plain chunked HTTP response from
// GET /v1/fleets/{id}/replicate?gen=G&offset=O — resumable by logical
// record offset, which unlike a WAL byte offset never rewinds when
// the leader compacts its log.
package replication

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"energysched/internal/fleet"
)

// Frame kinds.
const (
	KindHello    = "hello"
	KindSnapshot = "snapshot"
	KindRecord   = "record"
	KindPing     = "ping"
)

// Frame is one message of the replication stream.
type Frame struct {
	Kind string `json:"kind"`
	// Gen is the fleet's timeline generation (hello).
	Gen int64 `json:"gen,omitempty"`
	// Head is the leader's log offset (hello, ping).
	Head int64 `json:"head,omitempty"`
	// Offset is the log offset after applying this frame (record).
	Offset int64 `json:"offset,omitempty"`
	// Now is the leader's virtual clock (hello, record, ping).
	Now float64 `json:"now,omitempty"`
	// Header is the payload length of the header frame that follows
	// (hello), 0 when none does.
	Header int64 `json:"header,omitempty"`
	// Record is the marshaled WAL record — the exact bytes the leader
	// appended to its own log (record frames).
	Record json.RawMessage `json:"record,omitempty"`
	// Payload is a snapshot frame's payload, verbatim and unparsed:
	// what fleet.ApplyReplHeader bootstraps from, and what WriteFrame
	// writes for the frame.
	Payload []byte `json:"-"`
}

// WriteFrame encodes one frame inside the WAL's CRC framing.
func WriteFrame(w io.Writer, fr Frame) error {
	payload := fr.Payload
	if fr.Kind != KindSnapshot {
		var err error
		if payload, err = json.Marshal(fr); err != nil {
			return fmt.Errorf("replication: encoding frame: %w", err)
		}
	}
	if _, err := w.Write(fleet.EncodeFrame(payload)); err != nil {
		return fmt.Errorf("replication: writing frame: %w", err)
	}
	return nil
}

// WriteHello opens a stream for sess: the hello frame, then — when sess
// bootstraps the follower — the leader's log header frame verbatim,
// its payload length announced by the hello.
func WriteHello(w io.Writer, sess *fleet.ReplSession) error {
	hello := Frame{Kind: KindHello, Gen: sess.Gen, Head: sess.Head, Now: sess.Now, Header: sess.HeaderLen()}
	if err := WriteFrame(w, hello); err != nil {
		return err
	}
	if _, err := w.Write(sess.Header); err != nil {
		return fmt.Errorf("replication: writing header: %w", err)
	}
	return nil
}

// Decoder reads CRC-checked frames off a replication stream.
type Decoder struct {
	fr *fleet.FrameReader
	// header is the payload length the last hello announced for the
	// frame after it, 0 once that frame is read or when none was.
	header int64
}

// NewDecoder returns a decoder reading frames from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{fr: fleet.NewFrameReader(r)}
}

// ErrUnannouncedSnapshot ends a stream that sends a snapshot frame no
// hello announced: the bootstrap of leaders before 73f0f79.
var ErrUnannouncedSnapshot = errors.New("replication: a snapshot frame no hello announced, " +
	"the bootstrap of a leader older than 73f0f79: upgrade the leader")

// Next returns the next frame. A frame a hello announced is the
// leader's log header: it is read within the announced length, not the
// record bound, and returned as a snapshot frame without being parsed.
// io.EOF marks a clean stream end; fleet.ErrTornFrame a damaged or
// half-delivered frame, and ErrUnannouncedSnapshot a snapshot frame
// without its hello — in every case the caller reconnects and resumes
// at its applied offset.
func (d *Decoder) Next() (Frame, error) {
	if n := d.header; n > 0 {
		d.header = 0
		payload, err := d.fr.NextWithin(n)
		if err != nil {
			return Frame{}, err
		}
		return Frame{Kind: KindSnapshot, Payload: payload}, nil
	}
	payload, err := d.fr.Next()
	if err != nil {
		return Frame{}, err
	}
	var fr Frame
	if err := json.Unmarshal(payload, &fr); err != nil {
		return Frame{}, fmt.Errorf("replication: decoding frame: %w", err)
	}
	switch fr.Kind {
	case KindHello:
		d.header = fr.Header
	case KindSnapshot:
		return Frame{}, ErrUnannouncedSnapshot
	}
	return fr, nil
}
