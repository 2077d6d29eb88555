package bodybuf

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"testing/iotest"
)

func TestReadHandsOverTheWholeBody(t *testing.T) {
	for _, size := range []int64{-1, 0, 5, 11, 1 << 30} { // unknown, exact, short and absurd declared lengths
		var got string
		err := Read(strings.NewReader("hello world"), size, 0, func(body []byte) error {
			got = string(body)
			return nil
		})
		if err != nil || got != "hello world" {
			t.Errorf("size %d: got %q, %v", size, got, err)
		}
	}
}

func TestReadReturnsReaderAndUseErrors(t *testing.T) {
	broken := errors.New("broken pipe")
	err := Read(iotest.ErrReader(broken), -1, 0, func([]byte) error {
		t.Error("use called after a failed read")
		return nil
	})
	if !errors.Is(err, broken) {
		t.Errorf("read error = %v", err)
	}
	rejected := errors.New("rejected")
	if err := Read(strings.NewReader("x"), 1, 0, func([]byte) error { return rejected }); !errors.Is(err, rejected) {
		t.Errorf("use error = %v", err)
	}
}

// A body past maxPooled is served but its buffer is not kept.
func TestReadDropsOversizedBuffers(t *testing.T) {
	big := io.LimitReader(neverEnding('x'), maxPooled+1)
	if err := Read(big, -1, 0, func(b []byte) error {
		if len(b) != maxPooled+1 {
			t.Errorf("read %d bytes", len(b))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if buf := pool.Get().(*bytes.Buffer); buf.Cap() > maxPooled {
			t.Fatalf("pool kept a %d-byte buffer", buf.Cap())
		}
	}
}

// A body over the limit is refused once limit+1 bytes have arrived —
// from a reader that never ends, too — and one at the limit is served,
// whatever its declared length and however the reader splits it.
func TestReadEnforcesLimit(t *testing.T) {
	const limit = 1000
	for _, size := range []int64{-1, 0, limit, 1 << 30} {
		err := Read(neverEnding('x'), size, limit, func([]byte) error {
			t.Errorf("size %d: use called on a body past the limit", size)
			return nil
		})
		var tooLarge *http.MaxBytesError
		if !errors.As(err, &tooLarge) || tooLarge.Limit != limit {
			t.Errorf("size %d: err = %v, want a MaxBytesError at %d", size, err, limit)
		}
	}
	body := strings.Repeat("y", limit)
	for _, r := range []io.Reader{strings.NewReader(body), iotest.OneByteReader(strings.NewReader(body)), iotest.DataErrReader(strings.NewReader(body))} {
		var got int
		if err := Read(r, -1, limit, func(b []byte) error { got = len(b); return nil }); err != nil || got != limit {
			t.Errorf("%T: read %d bytes, %v; want %d", r, got, err, limit)
		}
	}
}

type neverEnding byte

func (b neverEnding) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}
