package bodybuf

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

func TestReadHandsOverTheWholeBody(t *testing.T) {
	for _, size := range []int64{-1, 0, 5, 11, 1 << 30} { // unknown, exact, short and absurd declared lengths
		var got string
		err := Read(strings.NewReader("hello world"), size, func(body []byte) error {
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
	err := Read(iotest.ErrReader(broken), -1, func([]byte) error {
		t.Error("use called after a failed read")
		return nil
	})
	if !errors.Is(err, broken) {
		t.Errorf("read error = %v", err)
	}
	rejected := errors.New("rejected")
	if err := Read(strings.NewReader("x"), 1, func([]byte) error { return rejected }); !errors.Is(err, rejected) {
		t.Errorf("use error = %v", err)
	}
}

// A body past maxPooled is served but its buffer is not kept.
func TestReadDropsOversizedBuffers(t *testing.T) {
	big := io.LimitReader(neverEnding('x'), maxPooled+1)
	if err := Read(big, -1, func(b []byte) error {
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

type neverEnding byte

func (b neverEnding) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}
