// Package bodybuf reads and encodes HTTP bodies through pooled buffers.
// Both ends of the wire decode and encode small JSON bodies at a high
// rate — the daemon a job per POST, the client a reply per call — and
// handling each in a fresh doubling buffer (io.ReadAll, json.Decoder)
// was most of their bytes allocated per job.
package bodybuf

import (
	"bytes"
	"io"
	"sync"
)

var pool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooled bounds what is kept or grown up front: a buffer that one
// large body stretched past it is dropped instead of pinned in the
// pool, and a declared length above it (lengths are the peer's claim)
// is left to grow as the bytes actually arrive.
const maxPooled = 1 << 20

// Read reads r to EOF into a pooled buffer — sized once up front when
// the body's length is known (size > 0), not by doubling — and hands
// the bytes to use. They are valid only until use returns. The caller
// bounds r (http.MaxBytesReader, io.LimitReader); Read's error is r's
// or use's.
func Read(r io.Reader, size int64, use func(body []byte) error) error {
	buf := pool.Get().(*bytes.Buffer)
	defer put(buf)
	if size > 0 && size <= maxPooled {
		// ReadFrom wants MinRead spare bytes to observe EOF.
		buf.Grow(int(size) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return err
	}
	return use(buf.Bytes())
}

// Encode has encode append a body to a pooled buffer and hands the
// bytes to use. They are valid only until use returns. The error is
// encode's or use's; use is not called when encode fails.
func Encode(encode func(b []byte) ([]byte, error), use func(body []byte) error) error {
	buf := pool.Get().(*bytes.Buffer)
	defer put(buf)
	body, err := encode(buf.AvailableBuffer())
	if err != nil {
		return err
	}
	if len(body) > buf.Cap() {
		// Keep the capacity the body needed for the next one.
		buf.Grow(len(body))
	}
	return use(body)
}

func put(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooled {
		buf.Reset()
		pool.Put(buf)
	}
}
